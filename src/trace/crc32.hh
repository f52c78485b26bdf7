/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte
 * buffers. Each block of a v3 streaming trace carries the CRC of its
 * compressed payload in the block frame, so a reader detects a
 * corrupted block the moment it loads it — per block, not per file —
 * and names the block in the diagnostic instead of silently replaying
 * garbage references into a study.
 *
 * The CRC runs on every block the writer flushes and every block the
 * reader loads, so it is computed slice-by-8: eight 256-entry tables
 * fold eight input bytes per step instead of one. The values are those
 * of the classic one-byte-per-lookup loop (crc32("123456789") is
 * 0xCBF43926), so traces written before and after verify alike. The
 * code is portable C++: bytes are assembled explicitly, so it is
 * endian-neutral, and there are no intrinsics and no CPU dispatch.
 */

#ifndef WSG_TRACE_CRC32_HH
#define WSG_TRACE_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace wsg::trace
{

namespace detail
{

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/** Slice-by-8 tables: [0] is the bytewise table; [k][i] is the CRC of
 *  byte i followed by k zero bytes. */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** The four bytes at @p p as a little-endian word. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace detail

/** CRC-32 of @p n bytes at @p data. */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    const auto &t = detail::kCrc32Tables;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        std::uint32_t lo = crc ^ detail::loadLe32(p);
        std::uint32_t hi = detail::loadLe32(p + 4);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

} // namespace wsg::trace

#endif // WSG_TRACE_CRC32_HH
