/**
 * @file
 * LEB128 varints and zigzag transforms — the integer codec under the
 * streaming (v3) trace format.
 *
 * Trace bodies are dominated by addresses that move in small strides,
 * so v3 stores each data record's address as a zigzag-coded delta from
 * the previous address in the block and every other field as a plain
 * varint: sequential sweeps encode in 1–2 bytes where the packed v2
 * record spends 8. The decoder is bounds-checked against the block it
 * reads from — a varint running past the block payload is corruption,
 * reported by the caller, never an out-of-bounds read.
 */

#ifndef WSG_TRACE_VARINT_HH
#define WSG_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace wsg::trace
{

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t kMaxVarintBytes = 10;

/**
 * Encode @p v as an LEB128 varint (1–10 bytes) at @p p, advancing it
 * past the encoding. The caller guarantees kMaxVarintBytes of room;
 * the trace writer encodes straight into its block buffer this way.
 */
inline void
putVarint(unsigned char *&p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
}

/** Append @p v to @p out as an LEB128 varint (1–10 bytes). */
inline void
appendVarint(std::string &out, std::uint64_t v)
{
    unsigned char buf[kMaxVarintBytes];
    unsigned char *end = buf;
    putVarint(end, v);
    out.append(reinterpret_cast<const char *>(buf),
               static_cast<std::size_t>(end - buf));
}

/** Map a signed delta to an unsigned value with small magnitudes
 *  staying small (0,-1,1,-2,... -> 0,1,2,3,...). */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Decode one varint from [@p p, @p end), advancing @p p past it.
 * @return false when the buffer ends inside the varint or the value
 *         does not fit 64 bits (a tenth byte above 0x01). Both are
 *         block corruption; @p p is then unspecified and the caller
 *         must stop reading the block.
 */
inline bool
readVarint(const unsigned char *&p, const unsigned char *end,
           std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; p < end; shift += 7) {
        unsigned char byte = *p++;
        if (shift == 63 && byte > 0x01)
            return false;
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
    }
    return false;
}

} // namespace wsg::trace

#endif // WSG_TRACE_VARINT_HH
