/**
 * @file
 * Wire protocol between wsg-submit and wsg-served: line-delimited JSON
 * control messages over a Unix-domain stream socket, with report
 * payloads framed as raw bytes.
 *
 * Request (client -> server): exactly one JSON object on one line.
 *
 *   {"op":"study","preset":"fig5-fft-radix8", ...overrides}\n
 *
 * ops: "study" (requires "preset"), "stats", "ping", "shutdown".
 * Study overrides mirror the runner CLI: the axis wire keys of
 * core/study_axes.hh — "sample_rate" and "sample_size" (numbers;
 * mutually exclusive), "profiler", "protocol", "hierarchy" and
 * "scheduler" (label strings) — plus "analyze_races" (bool),
 * "timeout_seconds" and "points_per_octave". A 0 or "" override is
 * the default. A value of the wrong JSON type is a malformed request;
 * a value the study rejects (an unknown protocol, a fractional
 * sample_size) is a bad request, answered on a live connection. The
 * preset itself may carry a variant suffix
 * ("fig2-lu-B16@size=small@line=32", see core/suite), which is how the
 * campaign driver sweeps problem and line sizes over the same wire
 * format.
 *
 * Response (server -> client): one JSON header line, then exactly
 * `payload_bytes` raw bytes.
 *
 *   {"schema":"wsg-serve-response-v1","status":"ok","cache":"hit",
 *    "tier":"memory","hash":"<16 hex>","payload_bytes":N}\n
 *   <N bytes of report JSON>
 *
 * The payload is framed raw (not JSON-string-escaped) so the served
 * report is byte-identical to the figure bench's --json artifact —
 * the property the content-addressed cache and CI smoke test rely on.
 * Header fields "cache" ("hit"/"miss"/"join"), "tier" ("memory"/
 * "disk"), "hash", "timed_out" and "error" appear only when relevant;
 * "status" is one of "ok", "bad_request", "overloaded", "failed",
 * "shutting_down".
 *
 * Encoding is hand-assembled in field order (no map iteration), so
 * messages are deterministic; parsing uses stats/json_parse and
 * tolerates unknown fields, so the two sides can evolve independently.
 */

#ifndef WSG_SERVE_PROTOCOL_HH
#define WSG_SERVE_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/study_axes.hh"
#include "serve/study_service.hh"

namespace wsg::serve
{

/** Malformed message or broken connection framing. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Request operation. */
enum class Op : std::uint8_t
{
    Study,
    Stats,
    Ping,
    Shutdown,
};

/** A decoded request line. */
struct Request
{
    Op op = Op::Ping;
    /** Preset name (Op::Study). */
    std::string preset;
    /**
     * Axis overrides as wire values, indexed like the wire inputs that
     * lead core::kAxisInputs; "" = absent, i.e. the axis default.
     * Numeric inputs hold JSON number text ("0.25"), which
     * encodeRequest() checks; values are checked by studyConfig(),
     * not when set or parsed.
     */
    std::array<std::string, core::kWireInputCount> axes;
    bool analyzeRaces = false;
    /** > 0 arms the per-study watchdog. */
    double timeoutSeconds = 0.0;
    /** > 0 overrides the sweep resolution (an integer in [1, 64]). */
    double pointsPerOctave = 0.0;

    /** The wire value of the axis input with wire key @p key.
     *  @throws std::invalid_argument on an unknown key. */
    std::string &axis(std::string_view key);

    /** The cross-cutting StudyConfig these overrides describe.
     *  @throws ProtocolError on a bad value or combination. */
    core::StudyConfig studyConfig() const;
};

/** Serialize @p req as one line (newline included).
 *  @throws ProtocolError when a numeric axis holds text that is not
 *  a JSON number, which would make the line malformed. */
std::string encodeRequest(const Request &req);

/** A numeric wire value as Request::axes holds it: shortest digits in
 *  fixed notation ("100000", never "1e+05", which size:N refuses). */
std::string wireNumberText(double v);

/** Parse one request line. @throws ProtocolError on malformed input. */
Request parseRequest(std::string_view line);

/** A decoded response header line. */
struct ResponseHeader
{
    /** "ok", "bad_request", "overloaded", "failed", "shutting_down". */
    std::string status;
    /** "hit", "miss", "join", or "" when not a study response. */
    std::string cache;
    /** "memory", "disk", or "" when not a cache hit. */
    std::string tier;
    /** Config hash; "" when unknown. */
    std::string hash;
    std::string error;
    bool timedOut = false;
    std::uint64_t payloadBytes = 0;
};

/** Serialize @p header as one line (newline included). */
std::string encodeResponseHeader(const ResponseHeader &header);

/** Parse one header line. @throws ProtocolError on malformed input. */
ResponseHeader parseResponseHeader(std::string_view line);

/** Build the header for a study Response (payload framed separately). */
ResponseHeader studyResponseHeader(const Response &response);

// --- blocking socket IO helpers (per-connection threads) ---

/**
 * Read bytes up to and including '\n' into @p line (newline stripped).
 * @return false on clean EOF before any byte was read.
 * @throws ProtocolError on IO error, EOF mid-line, or a line longer
 *         than @p maxLen.
 */
bool readLine(int fd, std::string &line, std::size_t maxLen = 1 << 16);

/** Read exactly @p n bytes. @throws ProtocolError on EOF/IO error. */
std::string readExact(int fd, std::size_t n);

/** Write all of @p data. @throws ProtocolError on IO error. */
void writeAll(int fd, std::string_view data);

// --- client-side convenience ---

/** A full response: header plus (possibly empty) payload bytes. */
struct Reply
{
    ResponseHeader header;
    std::string payload;
};

/**
 * Connect to the daemon's Unix-domain socket.
 * @return the connected fd (caller closes).
 * @throws ProtocolError when the path is too long or connect fails.
 */
int connectUnix(const std::string &path);

/**
 * Send @p req on @p fd and read the complete response. The connection
 * stays usable for further round trips.
 */
Reply roundTrip(int fd, const Request &req);

} // namespace wsg::serve

#endif // WSG_SERVE_PROTOCOL_HH
