#include "serve/protocol.hh"

#include <cassert>
#include <cerrno>
#include <charconv>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "stats/json_parse.hh"
#include "stats/json_report.hh"

namespace wsg::serve
{

namespace
{

const char *
opName(Op op)
{
    switch (op) {
    case Op::Study:
        return "study";
    case Op::Stats:
        return "stats";
    case Op::Ping:
        return "ping";
    case Op::Shutdown:
        return "shutdown";
    }
    return "ping";
}

Op
opFromName(const std::string &name)
{
    if (name == "study")
        return Op::Study;
    if (name == "stats")
        return Op::Stats;
    if (name == "ping")
        return Op::Ping;
    if (name == "shutdown")
        return Op::Shutdown;
    throw ProtocolError("unknown op: " + name);
}

/** Whether @p text is one JSON number, as a numeric axis must be. */
bool
isJsonNumber(const std::string &text)
{
    try {
        return stats::parseJson(text).isNumber();
    } catch (const stats::JsonParseError &) {
        return false;
    }
}

/** Append `"key":<encoded value>` with a leading comma when needed. */
void
appendField(std::string &out, const char *key, const std::string &json)
{
    if (out.back() != '{')
        out += ',';
    out += stats::JsonWriter::quote(key);
    out += ':';
    out += json;
}

void
appendString(std::string &out, const char *key, const std::string &v)
{
    appendField(out, key, stats::JsonWriter::quote(v));
}

void
appendNumber(std::string &out, const char *key, double v)
{
    appendField(out, key, stats::JsonWriter::formatDouble(v));
}

void
appendCount(std::string &out, const char *key, std::uint64_t v)
{
    appendField(out, key, std::to_string(v));
}

void
appendBool(std::string &out, const char *key, bool v)
{
    appendField(out, key, v ? "true" : "false");
}

double
numberField(const stats::JsonValue &obj, const char *key, double fallback)
{
    const stats::JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind() != stats::JsonValue::Kind::Number)
        throw ProtocolError(std::string(key) + " must be a number");
    return v->asNumber();
}

std::string
stringField(const stats::JsonValue &obj, const char *key,
            const std::string &fallback)
{
    const stats::JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind() != stats::JsonValue::Kind::String)
        throw ProtocolError(std::string(key) + " must be a string");
    return v->asString();
}

bool
boolField(const stats::JsonValue &obj, const char *key, bool fallback)
{
    const stats::JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind() != stats::JsonValue::Kind::Bool)
        throw ProtocolError(std::string(key) + " must be a bool");
    return v->asBool();
}

stats::JsonValue
parseObjectLine(std::string_view line, const char *what)
{
    stats::JsonValue root;
    try {
        root = stats::parseJson(line);
    } catch (const stats::JsonParseError &e) {
        throw ProtocolError(std::string(what) + ": " + e.what());
    }
    if (root.kind() != stats::JsonValue::Kind::Object)
        throw ProtocolError(std::string(what) + ": not a JSON object");
    return root;
}

} // namespace

std::string &
Request::axis(std::string_view key)
{
    for (std::size_t k = 0; k < axes.size(); ++k)
        if (key == core::kAxisInputs[k].wireKey)
            return axes[k];
    throw std::invalid_argument("unknown axis wire key: " +
                                std::string(key));
}

core::StudyConfig
Request::studyConfig() const
{
    core::StudyConfig base;
    core::AxisInputSet given = 0;
    try {
        for (std::size_t k = 0; k < axes.size(); ++k) {
            const core::AxisInput &input = core::kAxisInputs[k];
            if (axes[k].empty())
                continue;
            core::applyAxisInput(input, base, axes[k], input.wireKey);
            given |= core::AxisInputSet{1} << k;
        }
        core::checkAxisCombination(base, given, true);
    } catch (const std::invalid_argument &e) {
        throw ProtocolError(e.what());
    }
    base.analyzeRaces = analyzeRaces;
    if (!(timeoutSeconds >= 0.0))
        throw ProtocolError("timeout_seconds must be >= 0");
    base.timeoutSeconds = timeoutSeconds;
    if (pointsPerOctave != 0.0) {
        if (!(pointsPerOctave >= 1.0 && pointsPerOctave <= 64.0) ||
            pointsPerOctave != static_cast<int>(pointsPerOctave))
            throw ProtocolError(
                "points_per_octave must be an integer in [1, 64]");
        base.pointsPerOctave = static_cast<int>(pointsPerOctave);
    }
    return base;
}

std::string
encodeRequest(const Request &req)
{
    std::string out = "{";
    appendString(out, "op", opName(req.op));
    if (req.op == Op::Study) {
        appendString(out, "preset", req.preset);
        for (std::size_t k = 0; k < req.axes.size(); ++k) {
            const core::AxisInput &input = core::kAxisInputs[k];
            if (req.axes[k].empty())
                continue;
            if (!input.numeric) {
                appendString(out, input.wireKey, req.axes[k]);
                continue;
            }
            if (!isJsonNumber(req.axes[k]))
                throw ProtocolError(std::string(input.wireKey) +
                                    " needs a JSON number, got '" +
                                    req.axes[k] + "'");
            appendField(out, input.wireKey, req.axes[k]);
        }
        if (req.analyzeRaces)
            appendBool(out, "analyze_races", true);
        if (req.timeoutSeconds != 0.0)
            appendNumber(out, "timeout_seconds", req.timeoutSeconds);
        if (req.pointsPerOctave != 0.0)
            appendNumber(out, "points_per_octave", req.pointsPerOctave);
    }
    out += "}\n";
    return out;
}

Request
parseRequest(std::string_view line)
{
    stats::JsonValue root = parseObjectLine(line, "request");
    Request req;
    req.op = opFromName(stringField(root, "op", ""));
    req.preset = stringField(root, "preset", "");
    if (req.op == Op::Study && req.preset.empty())
        throw ProtocolError("study request needs a preset");
    for (std::size_t k = 0; k < req.axes.size(); ++k) {
        const core::AxisInput &input = core::kAxisInputs[k];
        if (!input.numeric) {
            req.axes[k] = stringField(root, input.wireKey, "");
            continue;
        }
        double v = numberField(root, input.wireKey, 0.0);
        if (v != 0.0)
            req.axes[k] = wireNumberText(v);
    }
    req.analyzeRaces = boolField(root, "analyze_races", false);
    req.timeoutSeconds = numberField(root, "timeout_seconds", 0.0);
    req.pointsPerOctave = numberField(root, "points_per_octave", 0.0);
    return req;
}

std::string
wireNumberText(double v)
{
    // The longest fixed forms: 309 digits for 1.8e308, 326 for 5e-324.
    char buf[400];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed);
    assert(ec == std::errc());
    (void)ec;
    return std::string(buf, ptr);
}

std::string
encodeResponseHeader(const ResponseHeader &header)
{
    std::string out = "{";
    appendString(out, "schema", "wsg-serve-response-v1");
    appendString(out, "status", header.status);
    if (!header.cache.empty())
        appendString(out, "cache", header.cache);
    if (!header.tier.empty())
        appendString(out, "tier", header.tier);
    if (!header.hash.empty())
        appendString(out, "hash", header.hash);
    if (header.timedOut)
        appendBool(out, "timed_out", true);
    if (!header.error.empty())
        appendString(out, "error", header.error);
    appendCount(out, "payload_bytes", header.payloadBytes);
    out += "}\n";
    return out;
}

ResponseHeader
parseResponseHeader(std::string_view line)
{
    stats::JsonValue root = parseObjectLine(line, "response header");
    std::string schema = stringField(root, "schema", "");
    if (schema != "wsg-serve-response-v1")
        throw ProtocolError("unexpected response schema: " + schema);
    ResponseHeader header;
    header.status = stringField(root, "status", "");
    if (header.status.empty())
        throw ProtocolError("response header misses status");
    header.cache = stringField(root, "cache", "");
    header.tier = stringField(root, "tier", "");
    header.hash = stringField(root, "hash", "");
    header.error = stringField(root, "error", "");
    header.timedOut = boolField(root, "timed_out", false);
    double bytes = numberField(root, "payload_bytes", 0.0);
    if (bytes < 0.0)
        throw ProtocolError("payload_bytes must be >= 0");
    header.payloadBytes = static_cast<std::uint64_t>(bytes);
    return header;
}

ResponseHeader
studyResponseHeader(const Response &response)
{
    ResponseHeader header;
    header.hash = response.hash;
    header.error = response.error;
    header.timedOut = response.timedOut;
    switch (response.status) {
    case Status::Ok:
        header.status = "ok";
        break;
    case Status::BadRequest:
        header.status = "bad_request";
        break;
    case Status::Overloaded:
        header.status = "overloaded";
        break;
    case Status::Failed:
        header.status = "failed";
        break;
    }
    if (response.status == Status::Ok) {
        switch (response.outcome) {
        case Outcome::MemoryHit:
            header.cache = "hit";
            header.tier = "memory";
            break;
        case Outcome::DiskHit:
            header.cache = "hit";
            header.tier = "disk";
            break;
        case Outcome::Computed:
            header.cache = "miss";
            break;
        case Outcome::Join:
            header.cache = "join";
            break;
        }
        header.payloadBytes = response.payload.size();
    }
    return header;
}

bool
readLine(int fd, std::string &line, std::size_t maxLen)
{
    line.clear();
    for (;;) {
        char c = 0;
        ssize_t n = ::read(fd, &c, 1);
        if (n == 0) {
            if (line.empty())
                return false;
            throw ProtocolError("connection closed mid-line");
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("read: ") +
                                std::strerror(errno));
        }
        if (c == '\n')
            return true;
        if (line.size() >= maxLen)
            throw ProtocolError("protocol line too long");
        line.push_back(c);
    }
}

std::string
readExact(int fd, std::size_t n)
{
    std::string out(n, '\0');
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, out.data() + got, n - got);
        if (r == 0)
            throw ProtocolError("connection closed mid-payload");
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("read: ") +
                                std::strerror(errno));
        }
        got += static_cast<std::size_t>(r);
    }
    return out;
}

void
writeAll(int fd, std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        ssize_t r = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw ProtocolError(std::string("send: ") +
                                std::strerror(errno));
        }
        sent += static_cast<std::size_t>(r);
    }
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw ProtocolError("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ProtocolError(std::string("socket: ") +
                            std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        throw ProtocolError("connect " + path + ": " +
                            std::strerror(err));
    }
    return fd;
}

Reply
roundTrip(int fd, const Request &req)
{
    writeAll(fd, encodeRequest(req));
    std::string line;
    if (!readLine(fd, line))
        throw ProtocolError("connection closed before response");
    Reply reply;
    reply.header = parseResponseHeader(line);
    if (reply.header.payloadBytes > 0)
        reply.payload = readExact(
            fd, static_cast<std::size_t>(reply.header.payloadBytes));
    return reply;
}

} // namespace wsg::serve
