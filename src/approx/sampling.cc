#include "approx/sampling.hh"

#include <cerrno>
#include <cstdlib>

#include "stats/json_report.hh"

namespace wsg::approx
{

SamplingConfig
parseSamplingLabel(const std::string &label)
{
    SamplingConfig config;
    if (label == "exact")
        return config;
    // Both numeric forms have a five-character prefix.
    const char *tail = label.size() >= 5 ? label.c_str() + 5 : "";
    char *end = nullptr;
    if (label.starts_with("rate:")) {
        config.mode = SamplingMode::FixedRate;
        config.rate = std::strtod(tail, &end);
        if (*tail != '\0' && *end == '\0' && config.rate > 0.0 &&
            config.rate <= 1.0)
            return config;
        throw std::invalid_argument("sampling '" + label +
                                    "' needs a rate in (0, 1]");
    }
    if (label.starts_with("size:")) {
        config.mode = SamplingMode::FixedSize;
        errno = 0;
        config.maxLines = std::strtoull(tail, &end, 10);
        // strtoull wraps a minus sign and saturates on overflow.
        if (*tail != '\0' && *end == '\0' && errno != ERANGE &&
            label.find('-') == std::string::npos && config.maxLines > 0)
            return config;
        throw std::invalid_argument(
            "sampling '" + label +
            "' needs a positive line count of at most 2^64 - 1");
    }
    throw std::invalid_argument("unknown sampling mode '" + label +
                                "' (expected exact, rate:R or size:N)");
}

std::string
samplingLabel(const SamplingConfig &config)
{
    switch (config.mode) {
      case SamplingMode::FixedRate:
        return "rate:" + stats::JsonWriter::formatDouble(config.rate);
      case SamplingMode::FixedSize:
        return "size:" + std::to_string(config.maxLines);
      case SamplingMode::None: break;
    }
    return "exact";
}

} // namespace wsg::approx
