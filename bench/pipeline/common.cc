#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "approx/profiler_factory.hh"
#include "memsys/cache.hh"
#include "pipeline.hh"
#include "sinks.hh"
#include "stats/hash.hh"
#include "stats/json_report.hh"

namespace wsg::pipeline
{

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (errors.size() < 16)
        errors.push_back(what);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t
passesFor(const Options &options, double nominal_pass_s)
{
    if (options.smoke)
        return 1;
    double passes = std::round(options.seconds / nominal_pass_s);
    return passes < 1.0 ? 1 : static_cast<std::uint64_t>(passes);
}

double
studyMetrics(const std::vector<std::vector<double>> &seconds,
             Outcome &out)
{
    std::vector<double> fastest;
    for (const std::vector<double> &s : seconds)
        fastest.push_back(*std::min_element(s.begin(), s.end()));
    double pass_s = 0.0;
    for (double s : fastest)
        pass_s += s;
    out.metrics["ops_per_s"] = static_cast<double>(fastest.size()) / pass_s;
    // Median over studies, not over pooled samples: the studies differ
    // 60x in length, so a pooled median would jump between studies.
    out.metrics["op_ms_p50"] = median(fastest) * 1e3;
    return pass_s;
}

double
peakRssMib()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

/** digests.txt, parsed into study name -> digest. */
std::map<std::string, std::string>
loadPins(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digest pins " + path);
    std::map<std::string, std::string> pins;
    std::string line;
    int number = 0;
    while (std::getline(in, line)) {
        ++number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest, extra;
        fields >> name >> digest;
        if (digest.size() != 16 || (fields >> extra) ||
            !pins.emplace(name, digest).second) {
            throw std::runtime_error(path + ":" + std::to_string(number) +
                                     ": expected '<study> <16 hex>' "
                                     "with each study pinned once");
        }
    }
    return pins;
}

} // namespace

std::string
checkPinned(const std::string &name, const std::string &bytes)
{
    static const std::map<std::string, std::string> pins =
        loadPins(WSG_PIPELINE_DIGESTS);
    std::string actual = stats::fnv1a64Hex(bytes);
    auto it = pins.find(name);
    if (it == pins.end())
        return name + ": no pinned digest (report digest " + actual + ")";
    if (it->second != actual)
        return name + ": report digest " + actual + " != pinned " +
               it->second;
    return "";
}

void
SpanLog::aggregate(const std::string &study, const std::string &layer,
                   const std::string &parent, std::uint64_t count,
                   std::uint64_t ns)
{
    aggregates_.push_back({study, layer, parent, count, ns});
}

void
SpanLog::coarse(const std::string &study, const std::string &layer,
                const std::string &parent, std::uint64_t start_ns,
                std::uint64_t end_ns)
{
    coarse_.push_back(
        {study, layer, parent, start_ns - originNs_, end_ns - start_ns});
}

void
SpanLog::write(const std::string &path, const std::string &workload) const
{
    std::ofstream out(path);
    stats::JsonWriter w(out, true);
    w.beginObject();
    w.member("schema", "wsg-pipeline-spans-v1");
    w.member("workload", workload);
    w.key("aggregates");
    w.beginArray();
    for (const Aggregate &a : aggregates_) {
        w.beginObject();
        w.member("study", a.study);
        w.member("layer", a.layer);
        w.member("parent", a.parent);
        w.member("count", a.count);
        w.member("total_ns", a.ns);
        w.endObject();
    }
    w.endArray();
    w.key("spans");
    w.beginArray();
    for (const Coarse &c : coarse_) {
        w.beginObject();
        w.member("study", c.study);
        w.member("layer", c.layer);
        w.member("parent", c.parent);
        w.member("start_ns", c.startNs);
        w.member("dur_ns", c.durNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

std::string
LayerTotals::addStudy(const std::string &name, const std::string &producer,
                      const LayerClock &front, const Snapshot &before,
                      const StudyTimes &t, const core::StudyResult &result,
                      std::size_t report_bytes, double &producer_self_s)
{
    auto seconds = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e9;
    };
    std::uint64_t replay_ns = replay.ns - before.replay.ns;
    std::uint64_t sim_ns = sim.ns - before.sim.ns;
    producer_self_s += seconds(t.analyze - t.produce - replay_ns);
    analyzeS += seconds(t.report - t.analyze);
    reportS += seconds(t.end - t.report);
    reportBytes += report_bytes;

    const sim::ProcStats &agg = result.aggregate;
    refsMeasured += agg.reads + agg.writes;
    coherenceMisses += agg.readCoherence + agg.writeCoherence;
    falseSharingMisses += agg.readFalseSharing + agg.writeFalseSharing;
    invalidationsSent += agg.invalidationsSent;
    footprintBytesMax =
        std::max(footprintBytesMax, result.maxFootprintBytes);
    profilerBytesMax =
        std::max(profilerBytesMax, result.sampling.profilerBytes);
    intervals += result.schedulerIntervals;
    migrations += result.schedulerMigrations;
    curvePoints += result.curve.size();
    knees += result.workingSets.size();

    spans.coarse(name, "study", "", t.start, t.end);
    spans.coarse(name, producer, "study", t.produce, t.analyze);
    spans.aggregate(name, "replay", producer,
                    replay.batches - before.replay.batches + replay.syncs -
                        before.replay.syncs,
                    replay_ns);
    spans.aggregate(name, "sim", "replay",
                    sim.batches - before.sim.batches + sim.syncs -
                        before.sim.syncs,
                    sim_ns);
    spans.coarse(name, "core.analyze", "study", t.analyze, t.report);
    spans.coarse(name, "stats.report", "study", t.report, t.end);

    std::uint64_t fed = front.refs - before.front.refs;
    std::uint64_t into_replay = replay.refs - before.replay.refs;
    std::uint64_t into_sim = sim.refs - before.sim.refs;
    if (fed == into_replay && into_replay == into_sim)
        return "";
    return name + ": refs out of " + producer + " " + std::to_string(fed) +
           " / into replay " + std::to_string(into_replay) +
           " / into sim " + std::to_string(into_sim) + " disagree";
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerTotals::report(Outcome &out, double traced_wall_s,
                    double untraced_wall_s) const
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    double replay_self_s = d(replay.ns - sim.ns) / 1e9;
    double sim_busy_s = d(sim.ns) / 1e9;
    auto &m = out.metrics;
    m["apps.refs"] = d(apps.refs);
    m["apps.syncs"] = d(apps.syncs);
    m["apps.self_s"] = appsSelfS;
    m["trace.batches"] = d(replay.batches);
    m["trace.refs_per_batch"] = ratio(d(replay.refs), d(replay.batches));
    m["trace.records"] = d(traceRecords);
    m["trace.bytes_per_record"] = ratio(d(traceBytes), d(traceRecords));
    m["trace.decode_self_s"] = decodeSelfS;
    m["trace.decode_ns_per_record"] =
        ratio(decodeSelfS * 1e9, d(traceRecords));
    m["trace.capture_s"] = captureS;
    m["replay.self_s"] = replay_self_s;
    m["replay.ns_per_ref"] = ratio(replay_self_s * 1e9, d(replay.refs));
    m["replay.intervals"] = d(intervals);
    m["replay.migrations"] = d(migrations);
    m["sim.busy_s"] = sim_busy_s;
    m["sim.ns_per_ref"] = ratio(d(sim.ns), d(sim.refs));
    m["sim.refs_measured"] = d(refsMeasured);
    m["sim.coherence_misses"] = d(coherenceMisses);
    m["sim.false_sharing_misses"] = d(falseSharingMisses);
    m["sim.invalidations_sent"] = d(invalidationsSent);
    m["sim.footprint_bytes_max"] = d(footprintBytesMax);
    m["memsys.shadow_s"] = shadowS;
    m["memsys.shadow_ns_per_line"] = ratio(shadowS * 1e9, d(shadowLines));
    m["memsys.profiler_bytes"] = d(profilerBytesMax);
    m["core.analyze_s"] = analyzeS;
    m["core.curve_points"] = d(curvePoints);
    m["core.knees"] = d(knees);
    m["stats.report_s"] = reportS;
    m["stats.report_bytes"] = d(reportBytes);
    m["serve.client_ms_p50"] = clientP50Ms;
    m["serve.client_ms_p99"] = clientP99Ms;
    m["serve.service_ms_p50"] = serviceP50Ms;
    m["serve.transport_ms_p50"] =
        clientP50Ms > 0.0 ? clientP50Ms - serviceP50Ms : 0.0;
    m["serve.hits"] = d(serveHits);
    m["serve.misses"] = d(serveMisses);
    m["serve.rejections"] = d(serveRejections);
    m["bench.tracing_overhead"] = ratio(traced_wall_s, untraced_wall_s);
    double self_sum = appsSelfS + decodeSelfS + replay_self_s +
                      sim_busy_s + analyzeS + reportS + clientSpanS;
    m["bench.span_coverage"] = ratio(self_sum, traced_wall_s);
}

ShadowSink::ShadowSink(std::uint32_t num_procs, std::uint32_t line_bytes,
                       memsys::ProfilerKind kind)
    : lineBytes_(line_bytes), pending_(num_procs)
{
    for (std::uint32_t p = 0; p < num_procs; ++p)
        profilers_.push_back(approx::makeProfiler(kind));
}

void
ShadowSink::accessBatch(const trace::MemRef *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const trace::MemRef &ref = refs[i];
        if (ref.pid >= pending_.size())
            throw std::out_of_range("ShadowSink: pid out of range");
        trace::Addr last_byte = ref.addr + std::max(ref.bytes, 1u) - 1;
        trace::Addr last = memsys::lineAlign(last_byte, lineBytes_);
        for (trace::Addr line = memsys::lineAlign(ref.addr, lineBytes_);
             line <= last; line += lineBytes_)
            pending_[ref.pid].push_back(line / lineBytes_);
    }
    std::uint64_t t0 = nowNs();
    for (std::size_t p = 0; p < pending_.size(); ++p) {
        std::vector<trace::Addr> &lines = pending_[p];
        if (lines.empty())
            continue;
        samples_.resize(lines.size());
        profilers_[p]->accessBatch(lines.data(), lines.size(),
                                   samples_.data());
        lines_ += lines.size();
        lines.clear();
    }
    ns_ += nowNs() - t0;
}

} // namespace wsg::pipeline
