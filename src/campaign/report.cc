#include "campaign/report.hh"

#include <algorithm>
#include <sstream>

#include "stats/json_parse.hh"
#include "stats/json_report.hh"

namespace wsg::campaign
{

namespace
{

constexpr const char *kSchema = "wsg-campaign-report-v1";

// --- payload extraction ------------------------------------------------

double
numberAt(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isNumber())
        throw CampaignError(std::string("study payload: missing or "
                                        "non-numeric '") +
                            key + "'");
    return v->asNumber();
}

std::uint64_t
countAt(const stats::JsonValue &obj, const char *key)
{
    double v = numberAt(obj, key);
    if (v < 0.0)
        throw CampaignError(std::string("study payload: negative '") +
                            key + "'");
    return static_cast<std::uint64_t>(v);
}

/**
 * Lift the cross-study metrics out of one wsg-study-report payload (v2 or v3)
 * into @p summary. @throws CampaignError on schema violations.
 */
void
summarizePayload(std::string_view payload, StudySummary &summary)
{
    stats::JsonValue root;
    try {
        root = stats::parseJson(payload);
    } catch (const stats::JsonParseError &e) {
        throw CampaignError(std::string("study payload: ") + e.what());
    }
    const stats::JsonValue *studies = root.find("studies");
    if (!root.isObject() || studies == nullptr ||
        !studies->isArray() || studies->size() == 0)
        throw CampaignError("study payload: no studies[] array");
    const stats::JsonValue &study = (*studies)[0];

    summary.floorRate = numberAt(study, "floor_rate");
    summary.maxFootprintBytes = countAt(study, "max_footprint_bytes");

    const stats::JsonValue *sets = study.find("working_sets");
    if (sets == nullptr || !sets->isArray())
        throw CampaignError("study payload: no working_sets[]");
    for (std::size_t i = 0; i < sets->size(); ++i) {
        const stats::JsonValue &ws = (*sets)[i];
        KneeSummary knee;
        knee.level = countAt(ws, "level");
        knee.sizeBytes = countAt(ws, "size_bytes");
        knee.missRateBefore = numberAt(ws, "miss_rate_before");
        knee.missRateAfter = numberAt(ws, "miss_rate_after");
        summary.largestKneeBytes =
            std::max(summary.largestKneeBytes, knee.sizeBytes);
        summary.knees.push_back(knee);
    }

    const stats::JsonValue *mc = study.find("miss_classes");
    if (mc == nullptr || !mc->isObject())
        throw CampaignError("study payload: no miss_classes{}");
    const stats::JsonValue *sizes = mc->find("cache_sizes_bytes");
    const stats::JsonValue *cold = mc->find("cold");
    const stats::JsonValue *capacity = mc->find("capacity");
    const stats::JsonValue *true_sharing = mc->find("true_sharing");
    const stats::JsonValue *false_sharing = mc->find("false_sharing");
    const stats::JsonValue *total = mc->find("total");
    if (sizes == nullptr || !sizes->isArray() || total == nullptr ||
        !total->isArray() || total->size() != sizes->size())
        throw CampaignError("study payload: malformed miss_classes");
    if (sizes->size() > 0) {
        // The mix in the "everything important fits" regime: the first
        // sweep point at or past the largest knee (the last point when
        // the sweep stops short of it).
        std::size_t at = sizes->size() - 1;
        for (std::size_t i = 0; i < sizes->size(); ++i) {
            if ((*sizes)[i].asNumber() >=
                static_cast<double>(summary.largestKneeBytes)) {
                at = i;
                break;
            }
        }
        double t = (*total)[at].asNumber();
        auto frac = [&](const stats::JsonValue *curve) {
            return t > 0.0 && curve != nullptr && curve->isArray() &&
                           curve->size() == sizes->size()
                       ? (*curve)[at].asNumber() / t
                       : 0.0;
        };
        summary.missSplit.cold = frac(cold);
        summary.missSplit.capacity = frac(capacity);
        summary.missSplit.trueSharing = frac(true_sharing);
        summary.missSplit.falseSharing = frac(false_sharing);
    }

    const stats::JsonValue *per_proc = mc->find("per_proc");
    if (per_proc == nullptr || !per_proc->isArray())
        throw CampaignError("study payload: no per_proc[]");
    summary.numProcs = per_proc->size();

    const stats::JsonValue *agg = study.find("aggregate");
    if (agg == nullptr || !agg->isObject())
        throw CampaignError("study payload: no aggregate{}");
    double refs = numberAt(*agg, "reads") + numberAt(*agg, "writes");
    double sharing = numberAt(*agg, "read_true_sharing") +
                     numberAt(*agg, "read_false_sharing") +
                     numberAt(*agg, "write_true_sharing") +
                     numberAt(*agg, "write_false_sharing");
    summary.sharingMissRate = refs > 0.0 ? sharing / refs : 0.0;
}

// --- grouping ----------------------------------------------------------

/** Accumulator behind one GroupBreakdown. */
struct GroupAcc
{
    std::string key;
    std::vector<std::uint64_t> knees;
    double floorSum = 0.0;
    MissSplit splitSum;
    double sharingSum = 0.0;

    void add(const StudySummary &s)
    {
        knees.push_back(s.largestKneeBytes);
        floorSum += s.floorRate;
        splitSum.cold += s.missSplit.cold;
        splitSum.capacity += s.missSplit.capacity;
        splitSum.trueSharing += s.missSplit.trueSharing;
        splitSum.falseSharing += s.missSplit.falseSharing;
        sharingSum += s.sharingMissRate;
    }

    GroupBreakdown finish() const
    {
        GroupBreakdown g;
        g.key = key;
        g.studies = knees.size();
        std::vector<std::uint64_t> sorted = knees;
        std::sort(sorted.begin(), sorted.end());
        g.kneeMinBytes = sorted.front();
        g.kneeMedianBytes = sorted[(sorted.size() - 1) / 2];
        g.kneeMaxBytes = sorted.back();
        double n = static_cast<double>(sorted.size());
        g.meanFloorRate = floorSum / n;
        g.missSplit.cold = splitSum.cold / n;
        g.missSplit.capacity = splitSum.capacity / n;
        g.missSplit.trueSharing = splitSum.trueSharing / n;
        g.missSplit.falseSharing = splitSum.falseSharing / n;
        g.meanSharingMissRate = sharingSum / n;
        return g;
    }
};

/** First-seen-order grouping (vector scan, never map iteration). */
class Grouper
{
  public:
    void add(const std::string &key, const StudySummary &s)
    {
        for (GroupAcc &acc : accs_) {
            if (acc.key == key) {
                acc.add(s);
                return;
            }
        }
        GroupAcc acc;
        acc.key = key;
        acc.add(s);
        accs_.push_back(std::move(acc));
    }

    std::vector<GroupBreakdown> finish() const
    {
        std::vector<GroupBreakdown> out;
        out.reserve(accs_.size());
        for (const GroupAcc &acc : accs_)
            out.push_back(acc.finish());
        return out;
    }

  private:
    std::vector<GroupAcc> accs_;
};

std::vector<double>
fractionsFit(const std::vector<std::uint64_t> &knees,
             const std::vector<std::uint64_t> &cache_sizes)
{
    std::vector<double> out;
    out.reserve(cache_sizes.size());
    for (std::uint64_t c : cache_sizes) {
        std::size_t fit = 0;
        for (std::uint64_t k : knees)
            fit += k <= c ? 1 : 0;
        out.push_back(static_cast<double>(fit) /
                      static_cast<double>(knees.size()));
    }
    return out;
}

// --- emission ----------------------------------------------------------

void
writeMissSplit(stats::JsonWriter &w, const MissSplit &split)
{
    w.beginObject();
    w.member("cold", split.cold);
    w.member("capacity", split.capacity);
    w.member("true_sharing", split.trueSharing);
    w.member("false_sharing", split.falseSharing);
    w.endObject();
}

void
writeStudy(stats::JsonWriter &w, const StudySummary &s)
{
    w.beginObject();
    w.member("name", s.name);
    w.member("hash", s.hash);
    w.member("status", s.status);
    w.member("preset", s.preset);
    w.member("size", s.size);
    w.member("line_bytes", s.lineBytes);
    w.member("points_per_octave", s.pointsPerOctave);
    w.member("profiler", s.profiler);
    w.member("sampling", s.sampling);
    if (!s.protocol.empty())
        w.member("protocol", s.protocol);
    if (!s.hierarchy.empty())
        w.member("hierarchy", s.hierarchy);
    if (!s.scheduler.empty())
        w.member("scheduler", s.scheduler);
    if (s.hasMetrics()) {
        w.member("num_procs", s.numProcs);
        w.member("floor_rate", s.floorRate);
        w.member("max_footprint_bytes", s.maxFootprintBytes);
        w.member("largest_knee_bytes", s.largestKneeBytes);
        w.key("knees");
        w.beginArray();
        for (const KneeSummary &k : s.knees) {
            w.beginObject();
            w.member("level", k.level);
            w.member("size_bytes", k.sizeBytes);
            w.member("miss_rate_before", k.missRateBefore);
            w.member("miss_rate_after", k.missRateAfter);
            w.endObject();
        }
        w.endArray();
        w.key("miss_split");
        writeMissSplit(w, s.missSplit);
        w.member("sharing_miss_rate", s.sharingMissRate);
    } else {
        w.member("error", s.error);
    }
    w.endObject();
}

void
writeGroups(stats::JsonWriter &w, const char *key,
            const std::vector<GroupBreakdown> &groups)
{
    w.key(key);
    w.beginArray();
    for (const GroupBreakdown &g : groups) {
        w.beginObject();
        w.member("key", g.key);
        w.member("studies", g.studies);
        w.member("knee_min_bytes", g.kneeMinBytes);
        w.member("knee_median_bytes", g.kneeMedianBytes);
        w.member("knee_max_bytes", g.kneeMaxBytes);
        w.member("mean_floor_rate", g.meanFloorRate);
        w.key("miss_split");
        writeMissSplit(w, g.missSplit);
        w.member("mean_sharing_miss_rate", g.meanSharingMissRate);
        w.endObject();
    }
    w.endArray();
}

// --- parsing -----------------------------------------------------------

std::string
parseString(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isString())
        throw CampaignError(std::string("campaign report: missing "
                                        "string '") +
                            key + "'");
    return v->asString();
}

/** "" when absent — for fields only emitted off the axis default. */
std::string
optionalString(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr)
        return "";
    if (!v->isString())
        throw CampaignError(std::string("campaign report: '") + key +
                            "' must be a string");
    return v->asString();
}

double
parseNumber(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isNumber())
        throw CampaignError(std::string("campaign report: missing "
                                        "number '") +
                            key + "'");
    return v->asNumber();
}

std::uint64_t
parseCount(const stats::JsonValue &obj, const char *key)
{
    return static_cast<std::uint64_t>(parseNumber(obj, key));
}

const stats::JsonValue &
parseArray(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isArray())
        throw CampaignError(std::string("campaign report: missing "
                                        "array '") +
                            key + "'");
    return *v;
}

const stats::JsonValue &
parseObject(const stats::JsonValue &obj, const char *key)
{
    const stats::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isObject())
        throw CampaignError(std::string("campaign report: missing "
                                        "object '") +
                            key + "'");
    return *v;
}

MissSplit
parseMissSplit(const stats::JsonValue &obj)
{
    MissSplit split;
    split.cold = parseNumber(obj, "cold");
    split.capacity = parseNumber(obj, "capacity");
    split.trueSharing = parseNumber(obj, "true_sharing");
    split.falseSharing = parseNumber(obj, "false_sharing");
    return split;
}

std::vector<GroupBreakdown>
parseGroups(const stats::JsonValue &root, const char *key)
{
    std::vector<GroupBreakdown> out;
    const stats::JsonValue &arr = parseArray(root, key);
    for (std::size_t i = 0; i < arr.size(); ++i) {
        const stats::JsonValue &obj = arr[i];
        GroupBreakdown g;
        g.key = parseString(obj, "key");
        g.studies = parseCount(obj, "studies");
        g.kneeMinBytes = parseCount(obj, "knee_min_bytes");
        g.kneeMedianBytes = parseCount(obj, "knee_median_bytes");
        g.kneeMaxBytes = parseCount(obj, "knee_max_bytes");
        g.meanFloorRate = parseNumber(obj, "mean_floor_rate");
        g.missSplit = parseMissSplit(parseObject(obj, "miss_split"));
        g.meanSharingMissRate =
            parseNumber(obj, "mean_sharing_miss_rate");
        out.push_back(std::move(g));
    }
    return out;
}

} // namespace

CampaignReport
buildCampaignReport(const Grid &grid, const CampaignResult &result,
                    bool include_telemetry)
{
    if (grid.entries.size() != result.outcomes.size())
        throw CampaignError("campaign result does not match the grid");

    CampaignReport report;
    report.gridHash = grid.gridHash;
    report.entries = grid.entries.size();

    Grouper by_preset;
    Grouper by_line;
    Grouper by_size;
    std::vector<std::uint64_t> all_knees;
    std::vector<std::uint64_t> band_procs;  // first-seen node counts
    std::vector<std::vector<std::uint64_t>> band_knees;

    for (std::size_t i = 0; i < grid.entries.size(); ++i) {
        const CampaignEntry &entry = grid.entries[i];
        const EntryOutcome &outcome = result.outcomes[i];

        StudySummary s;
        s.name = entry.name;
        s.hash = entry.configHash;
        // A manifest-resumed study is an ok study; the disposition is
        // telemetry, and folding it into status would break the
        // byte-identity of resumed-campaign reports.
        s.status =
            outcome.status == "skipped" ? "ok" : outcome.status;
        s.preset = entry.preset;
        s.size = core::problemSizeName(entry.size);
        s.lineBytes = entry.lineBytes;
        s.pointsPerOctave =
            static_cast<std::uint64_t>(entry.pointsPerOctave);
        s.profiler = entry.axes[core::kProfilerAxis];
        s.sampling = entry.axes[core::kSamplingAxis];
        // The machine axes are reported only off their defaults.
        auto off_default = [&entry](core::StudyAxisIndex a) {
            return entry.axes[a] == core::kStudyAxes[a].defaultLabel
                       ? std::string()
                       : entry.axes[a];
        };
        s.protocol = off_default(core::kProtocolAxis);
        s.hierarchy = off_default(core::kHierarchyAxis);
        s.scheduler = off_default(core::kSchedulerAxis);
        s.error = outcome.error;

        if (s.status == "ok") {
            try {
                summarizePayload(outcome.payload, s);
            } catch (const CampaignError &e) {
                s.status = "error";
                s.error = e.what();
            }
        }
        if (s.status == "ok") {
            ++report.ok;
            by_preset.add(s.preset, s);
            by_line.add("line=" + std::to_string(s.lineBytes), s);
            by_size.add("size=" + s.size, s);
            all_knees.push_back(s.largestKneeBytes);
            std::size_t slot = band_procs.size();
            for (std::size_t p = 0; p < band_procs.size(); ++p)
                if (band_procs[p] == s.numProcs) {
                    slot = p;
                    break;
                }
            if (slot == band_procs.size()) {
                band_procs.push_back(s.numProcs);
                band_knees.emplace_back();
            }
            band_knees[slot].push_back(s.largestKneeBytes);
        } else if (s.status == "failed") {
            ++report.failed;
        } else if (s.status == "timed_out") {
            ++report.timedOut;
        } else if (s.status == "overloaded") {
            ++report.overloaded;
        } else {
            ++report.errors;
        }
        report.studies.push_back(std::move(s));
    }

    report.byPreset = by_preset.finish();
    report.byLineBytes = by_line.finish();
    report.bySize = by_size.finish();

    for (std::uint64_t c = std::uint64_t{1} << 10;
         c <= std::uint64_t{1} << 24; c <<= 1)
        report.bandCacheSizes.push_back(c);
    if (!all_knees.empty()) {
        SustainabilityBand pooled;
        pooled.numProcs = 0;
        pooled.studies = all_knees.size();
        pooled.fractionFit =
            fractionsFit(all_knees, report.bandCacheSizes);
        report.bands.push_back(std::move(pooled));
        for (std::size_t p = 0; p < band_procs.size(); ++p) {
            SustainabilityBand band;
            band.numProcs = band_procs[p];
            band.studies = band_knees[p].size();
            band.fractionFit =
                fractionsFit(band_knees[p], report.bandCacheSizes);
            report.bands.push_back(std::move(band));
        }
    }

    if (include_telemetry) {
        const CampaignTelemetry &tel = result.telemetry;
        report.hasTelemetry = true;
        report.cacheHits = tel.cacheHits;
        report.cacheMisses = tel.cacheMisses;
        report.cacheJoins = tel.cacheJoins;
        report.resumedFromManifest = tel.skipped;
        report.retriedRoundTrips = tel.retriedRoundTrips;
        report.backoffMsTotal = tel.backoffMsTotal;
        report.cacheServedRatio = tel.cacheServedRatio();
        report.p50Seconds = tel.p50Seconds;
        report.p95Seconds = tel.p95Seconds;
    }
    return report;
}

std::string
writeCampaignReport(const CampaignReport &report)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    w.beginObject();
    w.member("schema", kSchema);
    w.member("grid_hash", report.gridHash);
    w.member("entries", report.entries);
    w.member("ok", report.ok);
    w.member("failed", report.failed);
    w.member("timed_out", report.timedOut);
    w.member("overloaded", report.overloaded);
    w.member("errors", report.errors);
    w.key("studies");
    w.beginArray();
    for (const StudySummary &s : report.studies)
        writeStudy(w, s);
    w.endArray();
    writeGroups(w, "by_preset", report.byPreset);
    writeGroups(w, "by_line_bytes", report.byLineBytes);
    writeGroups(w, "by_size", report.bySize);
    w.key("sustainability");
    w.beginObject();
    w.key("cache_sizes_bytes");
    w.beginArray();
    for (std::uint64_t c : report.bandCacheSizes)
        w.value(c);
    w.endArray();
    w.key("bands");
    w.beginArray();
    for (const SustainabilityBand &band : report.bands) {
        w.beginObject();
        w.member("num_procs", band.numProcs);
        w.member("studies", band.studies);
        w.key("fraction_fit");
        w.beginArray();
        for (double f : band.fractionFit)
            w.value(f);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (report.hasTelemetry) {
        w.key("telemetry");
        w.beginObject();
        w.member("cache_hits", report.cacheHits);
        w.member("cache_misses", report.cacheMisses);
        w.member("cache_joins", report.cacheJoins);
        w.member("resumed_from_manifest", report.resumedFromManifest);
        w.member("retried_round_trips", report.retriedRoundTrips);
        w.member("backoff_ms_total", report.backoffMsTotal);
        w.member("cache_served_ratio", report.cacheServedRatio);
        w.member("p50_seconds", report.p50Seconds);
        w.member("p95_seconds", report.p95Seconds);
        w.endObject();
    }
    w.endObject();
    os << '\n';
    return os.str();
}

CampaignReport
parseCampaignReport(std::string_view json)
{
    stats::JsonValue root;
    try {
        root = stats::parseJson(json);
    } catch (const stats::JsonParseError &e) {
        throw CampaignError(std::string("campaign report: ") +
                            e.what());
    }
    if (!root.isObject())
        throw CampaignError("campaign report: not a JSON object");
    if (parseString(root, "schema") != kSchema)
        throw CampaignError("campaign report: schema must be \"" +
                            std::string(kSchema) + "\"");

    CampaignReport report;
    report.gridHash = parseString(root, "grid_hash");
    report.entries = parseCount(root, "entries");
    report.ok = parseCount(root, "ok");
    report.failed = parseCount(root, "failed");
    report.timedOut = parseCount(root, "timed_out");
    report.overloaded = parseCount(root, "overloaded");
    report.errors = parseCount(root, "errors");

    const stats::JsonValue &studies = parseArray(root, "studies");
    for (std::size_t i = 0; i < studies.size(); ++i) {
        const stats::JsonValue &obj = studies[i];
        StudySummary s;
        s.name = parseString(obj, "name");
        s.hash = parseString(obj, "hash");
        s.status = parseString(obj, "status");
        s.preset = parseString(obj, "preset");
        s.size = parseString(obj, "size");
        s.lineBytes = parseCount(obj, "line_bytes");
        s.pointsPerOctave = parseCount(obj, "points_per_octave");
        s.profiler = parseString(obj, "profiler");
        s.sampling = parseString(obj, "sampling");
        s.protocol = optionalString(obj, "protocol");
        s.hierarchy = optionalString(obj, "hierarchy");
        s.scheduler = optionalString(obj, "scheduler");
        if (s.hasMetrics()) {
            s.numProcs = parseCount(obj, "num_procs");
            s.floorRate = parseNumber(obj, "floor_rate");
            s.maxFootprintBytes =
                parseCount(obj, "max_footprint_bytes");
            s.largestKneeBytes =
                parseCount(obj, "largest_knee_bytes");
            const stats::JsonValue &knees = parseArray(obj, "knees");
            for (std::size_t k = 0; k < knees.size(); ++k) {
                const stats::JsonValue &kobj = knees[k];
                KneeSummary knee;
                knee.level = parseCount(kobj, "level");
                knee.sizeBytes = parseCount(kobj, "size_bytes");
                knee.missRateBefore =
                    parseNumber(kobj, "miss_rate_before");
                knee.missRateAfter =
                    parseNumber(kobj, "miss_rate_after");
                s.knees.push_back(knee);
            }
            s.missSplit =
                parseMissSplit(parseObject(obj, "miss_split"));
            s.sharingMissRate = parseNumber(obj, "sharing_miss_rate");
        } else {
            s.error = parseString(obj, "error");
        }
        report.studies.push_back(std::move(s));
    }

    report.byPreset = parseGroups(root, "by_preset");
    report.byLineBytes = parseGroups(root, "by_line_bytes");
    report.bySize = parseGroups(root, "by_size");

    const stats::JsonValue &sus = parseObject(root, "sustainability");
    const stats::JsonValue &sizes =
        parseArray(sus, "cache_sizes_bytes");
    for (std::size_t i = 0; i < sizes.size(); ++i)
        report.bandCacheSizes.push_back(
            static_cast<std::uint64_t>(sizes[i].asNumber()));
    const stats::JsonValue &bands = parseArray(sus, "bands");
    for (std::size_t i = 0; i < bands.size(); ++i) {
        const stats::JsonValue &obj = bands[i];
        SustainabilityBand band;
        band.numProcs = parseCount(obj, "num_procs");
        band.studies = parseCount(obj, "studies");
        const stats::JsonValue &fit = parseArray(obj, "fraction_fit");
        for (std::size_t f = 0; f < fit.size(); ++f)
            band.fractionFit.push_back(fit[f].asNumber());
        report.bands.push_back(std::move(band));
    }

    if (const stats::JsonValue *tel = root.find("telemetry")) {
        report.hasTelemetry = true;
        report.cacheHits = parseCount(*tel, "cache_hits");
        report.cacheMisses = parseCount(*tel, "cache_misses");
        report.cacheJoins = parseCount(*tel, "cache_joins");
        report.resumedFromManifest =
            parseCount(*tel, "resumed_from_manifest");
        report.retriedRoundTrips =
            parseCount(*tel, "retried_round_trips");
        report.backoffMsTotal = parseCount(*tel, "backoff_ms_total");
        report.cacheServedRatio =
            parseNumber(*tel, "cache_served_ratio");
        report.p50Seconds = parseNumber(*tel, "p50_seconds");
        report.p95Seconds = parseNumber(*tel, "p95_seconds");
    }
    return report;
}

} // namespace wsg::campaign
