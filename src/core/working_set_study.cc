#include "core/working_set_study.hh"

#include <algorithm>
#include <sstream>

#include "stats/table.hh"
#include "stats/units.hh"

namespace wsg::core
{

StudyResult
analyzeWorkingSets(const sim::Multiprocessor &mp,
                   const StudyConfig &config, Metric metric,
                   std::uint64_t total_flops, const std::string &name)
{
    StudyResult result;
    result.maxFootprintBytes = mp.maxFootprintBytes();

    std::uint64_t max_bytes = config.maxCacheBytes;
    if (max_bytes == 0)
        max_bytes = std::max<std::uint64_t>(2 * result.maxFootprintBytes,
                                            config.minCacheBytes * 4);

    sim::CurveSpec spec;
    spec.cacheSizesBytes =
        sim::sweepSizes(config.minCacheBytes, max_bytes,
                        config.pointsPerOctave, mp.config().lineBytes);
    spec.includeCold = config.includeCold;
    spec.sampling = mp.config().sampling;

    result.curve = metric == Metric::MissesPerFlop
                       ? mp.missesPerFlopCurve(spec, total_flops, name)
                       : mp.readMissRateCurve(spec, name);
    result.aggregate = mp.aggregateStats();
    result.sampling = mp.samplingDiagnostics();
    result.missClasses = mp.readMissClassCurves(spec);
    result.perProc = mp.procSummaries();
    result.perArray = mp.arraySummaries();
    result.protocol = mp.config().protocol;
    result.hierarchySpec = mp.config().hierarchy;
    result.nodeHierarchy = mp.hierarchyStats();
    if (!result.curve.empty())
        result.floorRate = result.curve.minY();

    stats::KneeConfig knee = config.knee;
    knee.rateFloor = std::max(knee.rateFloor, result.floorRate);
    result.workingSets = stats::detectWorkingSets(result.curve, knee);
    return result;
}

std::string
describeStudy(const StudyResult &result)
{
    std::ostringstream os;
    os << stats::renderSeries("miss rate vs cache size", "cache",
                              {result.curve});
    os << "working sets:\n"
       << stats::describeWorkingSets(result.workingSets);
    os << "reads " << result.aggregate.reads << ", read cold "
       << result.aggregate.readCold << ", read coherence "
       << result.aggregate.readCoherence << " (true sharing "
       << result.aggregate.readTrueSharing << ", false sharing "
       << result.aggregate.readFalseSharing << "), max footprint "
       << stats::formatBytes(
              static_cast<double>(result.maxFootprintBytes))
       << ", floor " << stats::formatRate(result.floorRate) << "\n";
    if (result.protocol != sim::CoherenceProtocol::WriteInvalidate ||
        result.hierarchySpec.twoLevel()) {
        os << "machine: protocol "
           << sim::coherenceProtocolName(result.protocol)
           << ", hierarchy "
           << memsys::hierarchyLabel(result.hierarchySpec);
        if (result.hierarchySpec.twoLevel()) {
            os << " (L1 miss rate "
               << stats::formatRate(result.nodeHierarchy.l1MissRate())
               << ", memory miss rate "
               << stats::formatRate(
                      result.nodeHierarchy.memoryMissRate())
               << ")";
        }
        os << "\n";
    }
    if (result.races.enabled)
        os << analysis::describeRaceCheck(result.races);
    return os.str();
}

} // namespace wsg::core
