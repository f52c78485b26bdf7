/**
 * @file
 * Public-API replicas of the figure-suite studies, for the traced and
 * shadow passes.
 *
 * The suite's job bodies (core/runners.cc) build their sink chain
 * internally and expose no hook, so a run that times each layer
 * rebuilds the study from public calls: the same application, problem
 * size (core/suite.cc), warm-up shape and analysis, run into a chain
 * the caller supplies. The traced pass compares every replica's report
 * digest with the untraced study's, so a replica that drifts from the
 * suite fails the run instead of timing a different study.
 */

#ifndef WSG_BENCH_PIPELINE_REPLICA_HH
#define WSG_BENCH_PIPELINE_REPLICA_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/working_set_study.hh"
#include "sinks.hh"
#include "trace/address_space.hh"

namespace wsg::pipeline
{

/** How to rebuild one suite study. */
struct Replica
{
    std::uint32_t numProcs = 0;
    std::uint32_t lineBytes = 0;
    /** Default knobs plus the preset's sweep start, as the suite sets. */
    core::StudyConfig study;
    core::Metric metric = core::Metric::MissesPerFlop;
    /** Curve name analyzeWorkingSets is given. */
    std::string curveName;
    /**
     * Build the application in the space, run every phase into the
     * harness, and return the measured FLOPs (0 for miss-rate
     * metrics).
     */
    std::function<std::uint64_t(trace::SharedAddressSpace &, Harness &)>
        run;
};

/**
 * Replica of suite study @p name: a bare preset or one with a "@size="
 * suffix.
 * @throws std::invalid_argument for a name the suite does not know or
 *         a "@line=" variant.
 */
Replica replicaFor(const std::string &name);

} // namespace wsg::pipeline

#endif // WSG_BENCH_PIPELINE_REPLICA_HH
