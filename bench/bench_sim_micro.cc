/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate: the
 * stack-distance profiler, the concrete cache models, and the full
 * multiprocessor reference pipeline. These quantify the cost of the
 * instrument itself (references/second), which bounds how large a
 * confirmation simulation is practical.
 */

#include <random>

#include <benchmark/benchmark.h>

#include "memsys/fully_assoc_lru.hh"
#include "memsys/set_assoc.hh"
#include "memsys/tree_stack_distance.hh"
#include "sim/multiprocessor.hh"

using namespace wsg;

namespace
{

std::vector<trace::Addr>
randomTrace(std::size_t n, trace::Addr span, unsigned seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<trace::Addr> dist(0, span - 1);
    std::vector<trace::Addr> t(n);
    for (auto &a : t)
        a = dist(rng) * 8;
    return t;
}

void
BM_StackDistanceRandom(benchmark::State &state)
{
    auto trace = randomTrace(1 << 16, static_cast<trace::Addr>(
        state.range(0)), 1);
    memsys::TreeStackDistanceProfiler prof;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(prof.access(trace[i]));
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistanceRandom)->Arg(1 << 10)->Arg(1 << 16)
    ->Arg(1 << 20);

void
BM_StackDistanceSequential(benchmark::State &state)
{
    memsys::TreeStackDistanceProfiler prof;
    trace::Addr a = 0;
    const trace::Addr span = static_cast<trace::Addr>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(prof.access(a));
        a = (a + 8) % (span * 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistanceSequential)->Arg(1 << 10)->Arg(1 << 20);

void
BM_FullyAssocLru(benchmark::State &state)
{
    auto trace = randomTrace(1 << 16, 1 << 16, 2);
    memsys::FullyAssocLru cache(static_cast<std::uint64_t>(
        state.range(0)));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(trace[i]));
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullyAssocLru)->Arg(1 << 8)->Arg(1 << 14);

void
BM_SetAssocCache(benchmark::State &state)
{
    auto trace = randomTrace(1 << 16, 1 << 16, 3);
    memsys::SetAssocCache cache(1 << 10,
                                static_cast<std::uint32_t>(
                                    state.range(0)));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(trace[i]));
        i = (i + 1) % trace.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocCache)->Arg(1)->Arg(4)->Arg(16);

void
BM_MultiprocessorPipeline(benchmark::State &state)
{
    auto num_procs = static_cast<std::uint32_t>(state.range(0));
    auto trace = randomTrace(1 << 16, 1 << 18, 4);
    sim::Multiprocessor mp({num_procs, 8});
    std::size_t i = 0;
    for (auto _ : state) {
        trace::ProcId p = static_cast<trace::ProcId>(i % num_procs);
        if (i % 5 == 0)
            mp.write(p, trace[i % trace.size()], 8);
        else
            mp.read(p, trace[i % trace.size()], 8);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiprocessorPipeline)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_CurveExtraction(benchmark::State &state)
{
    sim::Multiprocessor mp({4, 8});
    auto trace = randomTrace(1 << 18, 1 << 16, 5);
    for (std::size_t i = 0; i < trace.size(); ++i)
        mp.read(static_cast<trace::ProcId>(i % 4), trace[i], 8);
    sim::CurveSpec spec;
    spec.cacheSizesBytes = sim::sweepSizes(64, 1 << 20, 4, 8);
    for (auto _ : state) {
        auto curve = mp.readMissRateCurve(spec, "bench");
        benchmark::DoNotOptimize(curve);
    }
}
BENCHMARK(BM_CurveExtraction);

} // namespace

BENCHMARK_MAIN();
