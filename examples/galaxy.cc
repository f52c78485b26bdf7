/**
 * @file
 * Hierarchical N-body scenario (paper Section 6): evolve a Plummer-model
 * "galaxy" with the Barnes-Hut tree code, verify the physics (energy
 * drift, force accuracy against direct summation), and measure the
 * working-set hierarchy the force computation exhibits — then show how
 * the important working set scales with n and theta using the
 * analytical model, confirmed by a parallel multi-theta simulation
 * study batch.
 *
 * Usage: galaxy [bodies] [steps] [theta] [--jobs N] [--json PATH]
 *               [--progress] [runner study flags, e.g. --protocol mesi]
 */

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "apps/barnes/barnes_hut.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "core/working_set_study.hh"
#include "model/barnes_model.hh"
#include "model/scaling.hh"
#include "sim/multiprocessor.hh"
#include "stats/units.hh"
#include "trace/address_space.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(
        std::atoi(argv[1])) : 1024;
    std::uint32_t steps = argc > 2 ? static_cast<std::uint32_t>(
        std::atoi(argv[2])) : 8;
    double theta = argc > 3 ? std::atof(argv[3]) : 0.8;

    std::cout << "Barnes-Hut galaxy: " << n << " bodies, theta = "
              << theta << ", " << steps << " steps, 4 processors\n\n";

    sim::Multiprocessor machine({4, 32});
    trace::SharedAddressSpace space;
    apps::barnes::BarnesConfig config;
    config.numBodies = n;
    config.numProcs = 4;
    config.theta = theta;
    config.dt = 0.01;
    apps::barnes::BarnesHut sim(config, space, &machine);
    sim.initPlummer();

    // Force accuracy against the O(n^2) oracle before we start.
    sim.buildOnly();
    std::vector<apps::barnes::Vec3> bh, direct;
    sim.accelerations(bh);
    sim.directAccelerations(direct);
    double num = 0, den = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (int a = 0; a < 3; ++a) {
            num += (bh[i][a] - direct[i][a]) * (bh[i][a] - direct[i][a]);
            den += direct[i][a] * direct[i][a];
        }
    }
    std::cout << "force error vs direct summation: "
              << std::sqrt(num / den) << " (rms relative)\n";

    double e0 = sim.totalEnergy();
    machine.setMeasuring(false); // first step warms the caches
    apps::barnes::StepStats first = sim.step();
    machine.setMeasuring(true);
    apps::barnes::StepStats last{};
    for (std::uint32_t s = 1; s < steps; ++s)
        last = sim.step();
    double e1 = sim.totalEnergy();

    std::cout << "energy drift over " << steps << " steps: "
              << std::abs(e1 - e0) / std::abs(e0) * 100.0 << "%\n"
              << "interactions/step: "
              << stats::formatCount(static_cast<double>(
                     first.bodyInteractions + first.cellInteractions))
              << " (body "
              << stats::formatCount(static_cast<double>(
                     last.bodyInteractions))
              << ", cell "
              << stats::formatCount(static_cast<double>(
                     last.cellInteractions))
              << " in final step)\n"
              << "tree depth: " << sim.tree().maxDepth() << ", cells: "
              << sim.tree().size() << "\n\n";

    core::StudyConfig study;
    core::StudyResult result = core::analyzeWorkingSets(
        machine, study, core::Metric::ReadMissRate, 0, "galaxy");
    std::cout << "measured working sets (read miss rate):\n"
              << stats::describeWorkingSets(result.workingSets) << "\n";

    // How does the important working set grow? (Section 6.2.)
    std::cout << "analytical lev2WS scaling from this problem:\n";
    model::BarnesParams base{static_cast<double>(n), theta, 4.0, 1.0};
    for (double factor : {1.0, 16.0, 256.0}) {
        auto mc = model::scaleBarnes(base, 4.0 * factor,
                                     model::ScalingModel::
                                         MemoryConstrained);
        model::BarnesModel m(mc.params);
        std::cout << "  " << std::setw(10)
                  << stats::formatCount(mc.params.n) << " bodies (theta "
                  << stats::formatRate(mc.params.theta)
                  << "): " << stats::formatBytes(m.lev2Bytes()) << "\n";
    }
    std::cout << "\nThe paper's conclusion holds: the working set grows "
                 "only logarithmically\nwith the problem, so a few "
                 "hundred KB of cache suffices far beyond any\nfeasible "
                 "simulation.\n";

    // Confirm the theta sensitivity by simulation: one independent
    // study per opening angle, run as a parallel batch (--jobs N).
    std::cout << "\nsimulated theta sensitivity (parallel study batch, "
              << "measured knees):\n";
    std::vector<core::StudyJob> jobs;
    for (double th : {0.6, 0.8, 1.0}) {
        apps::barnes::BarnesConfig cfg = config;
        cfg.theta = th;
        core::StudyConfig sc = cli.study;
        sc.minCacheBytes = 64;
        jobs.push_back(core::barnesStudyJob(cfg, 2, 1, sc));
        jobs.back().name = "galaxy-theta" + stats::formatRate(th);
    }
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    for (const auto &rep : reports) {
        std::cout << "  " << rep.name << ": ";
        if (!rep.ok) {
            std::cout << "FAILED: " << rep.error << "\n";
            continue;
        }
        if (rep.result.workingSets.empty())
            std::cout << "no knee detected";
        else
            std::cout << "dominant knee at "
                      << stats::formatBytes(
                             rep.result.workingSets.back().sizeBytes);
        std::cout << " (floor "
                  << stats::formatRate(rep.result.floorRate) << ")\n";
    }

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return 0;
}
