/**
 * @file
 * Figure 6 — "Working Sets for the Barnes-Hut Application: n = 1024,
 * theta = 1.0, p = 4, quadrupole moments": read miss rate versus cache
 * size, fully simulated at exactly the paper's configuration.
 *
 * Also prints the lev2WS scaling study of Section 6.2 (sizes across n
 * and theta) from the analytical model.
 *
 * Runner flags: --jobs N, --json PATH, --progress. A single-study
 * figure still benefits from --jobs: the runner's pool parallelizes
 * the cache-size sweep inside the study.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/presets.hh"
#include "core/runners.hh"
#include "core/study_runner.hh"
#include "model/barnes_model.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;

int
main(int argc, char **argv)
{
    core::RunnerCli cli = core::parseRunnerCli(argc, argv);
    bench::banner("Figure 6",
                  "Barnes-Hut read miss rate vs cache size, n = 1024, "
                  "theta = 1.0, p = 4, quadrupole moments (simulated)");
    bench::ScopeTimer timer("fig6");

    core::StudyConfig sc = cli.study;
    sc.minCacheBytes = 64;
    std::vector<core::StudyJob> jobs = {core::barnesStudyJob(
        core::presets::simBarnesFig6(), /*steps=*/2, /*warmup=*/1, sc)};
    jobs[0].name = "fig6-barnes";
    core::StudyRunner runner(core::cliRunnerConfig(cli));
    std::vector<core::JobReport> reports = runner.run(jobs);
    const core::StudyResult &res = reports[0].result;

    std::cout << stats::renderSeries("Figure 6 (simulated)", "cache",
                              {res.curve});
    std::cout << "\n"
              << stats::renderAsciiPlot(res.curve) << "\n";
    std::cout << "Detected knees:\n"
              << stats::describeWorkingSets(res.workingSets);

    // Lev2WS scaling (Section 6.2).
    stats::Table tab("lev2WS scaling (analytical, Section 6.2)");
    tab.header({"particles", "theta", "lev2WS (model)", "paper"});
    struct Row
    {
        double n, theta;
        const char *paper;
    };
    for (const Row &r :
         {Row{1024, 1.0, "~20 KB (Fig. 6)"},
          Row{64.0 * 1024, 1.0, "32 KB"},
          Row{1024.0 * 1024, 1.0, "40 KB"}, Row{1e9, 1.0, "60 KB"},
          Row{1e9, 0.6, "< 300 KB (octopole)"}}) {
        model::BarnesModel m({r.n, r.theta, 64.0, 1.0});
        tab.addRow({stats::formatCount(r.n), stats::formatRate(r.theta),
                    stats::formatBytes(m.lev2Bytes()), r.paper});
    }
    std::cout << "\n" << tab.render();

    std::cout << "\nPaper vs this reproduction:\n";
    double floor = res.floorRate;
    bench::compare("inherent communication miss rate", "~0.2%",
                   stats::formatRate(floor));
    if (!res.workingSets.empty()) {
        const auto &knee = res.workingSets.back();
        bench::compare("lev2WS (dominant knee core)", "~20 KB",
                       stats::formatBytes(knee.coreSizeBytes));
        bench::compare("miss rate once lev2WS fits",
                       "close to communication rate",
                       stats::formatRate(knee.missRateAfter));
    }
    bench::compare(
        "lev1WS (0.7 KB interaction scratch)",
        "100% -> ~20%",
        "not visible: scratch lives in host locals in this "
        "instrumentation (see DESIGN.md)");

    std::string dest = core::emitCliReport(cli, reports);
    if (!dest.empty())
        std::cerr << "wrote JSON artifact: " << dest << "\n";
    return core::reportRaceChecks(std::cout, reports) == 0 ? 0 : 1;
}
