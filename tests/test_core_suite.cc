/**
 * @file
 * Tests for the shared figure-suite factory (core/suite): the stable
 * preset names, lookup semantics, and the canonical-config invariants
 * the serving cache depends on (distinct hashes per preset, stable
 * bytes across calls, wall-clock knobs excluded from the key), and the
 * pinned report digests of the sampled and AET constructions.
 */

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/study_runner.hh"
#include "core/suite.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::core;

TEST(FigureSuite, NamesAreStableAndComplete)
{
    std::vector<std::string> names = figureSuiteNames();
    ASSERT_EQ(names.size(), 14u);
    // The serving protocol and EXPERIMENTS.md quote these names; a
    // rename is a breaking change and must be deliberate.
    EXPECT_EQ(names.front(), "fig2-lu-B4");
    EXPECT_EQ(names[7], "fig5-fft-radix32");
    EXPECT_EQ(names.back(), "app-fft3d");
    for (const std::string &name : names)
        EXPECT_TRUE(isFigureSuiteName(name)) << name;
    EXPECT_FALSE(isFigureSuiteName("fig9-quicksort"));
}

TEST(FigureSuite, UnknownPresetThrows)
{
    EXPECT_THROW(figureSuiteJob("fig9-quicksort"),
                 std::invalid_argument);
    EXPECT_THROW(figureSuiteJob(""), std::invalid_argument);
}

TEST(FigureSuite, JobsCarryDistinctCanonicalConfigs)
{
    std::vector<StudyJob> jobs = figureSuiteJobs();
    ASSERT_EQ(jobs.size(), figureSuiteNames().size());
    std::set<std::string> configs, hashes;
    for (const StudyJob &job : jobs) {
        EXPECT_TRUE(isFigureSuiteName(job.name)) << job.name;
        ASSERT_FALSE(job.canonicalConfig.empty()) << job.name;
        EXPECT_EQ(job.canonicalConfig.rfind("wsg-study-config-v1\n", 0),
                  0u)
            << job.name;
        configs.insert(job.canonicalConfig);
        hashes.insert(stats::fnv1a64Hex(job.canonicalConfig));
    }
    // Distinct presets must never collide onto one cache entry.
    EXPECT_EQ(configs.size(), jobs.size());
    EXPECT_EQ(hashes.size(), jobs.size());
}

TEST(FigureSuite, LookupMatchesBatchConstruction)
{
    StudyConfig base;
    std::vector<StudyJob> batch = figureSuiteJobs(base);
    for (const StudyJob &job : batch) {
        StudyJob byName = figureSuiteJob(job.name, base);
        EXPECT_EQ(byName.name, job.name);
        EXPECT_EQ(byName.canonicalConfig, job.canonicalConfig)
            << "lookup and batch must agree on " << job.name;
    }
}

TEST(FigureSuite, SamplingChangesTheKeyTimeoutDoesNot)
{
    StudyConfig plain;
    StudyConfig sampled;
    sampled.sampling.mode = approx::SamplingMode::FixedSize;
    sampled.sampling.maxLines = 4096;
    StudyConfig timed;
    timed.timeoutSeconds = 60.0;

    StudyJob a = figureSuiteJob("fig4-cg-2d", plain);
    StudyJob b = figureSuiteJob("fig4-cg-2d", sampled);
    StudyJob c = figureSuiteJob("fig4-cg-2d", timed);

    // Sampling changes the output bytes, so it must change the key;
    // the watchdog budget never does, so it must not.
    EXPECT_NE(a.canonicalConfig, b.canonicalConfig);
    EXPECT_EQ(a.canonicalConfig, c.canonicalConfig);
}

/**
 * The report bytes of the sampled and AET constructions, pinned as
 * FNV-1a digests of their wsg-study-report JSON. bench/pipeline's
 * digests.txt pins exact tree-Mattson and AET replay only; these pins
 * gate the scaling arithmetic of fixed-rate and fixed-size sampling
 * and the per-processor AET thresholds on two small-tier studies.
 */
TEST(FigureSuite, SampledAndAetReportDigestsArePinned)
{
    StudyConfig rate;
    rate.sampling.mode = approx::SamplingMode::FixedRate;
    rate.sampling.rate = 0.1;
    StudyConfig size;
    size.sampling.mode = approx::SamplingMode::FixedSize;
    size.sampling.maxLines = 2048;
    StudyConfig aet;
    aet.profiler = memsys::ProfilerKind::Aet;

    struct Pin
    {
        const char *preset;
        const StudyConfig *config;
        const char *label;
        const char *digest;
    };
    const Pin pins[] = {
        {"fig4-cg-2d@size=small", &rate, "rate 0.1", "c1a612865bf541d4"},
        {"fig4-cg-2d@size=small", &size, "size 2048", "e65ad5d4b54b727d"},
        {"fig4-cg-2d@size=small", &aet, "aet", "7df083255d48050d"},
        {"fig5-fft-radix8@size=small", &rate, "rate 0.1",
         "96863bd5ba948de2"},
        {"fig5-fft-radix8@size=small", &size, "size 2048",
         "02fc034b14b0c6d4"},
        {"fig5-fft-radix8@size=small", &aet, "aet", "d0622e52cae9c344"},
    };
    for (const Pin &pin : pins) {
        JobReport report =
            runJobInline(figureSuiteJob(pin.preset, *pin.config));
        ASSERT_TRUE(report.ok) << pin.preset << ": " << report.error;
        EXPECT_EQ(stats::fnv1a64Hex(jsonReport({report})), pin.digest)
            << pin.preset << " under " << pin.label;
    }
}
