/**
 * @file
 * Declarative sweep grids → canonical study populations.
 *
 * A campaign starts from a small JSON grid file (wsg-campaign-grid-v1)
 * naming the axis values to sweep — suite presets × problem sizes ×
 * line sizes × sweep resolutions × the study axes of core/study_axes
 * (profilers × sampling modes × coherence protocols × node
 * hierarchies × replay schedulers) — plus include/exclude filters.
 * expandGrid() takes the cross product, drops infeasible combinations
 * (those core::checkAxisCombination rejects: the AET profiler cannot
 * be combined with sampling), applies the filters, and resolves every
 * surviving point through core::figureSuiteJob to its canonical config
 * and content hash — the *same* factory and hash the serving daemon
 * uses, so a campaign entry's hash is its cache key by construction,
 * before anything has been submitted.
 *
 * Grid file format (all axis fields optional; defaults in brackets):
 *
 *   {"schema": "wsg-campaign-grid-v1",
 *    "presets": ["fig2-lu-B16", ...],        // [all 14 suite presets]
 *    "sizes": ["small", "base", "large"],    // ["base"]
 *    "line_bytes": [16, 32],                 // [0] = preset default
 *    "points_per_octave": [4, 2],            // [0] = study default
 *    "profilers": ["tree-mattson", "aet"],   // ["tree-mattson"]
 *    "sampling": ["exact", "rate:0.1", "size:4096"],  // ["exact"]
 *    "protocols": ["msi", "mesi", "mi"],     // ["write-invalidate"]
 *    "hierarchies": ["single", "incl:4096:65536"],    // ["single"]
 *    "schedulers": ["static", "rr", "steal:r0.25:s1"],// ["static"]
 *    "include": ["fig2"], "exclude": ["B64"],         // name substrings
 *    "analyze_races": false,
 *    "timeout_seconds": 0}
 *
 * The study-axis keys and their labels are those of core::kStudyAxes,
 * so a new axis there is a new grid key here.
 *
 * Unknown top-level keys are rejected — a typo'd axis name silently
 * falling back to its default would corrupt a thousand-study sweep.
 */

#ifndef WSG_CAMPAIGN_GRID_HH
#define WSG_CAMPAIGN_GRID_HH

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/study_axes.hh"
#include "core/suite.hh"
#include "serve/protocol.hh"

namespace wsg::campaign
{

/** Malformed grid file, manifest, or aggregation input. */
class CampaignError : public std::runtime_error
{
  public:
    explicit CampaignError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** The declarative axes of a sweep. */
struct GridSpec
{
    /** Bare suite preset names; empty = the whole suite. */
    std::vector<std::string> presets;
    std::vector<core::ProblemSize> sizes{core::ProblemSize::Base};
    /** 0 = the preset's canonical line size. */
    std::vector<std::uint32_t> lineBytes{0};
    /** 0 = the study default resolution. */
    std::vector<int> pointsPerOctave{0};
    /** Canonical labels to sweep per study axis, indexed like
     *  core::kStudyAxes (aliases normalized at parse time); empty =
     *  the axis default alone. */
    std::array<std::vector<std::string>, core::kStudyAxisCount> axes;
    /** Keep only entries whose name contains one of these (empty =
     *  keep all); then drop entries whose name contains any exclude. */
    std::vector<std::string> include;
    std::vector<std::string> exclude;
    bool analyzeRaces = false;
    /** Per-study watchdog forwarded to the daemon (0 = off). */
    double timeoutSeconds = 0.0;
};

/** Parse a wsg-campaign-grid-v1 document.
 *  @throws CampaignError on malformed input or unknown keys. */
GridSpec parseGridSpec(std::string_view json);

/** parseGridSpec over a file. @throws CampaignError (also on IO). */
GridSpec loadGridSpec(const std::string &path);

/** One expanded grid point: a submittable request plus its axes. */
struct CampaignEntry
{
    /**
     * Stable axis-qualified label: the variant-suffixed preset name
     * plus "@ppo=" and one "@<segment>=<label>" per study axis off its
     * default ("@prof=aet@samp=size:4096"), in axis order. Filters
     * match against this.
     */
    std::string name;
    /** Ready-to-send wire request (preset, overrides, timeout). */
    serve::Request request;
    /** FNV-1a hex of the canonical config — the daemon's cache key. */
    std::string configHash;

    // The entry's axis coordinates, for aggregation.
    std::string preset;
    core::ProblemSize size = core::ProblemSize::Base;
    /** As requested; 0 = preset default. */
    std::uint32_t lineBytes = 0;
    /** As requested; 0 = study default. */
    int pointsPerOctave = 0;
    /** Canonical study-axis labels, indexed like core::kStudyAxes. */
    std::array<std::string, core::kStudyAxisCount> axes =
        core::defaultAxisLabels();
};

/** An expanded, filtered, content-addressed study population. */
struct Grid
{
    std::vector<CampaignEntry> entries;
    /**
     * FNV-1a hex over every entry's (name, config hash) pair — the
     * manifest compatibility key: a resumed campaign must present the
     * same grid hash or the checkpoint is rejected.
     */
    std::string gridHash;
    /** Cross-product points dropped as infeasible (AET × sampling). */
    std::size_t skippedInfeasible = 0;
    /** Cross-product points dropped by include/exclude filters. */
    std::size_t filteredOut = 0;
};

/**
 * Expand @p spec into its deterministic study population (nested-loop
 * order: preset, size, line, resolution, then the study axes in
 * core::kStudyAxes order).
 * @throws CampaignError on unknown presets or axis values the suite
 *         factory rejects.
 */
Grid expandGrid(const GridSpec &spec);

} // namespace wsg::campaign

#endif // WSG_CAMPAIGN_GRID_HH
