/**
 * @file
 * The study axes: the five swappable parts of a study's machine and
 * measurement, each defined once.
 *
 *   axis       labels (aliases)                          parsed by
 *   profiler   tree-mattson (tree) | aet                 memsys
 *   sampling   exact | rate:R | size:N                   approx
 *   protocol   write-invalidate (wi) | write-update (wu)
 *              | mi | msi | mesi                         sim
 *   hierarchy  single | incl:<l1>:<l2> | excl:<l1>:<l2>  memsys
 *   scheduler  static | round-robin (rr)
 *              | steal:r<rate>:s<seed> (steal, ws)       replay
 *
 * A row of kStudyAxes holds what every front end needs for one axis:
 * its campaign grid key and entry-name segment, its default label, how
 * a label sets it on a StudyConfig, its canonical label, and the lines
 * it adds to the canonical study config (and so to config_hash). The
 * runner CLI flags and serve wire keys that set an axis are rows of
 * kAxisInputs. The runner CLI, the wire codec, wsg-submit, the
 * campaign grid and the canonical config loop over these two tables
 * and never branch per axis: adding an axis is a row in each plus its
 * module's parse and label functions.
 */

#ifndef WSG_CORE_STUDY_AXES_HH
#define WSG_CORE_STUDY_AXES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/working_set_study.hh"

namespace wsg::core
{

/** Row indices of kStudyAxes. */
enum StudyAxisIndex : std::size_t
{
    kProfilerAxis,
    kSamplingAxis,
    kProtocolAxis,
    kHierarchyAxis,
    kSchedulerAxis,
    kStudyAxisCount,
};

struct StudyAxis
{
    /** Campaign grid key listing the axis's sweep values. */
    const char *gridKey;
    /** Campaign entry-name segment ("prof" in "@prof=aet"). */
    const char *segment;
    /** Label of the default value; only other values are named. */
    const char *defaultLabel;
    /** Set the axis on @p config from a label (aliases accepted).
     *  @throws std::invalid_argument on an unknown or malformed label. */
    void (*parse)(StudyConfig &config, const std::string &label);
    std::string (*label)(const StudyConfig &config);
    /** Append the axis's wsg-study-config-v1 lines. */
    void (*appendCanonical)(std::string &out, const StudyConfig &config);
};

/** Append one "key=value" line of a wsg-study-config-v1 config. */
void appendConfigLine(std::string &out, std::string_view key,
                      std::string_view value);

/** The axes, in canonical-config, grid-loop and entry-name order. */
extern const std::array<StudyAxis, kStudyAxisCount> kStudyAxes;

/** Every axis's default label, indexed like kStudyAxes. */
std::array<std::string, kStudyAxisCount> defaultAxisLabels();

/** A value-taking input that sets an axis: a runner CLI flag ("--flag
 *  V" or "--flag=V") and, unless it is CLI-only, a serve wire key. */
struct AxisInput
{
    StudyAxisIndex axis;
    const char *flag;
    /** nullptr for a CLI-only input. */
    const char *wireKey;
    /** The wire value is a JSON number rather than a string. */
    bool numeric;
    /**
     * Non-null when the input sets the whole axis: the label is this
     * prefix followed by the value ("rate:" + "0.25"). Null for a
     * modifier of the current value (--steal-rate). Two different
     * whole-axis inputs of one axis are alternatives.
     */
    const char *labelPrefix;
    /** What a bad value needs ("a rate in (0, 1]"); null to pass on
     *  the label parser's message instead. */
    const char *need;
    /** Modifiers only: set the value on @p config.
     *  @throws std::invalid_argument on a bad value. */
    void (*modify)(StudyConfig &config, const std::string &value);
};

inline constexpr std::size_t kAxisInputCount = 8;
/** The first kWireInputCount inputs have a wire key; the rest are
 *  CLI-only. */
inline constexpr std::size_t kWireInputCount = 6;

/** Every axis input, the wire inputs first in wire-encoding order. */
extern const std::array<AxisInput, kAxisInputCount> kAxisInputs;

/** Bit k set = kAxisInputs[k] was given. */
using AxisInputSet = std::uint32_t;

/**
 * Apply @p value of @p input to @p config; @p spelling, the flag or
 * wire key it came in under, heads the error message.
 * @throws std::invalid_argument on a bad value.
 */
void applyAxisInput(const AxisInput &input, StudyConfig &config,
                    const std::string &value, std::string_view spelling);

/**
 * The rules that span axes, which every front end checks once its
 * inputs are applied: two whole-axis inputs of one axis (--sample-rate
 * and --sample-size) do not combine, and the AET profiler does not
 * compose with sampling.
 * @param given the inputs applied (0 for a campaign grid point)
 * @param wire name the inputs by wire key instead of CLI flag
 * @throws std::invalid_argument naming the broken rule.
 */
void checkAxisCombination(const StudyConfig &config, AxisInputSet given,
                          bool wire);

/** The whole-axis input of @p axis whose label prefix @p label starts
 *  with (its value is the rest of the label), or nullptr. */
const AxisInput *inputForLabel(StudyAxisIndex axis,
                               std::string_view label);

} // namespace wsg::core

#endif // WSG_CORE_STUDY_AXES_HH
