/**
 * @file
 * Construction of concrete Profiler instances from a ProfilerKind.
 *
 * Lives in approx rather than memsys because the AET construction is an
 * approximation-layer concern; memsys only defines the interface and
 * the exact tree-Mattson implementation.
 */

#ifndef WSG_APPROX_PROFILER_FACTORY_HH
#define WSG_APPROX_PROFILER_FACTORY_HH

#include <memory>

#include "memsys/profiler.hh"

namespace wsg::approx
{

/** Build a fresh profiler of the requested construction. */
std::unique_ptr<memsys::Profiler> makeProfiler(memsys::ProfilerKind kind);

} // namespace wsg::approx

#endif // WSG_APPROX_PROFILER_FACTORY_HH
