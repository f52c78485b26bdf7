#include "approx/profiler_factory.hh"

#include "approx/aet.hh"
#include "memsys/tree_stack_distance.hh"

namespace wsg::approx
{

std::unique_ptr<memsys::Profiler>
makeProfiler(memsys::ProfilerKind kind)
{
    switch (kind) {
      case memsys::ProfilerKind::Aet:
        return std::make_unique<AetProfiler>();
      case memsys::ProfilerKind::TreeMattson:
        break;
    }
    return std::make_unique<memsys::TreeStackDistanceProfiler>();
}

} // namespace wsg::approx
