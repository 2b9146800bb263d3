#include "common/stats.hh"

#include "common/log.hh"

namespace tcoram {

double
StatDump::get(const std::string &name) const
{
    auto it = scalars_.find(name);
    tcoram_assert(it != scalars_.end(), "unknown stat ", name);
    return it->second;
}

bool
StatDump::has(const std::string &name) const
{
    return scalars_.count(name) != 0;
}

} // namespace tcoram
