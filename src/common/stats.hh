/**
 * @file
 * Named-scalar stats registry: the end-of-run dump behind the
 * KV-serving stats CSV (sim/stat_dump.hh).
 */

#ifndef TCORAM_COMMON_STATS_HH
#define TCORAM_COMMON_STATS_HH

#include <map>
#include <string>

namespace tcoram {

/** Named scalar registry for end-of-run dumps. */
class StatDump
{
  public:
    void set(const std::string &name, double v) { scalars_[name] = v; }
    double get(const std::string &name) const;
    bool has(const std::string &name) const;
    const std::map<std::string, double> &all() const { return scalars_; }

  private:
    std::map<std::string, double> scalars_;
};

} // namespace tcoram

#endif // TCORAM_COMMON_STATS_HH
