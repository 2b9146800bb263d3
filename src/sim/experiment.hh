/**
 * @file
 * Experiment harness helpers: run (config x workload) grids, compute
 * overheads relative to base_dram, and print aligned tables — the
 * machinery shared by every bench binary.
 */

#ifndef TCORAM_SIM_EXPERIMENT_HH
#define TCORAM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "workload/profile.hh"

namespace tcoram::sim {

/**
 * Run one (config, workload) pair for @p insts measured instructions,
 * after @p warmup discarded warm-up instructions (fast-forward).
 * Seeded by cfg.seed.
 */
SimResult runOne(const SystemConfig &cfg, const workload::Profile &profile,
                 InstCount insts, InstCount warmup = 0);

/**
 * Same, but with an explicit @p seed overriding cfg.seed — the
 * reproducibility hook the parallel ExperimentEngine threads through
 * to common/rng for every grid cell.
 */
SimResult runOne(const SystemConfig &cfg, const workload::Profile &profile,
                 InstCount insts, InstCount warmup, std::uint64_t seed);

/** Results of a full grid, indexed [config][workload]. */
struct Grid
{
    std::vector<SystemConfig> configs;
    std::vector<workload::Profile> workloads;
    std::vector<std::vector<SimResult>> results;

    const SimResult &at(std::size_t c, std::size_t w) const
    {
        return results.at(c).at(w);
    }
};

/**
 * Run every config over every workload. Thin wrapper over the
 * thread-pool ExperimentEngine (sim/experiment_engine.hh) with the
 * default thread count; results are identical at any thread count.
 */
Grid runGrid(const std::vector<SystemConfig> &configs,
             const std::vector<workload::Profile> &workloads,
             InstCount insts, InstCount warmup = 0);

/**
 * Performance overhead of @p r relative to @p base, as the paper
 * reports it: cycles ratio at equal instruction count.
 */
double perfOverheadX(const SimResult &r, const SimResult &base);

/** Simple fixed-width table printer for bench output. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);
    void addRow(std::vector<std::string> cells);
    void print() const;

    /** Format helpers. */
    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric-mean helper for "Avg" columns. */
double geoMean(const std::vector<double> &values);

} // namespace tcoram::sim

#endif // TCORAM_SIM_EXPERIMENT_HH
