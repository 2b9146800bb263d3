/**
 * @file
 * The three measured scenarios. Each one drives the library through
 * its public entry points only:
 *
 *  - GridScenario:     the fig6 grid through sim::ExperimentEngine
 *                      (sim, workload, cache, cpu, timing; no crypto);
 *  - DatapathScenario: the bare fused oram::RecursivePathOram at paper
 *                      geometry, H=3 (oram, crypto);
 *  - KvScenario:       sim::KvServingRun::run(), the deterministic
 *                      single-producer KV-serving mode (sim, workload,
 *                      timing, oram, crypto).
 *
 * setupOnce() builds the scenario's state once and returns its host
 * time. The untraced run interleaves the scenarios: rep() times one
 * repetition and returns its host throughput samples, enough() says
 * whether the scenario has its minimum repetitions, and finish() runs
 * the checks that need the whole run and adds the scenario's end-to-end
 * metrics from all the samples. trace() adds its per-layer
 * metrics from the traced run and returns the host seconds it spent on
 * untraced baseline passes (outside span coverage). Every correctness
 * check is folded into @p checks.
 */

#ifndef TCORAM_PERFBENCH_SCENARIOS_HH
#define TCORAM_PERFBENCH_SCENARIOS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hh"
#include "oram/path_oram.hh"
#include "sim/experiment.hh"
#include "sim/kv_serving.hh"
#include "sim/system_config.hh"
#include "workload/profile.hh"

namespace perfbench {

class GridScenario
{
  public:
    /** @param check_threads also run the grid at one thread in
     *        finish() and require the identical results (3.3 s of one
     *        core at default size, so only the paper_grid workload pays
     *        it). */
    GridScenario(std::uint64_t seed, unsigned threads, bool check_threads);

    double setupOnce();
    /** One grid pass; @return its simulated Minst per host second. */
    double rep(Checks &checks);
    bool enough() const;
    void finish(Checks &checks, Report &report, const Rates &rates);
    double trace(Checks &checks, Report &report, SpanRecorder &spans);

  private:
    std::uint64_t seed_;
    unsigned threads_;
    bool checkThreads_;
    std::vector<tcoram::sim::SystemConfig> configs_;
    std::vector<tcoram::workload::Profile> profiles_;
    std::size_t passes_ = 0;
    std::vector<std::uint64_t> firstDigests_;
    tcoram::sim::Grid last_;
};

class DatapathScenario
{
  public:
    explicit DatapathScenario(std::uint64_t seed);
    ~DatapathScenario();

    double setupOnce();
    /** @return the accesses per host second of each timed batch. */
    std::vector<double> rep();
    bool enough() const;
    void finish(Checks &checks, Report &report, const Rates &rates);
    double trace(Checks &checks, Report &report, SpanRecorder &spans);

    /** Resolved bucket-crypto backend ("aesni", "ttable", ...). */
    std::string backendName() const;

    /** One tree plus its op stream and freshness shadow. */
    class TreeClient;

  private:
    std::uint64_t seed_;
    /** The two most recently built trees: the measured one and the
     *  replay twin of the determinism check. */
    std::unique_ptr<TreeClient> main_;
    std::unique_ptr<TreeClient> twin_;
    std::uint64_t badCallBatches_ = 0;
    std::size_t reps_ = 0;
};

class KvScenario
{
  public:
    explicit KvScenario(std::uint64_t seed);
    ~KvScenario();

    double setupOnce();
    /** One run of the next realization; @return its ORAM transactions
     *  per host second. */
    double rep(Checks &checks);
    bool enough() const;
    void finish(Report &report, const Rates &rates);
    double trace(Checks &checks, Report &report, SpanRecorder &spans);

  private:
    struct Outcome;

    /** Run realization @p sub once (the pending run for 0). */
    Outcome runOnce(std::uint32_t sub, Checks &checks, SpanRecorder *spans);

    std::uint64_t seed_;
    /** Realization 0, built by setupOnce(). */
    std::unique_ptr<tcoram::sim::KvServingRun> pending_;
    /** Determinism digest of each realization's first run (0 = not
     *  run yet); later runs of the realization must match it. */
    std::vector<std::uint64_t> digests_;
    std::uint32_t reps_ = 0;
    double ops_ = 0, txns_ = 0, simOpsPerMcycle_ = 0, getP50_ = 0,
           getP999_ = 0, putP99_ = 0;
};

} // namespace perfbench

#endif // TCORAM_PERFBENCH_SCENARIOS_HH
