/**
 * @file
 * RecoveryRun: the open-loop, crash-consistent run harness behind the
 * fault-recovery bench, the checkpoint tests and cli_sim's checkpoint
 * and workload modes. It stands on the shared ServingStack
 * (sim/serving_stack.hh) and queues one open-loop multi-session
 * backlog on a single lane, served by a single worker. The backlog is
 * either the synthetic one (every session's k-th transaction arrives
 * at cycle k) or, with a workload spec, any workload-plane op stream
 * replayed as raw ORAM traffic (workload/workload_source.hh):
 *
 *   Get k       -> real read  of block k mod numBlocks
 *   Put k       -> real write of block k mod numBlocks
 *   Scan k, n   -> n real reads of blocks k .. k+n-1 (mod numBlocks)
 *   Think t     -> the rank's arrival clock advances t cycles
 *
 * one session per rank, one arrival per access. On top of serving it
 * adds:
 *
 *  - checkpoint: saveTo() serializes the complete run state (device
 *    array including functional tree images and fault-injector draws,
 *    scheduler including queued backlog, stats and the leakage
 *    monitor's ledger) through sim/checkpoint.hh's crash-consistent
 *    file format;
 *  - restart: a freshly constructed RecoveryRun over the SAME config
 *    can restoreFrom() a snapshot instead of start()ing, after which
 *    serving continues bit-exactly where the saved run left off — the
 *    completed run's observable shard streams, stats and counters are
 *    indistinguishable from an uninterrupted run (golden-pinned);
 *    workload snapshot requests (the "daly" chain) become
 *    checkpointMarks();
 *  - fault accounting: the per-shard fault/recovery counters and the
 *    enforcer-charged recovery slots are summed for reporting.
 *
 * Determinism contract: everything is derived from the config (seeds
 * included), so two RecoveryRuns with equal configs produce identical
 * streams — the bit-identity gates in bench_fault_recovery and
 * tests/test_fault_recovery rest on this, and so does the recorded-
 * trace replay identity in bench_kv_serving.
 */

#ifndef TCORAM_SIM_RECOVERY_RUN_HH
#define TCORAM_SIM_RECOVERY_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/faulty_memory.hh"
#include "oram/oram_device.hh"
#include "sim/serving_stack.hh"

namespace tcoram::sim {

struct RecoveryRunConfig
{
    /** Per-shard backend: "timing" or "functional". */
    std::string deviceKind = "timing";
    std::uint32_t shards = 1;
    std::uint32_t sessions = 2;
    /** Open-loop backlog per session (arrivals at cycle k). */
    std::uint64_t txnsPerSession = 64;
    /** Enforced inter-access gap (single-candidate rate set). */
    Cycles rate = 1000;
    /** Master seed: calibration, keys, routing, protocol identities. */
    std::uint64_t seed = 42;
    /** Fault model (data kinds arm the functional datapath). */
    dram::FaultSpec fault{};
    unsigned retryBudget = 4;
    /** Path read/write-back scheduling of each shard's controller
     *  (the golden-pinned recovery streams run Sync). */
    oram::PathMode pathMode = oram::PathMode::Sync;
    /** Background eviction engine (requires Pipelined pathMode when
     *  non-off; oram/eviction_engine.hh). */
    oram::EvictionPolicy evictionPolicy = oram::EvictionPolicy::Off;
    std::uint32_t evictionBudget = 0;
    /**
     * Workload-plane spec ("method:k=v,..."; workload/
     * workload_source.hh). Empty keeps the legacy synthetic backlog.
     * Non-empty switches the run to workload-driven mode: the op
     * stream is materialized into the backlog at construction (one
     * session per rank — `sessions` is overridden), and checkpoint
     * marks requested by the method (e.g. "daly"'s optimum interval)
     * become checkpointMarks() for the snapshot chain.
     */
    std::string workloadSpec{};
};

class RecoveryRun
{
  public:
    using Event = ServingStack::Event;

    /** Construct the stack and open the sessions (no work queued). */
    explicit RecoveryRun(const RecoveryRunConfig &cfg);
    ~RecoveryRun();

    /** Queue the whole open-loop backlog (cold start). */
    void start();

    /**
     * Restore a snapshot instead of start()ing: the backlog, device
     * and stats resume exactly where the saved run stood.
     * @return empty string on success, else the load diagnostic.
     */
    std::string restoreFrom(const std::string &path);

    /** Serve exactly one queued transaction (then stop at a
     *  checkpointable round boundary). @return false when drained. */
    bool serveOne();

    /**
     * Serve everything left, then fire trailing dummies to the
     * deterministic horizon. @return the drain horizon cycle.
     */
    Cycles finish();

    /** Crash-consistent snapshot of the full run state. @return empty
     *  string on success, else the save diagnostic. */
    std::string saveTo(const std::string &path) const;

    std::uint64_t servedTotal() const
    {
        return stack_.scheduler().servedTotal();
    }
    /** Transactions the backlog queues (the workload's accesses in
     *  workload-driven mode, else sessions * txnsPerSession). */
    std::uint64_t backlogTotal() const { return backlog_.plan.size(); }
    bool workloadDriven() const { return !cfg_.workloadSpec.empty(); }
    /**
     * Served-count marks at which the workload asked for a snapshot
     * (serve until servedTotal() == mark, then saveTo() — the Daly
     * snapshot chain). Empty for methods without checkpoint requests.
     */
    const std::vector<std::uint64_t> &checkpointMarks() const
    {
        return backlog_.marks;
    }
    /** The workload's computed checkpoint interval in ops (0 when the
     *  method has none — workload/workload_source.hh). */
    std::uint64_t checkpointIntervalOps() const
    {
        return backlog_.intervalOps;
    }
    Cycles lastRealCompletion() const { return lastReal_; }

    std::uint32_t shardCount() const { return stack_.shardCount(); }
    /** Shard @p i's enforced slot period (ServingStack::shardPeriod). */
    Cycles shardPeriod(std::uint32_t i) const
    {
        return stack_.shardPeriod(i);
    }
    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const
    {
        return stack_.shardStream(i);
    }
    /** Every shard's stream CSV (ServingStack::streamCsv). */
    std::string streamCsv() const { return stack_.streamCsv(); }
    bool allTokensRetired() const { return stack_.allTokensRetired(); }

    oram::ShardedOramDevice &device() { return stack_.device(); }
    const RecoveryRunConfig &config() const { return cfg_; }

    /** Fault/recovery counters summed over functional shards (all
     *  zero for timing backends and fault-free runs). */
    std::uint64_t faultsInjected() const;
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;
    /** Enforcer-charged recovery slots summed over shards. */
    std::uint64_t recoverySlots() const;
    /** Background evictions issued, summed over shards (0 with the
     *  eviction engine off). */
    std::uint64_t evictionsIssued() const;

    /**
     * Functional payload round trip under the active fault model:
     * write @p probes seeded blocks through the scheduler, read each
     * back, count mismatches (0 on a correct datapath). No-op (0) for
     * timing backends. Run after finish()'s serves, before reusing
     * the run for stream comparisons.
     */
    std::uint64_t verifyPayloads(std::uint64_t probes);

    /** One CSV row: config echo (backlog = backlogTotal()) +
     *  outcome + fault counters. */
    std::string csvRow() const;
    static std::string csvHeader();

  private:
    /** One queued backlog access. */
    struct PlannedOp
    {
        std::uint32_t session = 0;
        Cycles arrival = 0;
        std::uint64_t blockId = 0;
        bool isWrite = false;
    };

    /** The whole open-loop backlog, materialized at construction
     *  (synthetic, or the workload spec's op stream). */
    struct Backlog
    {
        std::vector<PlannedOp> plan;
        /** Served-count checkpoint marks, ascending. */
        std::vector<std::uint64_t> marks;
        std::uint64_t intervalOps = 0;
    };

    /** Overrides @p cfg.sessions with the workload's rank count. */
    static Backlog materializeBacklog(RecoveryRunConfig &cfg);
    void submit(std::uint32_t session, Cycles arrival,
                const timing::OramTransaction &txn);
    /** Pop the served completions off the lane (retiring tokens). */
    void collectCompletions();

    RecoveryRunConfig cfg_;
    /** Built before the stack: the lane's in-flight bound covers it. */
    Backlog backlog_;
    ServingStack stack_;
    bool started_ = false;
    Cycles lastReal_ = 0;
    /** Next probe arrival per session (after the backlog's arrivals). */
    std::vector<Cycles> probeArrival_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_RECOVERY_RUN_HH
