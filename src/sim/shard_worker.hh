/**
 * @file
 * RingScheduler: the multi-session, M-threaded front of the sharded
 * ORAM device array — the one scheduler of the tree. N client sessions
 * (each with its own §5 protocol identity and leakage budget) feed M
 * rate-enforced subtree devices. WHICH pending transaction a shard
 * serves is dispatch policy; WHEN each shard's accesses happen is
 * decided entirely by that shard's enforcer, so the observable channel
 * is M periodic access streams whatever the session count or arrival
 * pattern. Admission clears the COMPOSED bound M * |E| * lg|R|, and the
 * tightest finite session budget becomes the LeakageMonitor shared by
 * every shard's enforcer.
 *
 * Clients talk to the scheduler exclusively through per-lane lock-free
 * SPSC rings (sim/session_ring.hh); sessions are lightweight
 * descriptors (HMAC-admitted budget + lane + QoS attributes, ~130
 * bytes), so a million open sessions fit in a couple hundred MB;
 * dispatch runs on up to M worker threads, one shard's ShardSlot
 * (enforcer + calibrated device) per worker stripe.
 *
 * ## Determinism: N threads == 1 thread, bit-identical
 *
 * Work proceeds in phased ROUNDS separated by barriers:
 *
 *   phase L (partitioned by LANE):  fold the previous round's per-
 *     (shard, lane) completion buckets — shard-id order — into session
 *     stats and the lane's completion ring, then pop the lane's
 *     pending submissions and stage them per target shard (stateless
 *     PRF routing only).
 *   == barrier ==
 *   phase S (partitioned by SHARD): merge the staged transactions in
 *     lane order into the slot's session queues, then serve BOUNDED:
 *     a slot stops at its own next epoch boundary (ShardSlot::serve)
 *     instead of processing the transition, because the transition is
 *     the one operation that touches cross-shard state (the shared
 *     LeakageMonitor).
 *   == barrier, completion step (one thread) ==
 *     apply the pending epoch transitions in SHARD-ID ORDER, then
 *     decide whether the round loop is quiescent.
 *
 * Every phase touches only state owned by its stripe (lane state by
 * the lane's worker, shard state by the shard's worker), the stripes
 * are fixed functions of lane/shard id, and the only cross-shard
 * mutation — the monitor's decision ledger — happens serially in
 * shard-id order. Hence the state evolution is a pure function of the
 * submission sequence, independent of the worker count: per-shard
 * observable streams, leakage counters, session stats and csvRow
 * output are bit-identical between 1 and N workers (test-enforced in
 * tests/test_scheduler_scale.cc).
 *
 * ## Faults and checkpoints
 *
 * Shards may run a fault-injecting functional datapath: a retried
 * access leaves recovery slots owed in its enforcer, paid at the
 * shard's next bounded call on the slot grid (timing/rate_enforcer.hh),
 * so recovery stays unobservable. At a quiescent round boundary the
 * whole scheduler — descriptors, lane token state, shard queues,
 * enforcers and the monitor's ledger — checkpoints through
 * saveState(); serveUpTo() reaches such a boundary after an exact
 * number of serves (the RecoveryRun kill points, sim/recovery_run.hh).
 */

#ifndef TCORAM_SIM_SHARD_WORKER_HH
#define TCORAM_SIM_SHARD_WORKER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oram/sharded_device.hh"
#include "protocol/session.hh"
#include "sim/column_batch.hh"
#include "sim/session_ring.hh"
#include "timing/dispatch_policy.hh"
#include "timing/shard_slot.hh"

namespace tcoram::sim {

/** Per-session end-of-run statistics. */
struct SessionStats
{
    std::uint32_t sessionId = 0;
    /** The session's leakage budget L (negative = unlimited). */
    double leakageLimitBits = -1.0;
    /** Admission result of the §5 handshake. */
    bool admitted = false;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    Cycles firstArrival = 0;
    Cycles lastCompletion = 0;
    /** Sum over completions of (done - arrival). */
    Cycles totalLatency = 0;
    /** Sum over completions of (start - arrival): rate-induced wait. */
    Cycles totalSlotWait = 0;
    Cycles maxLatency = 0;

    double
    avgLatency() const
    {
        return completed ? static_cast<double>(totalLatency) /
                               static_cast<double>(completed)
                         : 0.0;
    }

    /** Completions per million cycles over @p span_cycles. */
    double
    throughputPerMcycle(Cycles span_cycles) const
    {
        return span_cycles ? 1e6 * static_cast<double>(completed) /
                                 static_cast<double>(span_cycles)
                           : 0.0;
    }
};

class RingScheduler
{
  public:
    struct Options
    {
        /** Producer lanes (one SPSC ring pair each). */
        std::size_t lanes = 1;
        /** Per-lane backpressure bound — max unretired tokens
         *  (rounded up to a power of two). */
        std::size_t ringCapacity = 1024;
        /** Worker threads (clamped to [1, max(lanes, shards)]). */
        unsigned threads = 1;
        /** Per-shard QoS dispatch policy. */
        timing::DispatchPolicyKind policy =
            timing::DispatchPolicyKind::RoundRobin;
        /** Keep per-completion latency samples (percentiles). Off for
         *  the million-session smoke, where samples would dominate. */
        bool recordLatencies = true;
        /**
         * Record one columnar telemetry row per (round, shard) that
         * served work (sim/column_batch.hh): appended lock-free by the
         * shard's owning worker as raw typed values — no formatting on
         * the dispatch path — and serialized by telemetryCsv() in
         * (round, shard) order, bit-identical across worker counts.
         * Off by default (rounds can vastly outnumber useful samples).
         */
        bool recordShardTelemetry = false;
    };

    /**
     * One owned enforcer per shard of @p device, all sharing @p rates /
     * @p schedule / @p learner (public knobs, which must outlive the
     * scheduler) but each timing its own stream. Admission uses
     * @p params with its shard count overridden to the device's
     * (composed bound).
     */
    RingScheduler(oram::ShardedOramDevice &device,
                  const timing::RateSet &rates,
                  const timing::EpochSchedule &schedule,
                  const timing::LearnerIf &learner, Cycles initial_rate,
                  const protocol::LeakageParams &params, Options opts);
    /** Default options. */
    RingScheduler(oram::ShardedOramDevice &device,
                  const timing::RateSet &rates,
                  const timing::EpochSchedule &schedule,
                  const timing::LearnerIf &learner, Cycles initial_rate,
                  const protocol::LeakageParams &params)
        : RingScheduler(device, rates, schedule, learner, initial_rate,
                        params, Options{})
    {
    }
    ~RingScheduler();

    /**
     * Open a session as a lightweight descriptor bound to @p lane.
     * Finite budgets run the §5 HMAC handshake (transient protocol
     * objects — nothing per-session survives but the descriptor);
     * unlimited budgets are admitted outright, which is what keeps a
     * million opens cheap. The tightest finite admitted budget becomes
     * the run's LeakageMonitor, attached to every shard's enforcer.
     * Must happen before the first transaction is served (asserted): a
     * later rebuild would forget bits already spent.
     */
    std::uint32_t openSession(std::uint64_t user_seed,
                              double leakage_limit_bits = -1.0,
                              std::uint16_t lane = 0,
                              std::uint16_t weight = 1,
                              Cycles deadline_offset = 0);

    /**
     * Push a transaction onto the session's lane ring. Returns the
     * lane token (poll lane(l).isRetired(token)), or nullopt when the
     * lane is at its backpressure bound — capacity() tokens not yet
     * retired — in which case pump and drain completions, then retry.
     * @p arrival stamps must be non-decreasing per session (the shard
     * queues assert monotonic per-session arrival order at enqueue);
     * different sessions may interleave arbitrarily. Fatal on
     * unadmitted sessions.
     */
    std::optional<std::uint64_t> trySubmit(std::uint32_t sid, Cycles arrival,
                                           timing::OramTransaction txn);

    /** Lane @p l's ring pair (completion popping, fence polling). */
    SessionRing &lane(std::size_t l);
    const SessionRing &lane(std::size_t l) const;

    /**
     * Run phased rounds until every ring, staging buffer and shard
     * queue is empty. Producers should be quiescent (or tolerate the
     * loop exiting between their pushes). @return last completion
     * cycle across shards.
     */
    Cycles runUntilIdle();

    /**
     * Run rounds on the calling thread until exactly @p n more
     * transactions are served, or fewer if every queue empties first,
     * then finish the round loop at a quiescent boundary: recovery
     * slots owed by the last serves paid, every served completion
     * folded into its lane ring, every ringed submission merged into
     * the shard queues. serveUpTo(0) only does the latter. Worker-
     * count independent, like every pump. @return the count served.
     */
    std::uint64_t serveUpTo(std::uint64_t n);

    /** Fire the trailing dummies every shard owes up to @p t (same
     *  barrier discipline for the epoch transitions on the way). */
    void drainUntil(Cycles t);

    std::size_t sessionCount() const { return descriptors_.size(); }
    const SessionStats &stats(std::uint32_t sid) const;
    bool sessionAdmitted(std::uint32_t sid) const;

    std::size_t shardCount() const { return slots_.size(); }
    const timing::ShardSlot &shard(std::size_t i) const;
    const timing::LeakageMonitor *monitor() const { return monitor_.get(); }

    /** Total transactions served (quiesced value). */
    std::uint64_t servedTotal() const;
    /** Max completion cycle across shard enforcers. */
    Cycles lastCompletion() const;

    double fairnessRatio() const;
    /** Nearest-rank queue-latency quantile (requires recordLatencies). */
    Cycles latencyPercentile(std::uint32_t sid, double q) const;

    /**
     * Checkpoint support: session descriptors (stats and latency
     * samples), lane token state, every shard slot (enforcer, queued
     * backlog, policy state), the shared monitor's ledger and the
     * round counters. Legal only at a quiescent round boundary — every
     * lane ring, staging buffer and completion bucket empty (asserted;
     * serveUpTo() and runUntilIdle() end there once the client has
     * popped its completions). The device array is checkpointed
     * separately by the run harness. Restore requires a scheduler
     * built with the identical configuration and the same sessions
     * already opened (asserted). Telemetry rows are not carried.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

    /** Per-shard summary CSV (header + one row per shard), pinned
     *  bit-identical across worker counts. */
    static std::string csvHeader();
    std::string csvRow(std::uint32_t shard) const;
    std::string csv() const;

    /** Column layout of the per-(round, shard) telemetry rows. */
    static ColumnSchema shardTelemetrySchema();
    /** Recorded rows (null unless Options::recordShardTelemetry). */
    const ColumnBatch *telemetry() const { return telemetry_.get(); }
    /** Serialized telemetry, (round, shard)-ordered (fatal when the
     *  option is off). */
    std::string telemetryCsv() const;

  private:
    struct SessionDescriptor
    {
        SessionStats stats;
        std::uint16_t lane = 0;
        std::uint16_t weight = 1;
        Cycles deadlineOffset = 0;
        std::vector<Cycles> latencies;
    };

    struct Staged
    {
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        timing::OramTransaction txn;
    };

    void laneStep(unsigned worker);
    void shardStep(unsigned worker);
    void serialStep();
    void pump(bool draining, Cycles drain_t, std::uint64_t budget);
    void attachMonitor();

    oram::ShardedOramDevice *device_;
    protocol::LeakageParams params_;
    Options opts_;
    unsigned workers_ = 1;

    std::vector<std::unique_ptr<timing::ShardSlot>> slots_;
    std::vector<std::unique_ptr<SessionRing>> lanes_;
    std::vector<SessionDescriptor> descriptors_;
    std::unique_ptr<timing::LeakageMonitor> monitor_;
    double tightestLimit_ = -1.0;

    /** staging_[lane][shard]: routed submissions, written in phase L
     *  by the lane's worker, consumed in phase S by the shard's. */
    std::vector<std::vector<std::vector<Staged>>> staging_;
    /** buckets_[shard][lane]: completions, written in phase S, folded
     *  in the NEXT round's phase L. */
    std::vector<std::vector<std::vector<SessionRing::Completion>>> buckets_;
    std::vector<std::uint8_t> blocked_; ///< per shard, cleared serially
    std::vector<std::uint64_t> servedPerShard_;
    /** Columnar shard telemetry: one chunk per worker, appended only
     *  by the shard's owner in phase S (lock-free by ownership). */
    std::unique_ptr<ColumnBatch> telemetry_;
    /** Round counter (incremented in the serial step; read by phase S
     *  across the barrier) — the telemetry order key's major digit. */
    std::uint64_t round_ = 0;
    bool anyServed_ = false;
    mutable std::vector<Cycles> latencyScratch_; ///< percentile reuse

    // round-loop controls (written in the serial step, read after the
    // barrier unblocks — synchronized by std::barrier's phase
    // completion ordering)
    bool stop_ = false;
    bool draining_ = false;
    Cycles drainT_ = 0;
    /** Serves left in this pump (kNoBudget = unbounded); only the
     *  single-threaded loop of serveUpTo() counts it down. */
    std::uint64_t budget_ = kNoBudget;
    static constexpr std::uint64_t kNoBudget = ~std::uint64_t{0};
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SHARD_WORKER_HH
