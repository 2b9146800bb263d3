/**
 * @file
 * KvServingRun: the end-to-end KV-serving scenario. Thousands of
 * closed-loop client sessions drive a workload-plane op stream
 * (workload/workload_source.hh — any method) against a KVBackend
 * (sim/kv_backend.hh) over the shared ServingStack
 * (sim/serving_stack.hh): functional, uncapped, rate-enforced shards
 * behind the RingScheduler's lock-free lanes. Each session
 * keeps ONE ORAM transaction in flight (the closed loop): a KV op
 * unrolls into its probe/spill steps, each step's arrival is the
 * previous step's completion, and the next op starts after the
 * client's think time.
 *
 * Two drive modes:
 *
 *  - run(): one producer, sessions advanced in id order between
 *    scheduler pumps. Fully deterministic — the observable shard
 *    streams, stats and stream CSV are bit-identical across scheduler
 *    worker counts (the ring scheduler's phased-round contract
 *    carries through the KV layer).
 *  - runMultiProducer(): one client thread per lane, each owning its
 *    lane's sessions and SPSC ring endpoints while the main thread
 *    pumps the scheduler — the true multi-producer ingress path. All
 *    client-side state (cursors, latency samples, mismatch counters)
 *    is lane-partitioned, so the only cross-thread traffic is the
 *    rings' acquire/release pairs (TSan-covered in CI).
 *
 * Payload oracle: puts write self-verifying values (embedded key +
 * version + PRF-mixed pattern), and every get is checked twice. It
 * must be intact (the pattern re-derives from the embedded key and
 * version) and fresh (KvFreshnessOracle: a hit returns the latest
 * committed put of its key, a miss means the key has none). Both
 * failures count into payloadMismatches(), the zero-mismatch gate of
 * bench_kv_serving; it holds under any session interleaving.
 */

#ifndef TCORAM_SIM_KV_SERVING_HH
#define TCORAM_SIM_KV_SERVING_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/kv_backend.hh"
#include "sim/serving_stack.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

struct KvServingConfig
{
    std::uint32_t shards = 4;
    /** Producer lanes; sessions are assigned rank % lanes. */
    std::size_t lanes = 1;
    /** Scheduler worker threads (bit-identical across counts). */
    unsigned threads = 1;
    /** Enforced inter-access gap (single-candidate rate set). */
    Cycles rate = 300;
    std::uint64_t seed = 42;
    /** First epoch length (the serving stack's, not settable). */
    static constexpr Cycles epoch0 = ServingStack::kEpoch0;
    /** Op stream; workload.ranks == session count. */
    workload::WorkloadParams workload;
    KvConfig kv{};
};

/**
 * KV freshness oracle: the latest committed put version of every key
 * in [0, keys). A get hit must return exactly that version, and a get
 * miss is fresh only for a key with no committed put, so a stale read
 * and a lost update both fail. Keys outside the table (scans running
 * past the key space, non-"kv" methods) are checked for integrity
 * alone; KvServingRun sizes the table to the workload's key space.
 *
 * Per-key order is total: every step of a KV op holds a reservation
 * on the home slot it touches, and a session records its put's commit
 * (or checks its get) before it releases the op's last slot. One
 * atomic word per key therefore suffices, with no lock, across
 * multi-producer lane threads.
 */
class KvFreshnessOracle
{
  public:
    explicit KvFreshnessOracle(std::uint64_t keys);

    /** Record @p version as @p key's latest committed put. */
    void commit(std::uint64_t key, std::uint64_t version);
    /**
     * Whether a get of @p key is intact and fresh: on a @p hit,
     * @p value must be a self-verifying value of @p key
     * (KvServingRun::buildValue) carrying the latest committed
     * version; a miss must be on a key with no committed put.
     */
    bool fresh(std::uint64_t key, bool hit,
               std::span<const std::uint8_t> value) const;

  private:
    static constexpr std::uint64_t kNone = ~0ull;
    std::uint64_t keys_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> latest_;
};

class KvServingRun
{
  public:
    using Event = ServingStack::Event;

    explicit KvServingRun(const KvServingConfig &cfg);
    ~KvServingRun();

    /** Deterministic single-producer drive (then trailing drain). */
    void run();
    /** One client thread per lane (multi-producer ingress). */
    void runMultiProducer();

    /** Merged per-session counters, percentile fields filled. */
    KVStats stats() const;
    std::uint64_t payloadMismatches() const;
    /** Access ops completed (gets + puts + scan elements). */
    std::uint64_t opsCompleted() const;
    std::uint32_t sessionCount() const
    {
        return static_cast<std::uint32_t>(sessions_.size());
    }
    bool allTokensRetired() const { return stack_.allTokensRetired(); }

    /** Enforced slot period: rate + calibrated access latency. Each
     *  shard calibrates independently — use shardPeriod(i) for the
     *  exact-grid checks; period() (the max over shards) sizes the
     *  drain horizon. */
    Cycles period() const { return stack_.period(); }
    Cycles shardPeriod(std::uint32_t i) const
    {
        return stack_.shardPeriod(i);
    }
    std::vector<Event> shardStream(std::uint32_t i) const
    {
        return stack_.shardStream(i);
    }
    std::vector<Cycles> shardStarts(std::uint32_t i) const
    {
        return stack_.shardStarts(i);
    }
    /** Every shard's full stream (start + kind rows) — the worker-
     *  count bit-identity digest. */
    std::string streamCsv() const { return stack_.streamCsv(); }

    /** Nearest-rank whole-op latency quantiles (completion - first
     *  arrival, think time excluded). */
    Cycles getLatencyPercentile(double q) const;
    Cycles putLatencyPercentile(double q) const;

    const KvServingConfig &config() const { return cfg_; }

    /** Self-verifying payload codec (exposed for tests). Puts embed
     *  version (sid << 32) | per-session put count, unique per put. */
    static void buildValue(std::vector<std::uint8_t> &out,
                           std::uint64_t key, std::uint64_t version,
                           std::uint32_t len);
    /** The embedded version when @p value is a self-verifying value
     *  of @p key, else nullopt. */
    static std::optional<std::uint64_t>
    checkValue(std::span<const std::uint8_t> value, std::uint64_t key);
    /** Smallest self-verifying value (key + version embedded). */
    static constexpr std::uint32_t kMinValueBytes = 17;

  private:
    struct Session
    {
        explicit Session(const KVBackend &backend) : cursor(backend) {}

        std::uint32_t sid = 0;
        std::uint32_t rank = 0;
        KvOpCursor cursor;
        Cycles clock = 0;
        bool ended = false;
        bool awaiting = false;
        workload::WorkloadOpKind opKind = workload::WorkloadOpKind::End;
        std::uint64_t opKey = 0;
        Cycles opStart = 0;
        std::uint32_t scanLeft = 0;
        std::uint64_t scanKey = 0;
        std::uint64_t putSeq = 0;
        /** Version the in-flight put writes. */
        std::uint64_t putVersion = 0;
        std::uint64_t mismatches = 0;
        std::uint64_t opsDone = 0;
        Cycles lastDone = 0;
        std::vector<std::uint8_t> payload;
        std::vector<Cycles> getLatencies;
        std::vector<Cycles> putLatencies;
        /** Home slot this session's in-flight op has reserved
         *  (slot-serialization below), -1 when none. */
        std::int64_t heldSlot = -1;
    };

    /** Pull ops / submit the next cursor step for one session.
     *  @return false when the lane ring is at its backpressure
     *  bound (retry after a pump). */
    bool advanceSession(Session &s);
    void handleCompletion(const SessionRing::Completion &c);
    void finishOp(Session &s);
    void drainTail();
    Cycles percentile(std::vector<Cycles> &samples, double q) const;

    // --- Slot serialization -------------------------------------------
    //
    // A KV op is several ORAM transactions (probe, home write, spill
    // strip); two sessions interleaving ops on the same home slot
    // could tear a record (new header over old spill bytes) or lose an
    // insert. Every step therefore holds a reservation on the slot it
    // touches, hand-over-hand: acquire before the step submits,
    // carry it while probing stays on the slot, release when the probe
    // moves on or the op completes. A session holds at most ONE slot
    // and acquires only after releasing (no deadlock); a contended
    // acquire just stalls the session until the holder's op drains.
    // Single-producer runs stall deterministically; multi-producer
    // runs use the same atomic flags across lane threads.
    std::int64_t slotOfBlock(std::uint64_t block_id) const;
    bool reserveSlot(Session &s, std::int64_t slot);
    void releaseSlot(Session &s);

    KvServingConfig cfg_;
    ServingStack stack_;
    KVBackend backend_;
    KvFreshnessOracle oracle_;
    std::unique_ptr<workload::WorkloadSource> source_;
    std::vector<Session> sessions_;
    /** sessions of each lane, in session-id order. */
    std::vector<std::vector<std::uint32_t>> laneSessions_;
    /** One busy flag per home slot (slot serialization). */
    std::unique_ptr<std::atomic<std::uint8_t>[]> slotBusy_;
    bool ran_ = false;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_KV_SERVING_HH
