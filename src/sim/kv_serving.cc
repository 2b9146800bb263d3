#include "sim/kv_serving.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/log.hh"
#include "oram/oram_config.hh"

namespace tcoram::sim {

namespace {

/** Per-lane backpressure bound of the KV scheduler. */
constexpr std::size_t kRingCapacity = 1024;

oram::OramDeviceSpec
functionalSpec()
{
    // Uncapped: a capacity fold would alias distinct KV blocks.
    oram::OramDeviceSpec spec;
    spec.kind = "functional";
    return spec;
}

RingScheduler::Options
laneOptions(const KvServingConfig &cfg)
{
    RingScheduler::Options opts;
    opts.lanes = cfg.lanes;
    opts.ringCapacity = kRingCapacity;
    opts.threads = cfg.threads;
    opts.recordLatencies = false; // whole-op latencies tracked here
    return opts;
}

} // namespace

KvFreshnessOracle::KvFreshnessOracle(std::uint64_t keys)
    : keys_(keys),
      latest_(std::make_unique<std::atomic<std::uint64_t>[]>(keys))
{
    for (std::uint64_t k = 0; k < keys_; ++k)
        latest_[k].store(kNone);
}

void
KvFreshnessOracle::commit(std::uint64_t key, std::uint64_t version)
{
    if (key < keys_)
        latest_[key].store(version);
}

bool
KvFreshnessOracle::fresh(std::uint64_t key, bool hit,
                         std::span<const std::uint8_t> value) const
{
    if (key >= keys_) // untracked: integrity only
        return !hit || KvServingRun::checkValue(value, key).has_value();
    const std::uint64_t latest = latest_[key].load();
    if (!hit)
        return latest == kNone;
    return KvServingRun::checkValue(value, key) == latest;
}

KvServingRun::KvServingRun(const KvServingConfig &cfg)
    : cfg_(cfg), stack_(functionalSpec(), cfg.shards, cfg.rate, cfg.seed,
                        laneOptions(cfg)),
      backend_(cfg.kv), oracle_(cfg.workload.keySpace)
{
    tcoram_assert(cfg_.shards >= 1, "kv serving needs a shard");
    tcoram_assert(cfg_.lanes >= 1, "kv serving needs a lane");
    const oram::OramConfig ocfg = oram::OramConfig::benchConfig();
    tcoram_assert(cfg_.kv.blockBytes == ocfg.blockBytes,
                  "kv serving: KV block size ", cfg_.kv.blockBytes,
                  " != device block size ", ocfg.blockBytes);
    // First-touch id compaction is per shard; even the worst-case
    // routing (every KV block on one shard) must fit its subtree.
    const std::uint64_t per_shard =
        (ocfg.numBlocks + cfg_.shards - 1) / cfg_.shards;
    tcoram_assert(cfg_.kv.totalBlocks() <= per_shard, "kv serving: ",
                  cfg_.kv.totalBlocks(), "-block KV table exceeds the ",
                  per_shard, "-block per-shard subtree");
    source_ = workload::loadWorkload(cfg_.workload);
    const std::uint32_t ranks = source_->ranks();
    tcoram_assert(ranks >= 1, "kv serving: workload has no ranks");
    sessions_.reserve(ranks);
    laneSessions_.assign(cfg_.lanes, {});
    for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        const auto lane = static_cast<std::uint16_t>(rank % cfg_.lanes);
        const std::uint32_t sid = stack_.scheduler().openSession(
            mixSeed(cfg_.seed, 0x5e55'0000ull + rank), -1.0, lane);
        Session s(backend_);
        s.sid = sid;
        s.rank = rank;
        sessions_.push_back(std::move(s));
        laneSessions_[lane].push_back(sid);
    }
    slotBusy_ =
        std::make_unique<std::atomic<std::uint8_t>[]>(cfg_.kv.homeSlots);
    for (std::uint64_t i = 0; i < cfg_.kv.homeSlots; ++i)
        slotBusy_[i].store(0, std::memory_order_relaxed);
}

std::int64_t
KvServingRun::slotOfBlock(std::uint64_t block_id) const
{
    const std::uint64_t rel = block_id - cfg_.kv.baseBlockId;
    if (rel < cfg_.kv.homeSlots)
        return static_cast<std::int64_t>(rel);
    return static_cast<std::int64_t>((rel - cfg_.kv.homeSlots) /
                                     cfg_.kv.spillPerSlot);
}

bool
KvServingRun::reserveSlot(Session &s, std::int64_t slot)
{
    if (s.heldSlot == slot)
        return true;
    releaseSlot(s);
    std::uint8_t expected = 0;
    if (!slotBusy_[static_cast<std::uint64_t>(slot)]
             .compare_exchange_strong(expected, 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
        return false;
    s.heldSlot = slot;
    return true;
}

void
KvServingRun::releaseSlot(Session &s)
{
    if (s.heldSlot < 0)
        return;
    slotBusy_[static_cast<std::uint64_t>(s.heldSlot)].store(
        0, std::memory_order_release);
    s.heldSlot = -1;
}

KvServingRun::~KvServingRun() = default;

void
KvServingRun::buildValue(std::vector<std::uint8_t> &out, std::uint64_t key,
                         std::uint64_t version, std::uint32_t len)
{
    tcoram_assert(len >= kMinValueBytes,
                  "self-verifying value needs >= ", kMinValueBytes,
                  " bytes");
    out.assign(len, 0);
    for (int i = 0; i < 8; ++i)
        out[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(key >> (8 * i));
    for (int i = 0; i < 8; ++i)
        out[static_cast<std::size_t>(8 + i)] =
            static_cast<std::uint8_t>(version >> (8 * i));
    const std::uint64_t pattern_seed =
        key ^ (version * 0x9e3779b97f4a7c15ull);
    for (std::uint32_t i = 16; i < len; ++i)
        out[i] = static_cast<std::uint8_t>(mixSeed(pattern_seed, i));
}

std::optional<std::uint64_t>
KvServingRun::checkValue(std::span<const std::uint8_t> value,
                         std::uint64_t key)
{
    if (value.size() < kMinValueBytes)
        return std::nullopt;
    std::uint64_t got_key = 0;
    std::uint64_t version = 0;
    for (int i = 0; i < 8; ++i)
        got_key |= static_cast<std::uint64_t>(value[static_cast<std::size_t>(
                       i)])
                   << (8 * i);
    for (int i = 0; i < 8; ++i)
        version |= static_cast<std::uint64_t>(
                       value[static_cast<std::size_t>(8 + i)])
                   << (8 * i);
    if (got_key != key)
        return std::nullopt;
    const std::uint64_t pattern_seed =
        key ^ (version * 0x9e3779b97f4a7c15ull);
    for (std::size_t i = 16; i < value.size(); ++i)
        if (value[i] != static_cast<std::uint8_t>(
                            mixSeed(pattern_seed, i)))
            return std::nullopt;
    return version;
}

bool
KvServingRun::advanceSession(Session &s)
{
    using workload::WorkloadOp;
    using workload::WorkloadOpKind;
    for (;;) {
        if (!s.cursor.done()) {
            const KvOpCursor::Step st = s.cursor.nextStep();
            if (!reserveSlot(s, slotOfBlock(st.blockId)))
                return false; // slot held by another op; retry later
            timing::OramTransaction txn = timing::OramTransaction::real(
                st.blockId, st.isWrite, s.sid);
            txn.data = st.data;
            txn.out = st.out;
            if (!stack_.scheduler().trySubmit(s.sid, s.clock, txn))
                return false; // lane at backpressure bound; retry later
            s.awaiting = true;
            return true;
        }
        if (s.opKind == WorkloadOpKind::Scan && s.scanLeft > 0) {
            s.opKey = s.scanKey++;
            --s.scanLeft;
            s.cursor.beginGet(s.opKey);
            continue;
        }
        const WorkloadOp op = source_->getNext(s.rank);
        switch (op.kind) {
        case WorkloadOpKind::Think:
            s.clock += op.thinkCycles;
            continue;
        case WorkloadOpKind::End:
            s.ended = true;
            return true;
        case WorkloadOpKind::Get:
            s.opKind = WorkloadOpKind::Get;
            s.opKey = op.key;
            s.opStart = s.clock;
            s.cursor.beginGet(op.key);
            continue;
        case WorkloadOpKind::Put: {
            s.opKind = WorkloadOpKind::Put;
            s.opKey = op.key;
            s.opStart = s.clock;
            const auto max_len =
                static_cast<std::uint32_t>(cfg_.kv.maxValueBytes());
            const std::uint32_t len =
                std::clamp(op.valueBytes, kMinValueBytes, max_len);
            s.putVersion = (std::uint64_t{s.sid} << 32) | s.putSeq++;
            buildValue(s.payload, op.key, s.putVersion, len);
            s.cursor.beginPut(op.key, s.payload);
            continue;
        }
        case WorkloadOpKind::Scan:
            s.opKind = WorkloadOpKind::Scan;
            s.opStart = s.clock;
            s.scanKey = op.key;
            s.scanLeft = op.scanLen;
            ++s.cursor.stats().scans;
            continue;
        }
    }
}

void
KvServingRun::finishOp(Session &s)
{
    using workload::WorkloadOpKind;
    const bool is_read = s.opKind == WorkloadOpKind::Get ||
                         s.opKind == WorkloadOpKind::Scan;
    if (is_read) {
        if (!oracle_.fresh(s.opKey, s.cursor.hit(), s.cursor.value()))
            ++s.mismatches;
    } else if (!s.cursor.failed()) {
        oracle_.commit(s.opKey, s.putVersion);
    }
    ++s.opsDone;
    if (s.opKind == WorkloadOpKind::Scan && s.scanLeft > 0)
        return; // latency is recorded once, at the last element
    const Cycles latency = s.clock - s.opStart;
    if (s.opKind == WorkloadOpKind::Put)
        s.putLatencies.push_back(latency);
    else
        s.getLatencies.push_back(latency);
}

void
KvServingRun::handleCompletion(const SessionRing::Completion &c)
{
    tcoram_assert(c.sessionId < sessions_.size(), "unknown session");
    Session &s = sessions_[c.sessionId];
    tcoram_assert(s.awaiting, "completion for a session with nothing "
                              "in flight");
    s.awaiting = false;
    s.clock = std::max(s.clock, c.completion.done);
    s.lastDone = std::max(s.lastDone, c.completion.done);
    s.cursor.onComplete();
    if (s.cursor.done()) {
        // Check or commit while the op still holds its slot, so the
        // next op on the slot sees the oracle already updated.
        finishOp(s);
        releaseSlot(s);
    }
}

void
KvServingRun::run()
{
    tcoram_assert(!ran_, "kv serving run already driven");
    ran_ = true;
    for (;;) {
        // Submission pass in session-id order, then one pump, then a
        // completion pass in lane order: every step deterministic, so
        // the whole run is a pure function of the config.
        for (Session &s : sessions_)
            if (!s.ended && !s.awaiting)
                advanceSession(s);
        stack_.scheduler().runUntilIdle();
        SessionRing::Completion c;
        for (std::size_t l = 0; l < cfg_.lanes; ++l)
            while (stack_.scheduler().lane(l).popCompletion(c))
                handleCompletion(c);
        bool done = true;
        for (const Session &s : sessions_)
            if (!s.ended || s.awaiting) {
                done = false;
                break;
            }
        if (done)
            break;
    }
    drainTail();
}

void
KvServingRun::runMultiProducer()
{
    tcoram_assert(!ran_, "kv serving run already driven");
    ran_ = true;
    std::atomic<std::size_t> live{cfg_.lanes};
    auto client = [&](std::size_t l) {
        // This thread owns lane l's ring endpoints and every session
        // on the lane; the rings' acquire/release pairs are the only
        // synchronization with the scheduler.
        SessionRing &ring = stack_.scheduler().lane(l);
        const std::vector<std::uint32_t> &mine = laneSessions_[l];
        for (;;) {
            bool progress = false;
            SessionRing::Completion c;
            while (ring.popCompletion(c)) {
                handleCompletion(c);
                progress = true;
            }
            bool lane_done = true;
            for (const std::uint32_t sid : mine) {
                Session &s = sessions_[sid];
                if (s.ended) {
                    lane_done = lane_done && !s.awaiting;
                    continue;
                }
                lane_done = false;
                if (!s.awaiting && advanceSession(s))
                    progress = true;
            }
            if (lane_done)
                break;
            if (!progress)
                std::this_thread::yield();
        }
        live.fetch_sub(1, std::memory_order_release);
    };
    std::vector<std::thread> clients;
    clients.reserve(cfg_.lanes);
    for (std::size_t l = 0; l < cfg_.lanes; ++l)
        clients.emplace_back(client, l);
    while (live.load(std::memory_order_acquire) > 0) {
        stack_.scheduler().runUntilIdle();
        std::this_thread::yield();
    }
    for (std::thread &t : clients)
        t.join();
    stack_.scheduler().runUntilIdle();
    drainTail();
}

void
KvServingRun::drainTail()
{
    Cycles last = 0;
    for (const Session &s : sessions_)
        last = std::max(last, s.lastDone);
    stack_.scheduler().drainUntil(stack_.drainHorizon(last));
}

KVStats
KvServingRun::stats() const
{
    KVStats total;
    for (const Session &s : sessions_)
        total.merge(s.cursor.stats());
    return total;
}

std::uint64_t
KvServingRun::payloadMismatches() const
{
    std::uint64_t n = 0;
    for (const Session &s : sessions_)
        n += s.mismatches;
    return n;
}

std::uint64_t
KvServingRun::opsCompleted() const
{
    std::uint64_t n = 0;
    for (const Session &s : sessions_)
        n += s.opsDone;
    return n;
}

Cycles
KvServingRun::percentile(std::vector<Cycles> &samples, double q) const
{
    if (samples.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples.size()));
    const std::size_t idx = std::min(rank, samples.size() - 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

Cycles
KvServingRun::getLatencyPercentile(double q) const
{
    std::vector<Cycles> all;
    for (const Session &s : sessions_)
        all.insert(all.end(), s.getLatencies.begin(),
                   s.getLatencies.end());
    return percentile(all, q);
}

Cycles
KvServingRun::putLatencyPercentile(double q) const
{
    std::vector<Cycles> all;
    for (const Session &s : sessions_)
        all.insert(all.end(), s.putLatencies.begin(),
                   s.putLatencies.end());
    return percentile(all, q);
}

} // namespace tcoram::sim
