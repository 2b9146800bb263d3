#include "sim/shard_worker.hh"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <limits>
#include <locale>
#include <sstream>
#include <thread>

#include "common/log.hh"

namespace tcoram::sim {

namespace {
/** Program hash stand-in bound into every session's leakage HMAC. */
const std::string kProgramHash = "tcoram-scheduler-run";
} // namespace

RingScheduler::RingScheduler(oram::ShardedOramDevice &device,
                             const timing::RateSet &rates,
                             const timing::EpochSchedule &schedule,
                             const timing::LearnerIf &learner,
                             Cycles initial_rate,
                             const protocol::LeakageParams &params,
                             Options opts)
    : device_(&device), params_(params), opts_(opts)
{
    tcoram_assert(opts_.lanes >= 1, "ring scheduler needs at least one lane");
    tcoram_assert(opts_.ringCapacity >= 2, "ring capacity too small");
    params_.shards = device.shardCount();

    const std::uint32_t shards = device.shardCount();
    for (std::uint32_t i = 0; i < shards; ++i) {
        auto slot = std::make_unique<timing::ShardSlot>(
            i, device.shard(i), rates, schedule, learner, initial_rate);
        slot->setDispatchPolicy(timing::makeDispatchPolicy(opts_.policy));
        slots_.push_back(std::move(slot));
    }
    for (std::size_t l = 0; l < opts_.lanes; ++l)
        lanes_.push_back(std::make_unique<SessionRing>(opts_.ringCapacity));

    staging_.assign(opts_.lanes,
                    std::vector<std::vector<Staged>>(shards));
    buckets_.assign(shards,
                    std::vector<std::vector<SessionRing::Completion>>(
                        opts_.lanes));
    blocked_.assign(shards, 0);
    servedPerShard_.assign(shards, 0);

    const unsigned cap = static_cast<unsigned>(
        std::max<std::size_t>(opts_.lanes, shards));
    workers_ = std::clamp<unsigned>(opts_.threads, 1, cap);
}

RingScheduler::~RingScheduler() = default;

void
RingScheduler::attachMonitor()
{
    if (tightestLimit_ < 0.0)
        return;
    monitor_ = std::make_unique<timing::LeakageMonitor>(tightestLimit_,
                                                        params_.rateCount);
    for (auto &slot : slots_)
        slot->enforcer().attachMonitor(monitor_.get());
}

std::uint32_t
RingScheduler::openSession(std::uint64_t user_seed, double leakage_limit_bits,
                           std::uint16_t lane, std::uint16_t weight,
                           Cycles deadline_offset)
{
    // The shared monitor is rebuilt from the tightest finite budget at
    // open, so admission belongs strictly before service.
    tcoram_assert(!anyServed_,
                  "open every session before any transaction is served");
    tcoram_assert(lane < lanes_.size(), "unknown lane ", lane);

    const auto id = static_cast<std::uint32_t>(descriptors_.size());
    SessionDescriptor d;
    d.stats.sessionId = id;
    d.stats.leakageLimitBits = leakage_limit_bits;
    d.lane = lane;
    d.weight = std::max<std::uint16_t>(weight, 1);
    d.deadlineOffset = deadline_offset;

    if (leakage_limit_bits < 0.0) {
        // Unlimited budgets skip the handshake entirely — this is what
        // keeps a million session opens cheap: no HMAC, no key
        // derivation, just the descriptor.
        d.stats.admitted = true;
    } else {
        protocol::UserSession user(user_seed);
        protocol::ProcessorSession processor(user);
        const crypto::Digest256 mac =
            user.bindLeakageLimit(kProgramHash, leakage_limit_bits);
        d.stats.admitted =
            processor.verifyBinding(kProgramHash, leakage_limit_bits, mac,
                                    user) &&
            processor.admit(params_, leakage_limit_bits);
        if (d.stats.admitted &&
            (tightestLimit_ < 0.0 || leakage_limit_bits < tightestLimit_)) {
            tightestLimit_ = leakage_limit_bits;
            attachMonitor();
        }
    }
    descriptors_.push_back(std::move(d));
    return id;
}

std::optional<std::uint64_t>
RingScheduler::trySubmit(std::uint32_t sid, Cycles arrival,
                         timing::OramTransaction txn)
{
    tcoram_assert(sid < descriptors_.size(), "unknown session ", sid);
    const SessionDescriptor &d = descriptors_[sid];
    if (!d.stats.admitted)
        tcoram_fatal("session ", sid, " was not admitted (budget ",
                     d.stats.leakageLimitBits, " bits < configuration's ",
                     params_.oramTimingBits(), ")");
    tcoram_assert(txn.kind == timing::OramTransaction::Kind::Real,
                  "dummies are the enforcers' job, not the clients'");
    txn.sessionId = sid;
    SessionRing &ring = *lanes_[d.lane];
    const auto token = ring.trySubmit(sid, arrival, txn);
    return token;
}

SessionRing &
RingScheduler::lane(std::size_t l)
{
    tcoram_assert(l < lanes_.size(), "unknown lane ", l);
    return *lanes_[l];
}

const SessionRing &
RingScheduler::lane(std::size_t l) const
{
    tcoram_assert(l < lanes_.size(), "unknown lane ", l);
    return *lanes_[l];
}

void
RingScheduler::laneStep(unsigned worker)
{
    for (std::size_t l = worker; l < lanes_.size(); l += workers_) {
        SessionRing &ring = *lanes_[l];
        // Fold the previous round's completions, shard-id order: the
        // bucket contents are deterministic (phase S is), so this
        // fold — and hence stats and the lane's completion-ring
        // order — is too.
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            auto &bucket = buckets_[s][l];
            for (const auto &c : bucket) {
                SessionDescriptor &d = descriptors_[c.sessionId];
                ++d.stats.completed;
                d.stats.lastCompletion =
                    std::max(d.stats.lastCompletion, c.completion.done);
                const Cycles latency = c.completion.done - c.arrival;
                d.stats.totalLatency += latency;
                d.stats.maxLatency = std::max(d.stats.maxLatency, latency);
                d.stats.totalSlotWait += c.completion.start - c.arrival;
                if (opts_.recordLatencies)
                    d.latencies.push_back(latency);
                ring.pushCompletion(c);
            }
            bucket.clear();
        }
        // Ingress: stage this lane's submissions per target shard.
        // Routing here is the stateless PRF only; the id-localizing
        // rewrite happens under the owning shard in phase S.
        SessionRing::Submission sub;
        for (std::size_t n = 0;
             n < ring.capacity() && ring.popSubmission(sub); ++n) {
            SessionDescriptor &d = descriptors_[sub.sessionId];
            if (d.stats.submitted == 0 ||
                sub.arrival < d.stats.firstArrival)
                d.stats.firstArrival = sub.arrival;
            ++d.stats.submitted;
            sub.txn.tag = sub.token;
            const std::uint32_t s = device_->routeOf(sub.txn);
            staging_[l][s].push_back(
                Staged{sub.sessionId, sub.arrival, sub.txn});
        }
    }
}

void
RingScheduler::shardStep(unsigned worker)
{
    for (std::size_t s = worker; s < slots_.size(); s += workers_) {
        timing::ShardSlot &slot = *slots_[s];
        if (draining_) {
            if (!slot.drain(drainT_))
                blocked_[s] = 1;
            continue;
        }
        // Merge the staged transactions in LANE order — a fixed,
        // worker-count-independent order.
        for (std::size_t l = 0; l < lanes_.size(); ++l) {
            auto &staged = staging_[l][s];
            for (auto &st : staged) {
                device_->localize(static_cast<std::uint32_t>(s), st.txn);
                const SessionDescriptor &d = descriptors_[st.sessionId];
                slot.enqueue(st.sessionId, st.arrival, st.txn, d.weight,
                             d.deadlineOffset);
            }
            staged.clear();
        }
        // Serve bounded: stop at this shard's next epoch boundary and
        // hand the transition to the serial step. Once a serveUpTo()
        // budget is spent, the shard still pays the recovery slots its
        // last serve owes, so the stop leaves every stream settled.
        timing::ShardSlot::Served out;
        while (budget_ != 0) {
            const auto status = slot.serve(out);
            if (status == timing::ShardSlot::ServeStatus::Done) {
                const SessionDescriptor &d = descriptors_[out.sessionId];
                buckets_[s][d.lane].push_back(SessionRing::Completion{
                    out.tag, out.sessionId, out.arrival, out.completion});
                ++servedPerShard_[s];
                if (budget_ != kNoBudget)
                    --budget_;
                continue;
            }
            if (status == timing::ShardSlot::ServeStatus::Blocked)
                blocked_[s] = 1;
            break;
        }
        if (budget_ == 0 && !slot.enforcer().payOwedSlots())
            blocked_[s] = 1;
    }
}

void
RingScheduler::serialStep()
{
    // The ONLY cross-shard mutation of the run: epoch transitions
    // consult the shared LeakageMonitor, so they are applied here, one
    // thread, in shard-id order — the same ledger order whatever the
    // worker count.
    ++round_;
    bool transitioned = false;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (blocked_[s]) {
            slots_[s]->applyTransition();
            blocked_[s] = 0;
            transitioned = true;
        }
    }
    if (draining_) {
        stop_ = !transitioned;
        return;
    }
    // An exhausted serve budget leaves work queued on purpose; the
    // loop then only runs until the rings and buckets are empty.
    bool quiescent = !transitioned;
    if (quiescent && budget_ != 0)
        for (const auto &slot : slots_)
            if (!slot->idle()) {
                quiescent = false;
                break;
            }
    if (quiescent)
        for (const auto &ring : lanes_)
            if (ring->submissionBacklog() != 0) {
                quiescent = false;
                break;
            }
    if (quiescent)
        for (const auto &per_shard : buckets_)
            for (const auto &bucket : per_shard)
                if (!bucket.empty()) {
                    quiescent = false;
                    break;
                }
    for (const auto &per_shard : servedPerShard_)
        anyServed_ = anyServed_ || per_shard != 0;
    stop_ = quiescent;
}

void
RingScheduler::pump(bool draining, Cycles drain_t, std::uint64_t budget)
{
    draining_ = draining;
    drainT_ = drain_t;
    budget_ = budget;
    stop_ = false;

    if (workers_ == 1 || budget != kNoBudget) {
        // Same phase functions, same order, no threads: the
        // single-threaded run IS the reference the N-worker run must
        // reproduce bit-for-bit.
        while (!stop_) {
            for (unsigned w = 0; w < workers_; ++w)
                laneStep(w);
            for (unsigned w = 0; w < workers_; ++w)
                shardStep(w);
            serialStep();
        }
        return;
    }

    std::barrier<> staged_ready(static_cast<std::ptrdiff_t>(workers_));
    std::barrier round_done(static_cast<std::ptrdiff_t>(workers_),
                            [this]() noexcept { serialStep(); });
    auto body = [&](unsigned w) {
        for (;;) {
            laneStep(w);
            staged_ready.arrive_and_wait();
            shardStep(w);
            round_done.arrive_and_wait();
            // stop_ was written in the completion step, which
            // strongly-happens-before every arrive_and_wait return.
            if (stop_)
                return;
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w)
        pool.emplace_back(body, w);
    body(0);
    for (auto &t : pool)
        t.join();
}

Cycles
RingScheduler::runUntilIdle()
{
    pump(false, 0, kNoBudget);
    return lastCompletion();
}

std::uint64_t
RingScheduler::serveUpTo(std::uint64_t n)
{
    const std::uint64_t before = servedTotal();
    pump(false, 0, n);
    return servedTotal() - before;
}

void
RingScheduler::drainUntil(Cycles t)
{
    for (const auto &slot : slots_)
        tcoram_assert(slot->pending() == 0,
                      "drain with transactions still queued");
    for (const auto &ring : lanes_)
        tcoram_assert(ring->submissionBacklog() == 0,
                      "drain with submissions still ringed");
    pump(true, t, kNoBudget);
}

const SessionStats &
RingScheduler::stats(std::uint32_t sid) const
{
    tcoram_assert(sid < descriptors_.size(), "unknown session ", sid);
    return descriptors_[sid].stats;
}

bool
RingScheduler::sessionAdmitted(std::uint32_t sid) const
{
    return stats(sid).admitted;
}

const timing::ShardSlot &
RingScheduler::shard(std::size_t i) const
{
    tcoram_assert(i < slots_.size(), "shard index out of range");
    return *slots_[i];
}

std::uint64_t
RingScheduler::servedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &per_shard : servedPerShard_)
        n += per_shard;
    return n;
}

Cycles
RingScheduler::lastCompletion() const
{
    Cycles last = 0;
    for (const auto &slot : slots_)
        last = std::max(last, slot->enforcer().lastCompletion());
    return last;
}

double
RingScheduler::fairnessRatio() const
{
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    bool any = false;
    for (const auto &d : descriptors_) {
        if (d.stats.submitted == 0)
            continue;
        any = true;
        lo = std::min(lo, d.stats.completed);
        hi = std::max(hi, d.stats.completed);
    }
    if (!any || hi == 0)
        return 1.0;
    if (lo == 0)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(hi) / static_cast<double>(lo);
}

Cycles
RingScheduler::latencyPercentile(std::uint32_t sid, double q) const
{
    tcoram_assert(sid < descriptors_.size(), "unknown session ", sid);
    tcoram_assert(q >= 0.0 && q <= 1.0, "quantile out of [0, 1]");
    const auto &lat = descriptors_[sid].latencies;
    if (lat.empty())
        return 0;
    // Nearest-rank: smallest value with at least q of the mass below.
    // nth_element over a REUSED scratch keeps repeated quantile
    // queries linear and allocation-free once the scratch has grown —
    // the samples themselves stay untouched (and in arrival order).
    latencyScratch_.assign(lat.begin(), lat.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(lat.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(latencyScratch_.begin(),
                     latencyScratch_.begin() +
                         static_cast<std::ptrdiff_t>(idx),
                     latencyScratch_.end());
    return latencyScratch_[idx];
}

void
RingScheduler::saveState(ByteWriter &w) const
{
    for (const auto &per_lane : staging_)
        for (const auto &staged : per_lane)
            tcoram_assert(staged.empty(),
                          "checkpoint with staged submissions");
    for (const auto &per_shard : buckets_)
        for (const auto &bucket : per_shard)
            tcoram_assert(bucket.empty(),
                          "checkpoint with unfolded completions");
    w.u64(round_);
    w.b(anyServed_);
    w.b(monitor_ != nullptr);
    if (monitor_)
        monitor_->saveState(w);
    w.u64(descriptors_.size());
    for (const SessionDescriptor &d : descriptors_) {
        const SessionStats &st = d.stats;
        w.u32(st.sessionId);
        w.f64(st.leakageLimitBits);
        w.b(st.admitted);
        w.u64(st.submitted);
        w.u64(st.completed);
        w.u64(st.firstArrival);
        w.u64(st.lastCompletion);
        w.u64(st.totalLatency);
        w.u64(st.totalSlotWait);
        w.u64(st.maxLatency);
        w.u32(d.lane);
        w.u32(d.weight);
        w.u64(d.deadlineOffset);
        w.u64(d.latencies.size());
        for (const Cycles c : d.latencies)
            w.u64(c);
    }
    w.u64(lanes_.size());
    for (const auto &ring : lanes_)
        ring->saveState(w);
    w.u64(slots_.size());
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        w.u64(servedPerShard_[s]);
        slots_[s]->saveState(w);
    }
}

void
RingScheduler::restoreState(ByteReader &r)
{
    round_ = r.u64();
    anyServed_ = r.b();
    const bool had_monitor = r.b();
    tcoram_assert(had_monitor == (monitor_ != nullptr),
                  "snapshot and scheduler disagree on the leakage "
                  "monitor (open the same sessions before restoring)");
    if (monitor_)
        monitor_->restoreState(r);
    const std::uint64_t n_sessions = r.u64();
    tcoram_assert(n_sessions == descriptors_.size(),
                  "snapshot session count mismatch (", n_sessions, " vs ",
                  descriptors_.size(), ")");
    for (SessionDescriptor &d : descriptors_) {
        SessionStats &st = d.stats;
        st.sessionId = r.u32();
        st.leakageLimitBits = r.f64();
        st.admitted = r.b();
        st.submitted = r.u64();
        st.completed = r.u64();
        st.firstArrival = r.u64();
        st.lastCompletion = r.u64();
        st.totalLatency = r.u64();
        st.totalSlotWait = r.u64();
        st.maxLatency = r.u64();
        const auto lane = static_cast<std::uint16_t>(r.u32());
        const auto weight = static_cast<std::uint16_t>(r.u32());
        const Cycles deadline_offset = r.u64();
        tcoram_assert(!r.ok() || (lane == d.lane && weight == d.weight &&
                                  deadline_offset == d.deadlineOffset),
                      "snapshot session ", st.sessionId,
                      " was opened with different lane/QoS attributes");
        d.latencies.clear();
        const std::uint64_t m = r.u64();
        for (std::uint64_t i = 0; i < m && r.ok(); ++i)
            d.latencies.push_back(r.u64());
    }
    const std::uint64_t n_lanes = r.u64();
    tcoram_assert(n_lanes == lanes_.size(), "snapshot lane count mismatch (",
                  n_lanes, " vs ", lanes_.size(), ")");
    for (auto &ring : lanes_)
        ring->restoreState(r);
    const std::uint64_t n_slots = r.u64();
    tcoram_assert(n_slots == slots_.size(),
                  "snapshot shard count mismatch (", n_slots, " vs ",
                  slots_.size(), ")");
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        servedPerShard_[s] = r.u64();
        slots_[s]->restoreState(r);
    }
}

std::string
RingScheduler::csvHeader()
{
    return "shard,served,real,dummy,epochs_used,pinned_decisions,"
           "last_completion,crypto_bytes";
}

std::string
RingScheduler::csvRow(std::uint32_t shard) const
{
    tcoram_assert(shard < slots_.size(), "shard index out of range");
    const timing::RateEnforcer &enf = slots_[shard]->enforcer();
    const timing::OramDeviceIf &dev = device_->shard(shard);
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << shard << ',' << servedPerShard_[shard] << ','
       << dev.realAccesses() << ',' << dev.dummyAccesses() << ','
       << enf.currentEpoch() << ',' << enf.pinnedDecisions() << ','
       << enf.lastCompletion() << ',' << enf.counters().cryptoBytes();
    return os.str();
}

std::string
RingScheduler::csv() const
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << csvHeader() << '\n';
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
        os << csvRow(s) << '\n';
    return os.str();
}

} // namespace tcoram::sim
