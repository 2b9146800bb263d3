/**
 * @file
 * Million-session scheduler scale-out: SPSC ring wrap-around and
 * backpressure, lane-monotonic token/fence retirement, the
 * N-thread == 1-thread bit-identity contract of the phased-round
 * RingScheduler (per-shard observable streams, session stats, CSV
 * rows), the observable streams pinned from the retired dense
 * scheduler, fault-injected shards and checkpoint kill/restore through
 * the ring, QoS dispatch-policy semantics and their stream-invariance,
 * and the nearest-rank latency percentile against a fully-sorted
 * reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dram/dram_model.hh"
#include "dram/faulty_memory.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/session_ring.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

using namespace tcoram;

namespace {

oram::OramConfig
tinyConfig()
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    return c;
}

protocol::LeakageParams
leakParams(std::size_t rate_count)
{
    protocol::LeakageParams p;
    p.rateCount = rate_count;
    return p;
}

constexpr Cycles kDrainHorizon = Cycles{1} << 18;

/** (sid, arrival, block) programs, interleaved by arrival the way a
 *  real multi-client front end would see them; per-session arrivals
 *  stay non-decreasing (stable sort). */
struct Arrival
{
    std::uint32_t sid;
    Cycles at;
    std::uint64_t block;
};

std::vector<Arrival>
makeWorkload(std::size_t sessions, std::uint64_t seed)
{
    std::vector<Arrival> w;
    for (std::uint32_t sid = 0; sid < sessions; ++sid) {
        const Cycles stride = 500 + 300 * ((sid + seed) % 5);
        for (Cycles t = 40 * sid; t < 30'000; t += stride)
            w.push_back({sid, t, (seed * 7919 + sid * 131 + t) % 1024});
    }
    std::stable_sort(w.begin(), w.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.at < b.at;
                     });
    return w;
}

/** Everything the bit-identity contract pins, in one comparable bag. */
using StatsTuple = std::tuple<std::uint64_t, std::uint64_t, Cycles, Cycles,
                              Cycles, Cycles, Cycles>;

StatsTuple
statsOf(const sim::SessionStats &s, bool with_last_completion)
{
    return {s.submitted,
            s.completed,
            s.firstArrival,
            with_last_completion ? s.lastCompletion : Cycles{0},
            s.totalLatency,
            s.totalSlotWait,
            s.maxLatency};
}

struct RingSetup
{
    std::uint32_t shards = 1;
    unsigned threads = 1;
    timing::DispatchPolicyKind policy =
        timing::DispatchPolicyKind::RoundRobin;
    bool dynamic = false;
    std::size_t sessions = 1;
    std::uint64_t seed = 1;
    std::size_t lanes = 1;
    std::size_t capacity = 4096;
    oram::PathMode pathMode = oram::PathMode::Sync;
    oram::EvictionPolicy evictionPolicy = oram::EvictionPolicy::Off;
    std::uint32_t evictionBudget = 0;
};

struct RingResult
{
    std::vector<std::vector<Cycles>> streams; ///< per-shard start cycles
    std::vector<StatsTuple> stats;
    std::string csv;
    Cycles last = 0;
    std::uint64_t served = 0;
    /** Completions in pop order, lane-major. */
    std::vector<sim::SessionRing::Completion> completions;
    std::vector<std::uint64_t> fences;
    std::uint64_t evictions = 0;
    std::vector<Cycles> lastPerShard;
    std::vector<unsigned> epochs;
};

std::vector<Cycles>
ringRates(bool dynamic)
{
    return dynamic ? std::vector<Cycles>{400, 800, 1600, 3200}
                   : std::vector<Cycles>{500};
}

RingResult
runRing(const RingSetup &setup)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner; // timing
    inner.pathMode = setup.pathMode;
    inner.evictionPolicy = setup.evictionPolicy;
    inner.evictionBudget = setup.evictionBudget;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards,
                                /*route_seed=*/5, mem, rng,
                                /*record=*/true);
    const timing::RateSet rates{ringRates(setup.dynamic)};
    const timing::EpochSchedule sched{setup.dynamic ? Cycles{1} << 14
                                                    : Cycles{1} << 30,
                                      2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.lanes = setup.lanes;
    o.ringCapacity = setup.capacity;
    o.threads = setup.threads;
    o.policy = setup.policy;
    sim::RingScheduler rs(dev, rates, sched, learner,
                          setup.dynamic ? 3200 : 500,
                          leakParams(rates.size()), o);

    RingResult r;
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid, -1.0,
                       static_cast<std::uint16_t>(sid % setup.lanes),
                       static_cast<std::uint16_t>(1 + sid % 3),
                       Cycles{100} * sid);

    auto drain = [&] {
        for (std::size_t l = 0; l < setup.lanes; ++l) {
            sim::SessionRing::Completion c;
            while (rs.lane(l).popCompletion(c))
                r.completions.push_back(c);
        }
    };
    for (const auto &a : makeWorkload(setup.sessions, setup.seed)) {
        auto tok =
            rs.trySubmit(a.sid, a.at, timing::OramTransaction::real(a.block));
        while (!tok) {
            // In-flight bound hit: pump the scheduler, drain the
            // completion rings, resubmit — the documented contract.
            rs.runUntilIdle();
            drain();
            tok = rs.trySubmit(a.sid, a.at,
                               timing::OramTransaction::real(a.block));
        }
    }
    rs.runUntilIdle();
    rs.drainUntil(kDrainHorizon);
    drain();

    for (std::uint32_t s = 0; s < setup.shards; ++s)
        r.streams.push_back(dev.recorder(s)->startCycles());
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        r.stats.push_back(statsOf(rs.stats(sid), true));
    r.csv = rs.csv();
    r.last = rs.lastCompletion();
    r.served = rs.servedTotal();
    for (std::size_t l = 0; l < setup.lanes; ++l)
        r.fences.push_back(rs.lane(l).retiredFence());
    r.evictions = dev.evictionsIssued();
    for (std::uint32_t i = 0; i < setup.shards; ++i) {
        r.lastPerShard.push_back(rs.shard(i).enforcer().lastCompletion());
        r.epochs.push_back(rs.shard(i).enforcer().currentEpoch());
    }
    return r;
}

void
expectSameRun(const RingResult &a, const RingResult &b, const char *what)
{
    EXPECT_EQ(a.streams, b.streams) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    EXPECT_EQ(a.csv, b.csv) << what;
    EXPECT_EQ(a.last, b.last) << what;
    EXPECT_EQ(a.served, b.served) << what;
    EXPECT_EQ(a.fences, b.fences) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    ASSERT_EQ(a.completions.size(), b.completions.size()) << what;
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        const auto &ca = a.completions[i];
        const auto &cb = b.completions[i];
        ASSERT_EQ(ca.token, cb.token) << what << " completion " << i;
        ASSERT_EQ(ca.sessionId, cb.sessionId) << what << " completion " << i;
        ASSERT_EQ(ca.arrival, cb.arrival) << what << " completion " << i;
        ASSERT_EQ(ca.completion.start, cb.completion.start)
            << what << " completion " << i;
        ASSERT_EQ(ca.completion.done, cb.completion.done)
            << what << " completion " << i;
    }
}

/** FNV-1a over the little-endian bytes of a cycle sequence — the
 *  digest the pinned streams below were recorded with. */
std::uint64_t
digest(const std::vector<Cycles> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Cycles c : v)
        for (int i = 0; i < 8; ++i) {
            h ^= (c >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    return h;
}

/** One shard's pinned observable stream and enforcer end state. */
struct ShardPin
{
    std::size_t length;
    std::uint64_t digest;
    Cycles lastCompletion;
    unsigned epochs;
};

void
expectShardPins(const RingResult &r, const std::vector<ShardPin> &pins)
{
    ASSERT_EQ(r.streams.size(), pins.size());
    for (std::size_t i = 0; i < pins.size(); ++i) {
        EXPECT_EQ(r.streams[i].size(), pins[i].length) << "shard " << i;
        EXPECT_EQ(digest(r.streams[i]), pins[i].digest) << "shard " << i;
        EXPECT_EQ(r.lastPerShard[i], pins[i].lastCompletion)
            << "shard " << i;
        EXPECT_EQ(r.epochs[i], pins[i].epochs) << "shard " << i;
    }
}

/** Nearest-rank quantile over a fully sorted copy — the reference the
 *  nth_element implementations must reproduce exactly. */
Cycles
sortedReference(std::vector<Cycles> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[rank == 0 ? 0 : rank - 1];
}

constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

} // namespace

// --- rings ---

TEST(SpscRing, WrapAroundKeepsFifoOrderForever)
{
    sim::SpscRing<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    int v = -1;
    EXPECT_FALSE(ring.tryPop(v));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "full ring must refuse";

    int next_pop = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(v));
        EXPECT_EQ(v, next_pop++);
    }
    EXPECT_FALSE(ring.tryPop(v));

    // Many times around the buffer with a varying backlog: indices are
    // monotonic uint64s, only the masked slot wraps.
    int next_push = 4;
    for (int round = 0; round < 64; ++round) {
        const int burst = 1 + round % 4;
        for (int i = 0; i < burst; ++i)
            ASSERT_TRUE(ring.tryPush(next_push++));
        for (int i = 0; i < burst; ++i) {
            ASSERT_TRUE(ring.tryPop(v));
            ASSERT_EQ(v, next_pop++);
        }
    }
    EXPECT_EQ(ring.size(), 0u);
}

TEST(SessionRing, TokensAreMonotonicAndInFlightBoundBackpressures)
{
    sim::SessionRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    const auto txn = timing::OramTransaction::real(7);
    for (std::uint64_t t = 1; t <= 4; ++t) {
        const auto tok = ring.trySubmit(0, 10 * t, txn);
        ASSERT_TRUE(tok.has_value());
        EXPECT_EQ(*tok, t) << "lane tokens count 1, 2, 3, ...";
    }
    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "at the in-flight bound the lane must refuse";
    EXPECT_EQ(ring.inFlight(), 4u);

    // The scheduler retiring a transaction is not enough: the bound is
    // producer-observed, so it opens only when the COMPLETION is popped.
    sim::SessionRing::Submission sub;
    ASSERT_TRUE(ring.popSubmission(sub));
    EXPECT_EQ(sub.token, 1u);
    EXPECT_EQ(sub.arrival, 10u);
    ring.pushCompletion({sub.token, sub.sessionId, sub.arrival, {}});
    EXPECT_FALSE(ring.trySubmit(0, 60, txn).has_value());

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_TRUE(ring.isRetired(1));
    EXPECT_FALSE(ring.isRetired(2));
    const auto tok = ring.trySubmit(0, 60, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
}

TEST(SessionRing, FenceAdvancesOnlyThroughContiguousRetirement)
{
    sim::SessionRing ring(8);
    const auto txn = timing::OramTransaction::real(3);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.trySubmit(0, 0, txn).has_value());
    sim::SessionRing::Submission subs[3];
    for (auto &sub : subs)
        ASSERT_TRUE(ring.popSubmission(sub));

    // Shards retire out of order: token 2 first. The fence must hold
    // at 0 until token 1 retires, then jump over the marked window.
    ring.pushCompletion({2, 0, 0, {}});
    ring.pushCompletion({1, 0, 0, {}});
    ring.pushCompletion({3, 0, 0, {}});

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 2u);
    EXPECT_EQ(ring.retiredFence(), 0u);
    EXPECT_FALSE(ring.isRetired(1));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 2u) << "fence jumps the retired window";
    EXPECT_TRUE(ring.isRetired(2));
    EXPECT_FALSE(ring.isRetired(3));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 3u);
    EXPECT_EQ(ring.retiredFence(), 3u);
    EXPECT_EQ(ring.inFlight(), 0u);
}

TEST(SessionRing, FenceGatesResubmissionAfterOutOfOrderDrain)
{
    // Regression: completions push in shard-fold order, not token
    // order, so a producer that pops out-of-order completions and
    // resubmits (the documented backpressure contract) drives the
    // drain count ahead of the fence. Submission must be gated by the
    // FENCE — an in-flight (drain-count) gate would admit a token that
    // aliases a live token's retirement-window slot (token 5 & 3 ==
    // token 1 & 3 at capacity 4).
    sim::SessionRing ring(4);
    const auto txn = timing::OramTransaction::real(1);
    for (std::uint64_t t = 1; t <= 4; ++t)
        ASSERT_TRUE(ring.trySubmit(0, 10 * t, txn).has_value());
    sim::SessionRing::Submission sub;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.popSubmission(sub));

    // A fast shard retires tokens 2..4 while a slow shard still owns
    // token 1.
    ring.pushCompletion({2, 0, 20, {}});
    ring.pushCompletion({3, 0, 30, {}});
    ring.pushCompletion({4, 0, 40, {}});
    sim::SessionRing::Completion c;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(ring.retiredFence(), 0u) << "token 1 still outstanding";
    EXPECT_EQ(ring.inFlight(), 1u);

    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "the fence, not the drain count, must gate submission";

    // Retiring token 1 snaps the fence to 4 and reopens the lane.
    ring.pushCompletion({1, 0, 10, {}});
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 4u);
    const auto tok = ring.trySubmit(0, 50, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
    EXPECT_TRUE(ring.isRetired(4));
    EXPECT_FALSE(ring.isRetired(5));
}

// --- determinism ---

TEST(RingScheduler, WorkerCountIsBitIdentical)
{
    // The tentpole contract: per-shard observable streams, session
    // stats, CSV rows, completion order and fences are a pure function
    // of the submission sequence — never of the worker count. 3 is a
    // deliberate non-divisor stripe width; shards-many workers is the
    // intended deployment.
    struct Case
    {
        std::uint32_t shards;
        timing::DispatchPolicyKind policy;
        std::uint64_t seed;
    };
    const std::vector<Case> cases = {
        {1, timing::DispatchPolicyKind::RoundRobin, 1},
        {1, timing::DispatchPolicyKind::RoundRobin, 2},
        {4, timing::DispatchPolicyKind::RoundRobin, 1},
        {4, timing::DispatchPolicyKind::RoundRobin, 2},
        {4, timing::DispatchPolicyKind::WeightedRoundRobin, 1},
        {4, timing::DispatchPolicyKind::EarliestDeadline, 1},
        {16, timing::DispatchPolicyKind::RoundRobin, 1},
        {16, timing::DispatchPolicyKind::RoundRobin, 2},
    };
    for (const auto &c : cases) {
        RingSetup s;
        s.shards = c.shards;
        s.policy = c.policy;
        s.dynamic = true; // epoch transitions exercise the serial step
        s.sessions = 6;
        s.seed = c.seed;
        s.lanes = 2;

        s.threads = 1;
        const RingResult ref = runRing(s);
        for (const unsigned threads : {3u, c.shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what =
                "shards=" + std::to_string(c.shards) +
                " policy=" + timing::dispatchPolicyName(c.policy) +
                " seed=" + std::to_string(c.seed) +
                " threads=" + std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, EvictionEngineKeepsWorkerCountBitIdentical)
{
    // The background eviction engine must not break the N == 1 worker
    // contract: evictions fire after every completion whoever applies
    // the epoch transitions, so the per-shard streams,
    // stats and eviction counts stay a pure function of the submission
    // sequence. Pipelined mode is required (evictions retire deferred
    // write-back tails); the dynamic schedule exercises the
    // transition-capped eviction horizon.
    for (const std::uint32_t shards : {1u, 4u}) {
        RingSetup s;
        s.shards = shards;
        s.dynamic = true;
        s.sessions = 6;
        s.lanes = 2;
        s.pathMode = oram::PathMode::Pipelined;
        s.evictionPolicy = oram::EvictionPolicy::Gap;
        s.evictionBudget = 32;

        s.threads = 1;
        const RingResult ref = runRing(s);
        EXPECT_GT(ref.evictions, 0u)
            << "the case must actually exercise the engine";
        for (const unsigned threads : {3u, shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what = "eviction shards=" +
                                     std::to_string(shards) + " threads=" +
                                     std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, SmallRingBackpressureAndWrapAroundStayDeterministic)
{
    // An 8-deep lane under a 100-transaction workload wraps the rings
    // a dozen times and forces the pump-drain-resubmit path; the run
    // must retire every token and stay worker-count independent.
    RingSetup s;
    s.shards = 4;
    s.dynamic = true;
    s.sessions = 3;
    s.seed = 4;
    s.capacity = 8;

    s.threads = 1;
    const RingResult ref = runRing(s);
    s.threads = 4;
    const RingResult got = runRing(s);
    expectSameRun(ref, got, "capacity=8");

    const std::size_t total = makeWorkload(s.sessions, s.seed).size();
    ASSERT_GT(total, 8u * 4u) << "workload must overflow the ring";
    EXPECT_EQ(ref.completions.size(), total);
    EXPECT_EQ(ref.served, total);
    EXPECT_EQ(ref.fences.at(0), total) << "every token retired";

    // Single lane: completion tokens pop in fold order, which for a
    // fully drained run covers exactly 1..N.
    std::vector<std::uint64_t> tokens;
    for (const auto &c : ref.completions)
        tokens.push_back(c.token);
    std::sort(tokens.begin(), tokens.end());
    for (std::size_t i = 0; i < tokens.size(); ++i)
        ASSERT_EQ(tokens[i], i + 1);
}

TEST(RingScheduler, PopOneResubmitBackpressureStaysInWindow)
{
    // The harsher client: on every backpressure stall, pop a SINGLE
    // completion — in shard-fold order, not token order — and resubmit
    // immediately. The drain count runs ahead of the fence whenever
    // the popped token is not the oldest outstanding one; throughout,
    // the fence must equal EXACTLY the contiguous prefix of tokens the
    // producer has popped (a drain-count submission gate lets a
    // resubmitted token alias a live retirement-window slot, which
    // shows up here as the fence jumping over a token never popped),
    // every token must retire exactly once, and the shard streams must
    // stay worker-count independent.
    for (const std::uint64_t seed : {4ull, 9ull}) {
        std::vector<std::vector<Cycles>> streamsByThreads;
        for (const unsigned threads : {1u, 4u}) {
            dram::DramModel mem{dram::DramConfig{}};
            Rng rng(11);
            oram::OramDeviceSpec inner; // timing
            oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/4,
                                        /*route_seed=*/5, mem, rng,
                                        /*record=*/true);
            const timing::RateSet rates{ringRates(true)};
            const timing::EpochSchedule sched{Cycles{1} << 14, 2,
                                              Cycles{1} << 40};
            const timing::RateLearner learner{rates};
            sim::RingScheduler::Options o;
            o.ringCapacity = 8; // many stalls over ~100 transactions
            o.threads = threads;
            sim::RingScheduler rs(dev, rates, sched, learner, 3200,
                                  leakParams(rates.size()), o);
            const std::size_t sessions = 3;
            for (std::uint32_t sid = 0; sid < sessions; ++sid)
                rs.openSession(100 + sid);

            const auto workload = makeWorkload(sessions, seed);
            ASSERT_GT(workload.size(), 8u * 4u) << "must overflow the lane";
            std::vector<std::uint8_t> popped(workload.size() + 2, 0);
            std::uint64_t expectFence = 0;
            std::size_t nPopped = 0;
            bool sawLag = false;
            sim::SessionRing::Completion c;
            const auto notePop = [&] {
                ASSERT_GE(c.token, 1u);
                ASSERT_LE(c.token, workload.size()) << "unknown token";
                ASSERT_FALSE(popped[c.token]) << "token retired twice";
                popped[c.token] = 1;
                ++nPopped;
                while (popped[expectFence + 1])
                    ++expectFence;
                ASSERT_EQ(rs.lane(0).retiredFence(), expectFence)
                    << "fence must track the popped prefix exactly";
                sawLag = sawLag || expectFence + 1 < c.token;
            };
            for (const auto &a : workload) {
                auto tok = rs.trySubmit(
                    a.sid, a.at, timing::OramTransaction::real(a.block));
                while (!tok) {
                    rs.runUntilIdle();
                    if (rs.lane(0).popCompletion(c))
                        notePop();
                    tok = rs.trySubmit(
                        a.sid, a.at, timing::OramTransaction::real(a.block));
                }
            }
            rs.runUntilIdle();
            while (rs.lane(0).popCompletion(c))
                notePop();

            EXPECT_TRUE(sawLag)
                << "workload never drove the fence behind the drain "
                   "count — the scenario under test did not occur";
            EXPECT_EQ(nPopped, workload.size());
            EXPECT_EQ(expectFence, workload.size());
            EXPECT_EQ(rs.lane(0).retiredFence(), workload.size())
                << "fence must reach the last token, threads=" << threads;

            std::vector<Cycles> flat;
            for (std::uint32_t s = 0; s < 4; ++s) {
                const auto &st = dev.recorder(s)->startCycles();
                flat.insert(flat.end(), st.begin(), st.end());
                flat.push_back(0); // shard separator
            }
            streamsByThreads.push_back(std::move(flat));
        }
        EXPECT_EQ(streamsByThreads[0], streamsByThreads[1])
            << "partial-drain backpressure must stay worker-count blind, "
               "seed=" << seed;
    }
}

// --- streams pinned from the retired dense scheduler ---
//
// These values were recorded from the session-index round-robin
// scheduler the ring scheduler replaced, on the same workload and
// device setup. The ring engine must reproduce them exactly.

TEST(RingScheduler, ReproducesPinnedStreamUnderStaticRate)
{
    // |R| = 1 closes the decision channel, so the per-shard observable
    // streams are independent of the dispatch order. (Session
    // ATTRIBUTION may differ from the retired engine: it scanned
    // session ids, the ring scans the activation list.)
    const std::vector<std::pair<std::uint32_t, std::vector<ShardPin>>>
        cases = {
            {1, {{267, 0x5cd14bf8b8338654ull, 261660, 0}}},
            {4,
             {{310, 0xf17b64aae35fcf99ull, 261950, 0},
              {347, 0x4d7260bd6e2ad116ull, 261985, 0},
              {335, 0x27a6703483228c40ull, 262305, 0},
              {301, 0xc753e38296342105ull, 262472, 0}}},
        };
    for (const auto &[shards, pins] : cases) {
        RingSetup s;
        s.shards = shards;
        s.sessions = 5;
        s.seed = 3;
        const RingResult ring = runRing(s);
        expectShardPins(ring, pins);
        EXPECT_EQ(ring.served, 166u) << "shards=" << shards;
    }
}

TEST(RingScheduler, ReproducesPinnedOneSessionDynamicRun)
{
    // With one session, dispatch is FIFO: the bounded serve must
    // replay the pinned enforcer sequence exactly — streams, epoch
    // counts, stats, and the latency samples themselves.
    struct Case
    {
        std::uint32_t shards;
        std::vector<ShardPin> pins;
        StatsTuple stats;
        std::uint64_t latencyDigest; ///< over the sorted samples
    };
    const std::vector<Case> cases = {
        {1,
         {{158, 0x7a8e8c7a95932112ull, 262240, 4}},
         {18, 18, 0, 29680, 80460, 71820, 9620},
         0x391a9f6abcf7001cull},
        {4,
         {{82, 0xecb6bf8d75b5c1b9ull, 261890, 4},
          {98, 0x61e49d95d6667e88ull, 259390, 4},
          {75, 0xd0efd9ff482a7470ull, 261225, 4},
          {88, 0xe84e57b6a156b8a2ull, 259936, 4}},
         // lastCompletion not pinned at M > 1: the retired engine kept
         // the LAST-SERVED completion cycle (global dispatch order),
         // the ring scheduler keeps the max.
         {18, 18, 0, 0, 49045, 43370, 4604},
         0xfaee2c5e9c7f9fb5ull},
    };
    for (const Case &c : cases) {
        RingSetup s;
        s.shards = c.shards;
        s.dynamic = true;
        s.sessions = 1;
        s.seed = 9;
        const RingResult ring = runRing(s);
        expectShardPins(ring, c.pins);

        ASSERT_EQ(ring.stats.size(), 1u);
        auto got = ring.stats[0];
        if (c.shards > 1)
            std::get<3>(got) = 0;
        EXPECT_EQ(got, c.stats) << "shards=" << c.shards;

        std::vector<Cycles> samples;
        for (const auto &done : ring.completions)
            samples.push_back(done.completion.done - done.arrival);
        std::sort(samples.begin(), samples.end());
        EXPECT_EQ(samples.size(), 18u);
        EXPECT_EQ(digest(samples), c.latencyDigest)
            << "shards=" << c.shards;
    }
}

// --- faults and checkpoints ---

namespace {

/** A functional 2-shard ring run with an optional fault model. */
struct FaultRun
{
    std::vector<std::vector<Cycles>> streams;
    std::string csv;
    std::uint64_t recoverySlots = 0;
    std::uint64_t faultsDetected = 0;
};

FaultRun
runFaulty(const std::string &fault, unsigned threads)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    inner.kind = "functional";
    inner.functionalBlockCap = 256;
    inner.keySeed = 77;
    if (!fault.empty())
        inner.fault = dram::FaultSpec::parse(fault);
    oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/2,
                                /*route_seed=*/5, mem, rng,
                                /*record=*/true);
    const timing::RateSet rates{std::vector<Cycles>{700}};
    const timing::EpochSchedule sched{Cycles{1} << 12, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.lanes = 4;
    o.threads = threads;
    sim::RingScheduler rs(dev, rates, sched, learner, 700, leakParams(1),
                          o);
    for (std::uint32_t sid = 0; sid < 8; ++sid)
        rs.openSession(100 + sid, sid == 0 ? 64.0 : -1.0,
                       static_cast<std::uint16_t>(sid % 4));
    // Open-loop backlog with a mid-run refill: the refill's arrivals
    // land after an idle stretch, so recovery slots must share the
    // grid with idle dummies and with epoch boundaries.
    for (std::uint64_t k = 0; k < 12; ++k)
        for (std::uint32_t sid = 0; sid < 8; ++sid)
            EXPECT_TRUE(rs.trySubmit(sid, k,
                                     timing::OramTransaction::real(
                                         sid * 131 + k * 17, k % 3 == 0))
                            .has_value());
    const Cycles mid = rs.runUntilIdle();
    auto drain = [&] {
        sim::SessionRing::Completion c;
        for (std::size_t l = 0; l < 4; ++l)
            while (rs.lane(l).popCompletion(c)) {
            }
    };
    drain();
    rs.drainUntil(mid + 20'000);
    for (std::uint64_t k = 0; k < 6; ++k)
        for (std::uint32_t sid = 0; sid < 8; ++sid)
            EXPECT_TRUE(rs.trySubmit(sid, mid + 20'000 + k,
                                     timing::OramTransaction::real(
                                         sid * 131 + k * 29, k % 2 == 0))
                            .has_value());
    const Cycles last = rs.runUntilIdle();
    drain();
    rs.drainUntil(last + 8 * (700 + dev.accessLatency()));

    FaultRun r;
    for (std::uint32_t i = 0; i < 2; ++i) {
        r.streams.push_back(dev.recorder(i)->startCycles());
        const auto &c = rs.shard(i).enforcer().counters();
        r.recoverySlots += c.recoverySlots();
        r.faultsDetected += c.faultsDetected();
    }
    r.csv = rs.csv();
    return r;
}

} // namespace

TEST(RingScheduler, FaultInjectedShardsStayWorkerCountBlindAndLeakFree)
{
    // Functional shards over a flipping datapath: retried accesses owe
    // exponential-backoff slots that the bounded enforcer pays on the
    // slot grid, across epoch boundaries, at the barrier discipline.
    const FaultRun one = runFaulty("flip@2e-2#9", 1);
    const FaultRun four = runFaulty("flip@2e-2#9", 4);
    EXPECT_EQ(one.streams, four.streams);
    EXPECT_EQ(one.csv, four.csv);
    EXPECT_GT(one.faultsDetected, 0u);
    EXPECT_GT(one.recoverySlots, 0u);
    EXPECT_EQ(one.recoverySlots, four.recoverySlots);

    // Leak-free charging: recovery slots extend the stream but never
    // move a slot — the start cycles equal the fault-free run's over
    // the common prefix.
    const FaultRun clean = runFaulty("", 1);
    EXPECT_EQ(clean.recoverySlots, 0u);
    for (std::size_t i = 0; i < clean.streams.size(); ++i) {
        const std::size_t n =
            std::min(clean.streams[i].size(), one.streams[i].size());
        ASSERT_GT(n, 10u) << "shard " << i;
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(one.streams[i][j], clean.streams[i][j])
                << "shard " << i << " event " << j;
    }
}

namespace {

/** Everything a ring kill/restore must reproduce. */
struct CheckpointRun
{
    std::vector<std::vector<Cycles>> streams;
    std::vector<StatsTuple> stats;
    std::string csv;
    std::uint64_t served = 0;
    std::vector<std::uint64_t> fences;
    std::vector<std::uint64_t> tokens;

    bool
    operator==(const CheckpointRun &o) const
    {
        return streams == o.streams && stats == o.stats && csv == o.csv &&
               served == o.served && fences == o.fences &&
               tokens == o.tokens;
    }
};

/**
 * A dynamic-rate, wrr-dispatched 4-shard timing run over two lanes,
 * with a finite session budget so the monitor ledger is live. Half the
 * workload is queued, exactly @p kill_at transactions are served, and
 * with @p restart the device + scheduler are snapshotted and a FRESH
 * stack is restored from the bytes; then the second half is queued
 * (re-activating sessions mid-backlog) and everything is served.
 */
CheckpointRun
runCheckpointed(std::uint64_t kill_at, bool restart)
{
    struct Stack
    {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng{11};
        oram::ShardedOramDevice dev{oram::OramDeviceSpec{}, tinyConfig(), 4,
                                    /*route_seed=*/5, mem, rng,
                                    /*record=*/true};
        timing::RateSet rates{ringRates(true)};
        timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
        timing::RateLearner learner{rates};
        sim::RingScheduler rs;

        Stack()
            : rs(dev, rates, sched, learner, 3200, leakParams(4), options())
        {
            for (std::uint32_t sid = 0; sid < 6; ++sid)
                rs.openSession(100 + sid, sid == 1 ? 1e6 : -1.0,
                               static_cast<std::uint16_t>(sid % 2),
                               static_cast<std::uint16_t>(1 + sid % 3));
        }

        static sim::RingScheduler::Options
        options()
        {
            sim::RingScheduler::Options o;
            o.lanes = 2;
            o.policy = timing::DispatchPolicyKind::WeightedRoundRobin;
            return o;
        }

        void
        popAll()
        {
            sim::SessionRing::Completion c;
            for (std::size_t l = 0; l < 2; ++l)
                while (rs.lane(l).popCompletion(c)) {
                }
        }
    };

    const auto work = makeWorkload(6, 4);
    const std::size_t half = work.size() / 2;
    auto submit = [&](Stack &st, std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i)
            EXPECT_TRUE(st.rs
                            .trySubmit(work[i].sid, work[i].at,
                                       timing::OramTransaction::real(
                                           work[i].block))
                            .has_value());
    };

    auto run = std::make_unique<Stack>();
    submit(*run, 0, half);
    EXPECT_EQ(run->rs.serveUpTo(kill_at), kill_at);
    run->popAll();
    if (restart) {
        ByteWriter w;
        run->dev.saveState(w);
        run->rs.saveState(w);
        run = std::make_unique<Stack>(); // the "crash" and the restart
        ByteReader r(w.data());
        run->dev.restoreState(r);
        run->rs.restoreState(r);
        EXPECT_TRUE(r.atEnd());
    }
    submit(*run, half, work.size());
    run->rs.runUntilIdle();
    run->popAll();
    run->rs.drainUntil(kDrainHorizon);

    CheckpointRun out;
    for (std::uint32_t i = 0; i < 4; ++i)
        out.streams.push_back(run->dev.recorder(i)->startCycles());
    for (std::uint32_t sid = 0; sid < 6; ++sid)
        out.stats.push_back(statsOf(run->rs.stats(sid), true));
    out.csv = run->rs.csv();
    out.served = run->rs.servedTotal();
    for (std::size_t l = 0; l < 2; ++l) {
        out.fences.push_back(run->rs.lane(l).retiredFence());
        out.tokens.push_back(run->rs.lane(l).submitted());
    }
    return out;
}

} // namespace

TEST(RingScheduler, KillRestoreReplaysTheUninterruptedRun)
{
    for (const std::uint64_t kill_at : {1ull, 17ull, 41ull}) {
        const CheckpointRun golden = runCheckpointed(kill_at, false);
        const CheckpointRun resumed = runCheckpointed(kill_at, true);
        ASSERT_GT(golden.served, 2 * kill_at);
        EXPECT_EQ(golden.fences, golden.tokens) << "every token retires";
        EXPECT_TRUE(resumed == golden) << "kill_at " << kill_at;
        EXPECT_EQ(resumed.fences, golden.fences) << "kill_at " << kill_at;
        EXPECT_EQ(resumed.stats, golden.stats) << "kill_at " << kill_at;
    }
}

TEST(RingScheduler, CheckpointRequiresAQuiescentRoundBoundary)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::ShardedOramDevice dev(oram::OramDeviceSpec{}, tinyConfig(), 2, 5,
                                mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler rs(dev, rates, sched, learner, 500, leakParams(1));
    rs.openSession(1);
    ASSERT_TRUE(rs.trySubmit(0, 0, timing::OramTransaction::real(3)));
    // A ringed submission is not yet part of any shard queue.
    EXPECT_DEATH(
        {
            ByteWriter w;
            rs.saveState(w);
        },
        "empty");
    rs.serveUpTo(1);
    // An unpopped completion would be lost across the restart.
    EXPECT_DEATH(
        {
            ByteWriter w;
            rs.saveState(w);
        },
        "empty");
}

// --- QoS dispatch ---

TEST(RingScheduler, DispatchPolicyCannotShiftTheObservableStream)
{
    // A policy picks WHICH eligible session rides the next enforced
    // slot. Under a pinned rate (|R| = 1 — the decision channel is
    // closed, isolating pure dispatch) the per-shard streams must be
    // bit-identical across policies; only attribution may move.
    RingSetup s;
    s.shards = 4;
    s.sessions = 6;
    s.seed = 5;
    s.policy = timing::DispatchPolicyKind::RoundRobin;
    const RingResult rr = runRing(s);
    s.policy = timing::DispatchPolicyKind::WeightedRoundRobin;
    const RingResult wrr = runRing(s);
    s.policy = timing::DispatchPolicyKind::EarliestDeadline;
    const RingResult edf = runRing(s);

    EXPECT_EQ(rr.streams, wrr.streams);
    EXPECT_EQ(rr.streams, edf.streams);
    EXPECT_EQ(rr.served, wrr.served);
    EXPECT_EQ(rr.served, edf.served);
    EXPECT_EQ(rr.last, wrr.last);
    EXPECT_EQ(rr.last, edf.last);
}

namespace {

/** Serve a fully backlogged single-shard slate and return the session
 *  attribution order the policy produced. */
std::vector<std::uint32_t>
attributionOrder(timing::DispatchPolicyKind policy,
                 const std::vector<std::uint16_t> &weights,
                 const std::vector<Cycles> &deadline_offsets,
                 const std::vector<int> &counts)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), 1, 5, mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.policy = policy;
    sim::RingScheduler rs(dev, rates, sched, learner, 500, leakParams(1), o);

    for (std::size_t sid = 0; sid < counts.size(); ++sid)
        rs.openSession(100 + sid, -1.0, 0, weights[sid],
                       deadline_offsets[sid]);
    // Session-major submission: session 0 activates first, everyone
    // arrives at cycle 0, so every head is eligible from the start.
    for (std::size_t sid = 0; sid < counts.size(); ++sid)
        for (int k = 0; k < counts[sid]; ++k)
            EXPECT_TRUE(rs.trySubmit(static_cast<std::uint32_t>(sid), 0,
                                     timing::OramTransaction::real(sid))
                            .has_value());
    rs.runUntilIdle();

    std::vector<std::uint32_t> order;
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        order.push_back(c.sessionId);
    return order;
}

} // namespace

TEST(RingScheduler, WeightedRoundRobinServesBursts)
{
    // Weights 3:1, all heads tied at arrival 0. The scan starts after
    // the activation cursor (session 0 activated first), so session 1
    // opens; thereafter session 0 rides 3-slot bursts.
    const auto order = attributionOrder(
        timing::DispatchPolicyKind::WeightedRoundRobin, {3, 1}, {0, 0},
        {6, 2});
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{1, 0, 0, 0, 1, 0, 0, 0}));
}

TEST(RingScheduler, EarliestDeadlineServesTightestOffsetFirst)
{
    // Same arrivals, deadline offsets 3000 vs 0: the zero-offset
    // session drains completely first.
    const auto order = attributionOrder(
        timing::DispatchPolicyKind::EarliestDeadline, {1, 1}, {3000, 0},
        {3, 3});
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 1, 1, 0, 0, 0}));
}

// --- latency percentiles ---

TEST(LatencyPercentile, PinnedQuantilesOverTheDenseSchedulerStreams)
{
    // Three sessions under the dynamic 4-shard rate. The per-shard
    // streams equal the retired dense scheduler's (pinned digests);
    // the per-session quantiles are re-derived for activation-list
    // round-robin, which attributes some slots to a different session
    // than session-index round-robin. Checked at every quantile —
    // twice, because the reused scratch must not disturb the samples.
    const std::uint32_t shards = 4;
    const std::size_t sessions = 3;
    const std::vector<std::vector<Cycles>> pinned = {
        {283, 283, 3532, 8072, 9611, 13279, 14645, 14645},
        {530, 530, 3288, 5222, 8255, 12685, 13110, 13110},
        {330, 330, 1295, 4535, 8556, 9040, 10008, 10008},
    };
    const std::vector<std::pair<std::size_t, std::uint64_t>> streams = {
        {24, 0xe9061cf0109f991cull},
        {29, 0xf0939ae017e5c399ull},
        {18, 0x01f722ed5f4189a0ull},
        {29, 0x07cac43aa70f72d0ull},
    };
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), shards, 5, mem, rng,
                                /*record=*/true);
    const timing::RateSet rates{ringRates(true)};
    const timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler s(dev, rates, sched, learner, 3200, leakParams(4));
    for (std::uint32_t sid = 0; sid < sessions; ++sid)
        s.openSession(100 + sid);
    for (const auto &a : makeWorkload(sessions, 6))
        ASSERT_TRUE(
            s.trySubmit(a.sid, a.at, timing::OramTransaction::real(a.block))
                .has_value());
    s.runUntilIdle();

    for (std::uint32_t i = 0; i < shards; ++i) {
        const auto st = dev.recorder(i)->startCycles();
        EXPECT_EQ(st.size(), streams[i].first) << "shard " << i;
        EXPECT_EQ(digest(st), streams[i].second) << "shard " << i;
    }
    for (std::uint32_t sid = 0; sid < sessions; ++sid) {
        for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
            const double q = kQuantiles[i];
            EXPECT_EQ(s.latencyPercentile(sid, q), pinned[sid][i])
                << "sid " << sid << " q " << q;
            EXPECT_EQ(s.latencyPercentile(sid, q), pinned[sid][i])
                << "repeat must not disturb the samples, sid " << sid;
        }
    }
}

TEST(LatencyPercentile, RingSchedulerAgreesWithItsOwnCompletions)
{
    RingSetup setup;
    setup.shards = 4;
    setup.dynamic = true;
    setup.sessions = 3;
    setup.seed = 6;

    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards, 5, mem,
                                rng);
    const timing::RateSet rates{ringRates(true)};
    const timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler rs(dev, rates, sched, learner, 3200, leakParams(4));
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid);
    for (const auto &a : makeWorkload(setup.sessions, setup.seed))
        ASSERT_TRUE(rs.trySubmit(a.sid, a.at,
                                 timing::OramTransaction::real(a.block))
                        .has_value());
    rs.runUntilIdle();

    std::vector<std::vector<Cycles>> samples(setup.sessions);
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        samples[c.sessionId].push_back(c.completion.done - c.arrival);

    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid) {
        ASSERT_GT(samples[sid].size(), 10u);
        for (const double q : kQuantiles)
            EXPECT_EQ(rs.latencyPercentile(sid, q),
                      sortedReference(samples[sid], q))
                << "sid " << sid << " q " << q;
    }
}
