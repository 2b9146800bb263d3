/**
 * @file
 * Multi-session scheduler: the trace-level security invariant (the
 * enforced device stream is ONE periodic access sequence whose gaps
 * depend only on the rate — never on session count, arrival pattern
 * or payload), FIFO/fairness behaviour, the §5 per-session admission
 * handshake, and the shared tightest-budget leakage monitor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dram/dram_model.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

using namespace tcoram;

namespace {

constexpr Cycles kRate = 500;

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
staticParams()
{
    protocol::LeakageParams p;
    p.rateCount = 1; // static rate: 0 ORAM-timing bits
    return p;
}

/** A recorded one-shard timing device behind the ring scheduler. */
struct Harness
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng{42};
    oram::ShardedOramDevice dev;
    timing::RateSet rates;
    timing::EpochSchedule sched;
    timing::RateLearner learner{rates};
    sim::RingScheduler scheduler;

    explicit Harness(
        timing::RateSet r = timing::RateSet(std::vector<Cycles>{kRate}),
        timing::EpochSchedule e = {Cycles{1} << 30, 2, Cycles{1} << 40},
        Cycles initial_rate = kRate,
        const protocol::LeakageParams &params = staticParams())
        : dev(oram::OramDeviceSpec{}, tinyConfig(), 1, /*route_seed=*/5, mem,
              rng, /*record=*/true),
          rates(std::move(r)), sched(e),
          scheduler(dev, rates, sched, learner, initial_rate, params)
    {
    }

    /** The observable stream's start cycles. */
    std::vector<Cycles> starts() const
    {
        return dev.recorder(0)->startCycles();
    }

    /** Submit, pumping through backpressure. */
    void
    submit(std::uint32_t sid, Cycles arrival, timing::OramTransaction txn)
    {
        while (!scheduler.trySubmit(sid, arrival, txn))
            serve();
    }

    /** Run to idle and pop the completions in dispatch order. */
    std::vector<sim::SessionRing::Completion>
    serve()
    {
        scheduler.runUntilIdle();
        std::vector<sim::SessionRing::Completion> out;
        sim::SessionRing::Completion c;
        while (scheduler.lane(0).popCompletion(c))
            out.push_back(c);
        return out;
    }
};

/**
 * Drive @p n_sessions with session-dependent arrival patterns, then
 * drain well past the heaviest possible backlog so every configuration
 * observes the same number of enforced slots. Returns the observable
 * start-cycle stream.
 */
std::vector<Cycles>
observableStream(std::size_t n_sessions, Cycles horizon)
{
    Harness h;
    for (std::size_t s = 0; s < n_sessions; ++s)
        h.scheduler.openSession(100 + s);
    // Deliberately different per-session arrival patterns: bursty,
    // sparse, phase-shifted — the observable stream must not care.
    for (std::size_t s = 0; s < n_sessions; ++s) {
        const Cycles stride = 700 + 400 * s;
        for (Cycles t = 50 * s; t < horizon / 8; t += stride)
            h.submit(static_cast<std::uint32_t>(s), t,
                     timing::OramTransaction::real(s * 1000));
    }
    h.serve();
    h.scheduler.drainUntil(horizon);
    return h.starts();
}

} // namespace

TEST(RingScheduler, EnforcedStreamIsPeriodicWhateverTheSessionCount)
{
    // Horizon far beyond the heaviest backlog's last real completion
    // (~420 transactions x rate + OLAT slots), so every session count
    // drains to the same slot count.
    const Cycles horizon = 800'000;
    const auto one = observableStream(1, horizon);
    const auto three = observableStream(3, horizon);
    const auto eight = observableStream(8, horizon);

    // Gaps depend only on the rate: every access starts exactly
    // (rate + OLAT) after the previous start.
    const Cycles olat = Harness().dev.accessLatency();
    ASSERT_GE(one.size(), 10u);
    for (std::size_t i = 1; i < one.size(); ++i)
        EXPECT_EQ(one[i] - one[i - 1], kRate + olat) << "gap " << i;

    // And the stream is identical across session counts: an adversary
    // watching the device cannot tell 1 client from 8.
    EXPECT_EQ(one, three);
    EXPECT_EQ(one, eight);
}

TEST(RingScheduler, PerSessionFifoAndStatsAreKept)
{
    Harness h;
    h.scheduler.openSession(1);
    h.scheduler.openSession(2);
    h.submit(0, 0, timing::OramTransaction::real(10));
    h.submit(0, 10, timing::OramTransaction::real(11));
    h.submit(1, 5, timing::OramTransaction::real(20));

    std::vector<std::uint32_t> order;
    std::vector<Cycles> dones;
    for (const auto &c : h.serve()) {
        order.push_back(c.sessionId);
        dones.push_back(c.completion.done);
    }
    // Only s0's head (arrival 0) is eligible for the first slot; then
    // round-robin in activation order: s1, then s0 again.
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0}));
    // Completions ride consecutive enforced slots.
    const Cycles olat = h.dev.accessLatency();
    ASSERT_EQ(dones.size(), 3u);
    EXPECT_EQ(dones[1] - dones[0], kRate + olat);
    EXPECT_EQ(dones[2] - dones[1], kRate + olat);

    const auto &s0 = h.scheduler.stats(0);
    const auto &s1 = h.scheduler.stats(1);
    EXPECT_EQ(s0.submitted, 2u);
    EXPECT_EQ(s0.completed, 2u);
    EXPECT_EQ(s1.completed, 1u);
    EXPECT_GT(s0.totalLatency, 0u);
    EXPECT_GE(s0.maxLatency, s0.totalLatency / 2);
    EXPECT_EQ(h.scheduler.fairnessRatio(), 2.0);
}

TEST(RingScheduler, BackloggedSessionsShareTheDeviceFairly)
{
    Harness h;
    const std::size_t n = 6;
    for (std::size_t s = 0; s < n; ++s)
        h.scheduler.openSession(s);
    // Everybody arrives at cycle 0 with the same backlog: round-robin
    // must serve them in lockstep. The scan starts after the cursor
    // (session 0, activated first), so session 1 opens each round.
    for (int k = 0; k < 20; ++k)
        for (std::size_t s = 0; s < n; ++s)
            h.submit(static_cast<std::uint32_t>(s), 0,
                     timing::OramTransaction::real(k));
    const auto done = h.serve();
    ASSERT_EQ(done.size(), 20 * n);
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i].sessionId, (i + 1) % n) << "serve " << i;
    EXPECT_EQ(h.scheduler.fairnessRatio(), 1.0);
    for (std::size_t s = 0; s < n; ++s)
        EXPECT_EQ(h.scheduler.stats(static_cast<std::uint32_t>(s)).completed,
                  20u);
}

TEST(RingScheduler, ClosedLoopStepsRotateThroughEverySession)
{
    // Closed loop, one transaction per step: each session keeps one
    // request outstanding and resubmits the moment it completes, so
    // every serve empties a session's queue and re-activates it. The
    // rotation must still visit every session in turn — a re-joining
    // session goes to the back of the round, behind the sessions
    // still waiting, not ahead of the one the cursor fell back to.
    Harness h;
    constexpr std::uint32_t n = 5;
    for (std::uint32_t s = 0; s < n; ++s) {
        h.scheduler.openSession(s);
        h.submit(s, 0, timing::OramTransaction::real(s));
    }
    std::vector<std::uint32_t> order;
    while (order.size() < 10 * n && h.scheduler.serveUpTo(1) == 1) {
        sim::SessionRing::Completion c;
        while (h.scheduler.lane(0).popCompletion(c)) {
            order.push_back(c.sessionId);
            h.submit(c.sessionId, c.completion.done,
                     timing::OramTransaction::real(c.sessionId));
        }
    }
    ASSERT_EQ(order.size(), 10 * n);
    for (std::size_t i = n; i < order.size(); ++i)
        EXPECT_EQ(order[i], order[i - n]) << "serve " << i;
    for (std::uint32_t s = 0; s < n; ++s)
        EXPECT_NE(std::find(order.begin(), order.begin() + n, s),
                  order.begin() + n)
            << "session " << s << " starved";
}

TEST(RingScheduler, AdmissionRejectsBudgetsBelowTheConfiguration)
{
    protocol::LeakageParams params;
    params.rateCount = 4;
    params.epochGrowth = 2;
    params.epoch0 = Cycles{1} << 20;
    params.tmax = Cycles{1} << 40;
    const double bits = params.oramTimingBits();
    ASSERT_GT(bits, 0.0);

    Harness h(timing::RateSet(4), {Cycles{1} << 20, 2, Cycles{1} << 40},
              1000, params);
    sim::RingScheduler &scheduler = h.scheduler;
    const auto tight = scheduler.openSession(1, bits / 2.0);
    const auto roomy = scheduler.openSession(2, bits + 8.0);
    const auto open = scheduler.openSession(3); // unlimited
    EXPECT_FALSE(scheduler.sessionAdmitted(tight));
    EXPECT_TRUE(scheduler.sessionAdmitted(roomy));
    EXPECT_TRUE(scheduler.sessionAdmitted(open));

    // The tightest admitted finite budget guards the shared device.
    ASSERT_NE(scheduler.monitor(), nullptr);
    EXPECT_DOUBLE_EQ(scheduler.monitor()->limit(), bits + 8.0);

    EXPECT_EXIT((void)scheduler.trySubmit(tight, 0,
                                          timing::OramTransaction::real(1)),
                ::testing::ExitedWithCode(1), "not admitted");
}

TEST(RingScheduler, SharedMonitorPinsTheRateAtTheTightestBudget)
{
    // Admission happens at the paper-constant schedule (32 bits for
    // R4/E4); the run itself uses a scaled epoch schedule, so the
    // admitted 33-bit session's monitor must pin the shared device
    // once the realized decisions approach its budget (§2.1).
    const protocol::LeakageParams params; // paper defaults: 32 bits
    ASSERT_DOUBLE_EQ(params.oramTimingBits(), 32.0);

    // |R| = 4: 2 bits per free decision.
    Harness h(timing::RateSet(4), {64, 2, Cycles{1} << 40}, 256, params);
    sim::RingScheduler &scheduler = h.scheduler;
    const timing::RateEnforcer &enf = scheduler.shard(0).enforcer();
    scheduler.openSession(1);        // unlimited
    scheduler.openSession(2, 1e6);   // huge
    scheduler.openSession(3, 33.0);  // 16 free decisions — the binding one
    EXPECT_TRUE(scheduler.sessionAdmitted(2));

    // Open-loop demand from every session, then a long drain: the
    // scaled schedule crosses 17+ epoch boundaries.
    for (int k = 0; k < 200; ++k)
        for (std::uint32_t s = 0; s < 3; ++s)
            h.submit(s, k * 700, timing::OramTransaction::real(k));
    h.serve();
    scheduler.drainUntil(Cycles{12'000'000});

    ASSERT_GT(enf.currentEpoch(), 16u);
    EXPECT_GT(enf.pinnedDecisions(), 0u)
        << "the 33-bit session must pin the shared device's rate";
    ASSERT_NE(scheduler.monitor(), nullptr);
    EXPECT_DOUBLE_EQ(scheduler.monitor()->limit(), 33.0);
    EXPECT_LE(scheduler.monitor()->bitsConsumed(), 33.0 + 1e-9);
    // After the pin, the rate never changes again.
    const auto &d = enf.decisions();
    ASSERT_GE(d.size(), 18u);
    for (std::size_t i = 17; i < d.size(); ++i)
        EXPECT_EQ(d[i].rate, d[16].rate);
}
