/**
 * @file
 * Million-session scheduler scaling bench: the lock-free ring front
 * (sim/shard_worker.hh) on dispatch-bound workloads, plus the
 * million-open-session smoke the descriptor design exists for.
 *
 * Four sections, every one also asserted under --check:
 *
 *  1. DISPATCH SCALING — M = 16 shards, open-loop backlog, the same
 *     total transactions spread over 16 sessions and over S sessions
 *     (S in the thousands). The activation list is O(1) per dispatch
 *     under backlog, so the median host ns/txn at S sessions must stay
 *     within kMaxScalingFactor of the median at 16 sessions; a scan
 *     over the sessions (O(S) per dispatch) would blow far past it.
 *     Both sides do the same simulated work on the same host, so the
 *     ratio gate is host-independent; runs are interleaved to cancel
 *     host drift.
 *  2. WORKER SWEEP — the same point at 1, 4 and min(16, hw) worker
 *     threads, run in the same interleaved reps as section 1. Every
 *     run must produce a bit-identical per-shard summary CSV (the
 *     determinism contract); the median wall-clock speedup is
 *     reported, and gated only loosely (>= 0.3x of the 1-thread
 *     median) because the phased rounds serialize on few-core hosts
 *     while the barrier overhead stays.
 *  3. POLICY SWEEP — rr/wrr/edf at the same point: identical served
 *     counts and last-completion cycle (dispatch policy must never
 *     change the observable envelope under a static rate).
 *  4. MILLION-SESSION SMOKE — open 1,000,000 descriptor sessions
 *     (unlimited budgets), gate the resident-set growth of the opens
 *     at "a few hundred MB" (< 600 MB), then push a spread of real
 *     transactions through and require every one retired (fence ==
 *     tokens issued).
 *
 * Usage:
 *   bench_scheduler_scale [--quick] [--json <path>] [--check]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/dispatch_policy.hh"
#include "timing/rate_enforcer.hh"

using namespace tcoram;

namespace {

constexpr Cycles kRate = 1000;
constexpr std::uint64_t kRouteSeed = 7;
constexpr std::uint32_t kShards = 16;
/** Baseline session count of the dispatch-scaling ratio. */
constexpr std::size_t kBaseSessions = 16;
/** Max median ns/txn at S sessions over the median at kBaseSessions. */
constexpr double kMaxScalingFactor = 2.0;
/** Interleaved repetitions per side of the scaling ratio and per
 *  worker count of the sweep. */
constexpr int kScalingReps = 9;

/** The single public rate/epoch configuration (static rate: the
 *  dispatch order cannot move the learner, so every engine, thread
 *  count and policy must produce the same observable envelope). */
struct RateConfig
{
    timing::RateSet rates{std::vector<Cycles>{kRate}};
    timing::EpochSchedule schedule{Cycles{1} << 30, 2, Cycles{1} << 40};
    timing::RateLearner learner{rates};

    static protocol::LeakageParams
    params()
    {
        protocol::LeakageParams p;
        p.rateCount = 1;
        return p;
    }
};

/** Deterministic per-(session, k) block id, spread for the router. */
std::uint64_t
blockId(std::size_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** VmRSS in KiB (0 when /proc is unavailable). */
std::uint64_t
rssKb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** Everything a timed engine run reports. */
struct EnginePoint
{
    std::string engine;
    unsigned threads = 1;
    std::uint64_t served = 0;
    double wallSeconds = 0.0;
    double txnsPerSec = 0.0;
    Cycles lastCompletion = 0;
    std::string csv; ///< ring engine only (identity check)
};

/**
 * The ONE dispatch workload: S sessions each queue per-session
 * transactions with arrivals at cycle k — the full backlog the
 * activation list is O(1) under.
 */
EnginePoint
runRing(std::size_t sessions, std::uint64_t total_txns, unsigned threads,
        timing::DispatchPolicyKind policy)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(42);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice device(inner, oram::OramConfig::benchConfig(),
                                   kShards, kRouteSeed, mem, rng);
    RateConfig rc;
    sim::RingScheduler::Options opts;
    opts.lanes = 1;
    opts.ringCapacity = 4096;
    opts.threads = threads;
    opts.policy = policy;
    opts.recordLatencies = false;
    sim::RingScheduler sched(device, rc.rates, rc.schedule, rc.learner,
                             kRate, RateConfig::params(), opts);
    for (std::size_t s = 0; s < sessions; ++s)
        sched.openSession(mixSeed(0x5a7d, s), -1.0, 0,
                          static_cast<std::uint16_t>(1 + s % 3),
                          100 * static_cast<Cycles>(s));

    auto drain = [&] {
        sim::SessionRing::Completion c;
        while (sched.lane(0).popCompletion(c)) {
        }
    };
    const std::uint64_t per_session = total_txns / sessions;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < per_session; ++k)
        for (std::size_t s = 0; s < sessions; ++s) {
            const auto txn = timing::OramTransaction::real(blockId(s, k));
            while (!sched.trySubmit(static_cast<std::uint32_t>(s), k, txn)
                        .has_value()) {
                sched.runUntilIdle();
                drain();
            }
        }
    sched.runUntilIdle();
    drain();
    const auto t1 = std::chrono::steady_clock::now();

    EnginePoint p;
    p.engine = "ring";
    p.threads = threads;
    p.served = sched.servedTotal();
    p.wallSeconds = seconds(t0, t1);
    p.txnsPerSec = p.wallSeconds > 0.0
                       ? static_cast<double>(p.served) / p.wallSeconds
                       : 0.0;
    p.lastCompletion = sched.lastCompletion();
    p.csv = sched.csv();
    return p;
}

/** Million-open-session smoke results. */
struct SmokePoint
{
    std::size_t sessions = 0;
    std::uint64_t txns = 0;
    std::uint64_t retired = 0;
    double openSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t openRssKb = 0; ///< RSS growth across the opens
    bool fenceFinal = false;     ///< fence reached the last token
};

SmokePoint
runMillionSmoke(std::size_t sessions, std::uint64_t txns)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(42);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice device(inner, oram::OramConfig::benchConfig(),
                                   kShards, kRouteSeed, mem, rng);
    RateConfig rc;
    sim::RingScheduler::Options opts;
    opts.lanes = 1;
    opts.ringCapacity = 4096;
    opts.threads = 1;
    opts.recordLatencies = false; // samples would dominate the footprint
    sim::RingScheduler sched(device, rc.rates, rc.schedule, rc.learner,
                             kRate, RateConfig::params(), opts);

    SmokePoint p;
    p.sessions = sessions;
    p.txns = txns;
    const std::uint64_t rss0 = rssKb();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < sessions; ++s)
        sched.openSession(mixSeed(0xbeef, s));
    const auto t1 = std::chrono::steady_clock::now();
    p.openSeconds = seconds(t0, t1);
    p.openRssKb = rssKb() - rss0;

    // A sparse spread of real work across the session space (every
    // descriptor stays cold except the ones actually submitting —
    // exactly the long-tail shape a million-session front serves).
    auto drain = [&] {
        sim::SessionRing::Completion c;
        while (sched.lane(0).popCompletion(c)) {
        }
    };
    for (std::uint64_t i = 0; i < txns; ++i) {
        const auto sid =
            static_cast<std::uint32_t>((i * 4099ull) % sessions);
        const auto txn = timing::OramTransaction::real(blockId(sid, i));
        while (!sched.trySubmit(sid, i, txn).has_value()) {
            sched.runUntilIdle();
            drain();
        }
    }
    sched.runUntilIdle();
    drain();
    const auto t2 = std::chrono::steady_clock::now();
    p.runSeconds = seconds(t1, t2);
    p.retired = sched.servedTotal();
    p.fenceFinal = sched.lane(0).retiredFence() ==
                   sched.lane(0).submitted();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_scheduler.json");

    const std::size_t sessions = quick ? 2048 : 4096;
    const std::uint64_t total_txns = quick ? 8192 : 16384;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned hw_threads = std::min<unsigned>(kShards, hw);

    bench::banner("million-session scheduler: rings + shard workers");
    std::printf("hardware threads: %u\n", hw);
    std::printf("%-10s %-8s %-10s %-10s %-12s %-10s\n", "engine",
                "threads", "sessions", "served", "wall-ms", "txn/s");

    auto row = [](const EnginePoint &p, std::size_t n_sessions) {
        std::printf("%-10s %-8u %-10zu %-10llu %-12.1f %-10.0f\n",
                    p.engine.c_str(), p.threads, n_sessions,
                    (unsigned long long)p.served, 1e3 * p.wallSeconds,
                    p.txnsPerSec);
    };
    auto ns_per_txn = [](const EnginePoint &p) {
        return p.served ? 1e9 * p.wallSeconds / static_cast<double>(p.served)
                        : 0.0;
    };
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };

    // --- 1. dispatch scaling (ns/txn at S sessions vs 16 sessions)
    // and 2. worker sweep, timed in the same interleaved reps so host
    // drift hits every side of both gates alike
    std::vector<unsigned> worker_counts{1, 4};
    if (hw_threads != 1 && hw_threads != 4)
        worker_counts.push_back(hw_threads);
    std::vector<EnginePoint> workers(worker_counts.size());
    std::vector<std::vector<double>> worker_wall(worker_counts.size());
    std::vector<double> base_ns;
    bool identical = true;
    for (int rep = 0; rep < kScalingReps; ++rep) {
        base_ns.push_back(ns_per_txn(
            runRing(kBaseSessions, total_txns, 1,
                    timing::DispatchPolicyKind::RoundRobin)));
        for (std::size_t i = 0; i < worker_counts.size(); ++i) {
            EnginePoint p = runRing(sessions, total_txns, worker_counts[i],
                                    timing::DispatchPolicyKind::RoundRobin);
            worker_wall[i].push_back(p.wallSeconds);
            if (rep == 0)
                workers[i] = p;
            if (p.csv != workers[0].csv || p.served != workers[0].served ||
                p.lastCompletion != workers[0].lastCompletion)
                identical = false;
        }
    }
    // Report each worker count at its median wall time.
    for (std::size_t i = 0; i < workers.size(); ++i) {
        EnginePoint &p = workers[i];
        p.wallSeconds = median(worker_wall[i]);
        p.txnsPerSec = p.wallSeconds > 0.0
                           ? static_cast<double>(p.served) / p.wallSeconds
                           : 0.0;
    }
    const EnginePoint &ring1 = workers[0];
    const double base_median = median(base_ns);
    const double wide_median = ns_per_txn(ring1);
    const double scaling =
        base_median > 0.0 ? wide_median / base_median : 0.0;
    for (const EnginePoint &p : workers)
        row(p, sessions);
    std::printf("dispatch ns/txn (median of %d): %.1f @%zu sessions, "
                "%.1f @%zu sessions, ratio %.2fx\n",
                kScalingReps, base_median, kBaseSessions, wide_median,
                sessions, scaling);
    std::printf("N-worker vs 1-worker shard CSV: %s\n",
                identical ? "bit-identical" : "DIFFERS");

    // --- 3. policy sweep: rr/wrr/edf share the observable envelope
    bool policies_agree = true;
    std::vector<std::pair<const char *, timing::DispatchPolicyKind>> kinds{
        {"wrr", timing::DispatchPolicyKind::WeightedRoundRobin},
        {"edf", timing::DispatchPolicyKind::EarliestDeadline}};
    for (const auto &[name, kind] : kinds) {
        EnginePoint p = runRing(sessions, total_txns, 1, kind);
        std::printf("policy %-4s served %-10llu last %llu\n", name,
                    (unsigned long long)p.served,
                    (unsigned long long)p.lastCompletion);
        if (p.served != ring1.served ||
            p.lastCompletion != ring1.lastCompletion)
            policies_agree = false;
    }
    std::printf("policy sweep envelope: %s\n",
                policies_agree ? "identical" : "DIFFERS");

    // --- 4. million-session smoke
    const std::size_t smoke_sessions = 1'000'000;
    const std::uint64_t smoke_txns = quick ? 20'000 : 50'000;
    const SmokePoint smoke = runMillionSmoke(smoke_sessions, smoke_txns);
    std::printf("smoke: %zu sessions opened in %.2fs (+%llu MB RSS), "
                "%llu/%llu txns retired in %.2fs, fence %s\n",
                smoke.sessions, smoke.openSeconds,
                (unsigned long long)(smoke.openRssKb / 1024),
                (unsigned long long)smoke.retired,
                (unsigned long long)smoke.txns, smoke.runSeconds,
                smoke.fenceFinal ? "final" : "NOT FINAL");

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"bench\": \"scheduler_scale\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"hardware_threads\": " << hw << ",\n";
        os << "  \"shards\": " << kShards << ",\n";
        os << "  \"sessions\": " << sessions << ",\n";
        os << "  \"total_txns\": " << total_txns << ",\n";
        os << "  \"base_sessions\": " << kBaseSessions << ",\n";
        os << "  \"base_ns_per_txn_median\": " << bench::jsonNum(base_median)
           << ",\n";
        os << "  \"ns_per_txn_median\": " << bench::jsonNum(wide_median)
           << ",\n";
        os << "  \"dispatch_scaling\": " << bench::jsonNum(scaling) << ",\n";
        os << "  \"worker_csv_identical\": "
           << (identical ? "true" : "false") << ",\n";
        os << "  \"policy_envelope_identical\": "
           << (policies_agree ? "true" : "false") << ",\n";
        os << "  \"engines\": [";
        bool first = true;
        auto emit = [&](const EnginePoint &p) {
            os << (first ? "\n    {" : ",\n    {");
            first = false;
            os << "\"engine\": \"" << p.engine << "\"";
            os << ", \"threads\": " << p.threads;
            os << ", \"served\": " << p.served;
            os << ", \"wall_seconds\": " << bench::jsonNum(p.wallSeconds);
            os << ", \"txns_per_sec\": " << bench::jsonNum(p.txnsPerSec);
            os << ", \"last_completion\": " << p.lastCompletion;
            os << "}";
        };
        for (const auto &p : workers)
            emit(p);
        os << "\n  ],\n";
        os << "  \"million_smoke\": {";
        os << "\"sessions\": " << smoke.sessions;
        os << ", \"txns\": " << smoke.txns;
        os << ", \"retired\": " << smoke.retired;
        os << ", \"open_seconds\": " << bench::jsonNum(smoke.openSeconds);
        os << ", \"run_seconds\": " << bench::jsonNum(smoke.runSeconds);
        os << ", \"open_rss_mb\": " << smoke.openRssKb / 1024;
        os << ", \"fence_final\": "
           << (smoke.fenceFinal ? "true" : "false");
        os << "}\n}\n";
        bench::writeArtifact(json_path, os.str());
    }

    // --- CI gate ---
    if (check) {
        bool ok = true;
        if (scaling <= 0.0 || scaling > kMaxScalingFactor) {
            std::printf("FAIL: median dispatch cost at %zu sessions is "
                        "%.2fx the %zu-session cost (> %.1fx)\n",
                        sessions, scaling, kBaseSessions,
                        kMaxScalingFactor);
            ok = false;
        }
        if (!identical) {
            std::printf("FAIL: worker counts disagree on the shard "
                        "summary CSV\n");
            ok = false;
        }
        if (!policies_agree) {
            std::printf("FAIL: dispatch policy changed the observable "
                        "envelope under a static rate\n");
            ok = false;
        }
        // Threads can't beat one core; gate only the sanity floor on
        // the medians so the barrier overhead never regresses into
        // pathology.
        for (const auto &p : workers) {
            if (p.threads == 1 || ring1.txnsPerSec <= 0.0)
                continue;
            const double rel = p.txnsPerSec / ring1.txnsPerSec;
            if (rel < 0.3) {
                std::printf("FAIL: %u workers run at %.2fx the "
                            "1-worker median rate (< 0.3x floor)\n",
                            p.threads, rel);
                ok = false;
            }
        }
        if (smoke.retired != smoke.txns || !smoke.fenceFinal) {
            std::printf("FAIL: million-session smoke retired %llu of "
                        "%llu (fence %s)\n",
                        (unsigned long long)smoke.retired,
                        (unsigned long long)smoke.txns,
                        smoke.fenceFinal ? "final" : "stuck");
            ok = false;
        }
        if (smoke.openRssKb != 0 && smoke.openRssKb / 1024 > 600) {
            std::printf("FAIL: %zu opens grew RSS by %llu MB "
                        "(>= 600 MB)\n",
                        smoke.sessions,
                        (unsigned long long)(smoke.openRssKb / 1024));
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("check OK: O(1) dispatch scaling, bit-identical "
                    "worker sweep, policy-invariant envelope, "
                    "million-session smoke within budget\n");
    }
    return 0;
}
