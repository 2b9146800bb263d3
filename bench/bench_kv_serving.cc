/**
 * @file
 * ORAM-backed KV serving under the timing-channel rate limit: the
 * workload plane's flagship scenario. Thousands of closed-loop KV
 * client sessions (workload/workload_source.hh, "kv" method) stream
 * gets/puts/scans through KVBackend block packing (sim/kv_backend.hh)
 * and the lock-free ring scheduler onto the sharded, rate-enforced
 * device array, and the bench reports p50/p99/p999 whole-op tail
 * latency. Every section is asserted under --check:
 *
 *  1. SERVING — >= 1000 closed-loop sessions sustained: every token
 *     retired, zero payload mismatches (every get intact and fresh:
 *     a hit returns the key's latest committed put), zero
 *     failed puts, and every shard's observable stream EXACTLY
 *     periodic (consecutive starts one slot period apart — the grid
 *     never flexes under KV traffic).
 *  2. BLINDNESS — the start grid is session-count-blind (half the
 *     sessions, same grid prefix) and key-distribution-blind (Zipf
 *     0.99 vs uniform, same grid prefix).
 *  3. WORKER IDENTITY — 1-worker and N-worker scheduler runs produce
 *     a bit-identical stream CSV through the KV layer.
 *  4. MULTI-PRODUCER — one client thread per lane pushing through the
 *     SPSC rings while the scheduler pumps: all tokens retired, zero
 *     mismatches, streams still exactly periodic.
 *  5. REPLAY TRIO — RecoveryRun's workload mode replays the
 *     synthetic-profile, recorded-trace and KV-client methods through
 *     the one WorkloadSource API, serving every queued access; the
 *     recorded trace of the synthetic run replays a bit-identical
 *     observable stream.
 *
 * Usage:
 *   bench_kv_serving [--quick] [--json <path>] [--check]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/kv_serving.hh"
#include "sim/recovery_run.hh"
#include "sim/stat_dump.hh"
#include "workload/op_trace.hh"

using namespace tcoram;

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** KV client population sized so the zero-failed-put gate is sound:
 *  load factor 0.5 on the home table, spills exercised by the value
 *  size draw (mean 48 > the 51-byte inline cap half the time). */
sim::KvServingConfig
servingConfig(std::uint32_t sessions, std::uint64_t ops_per_rank)
{
    sim::KvServingConfig cfg;
    cfg.shards = 4;
    cfg.rate = 300;
    cfg.workload.method = "kv";
    cfg.workload.ranks = sessions;
    cfg.workload.opsPerRank = ops_per_rank;
    cfg.workload.keySpace = 1024;
    cfg.workload.zipfTheta = 0.99;
    cfg.workload.getFraction = 0.85;
    cfg.workload.scanFraction = 0.05;
    cfg.workload.scanLen = 3;
    cfg.workload.valueBytes = 48;
    cfg.kv.homeSlots = 2048;
    cfg.kv.spillPerSlot = 2;
    return cfg;
}

/** Consecutive starts exactly one slot period apart, every shard
 *  (each shard's calibration fixes its own period). */
bool
shardsPeriodic(const sim::KvServingRun &run)
{
    for (std::uint32_t i = 0; i < run.config().shards; ++i)
        if (!bench::exactlyPeriodic(run.shardStarts(i), run.shardPeriod(i)))
            return false;
    return true;
}

/** Grid prefix equality: the shorter run's start sequence must be an
 *  exact prefix of the longer one's, per shard (what an adversary
 *  would need to break to count sessions or learn the key skew). */
bool
sameGridPrefix(const sim::KvServingRun &a, const sim::KvServingRun &b)
{
    for (std::uint32_t i = 0; i < a.config().shards; ++i) {
        const std::vector<Cycles> sa = a.shardStarts(i);
        const std::vector<Cycles> sb = b.shardStarts(i);
        const std::size_t n = std::min(sa.size(), sb.size());
        for (std::size_t k = 0; k < n; ++k)
            if (sa[k] != sb[k])
                return false;
    }
    return true;
}

struct ServePoint
{
    std::uint32_t sessions = 0;
    std::uint64_t ops = 0;
    bool retired = false;
    bool periodic = false;
    std::uint64_t mismatches = 0;
    std::uint64_t failedPuts = 0;
    double wallSeconds = 0.0;
    Cycles getP50 = 0, getP99 = 0, getP999 = 0;
    Cycles putP50 = 0, putP99 = 0, putP999 = 0;
};

ServePoint
summarize(const sim::KvServingRun &run, double wall)
{
    ServePoint p;
    p.sessions = run.sessionCount();
    p.ops = run.opsCompleted();
    p.retired = run.allTokensRetired();
    p.periodic = shardsPeriodic(run);
    p.mismatches = run.payloadMismatches();
    p.failedPuts = run.stats().failedPuts;
    p.wallSeconds = wall;
    p.getP50 = run.getLatencyPercentile(0.50);
    p.getP99 = run.getLatencyPercentile(0.99);
    p.getP999 = run.getLatencyPercentile(0.999);
    p.putP50 = run.putLatencyPercentile(0.50);
    p.putP99 = run.putLatencyPercentile(0.99);
    p.putP999 = run.putLatencyPercentile(0.999);
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
        bench::argValue(argc, argv, "--json", "BENCH_kv.json");

    const std::uint32_t sessions = quick ? 1000 : 2000;
    const std::uint64_t ops_per_rank = quick ? 4 : 8;

    bench::banner("ORAM-backed KV serving under the rate limit");

    // --- 1. serving: the headline closed-loop population
    const sim::KvServingConfig base_cfg =
        servingConfig(sessions, ops_per_rank);
    auto t0 = std::chrono::steady_clock::now();
    sim::KvServingRun base(base_cfg);
    base.run();
    auto t1 = std::chrono::steady_clock::now();
    const ServePoint serve = summarize(base, seconds(t0, t1));
    const sim::KVStats base_stats = base.stats();
    std::printf("%u sessions, %llu kv ops (%llu ORAM txns) in %.2fs\n",
                serve.sessions, (unsigned long long)serve.ops,
                (unsigned long long)(base_stats.oramReads +
                                     base_stats.oramWrites),
                serve.wallSeconds);
    std::printf("tokens retired: %s; stream: %s; mismatches %llu; "
                "failed puts %llu\n",
                serve.retired ? "all" : "NOT ALL",
                serve.periodic ? "exactly periodic" : "APERIODIC",
                (unsigned long long)serve.mismatches,
                (unsigned long long)serve.failedPuts);
    std::printf("get latency p50/p99/p999: %llu/%llu/%llu cycles\n",
                (unsigned long long)serve.getP50,
                (unsigned long long)serve.getP99,
                (unsigned long long)serve.getP999);
    std::printf("put latency p50/p99/p999: %llu/%llu/%llu cycles\n",
                (unsigned long long)serve.putP50,
                (unsigned long long)serve.putP99,
                (unsigned long long)serve.putP999);
    std::printf("%s", sim::kvStatsCsv(base_stats, serve.getP99,
                                      serve.putP99)
                          .c_str());

    // --- 2. blindness: session count and key distribution
    sim::KvServingConfig half_cfg =
        servingConfig(sessions / 2, ops_per_rank);
    sim::KvServingRun half(half_cfg);
    half.run();
    const bool count_blind = sameGridPrefix(half, base);
    sim::KvServingConfig uniform_cfg = base_cfg;
    uniform_cfg.workload.zipfTheta = 0.0;
    sim::KvServingRun uniform(uniform_cfg);
    uniform.run();
    const bool skew_blind = sameGridPrefix(uniform, base);
    std::printf("grid blindness: session-count %s, key-distribution "
                "%s\n",
                count_blind ? "blind" : "LEAKS",
                skew_blind ? "blind" : "LEAKS");

    // --- 3. worker-count bit-identity through the KV layer
    // (always 4 requested workers — the scheduler clamps to the
    // stripe count and the contract is bit-identity, not speedup)
    const unsigned many = 4;
    sim::KvServingConfig workers_cfg = base_cfg;
    workers_cfg.threads = many;
    sim::KvServingRun workers(workers_cfg);
    workers.run();
    const bool worker_identical =
        workers.streamCsv() == base.streamCsv() &&
        workers.opsCompleted() == base.opsCompleted();
    std::printf("%u-worker vs 1-worker stream CSV: %s\n", many,
                worker_identical ? "bit-identical" : "DIFFERS");

    // --- 4. multi-producer ingress (one client thread per lane)
    sim::KvServingConfig mp_cfg = servingConfig(sessions, ops_per_rank);
    mp_cfg.lanes = 4;
    mp_cfg.threads = 2;
    t0 = std::chrono::steady_clock::now();
    sim::KvServingRun mp(mp_cfg);
    mp.runMultiProducer();
    t1 = std::chrono::steady_clock::now();
    const ServePoint mp_point = summarize(mp, seconds(t0, t1));
    std::printf("multi-producer (4 lanes): %llu ops in %.2fs, tokens "
                "%s, %s, mismatches %llu\n",
                (unsigned long long)mp_point.ops, mp_point.wallSeconds,
                mp_point.retired ? "retired" : "NOT RETIRED",
                mp_point.periodic ? "exactly periodic" : "APERIODIC",
                (unsigned long long)mp_point.mismatches);

    // --- 5. replay trio: one API, three methods; trace == synthetic
    // (each op stream replayed as raw ORAM traffic through
    // RecoveryRun's open-loop backlog)
    auto replay = [](const std::string &spec) {
        sim::RecoveryRunConfig rc;
        rc.shards = 2;
        rc.rate = 300;
        rc.workloadSpec = spec;
        auto run = std::make_unique<sim::RecoveryRun>(rc);
        run->start();
        run->finish();
        return run;
    };
    auto served_all = [](const sim::RecoveryRun &run) {
        return run.allTokensRetired() && run.backlogTotal() > 0 &&
               run.servedTotal() == run.backlogTotal();
    };
    const std::string ops = quick ? "48" : "96";
    const std::string synth_spec =
        "synthetic:ranks=8,ops=" + ops + ",profile=astar";
    const auto synth = replay(synth_spec);

    const std::string trace_path =
        json_path + ".optrace"; // lives next to the artifact
    {
        auto recorded =
            workload::loadWorkload(workload::parseWorkloadSpec(synth_spec));
        const workload::OpTrace trace =
            workload::recordOpTrace(*recorded);
        if (std::string err = workload::writeOpTrace(trace_path, trace);
            !err.empty())
            tcoram_fatal("cannot record op trace: ", err);
    }
    const auto traced = replay("trace:path=" + trace_path);
    const bool trace_identical =
        traced->streamCsv() == synth->streamCsv() &&
        traced->servedTotal() == synth->servedTotal();

    const auto kv_replay =
        replay("kv:ranks=8,ops=" + ops + ",keys=1024");
    const bool trio_ok = served_all(*synth) && served_all(*traced) &&
                         served_all(*kv_replay);
    std::remove(trace_path.c_str());
    std::printf("replay trio (synthetic/trace/kv): %s; recorded trace "
                "stream: %s\n",
                trio_ok ? "all served" : "NOT SERVED",
                trace_identical ? "bit-identical" : "DIFFERS");

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"bench\": \"kv_serving\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"sessions\": " << serve.sessions << ",\n";
        os << "  \"ops_per_rank\": " << ops_per_rank << ",\n";
        os << "  \"kv_ops\": " << serve.ops << ",\n";
        os << "  \"oram_txns\": "
           << base_stats.oramReads + base_stats.oramWrites << ",\n";
        os << "  \"wall_seconds\": " << bench::jsonNum(serve.wallSeconds)
           << ",\n";
        os << "  \"period_cycles\": " << base.period() << ",\n";
        os << "  \"tokens_retired\": "
           << (serve.retired ? "true" : "false") << ",\n";
        os << "  \"exactly_periodic\": "
           << (serve.periodic ? "true" : "false") << ",\n";
        os << "  \"payload_mismatches\": " << serve.mismatches << ",\n";
        os << "  \"failed_puts\": " << serve.failedPuts << ",\n";
        os << "  \"session_count_blind\": "
           << (count_blind ? "true" : "false") << ",\n";
        os << "  \"key_distribution_blind\": "
           << (skew_blind ? "true" : "false") << ",\n";
        os << "  \"worker_csv_identical\": "
           << (worker_identical ? "true" : "false") << ",\n";
        os << "  \"trace_replay_identical\": "
           << (trace_identical ? "true" : "false") << ",\n";
        os << "  \"get_latency\": {\"p50\": " << serve.getP50
           << ", \"p99\": " << serve.getP99
           << ", \"p999\": " << serve.getP999 << "},\n";
        os << "  \"put_latency\": {\"p50\": " << serve.putP50
           << ", \"p99\": " << serve.putP99
           << ", \"p999\": " << serve.putP999 << "},\n";
        os << "  \"hit_rate\": "
           << bench::jsonNum(
                  base_stats.hits + base_stats.misses == 0
                      ? 0.0
                      : static_cast<double>(base_stats.hits) /
                            static_cast<double>(base_stats.hits +
                                                base_stats.misses))
           << ",\n";
        os << "  \"spill_blocks_read\": " << base_stats.spillBlocksRead
           << ",\n";
        os << "  \"multi_producer\": {\"lanes\": " << mp_cfg.lanes
           << ", \"ops\": " << mp_point.ops << ", \"tokens_retired\": "
           << (mp_point.retired ? "true" : "false")
           << ", \"exactly_periodic\": "
           << (mp_point.periodic ? "true" : "false")
           << ", \"payload_mismatches\": " << mp_point.mismatches
           << ", \"wall_seconds\": " << bench::jsonNum(mp_point.wallSeconds)
           << "}\n}\n";
        bench::writeArtifact(json_path, os.str());
    }

    // --- CI gate ---
    if (check) {
        bool ok = true;
        auto gate = [&](bool cond, const char *msg) {
            if (!cond) {
                std::printf("FAIL: %s\n", msg);
                ok = false;
            }
        };
        gate(serve.sessions >= 1000,
             "fewer than 1000 closed-loop sessions");
        gate(serve.retired, "serving run left tokens unretired");
        gate(serve.periodic,
             "shard stream not exactly periodic under KV traffic");
        gate(serve.mismatches == 0, "payload mismatches");
        gate(serve.failedPuts == 0, "failed puts (table overflow)");
        gate(serve.getP99 > 0, "no get-latency samples");
        gate(serve.putP99 > 0, "no put-latency samples");
        gate(count_blind, "start grid leaks the session count");
        gate(skew_blind, "start grid leaks the key distribution");
        gate(worker_identical,
             "worker counts disagree on the KV stream CSV");
        gate(mp_point.retired,
             "multi-producer run left tokens unretired");
        gate(mp_point.periodic,
             "multi-producer stream not exactly periodic");
        gate(mp_point.mismatches == 0,
             "multi-producer payload mismatches");
        gate(trio_ok, "replay trio left ops unserved");
        gate(trace_identical,
             "recorded trace replay is not bit-identical to the "
             "synthetic run");
        if (!ok)
            return 1;
        std::printf("CHECK OK\n");
    }
    return 0;
}
