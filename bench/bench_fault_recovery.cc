/**
 * @file
 * Fault-tolerant datapath bench: sweeps fault rate x fault kinds x
 * shard counts through the RecoveryRun harness (sim/recovery_run.hh)
 * and gates the three robustness claims of the fault model:
 *
 *  1. CORRECTNESS under injection — every queued access completes and
 *     every write-then-read payload probe round-trips bit-exactly,
 *     with the detected-fault/recovery counters accounting for each
 *     injected corruption (MAC-verified bounded-retry recovery).
 *
 *  2. LEAK-FREEDOM of recovery — every retry is charged through the
 *     rate enforcer as dummy-equivalent slots on the periodic grid, so
 *     each shard's observable stream stays exactly periodic and its
 *     access-start sequence is bit-identical to the fault-free run's
 *     (over the common prefix; recovery only extends the stream). An
 *     observer of the timing channel cannot tell recovery from
 *     idleness.
 *
 *  3. CRASH CONSISTENCY — killing a run at an arbitrary served-slot
 *     boundary, checkpointing, and restoring into a fresh process
 *     reproduces the uninterrupted run's observable streams and
 *     summary row bit-for-bit.
 *
 * A fourth stage exercises the timing-fault decorator directly: a
 * faulty:banked memory under delay+refuse faults must retire every
 * async transaction exactly once, and at rate 0 the decorator must be
 * a bit-identical pass-through (dram/differential.hh).
 *
 * Usage: bench_fault_recovery [--quick] [--json <path>] [--check]
 * --check (CI gate) fails the process unless every gate holds.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/backend_registry.hh"
#include "dram/differential.hh"
#include "dram/faulty_memory.hh"
#include "sim/recovery_run.hh"

using namespace tcoram;

namespace {

constexpr std::uint64_t kSeed = 42;

/** One swept point's outcome. */
struct Point
{
    std::string kinds;
    double rate = 0.0;
    std::uint32_t shards = 0;
    std::uint64_t served = 0;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retries = 0;
    std::uint64_t recoverySlots = 0;
    std::uint64_t payloadMismatches = 0;
    bool periodic = false;
    bool streamMatchesFaultFree = false;

    bool
    pass() const
    {
        // recovered counts detection EPISODES that ended in a clean
        // re-read; a persistent stuck fault is detected again on the
        // first retry, so detections can exceed episodes (never the
        // reverse), and a corruption that happens to be a no-op on the
        // stored byte goes undetected (detected <= injected).
        return payloadMismatches == 0 && periodic &&
               streamMatchesFaultFree && recovered <= detected &&
               detected <= injected &&
               (rate > 0.0 || injected == 0) &&
               (rate < 1e-3 || injected > 0);
    }
};

sim::RecoveryRunConfig
baseConfig(std::uint32_t shards, std::uint64_t txns)
{
    sim::RecoveryRunConfig cfg;
    cfg.deviceKind = "functional"; // data faults need the real datapath
    cfg.shards = shards;
    cfg.sessions = 2;
    cfg.txnsPerSession = txns;
    cfg.seed = kSeed;
    return cfg;
}

/** Fault-free reference streams + per-shard slot periods. */
struct Golden
{
    std::vector<std::vector<sim::RecoveryRun::Event>> streams;
    std::vector<Cycles> periods;
};

/** Each shard's stream must tick exactly at its own slot period. */
bool
shardsPeriodic(sim::RecoveryRun &run)
{
    for (std::uint32_t i = 0; i < run.shardCount(); ++i) {
        std::vector<Cycles> starts;
        for (const sim::RecoveryRun::Event &e : run.shardStream(i))
            starts.push_back(e.start);
        if (!bench::exactlyPeriodic(starts, run.shardPeriod(i)))
            return false;
    }
    return true;
}

/**
 * The leak-freedom gate: the faulty run's access-START sequence must
 * equal the fault-free run's over the common prefix (recovery charges
 * extend the stream; they never move a slot). Kinds are NOT compared
 * here — a recovery slot carries a dummy where the fault-free run had
 * the next real, which is exactly what makes recovery unobservable.
 */
bool
startsMatch(const std::vector<sim::RecoveryRun::Event> &a,
            const std::vector<sim::RecoveryRun::Event> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    if (n == 0)
        return false;
    for (std::size_t j = 0; j < n; ++j)
        if (a[j].start != b[j].start)
            return false;
    return true;
}

Point
runPoint(const std::string &kinds, double rate, std::uint32_t shards,
         std::uint64_t txns, std::uint64_t probes, const Golden &golden)
{
    sim::RecoveryRunConfig cfg = baseConfig(shards, txns);
    if (rate > 0.0) {
        std::ostringstream spec;
        spec << kinds << '@' << rate << "#9";
        cfg.fault = dram::FaultSpec::parse(spec.str());
    }
    sim::RecoveryRun run(cfg);
    run.start();
    run.finish();
    const std::uint64_t bad = run.verifyPayloads(probes);

    Point p;
    p.kinds = kinds;
    p.rate = rate;
    p.shards = shards;
    p.served = run.servedTotal();
    p.injected = run.faultsInjected();
    p.detected = run.faultsDetected();
    p.recovered = run.faultsRecovered();
    p.retries = run.retriesIssued();
    p.recoverySlots = run.recoverySlots();
    p.payloadMismatches = bad;
    p.periodic = shardsPeriodic(run);
    p.streamMatchesFaultFree = true;
    for (std::uint32_t i = 0; i < shards; ++i)
        if (!startsMatch(run.shardStream(i), golden.streams[i]))
            p.streamMatchesFaultFree = false;
    return p;
}

Golden
runGolden(std::uint32_t shards, std::uint64_t txns, std::uint64_t probes)
{
    sim::RecoveryRun run(baseConfig(shards, txns));
    run.start();
    run.finish();
    run.verifyPayloads(probes);
    Golden g;
    for (std::uint32_t i = 0; i < shards; ++i) {
        g.streams.push_back(run.shardStream(i));
        g.periods.push_back(run.shardPeriod(i));
    }
    return g;
}

/**
 * The crash-consistency gate: run A uninterrupted; run B killed after
 * a mid-run number of served slots and checkpointed; run C restored
 * from B's snapshot and driven to completion. C's full per-shard event
 * streams (starts AND kinds) and summary row must equal A's.
 */
bool
checkpointGate(std::uint32_t shards, std::uint64_t txns,
               std::uint64_t probes, const std::string &ckpt_path)
{
    sim::RecoveryRunConfig cfg = baseConfig(shards, txns);
    cfg.fault = dram::FaultSpec::parse("flip+stuck@1e-3#9");

    sim::RecoveryRun a(cfg);
    a.start();
    a.finish();
    a.verifyPayloads(probes);
    const std::string golden_row = a.csvRow();

    // Kill point: deterministic but config-dependent mid-run slot.
    const std::uint64_t backlog = a.backlogTotal();
    const std::uint64_t kill_at =
        1 + mixSeed(kSeed, shards) % (backlog - 1);
    {
        sim::RecoveryRun b(cfg);
        b.start();
        for (std::uint64_t k = 0; k < kill_at; ++k)
            b.serveOne();
        if (std::string err = b.saveTo(ckpt_path); !err.empty()) {
            std::fprintf(stderr, "[fault] %s\n", err.c_str());
            return false;
        }
        // b is destroyed here: the "crash".
    }

    sim::RecoveryRun c(cfg);
    if (std::string err = c.restoreFrom(ckpt_path); !err.empty()) {
        std::fprintf(stderr, "[fault] %s\n", err.c_str());
        return false;
    }
    c.finish();
    c.verifyPayloads(probes);
    std::remove(ckpt_path.c_str());

    if (c.csvRow() != golden_row) {
        std::fprintf(stderr, "[fault] restored row differs:\n  %s\n  %s\n",
                     golden_row.c_str(), c.csvRow().c_str());
        return false;
    }
    for (std::uint32_t i = 0; i < shards; ++i)
        if (!(a.shardStream(i) == c.shardStream(i))) {
            std::fprintf(stderr,
                         "[fault] restored shard %u stream differs\n", i);
            return false;
        }
    return true;
}

/**
 * Timing-fault decorator stage: under delay+refuse faults every async
 * transaction still retires exactly once (late, never lost), and at
 * rate 0 the decorator is a bit-identical pass-through.
 */
bool
faultyMemoryGate()
{
    std::vector<dram::MemRequest> reqs;
    for (std::uint64_t i = 0; i < 256; ++i)
        reqs.push_back({i * 4096 + (i % 7) * 64, 64, i % 3 == 0});

    // Pass-through at rate 0 over the banked model.
    dram::BackendSpec bare_spec;
    bare_spec.kind = "banked";
    const auto bare = dram::BackendRegistry::instance().make(bare_spec);
    const auto nofault =
        dram::compareDecoratedToBare(*bare, 0, reqs, dram::FaultSpec{});
    if (nofault.diverged) {
        std::fprintf(stderr,
                     "[fault] rate-0 decorator diverged at request %zu\n",
                     nofault.index);
        return false;
    }

    // Exactly-once retirement under heavy delay+refuse.
    dram::BackendSpec spec;
    spec.kind = "faulty";
    spec.faultInner = "banked";
    spec.fault = dram::FaultSpec::parse("delay+refuse@0.05#3");
    const auto mem = dram::BackendRegistry::instance().make(spec);
    std::vector<dram::TxnToken> tokens;
    Cycles now = 0;
    for (const auto &r : reqs) {
        tokens.push_back(mem->issue(now, r));
        now += 10;
    }
    std::vector<bool> seen(tokens.size(), false);
    while (mem->nextEventAt() != dram::kNoPendingEvent) {
        for (const auto &ret : mem->drainRetired(mem->nextEventAt())) {
            const std::size_t idx = static_cast<std::size_t>(
                ret.token - tokens.front());
            if (idx >= seen.size() || seen[idx]) {
                std::fprintf(stderr,
                             "[fault] duplicate/unknown retirement\n");
                return false;
            }
            seen[idx] = true;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        if (!seen[i]) {
            std::fprintf(stderr, "[fault] transaction %zu never retired\n",
                         i);
            return false;
        }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_fault.json");

    const std::uint64_t txns = quick ? 24 : 64;
    const std::uint64_t probes = quick ? 8 : 16;
    const std::vector<double> rates = {0.0, 1e-4, 1e-3};
    const std::vector<std::string> kind_sets = {"flip", "flip+stuck",
                                                "all"};
    const std::vector<std::uint32_t> shard_counts = {1, 4};

    bench::banner("fault-tolerant datapath: injection, recovery, restart");
    std::printf("%-12s %-8s %-7s %-8s %-9s %-9s %-8s %-9s %-9s %-7s\n",
                "kinds", "rate", "shards", "served", "injected",
                "recovered", "retries", "rec-slots", "stream-ok", "pass");

    bool all_pass = true;
    std::vector<Point> points;
    for (const std::uint32_t m : shard_counts) {
        const Golden golden = runGolden(m, txns, probes);
        for (const auto &kinds : kind_sets)
            for (const double rate : rates) {
                if (rate == 0.0 && kinds != kind_sets.front())
                    continue; // rate 0 is kind-independent
                Point p = runPoint(kinds, rate, m, txns, probes, golden);
                all_pass = all_pass && p.pass();
                points.push_back(p);
                std::printf("%-12s %-8g %-7u %-8llu %-9llu %-9llu %-8llu "
                            "%-9llu %-9s %-7s\n",
                            p.kinds.c_str(), p.rate, p.shards,
                            (unsigned long long)p.served,
                            (unsigned long long)p.injected,
                            (unsigned long long)p.recovered,
                            (unsigned long long)p.retries,
                            (unsigned long long)p.recoverySlots,
                            p.streamMatchesFaultFree && p.periodic ? "yes"
                                                                   : "NO",
                            p.pass() ? "yes" : "NO");
            }
    }

    const bool ckpt1 =
        checkpointGate(1, txns, probes, "bench_fault_recovery_1.ckpt");
    const bool ckpt4 =
        checkpointGate(4, txns, probes, "bench_fault_recovery_4.ckpt");
    const bool mem_ok = faultyMemoryGate();
    std::printf("checkpoint kill+restore: M=1 %s, M=4 %s\n",
                ckpt1 ? "identical" : "DIVERGED",
                ckpt4 ? "identical" : "DIVERGED");
    std::printf("faulty memory decorator: %s\n",
                mem_ok ? "pass-through + exactly-once" : "FAILED");
    all_pass = all_pass && ckpt1 && ckpt4 && mem_ok;

    std::ostringstream json;
    json << "{\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        json << "    {\"kinds\": \"" << p.kinds << "\", \"rate\": "
             << p.rate << ", \"shards\": " << p.shards
             << ", \"served\": " << p.served
             << ", \"injected\": " << p.injected
             << ", \"detected\": " << p.detected
             << ", \"recovered\": " << p.recovered
             << ", \"retries\": " << p.retries
             << ", \"recovery_slots\": " << p.recoverySlots
             << ", \"pass\": " << (p.pass() ? "true" : "false") << "}"
             << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"checkpoint_identical\": "
         << (ckpt1 && ckpt4 ? "true" : "false")
         << ",\n  \"faulty_memory_ok\": " << (mem_ok ? "true" : "false")
         << ",\n  \"pass\": " << (all_pass ? "true" : "false") << "\n}\n";
    bench::writeArtifact(json_path, json.str());

    if (check && !all_pass) {
        std::fprintf(stderr, "[fault] --check FAILED\n");
        return 1;
    }
    return 0;
}
