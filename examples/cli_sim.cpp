/**
 * @file
 * Command-line simulation driver: run any scheme on any workload
 * without writing code. Covers the whole public configuration
 * surface, optionally emits CSV.
 *
 * Usage examples:
 *   cli_sim --scheme dynamic --rates 4 --growth 4 --bench mcf
 *   cli_sim --scheme static --rate 300 --bench h264 --csv out.csv
 *   cli_sim --scheme dynamic --learner threshold --limit 16 \
 *           --bench astar --insts 1000000
 *   cli_sim --list
 *
 * A flag outside kValueFlags/kSwitchFlags is rejected before any mode
 * runs, so a mistyped or retired option cannot silently change what
 * runs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/log.hh"
#include "crypto/crypto_engine.hh"
#include "dram/backend_registry.hh"
#include "dram/faulty_memory.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_device.hh"
#include "sim/kv_serving.hh"
#include "sim/recovery_run.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/stat_dump.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_source.hh"

using namespace tcoram;

namespace {

void
usage()
{
    std::printf(
        "tcoram simulation driver\n"
        "  --scheme <base_dram|base_oram|static|dynamic|protected_dram>\n"
        "  --bench <name>         workload (see --list)       [astar]\n"
        "  --rate <cycles>        static scheme's rate        [300]\n"
        "  --rates <n>            dynamic |R|                 [4]\n"
        "  --growth <g>           dynamic epoch growth        [4]\n"
        "  --learner <simple|threshold>                       [simple]\n"
        "  --limit <bits>         session leakage limit L     [unlimited]\n"
        "  --insts <n>            measured instructions       [600000]\n"
        "  --warmup <n>           fast-forward instructions   [2400000]\n"
        "  --llc <bytes>          LLC capacity                [1048576]\n"
        "  --crypto-backend <auto|scalar|ttable|aesni>        [auto]\n"
        "  --oram-device <timing|functional|sharded>          [timing]\n"
        "  --dram-mode <sync|async>  ORAM path scheduling     [sync]\n"
        "  --eviction-policy <off|gap|highwater>  background\n"
        "                         eviction (needs async)      [off]\n"
        "  --eviction-budget <n>  max deferred write-backs    [64]\n"
        "  --shards <m>           ORAM subtree shards         [1]\n"
        "  --memory-backend <flat|banked|trace>               [scheme's]\n"
        "  --fault-spec <s>       fault injection, e.g. flip@1e-4 or\n"
        "                         all@1e-3#7                  [none]\n"
        "  --retry-budget <n>     recovery retry budget       [4]\n"
        "  --seed <n>             simulation seed             [1]\n"
        "  --csv <path>           append result as CSV\n"
        "  --list                 print available workloads\n"
        "  --list-backends        print registered backend kinds\n"
        "checkpoint mode (runs the scheduler harness, not the CPU sim):\n"
        "  --checkpoint-every <n> snapshot after every n served txns\n"
        "  --checkpoint-path <p>  snapshot file               [tcoram.ckpt]\n"
        "  --restore-from <p>     resume a run from a snapshot\n"
        "  (honors --oram-device timing|functional, --shards,\n"
        "   --dram-mode, --eviction-policy, --eviction-budget,\n"
        "   --fault-spec, --retry-budget, --seed)\n"
        "workload mode (runs the workload plane through the ring\n"
        "scheduler harnesses, not the CPU sim):\n"
        "  --workload <spec>      \"method:k=v,...\" — methods listed by\n"
        "                         --list-backends. \"kv\" runs the\n"
        "                         KV-serving scenario; every other\n"
        "                         method replays its op stream as an\n"
        "                         open-loop backlog (RecoveryRun),\n"
        "                         snapshotting at the method's\n"
        "                         checkpoint marks (\"daly\"'s optimum\n"
        "                         interval) when it places any\n"
        "  --eviction-auto        size the highwater eviction budget\n"
        "                         from the workload's observed burst\n"
        "                         depth (implies --eviction-policy\n"
        "                         highwater --dram-mode async; replays\n"
        "                         apply it, kv reports it)\n"
        "  --threads <n>          kv scheduler workers        [1]\n"
        "  (honors --shards, --rate, --seed; replays also honor\n"
        "   --checkpoint-path)\n");
}

/** Every flag that takes a value (the next argument). */
constexpr const char *kValueFlags[] = {
    "--scheme",          "--bench",           "--rate",
    "--rates",           "--growth",          "--learner",
    "--limit",           "--insts",           "--warmup",
    "--llc",             "--crypto-backend",  "--oram-device",
    "--dram-mode",       "--eviction-policy", "--eviction-budget",
    "--shards",          "--memory-backend",  "--fault-spec",
    "--retry-budget",    "--seed",            "--csv",
    "--checkpoint-every", "--checkpoint-path", "--restore-from",
    "--workload",        "--threads",
};

/** Every flag that stands alone. */
constexpr const char *kSwitchFlags[] = {
    "--help", "-h", "--list", "--list-backends", "--eviction-auto",
};

bool
inTable(const char *flag, std::span<const char *const> table)
{
    for (const char *known : table)
        if (std::strcmp(flag, known) == 0)
            return true;
    return false;
}

/** Fatal on the first argument that is not a known flag (or the value
 *  of a known value flag), and on a value flag given no value. */
void
rejectUnknownFlags(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (inTable(argv[i], kSwitchFlags))
            continue;
        if (!inTable(argv[i], kValueFlags))
            tcoram_fatal("unknown flag: ", argv[i], " (see --help)");
        if (++i == argc)
            tcoram_fatal("flag ", argv[i - 1], " needs a value");
    }
}

const char *
arg(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

bool
has(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    rejectUnknownFlags(argc, argv);
    if (has(argc, argv, "--help") || has(argc, argv, "-h")) {
        usage();
        return 0;
    }
    if (has(argc, argv, "--list")) {
        for (const auto &n : workload::specSuiteNames())
            std::printf("%s\n", n.c_str());
        std::printf("perl.splitmail\nastar.biglakes\n");
        return 0;
    }
    if (has(argc, argv, "--list-backends")) {
        std::printf("memory backends:");
        for (const auto &k : dram::BackendRegistry::instance().kinds())
            std::printf(" %s", k.c_str());
        std::printf("\ncrypto backends: auto scalar ttable");
        if (crypto::aesniAvailable())
            std::printf(" aesni");
        std::printf("\noram devices:");
        for (const auto &k : oram::oramDeviceKinds())
            std::printf(" %s", k.c_str());
        std::printf("\ndram modes: async sync");
        std::printf("\neviction policies: %s"
                    " (background eviction; non-off needs"
                    " --dram-mode async)",
                    oram::evictionPolicyNames());
        std::printf("\nfault kinds: flip stuck delay refuse"
                    " (spec \"<kinds>@<rate>[#seed]\"; the faulty"
                    " backend wraps any inner as faulty:<inner>)");
        std::printf("\nworkload methods:");
        for (const auto &m :
             workload::WorkloadRegistry::instance().methods())
            std::printf(" %s", m.c_str());
        std::printf(" (--workload \"method:k=v,...\")");
        std::printf("\n");
        return 0;
    }

    // Checkpoint mode drives the RecoveryRun scheduler harness (open
    // sessions + open-loop backlog) instead of the CPU simulation:
    // snapshot every n served transactions, or resume from a snapshot
    // and run to completion.
    const char *ckpt_every = arg(argc, argv, "--checkpoint-every", nullptr);
    const char *restore_from = arg(argc, argv, "--restore-from", nullptr);
    if (ckpt_every != nullptr || restore_from != nullptr) {
        sim::RecoveryRunConfig rc;
        rc.deviceKind = arg(argc, argv, "--oram-device", "timing");
        if (rc.deviceKind != "timing" && rc.deviceKind != "functional") {
            tcoram_fatal("checkpoint mode supports --oram-device "
                         "timing|functional, got ", rc.deviceKind);
        }
        rc.shards = static_cast<std::uint32_t>(std::strtoul(
            arg(argc, argv, "--shards", "1"), nullptr, 10));
        rc.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
        if (const char *fs = arg(argc, argv, "--fault-spec", nullptr))
            rc.fault = dram::FaultSpec::parse(fs);
        rc.retryBudget = static_cast<unsigned>(std::strtoul(
            arg(argc, argv, "--retry-budget", "4"), nullptr, 10));
        if (std::string(arg(argc, argv, "--dram-mode", "sync")) == "async")
            rc.pathMode = oram::PathMode::Pipelined;
        if (const char *ep = arg(argc, argv, "--eviction-policy", nullptr)) {
            rc.evictionPolicy = oram::parseEvictionPolicy(ep);
            rc.evictionBudget = static_cast<std::uint32_t>(std::strtoul(
                arg(argc, argv, "--eviction-budget", "64"), nullptr, 10));
            if (rc.evictionPolicy != oram::EvictionPolicy::Off &&
                rc.pathMode != oram::PathMode::Pipelined) {
                tcoram_fatal("--eviction-policy ", ep,
                             " requires --dram-mode async");
            }
        }
        const std::string ckpt_path =
            arg(argc, argv, "--checkpoint-path", "tcoram.ckpt");
        const std::uint64_t every =
            ckpt_every != nullptr
                ? std::strtoull(ckpt_every, nullptr, 10)
                : 0;

        sim::RecoveryRun run(rc);
        if (restore_from != nullptr) {
            if (std::string err = run.restoreFrom(restore_from);
                !err.empty())
                tcoram_fatal(err);
            std::printf("restored    %s (%llu/%llu served)\n",
                        restore_from,
                        (unsigned long long)run.servedTotal(),
                        (unsigned long long)run.backlogTotal());
        } else {
            run.start();
        }
        std::uint64_t since_snapshot = 0;
        while (run.serveOne()) {
            if (every > 0 && ++since_snapshot >= every) {
                since_snapshot = 0;
                if (std::string err = run.saveTo(ckpt_path); !err.empty())
                    tcoram_fatal(err);
            }
        }
        run.finish();
        const std::uint64_t bad = run.verifyPayloads(16);
        std::printf("%s\n%s\n", sim::RecoveryRun::csvHeader().c_str(),
                    run.csvRow().c_str());
        if (bad > 0)
            tcoram_fatal(bad, " payload probe(s) mismatched");
        if (every > 0) {
            if (std::string err = run.saveTo(ckpt_path); !err.empty())
                tcoram_fatal(err);
            std::printf("checkpoint  %s\n", ckpt_path.c_str());
        }
        return 0;
    }

    // Workload mode drives the workload plane (workload/) through the
    // scheduler harnesses instead of the CPU simulation: "kv" runs the
    // KV-serving scenario end to end, every other method replays its
    // op stream over the sharded rate-enforced device array through
    // RecoveryRun (with "daly"'s snapshot chain).
    if (const char *wspec = arg(argc, argv, "--workload", nullptr)) {
        const workload::WorkloadParams wp =
            workload::parseWorkloadSpec(wspec);
        const auto wl_shards = static_cast<std::uint32_t>(std::strtoul(
            arg(argc, argv, "--shards", "2"), nullptr, 10));
        const auto wl_rate = static_cast<Cycles>(std::strtoull(
            arg(argc, argv, "--rate", "300"), nullptr, 10));
        const auto wl_seed = std::strtoull(
            arg(argc, argv, "--seed", "42"), nullptr, 10);

        std::uint32_t auto_budget = 0;
        if (has(argc, argv, "--eviction-auto")) {
            // Route through the validated SystemConfig accessor so the
            // CLI and config-file paths fail (and size) identically.
            sim::SystemConfig sc = sim::SystemConfig::dynamicScheme(4, 4);
            sc.name = "cli_sim --eviction-auto";
            sc.workload = wspec;
            sc.evictionAutoTune = true;
            sc.dramMode = "async";
            sc.evictionPolicy = "highwater";
            auto_budget = sc.evictionAutoBudget();
            std::printf("eviction    auto budget %u"
                        " (observed burst depth)\n",
                        auto_budget);
        }

        if (wp.method == "kv") {
            sim::KvServingConfig kc;
            kc.shards = wl_shards;
            kc.rate = wl_rate;
            kc.threads = static_cast<unsigned>(std::strtoul(
                arg(argc, argv, "--threads", "1"), nullptr, 10));
            kc.seed = wl_seed;
            kc.workload = wp;
            sim::KvServingRun run(kc);
            run.run();
            std::printf("sessions    %u (%llu ops completed)\n",
                        run.sessionCount(),
                        (unsigned long long)run.opsCompleted());
            std::printf("retired     %s, payload mismatches %llu\n",
                        run.allTokensRetired() ? "all" : "NOT ALL",
                        (unsigned long long)run.payloadMismatches());
            std::printf("get latency p50 %llu  p99 %llu  p999 %llu\n",
                        (unsigned long long)run.getLatencyPercentile(0.50),
                        (unsigned long long)run.getLatencyPercentile(0.99),
                        (unsigned long long)run.getLatencyPercentile(0.999));
            std::printf("put latency p50 %llu  p99 %llu  p999 %llu\n",
                        (unsigned long long)run.putLatencyPercentile(0.50),
                        (unsigned long long)run.putLatencyPercentile(0.99),
                        (unsigned long long)run.putLatencyPercentile(0.999));
            std::printf("%s", sim::kvStatsCsv(
                                  run.stats(),
                                  run.getLatencyPercentile(0.99),
                                  run.putLatencyPercentile(0.99))
                                  .c_str());
            if (run.payloadMismatches() > 0 || !run.allTokensRetired())
                tcoram_fatal("kv serving run failed verification");
            return 0;
        }

        // One session per rank, one arrival per access; snapshots only
        // at the checkpoint marks the method places.
        sim::RecoveryRunConfig rc;
        rc.shards = wl_shards;
        rc.rate = wl_rate;
        rc.seed = wl_seed;
        rc.workloadSpec = wspec;
        if (auto_budget > 0) {
            rc.pathMode = oram::PathMode::Pipelined;
            rc.evictionPolicy = oram::EvictionPolicy::HighWater;
            rc.evictionBudget = auto_budget;
        }
        const std::string ckpt_path =
            arg(argc, argv, "--checkpoint-path", "tcoram.ckpt");
        sim::RecoveryRun run(rc);
        run.start();
        const std::vector<std::uint64_t> &marks = run.checkpointMarks();
        if (!marks.empty())
            std::printf("%-11s interval %llu ops, %zu snapshot mark(s) "
                        "over %llu ops\n",
                        wp.method.c_str(),
                        (unsigned long long)run.checkpointIntervalOps(),
                        marks.size(),
                        (unsigned long long)run.backlogTotal());
        std::uint64_t snapshots = 0;
        auto mark = marks.begin();
        while (run.serveOne()) {
            if (mark != marks.end() && run.servedTotal() == *mark) {
                ++mark;
                ++snapshots;
                if (std::string err = run.saveTo(ckpt_path); !err.empty())
                    tcoram_fatal(err);
            }
        }
        run.finish();
        std::printf("replayed    %llu/%llu ops over %u rank(s), tokens %s "
                    "retired\n",
                    (unsigned long long)run.servedTotal(),
                    (unsigned long long)run.backlogTotal(),
                    run.config().sessions,
                    run.allTokensRetired() ? "all" : "NOT ALL");
        if (!marks.empty())
            std::printf("snapshots   %llu to %s\n",
                        (unsigned long long)snapshots, ckpt_path.c_str());
        std::printf("%s\n%s\n", sim::RecoveryRun::csvHeader().c_str(),
                    run.csvRow().c_str());
        if (run.servedTotal() != run.backlogTotal() ||
            !run.allTokensRetired())
            tcoram_fatal("workload replay left ops unserved");
        return 0;
    }

    const std::string bench_name = arg(argc, argv, "--bench", "astar");
    workload::Profile prof;
    if (bench_name == "perl.splitmail")
        prof = workload::perlbenchSplitmail();
    else if (bench_name == "astar.biglakes")
        prof = workload::astarBigLakes();
    else
        prof = workload::specProfile(bench_name);

    const auto insts = static_cast<InstCount>(
        std::strtoull(arg(argc, argv, "--insts", "600000"), nullptr, 10));
    const auto warmup = static_cast<InstCount>(std::strtoull(
        arg(argc, argv, "--warmup", "2400000"), nullptr, 10));

    const std::string scheme = arg(argc, argv, "--scheme", "dynamic");
    const auto rates = static_cast<std::size_t>(
        std::strtoul(arg(argc, argv, "--rates", "4"), nullptr, 10));
    const auto growth = static_cast<unsigned>(
        std::strtoul(arg(argc, argv, "--growth", "4"), nullptr, 10));

    sim::SystemConfig cfg;
    if (scheme == "base_dram") {
        cfg = sim::SystemConfig::baseDram();
    } else if (scheme == "base_oram") {
        cfg = sim::SystemConfig::baseOram();
    } else if (scheme == "static") {
        cfg = sim::SystemConfig::staticScheme(static_cast<Cycles>(
            std::strtoull(arg(argc, argv, "--rate", "300"), nullptr, 10)));
    } else if (scheme == "dynamic") {
        cfg = sim::SystemConfig::dynamicScheme(rates, growth);
    } else if (scheme == "protected_dram") {
        cfg = sim::SystemConfig::protectedDram(rates, growth);
    } else {
        usage();
        tcoram_fatal("unknown scheme: ", scheme);
    }

    cfg.oram = oram::OramConfig::paperConfig();
    cfg.epoch0 = Cycles{1} << 18;
    cfg.llcBytes = std::strtoull(arg(argc, argv, "--llc", "1048576"),
                                 nullptr, 10);
    cfg.seed = std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
    cfg.ipcWindow = 100'000;
    if (const char *be = arg(argc, argv, "--crypto-backend", nullptr)) {
        cfg.cryptoBackend = be;
        // Applied here, before any simulation thread exists.
        crypto::setDefaultCryptoBackend(crypto::parseCryptoBackend(be));
    }
    if (const char *dev = arg(argc, argv, "--oram-device", nullptr))
        cfg.oramDevice = dev;
    if (const char *mode = arg(argc, argv, "--dram-mode", nullptr))
        cfg.dramMode = mode;
    if (const char *shards = arg(argc, argv, "--shards", nullptr))
        cfg.oramShards = static_cast<std::uint32_t>(
            std::strtoul(shards, nullptr, 10));
    if (const char *ep = arg(argc, argv, "--eviction-policy", nullptr))
        cfg.evictionPolicy = ep;
    if (const char *eb = arg(argc, argv, "--eviction-budget", nullptr))
        cfg.evictionBudget = static_cast<std::uint32_t>(
            std::strtoul(eb, nullptr, 10));
    // Validate now so a bad knob fails fast, naming the config — the
    // dramModeKind() discipline.
    (void)cfg.evictionPolicyKind();
    (void)cfg.evictionBudgetValue();
    if (const char *mb = arg(argc, argv, "--memory-backend", nullptr))
        cfg.memoryBackend = mb;
    if (const char *fs = arg(argc, argv, "--fault-spec", nullptr)) {
        cfg.faultSpec = fs;
        (void)cfg.faultSpecParsed(); // fail fast on a malformed spec
    }
    cfg.faultRetryBudget = static_cast<unsigned>(std::strtoul(
        arg(argc, argv, "--retry-budget", "4"), nullptr, 10));
    if (std::string(arg(argc, argv, "--learner", "simple")) == "threshold")
        cfg.learnerKind = sim::SystemConfig::Learner::Threshold;
    if (const char *limit = arg(argc, argv, "--limit", nullptr))
        cfg.leakageLimitBits = std::strtod(limit, nullptr);

    sim::SecureProcessor proc(cfg, prof);
    const sim::SimResult r = proc.run(insts, warmup);

    std::printf("config      %s\n", r.configName.c_str());
    std::printf("workload    %s\n", r.workloadName.c_str());
    if (proc.oramDevice() != nullptr) {
        std::printf("oram device %s", proc.oramDevice()->kind());
        if (!proc.shardEnforcers().empty())
            std::printf(" (%zu rate-enforced shards)",
                        proc.shardEnforcers().size());
        std::printf("\n");
    }
    std::printf("cycles      %llu\n", (unsigned long long)r.cycles);
    std::printf("IPC         %.4f\n", r.ipc);
    std::printf("power       %.3f W (on-chip %.3f W)\n", r.watts,
                r.onChipWatts);
    std::printf("LLC misses  %llu\n", (unsigned long long)r.llcMisses);
    if (r.oramReal + r.oramDummy > 0) {
        std::printf("accesses    %llu real + %llu dummy (%.0f%% dummy), "
                    "OLAT %llu cycles",
                    (unsigned long long)r.oramReal,
                    (unsigned long long)r.oramDummy,
                    100.0 * r.dummyFraction(),
                    (unsigned long long)r.oramLatency);
        if (proc.oramDevice() != nullptr &&
            proc.oramDevice()->occupancyPerAccess() > r.oramLatency) {
            std::printf(" (path occupied %llu)",
                        (unsigned long long)
                            proc.oramDevice()->occupancyPerAccess());
        }
        std::printf("\n");
    }
    if (r.evictionsIssued > 0 || r.stashOccupancy > 0) {
        std::printf("eviction    %llu issued, %llu blocks written back, "
                    "stash %llu (high water %llu)\n",
                    (unsigned long long)r.evictionsIssued,
                    (unsigned long long)r.blocksEvicted,
                    (unsigned long long)r.stashOccupancy,
                    (unsigned long long)r.stashHighWater);
    }
    if (!r.rateDecisions.empty()) {
        std::printf("rates      ");
        for (const auto &d : r.rateDecisions)
            std::printf(" %llu", (unsigned long long)d.rate);
        std::printf("\nleakage     %.1f bits (paper constants: %.1f)\n",
                    r.simLeakageBits, r.paperLeakageBits);
        if (proc.enforcer() != nullptr &&
            proc.enforcer()->pinnedDecisions() > 0)
            std::printf("budget      pinned %u decisions at L = %.1f "
                        "bits\n",
                        proc.enforcer()->pinnedDecisions(),
                        cfg.leakageLimitBits);
    }

    if (const char *csv = arg(argc, argv, "--csv", nullptr)) {
        std::FILE *f = std::fopen(csv, "a");
        if (f == nullptr)
            tcoram_fatal("cannot open ", csv);
        std::fseek(f, 0, SEEK_END);
        if (std::ftell(f) == 0)
            std::fprintf(f, "%s\n", sim::csvHeader().c_str());
        std::fprintf(f, "%s\n", sim::csvRow(r).c_str());
        std::fclose(f);
        std::printf("csv         appended to %s\n", csv);
    }
    return 0;
}
