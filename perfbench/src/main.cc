/**
 * @file
 * The repository benchmark binary. One run sets up and measures all
 * three scenarios (paper_grid, datapath_h3, kv_zipf), so every
 * end-to-end metric is printed on every workload; the named workload's
 * scenario gets half of the measured time and the other two a quarter
 * each.
 *
 * Usage:
 *   perfbench --workload <paper_grid|datapath_h3|kv_zipf> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans <csv path>]
 *
 * --trace 0 measures for at least --seconds and prints the end-to-end
 * metrics: simulated ones as they are, host times at the reference
 * host speed of host_speed.hh (the raw figures follow as notes);
 * --trace 1 runs the fixed-size traced pass and prints the
 * per-layer metrics. The last stdout line is the
 * result object {"correct", "attempted", "failed", "metrics"}. Exits 1
 * when any correctness check failed, 2 on a usage error, 3 on an
 * internal error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_config.hh"
#include "host_speed.hh"
#include "scenarios.hh"

using namespace tcoram;

namespace {

using namespace perfbench;

/** The DRAM model's host cost on one path's request batch (control:
 *  no workload runs the DRAM model outside calibration). */
void
traceDramControl(Report &report, SpanRecorder &spans)
{
    // One data-tree path of the paper geometry: a bucket-sized request
    // per level, issued together and drained to retirement.
    const oram::OramConfig cfg = oram::OramConfig::paperConfig();
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    const unsigned levels = cfg.treeDepth() + 1;
    std::uint64_t requests = 0;
    Cycles now = 0;
    const auto t0 = Clock::now();
    ScopedSpan s(spans, "dram.path_batch", SpanRecorder::kNoParent);
    do {
        for (int p = 0; p < 64; ++p) {
            std::uint64_t bucket = rng.nextBounded(cfg.numLeaves()) +
                                   cfg.numLeaves() - 1;
            for (unsigned l = 0; l < levels; ++l, bucket = (bucket - 1) / 2)
                mem.issue(now, {bucket * cfg.bucketBytes(), cfg.bucketBytes(),
                                p % 2 == 1});
            requests += levels;
            std::size_t retired = 0;
            while (retired < levels) {
                now = mem.nextEventAt();
                retired += mem.drainRetired(now).size();
            }
        }
    } while (secondsSince(t0) < 0.1);
    report.add("dram.ns_per_req", "ns",
               secondsSince(t0) / static_cast<double>(requests) * 1e9);
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper_grid|datapath_h3|kv_zipf> --seed <n> --seconds "
                 "<s> --trace <0|1> [--spans <csv>]\n",
                 why);
    return 2;
}

int
run(int argc, char **argv)
{
    const char *workload = argValue(argc, argv, "--workload");
    const char *seed_arg = argValue(argc, argv, "--seed");
    const char *seconds_arg = argValue(argc, argv, "--seconds");
    const char *trace_arg = argValue(argc, argv, "--trace");
    const char *spans_path = argValue(argc, argv, "--spans");
    if (!workload || !seed_arg || !seconds_arg || !trace_arg)
        return usage("missing argument");
    const std::string w = workload;
    if (w != "paper_grid" && w != "datapath_h3" && w != "kv_zipf")
        return usage("unknown workload");
    std::uint64_t seed = 0;
    double seconds = 0;
    try {
        seed = std::stoull(seed_arg);
        seconds = std::stod(seconds_arg);
    } catch (const std::exception &) {
        return usage("malformed --seed or --seconds");
    }
    if (!(seconds > 0) || seconds > 60)
        return usage("--seconds must be in (0, 60]");
    const bool traced = std::strcmp(trace_arg, "1") == 0;
    if (!traced && std::strcmp(trace_arg, "0") != 0)
        return usage("--trace must be 0 or 1");

    setQuiet(true);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(4u, nproc);

    Checks checks;
    Report report;
    GridScenario grid(seed, threads, w == "paper_grid");
    DatapathScenario dp(seed);
    KvScenario kv(seed);

    // The host speed reference runs between set-ups and repetitions;
    // each host time is also kept at the reference speed, scaled by
    // the mean of the speeds just before and just after it (see
    // host_speed.hh for the power each kind of sample scales with).
    HostSpeed host;
    std::vector<double> speeds{host.sample()};
    auto speedAround = [&] {
        speeds.push_back(host.sample());
        return 0.5 * (speeds.end()[-2] + speeds.back());
    };

    // Set up every scenario eleven times; the median is setup_s. The
    // last builds are the ones measured.
    Rates setups;
    for (int i = 0; i < 11; ++i) {
        const double s = grid.setupOnce() + dp.setupOnce() + kv.setupOnce();
        setups.raw.push_back(s);
        setups.atRefSpeed.push_back(s * speedAround());
    }

    std::printf("env crypto_backend=%s nproc=%u engine_threads=%u "
                "workload=%s seed=%llu trace=%d\n",
                dp.backendName().c_str(), nproc, threads, w.c_str(),
                static_cast<unsigned long long>(seed), traced ? 1 : 0);

    if (!traced) {
        // Interleaved rounds, so a slow phase of the host lands on
        // every scenario's samples alike. A scenario stops once it has
        // its minimum repetitions and its share of --seconds: half for
        // the named workload's scenario, a quarter for the others.
        struct Slot
        {
            const char *workload;
            std::function<std::vector<double>()> rep;
            std::function<bool()> enough;
            int speedPower;
            double busy;
            Rates rates;
        };
        Slot slots[] = {
            {"paper_grid", [&] { return std::vector{grid.rep(checks)}; },
             [&] { return grid.enough(); }, 1, 0.0, {}},
            {"datapath_h3", [&] { return dp.rep(); },
             [&] { return dp.enough(); }, 2, 0.0, {}},
            {"kv_zipf", [&] { return std::vector{kv.rep(checks)}; },
             [&] { return kv.enough(); }, 2, 0.0, {}},
        };
        for (bool active = true; active;) {
            active = false;
            for (Slot &s : slots) {
                const double share = w == s.workload ? 0.5 : 0.25;
                if (s.enough() && s.busy >= share * seconds)
                    continue;
                active = true;
                const auto r0 = Clock::now();
                const std::vector<double> got = s.rep();
                s.busy += secondsSince(r0);
                const double scale = std::pow(speedAround(), s.speedPower);
                for (const double r : got) {
                    s.rates.raw.push_back(r);
                    s.rates.atRefSpeed.push_back(r / scale);
                }
            }
        }
        report.add("setup_s", "s", median(setups.atRefSpeed));
        report.note("setup_s.raw", "s", median(setups.raw));
        grid.finish(checks, report, slots[0].rates);
        dp.finish(checks, report, slots[1].rates);
        kv.finish(report, slots[2].rates);
        report.add("peak_rss_mb", "MB", peakRssMb());
        report.note("host_speed_p50", "x", median(speeds));
    } else {
        SpanRecorder spans;
        const auto t0 = Clock::now();
        double untraced = 0;
        untraced += grid.trace(checks, report, spans);
        untraced += dp.trace(checks, report, spans);
        untraced += kv.trace(checks, report, spans);
        traceDramControl(report, spans);
        const double wall = secondsSince(t0) - untraced;
        for (const auto &[layer, s] : spans.selfSecondsByLayer())
            report.add(layer + ".self_s", "s", s);
        report.add("trace.coverage_frac", "frac",
                   spans.rootCoverageSeconds() / wall);
        if (spans_path != nullptr)
            spans.write(spans_path);
    }

    report.print();
    std::printf("metric %-34s %18.6f frac\n", "error_frac",
                static_cast<double>(checks.failed()) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, checks.attempted())));
    std::printf("%s\n", report.json(checks).c_str());
    return checks.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }
}
