/**
 * @file
 * paper_grid: the six §9.1.6 configurations x the 11 SPEC profiles of
 * Figure 6, on the timing ORAM device in sync DRAM mode, through
 * sim::ExperimentEngine at an explicit thread count.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "cache/hierarchy.hh"
#include "scenarios.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "timing/leakage.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

using namespace tcoram;

namespace perfbench {

namespace {

// The standard scaled run and configurations of the reproduction
// benches (bench/bench_common.hh), restated here so that no change
// outside the benchmark can alter its workload.
constexpr InstCount kInsts = 600'000;
constexpr InstCount kWarmup = 2'400'000;

/** Grid rows (the order of setupOnce()). */
constexpr std::size_t kBaseDram = 0;
constexpr std::size_t kBaseOram = 1;
constexpr std::size_t kDynamic = 2;

sim::SystemConfig
scaled(sim::SystemConfig c, std::uint64_t seed)
{
    c.oram = oram::OramConfig::paperConfig();
    c.epoch0 = Cycles{1} << 18;
    c.ipcWindow = 100'000;
    c.seed = seed;
    c.oramDevice = "timing";
    c.dramMode = "sync";
    return c;
}

std::uint64_t
resultDigest(const sim::SimResult &r)
{
    Digest d;
    d.bytes(r.configName.data(), r.configName.size());
    d.bytes(r.workloadName.data(), r.workloadName.size());
    for (const auto v :
         {r.cycles, r.instructions, r.llcMisses, r.oramReal, r.oramDummy,
          r.oramLatency, r.oramBytesPerAccess, r.cryptoBytes,
          r.cryptoCalls, r.stashOccupancy, r.stashHighWater,
          r.blocksEvicted, r.evictionsIssued, r.ipcWindow})
        d.value(v);
    for (const double v : {r.ipc, r.watts, r.onChipWatts, r.simLeakageBits,
                           r.paperLeakageBits})
        d.value(v);
    for (const double v : r.ipcSeries)
        d.value(v);
    for (const auto v : r.missSeries)
        d.value(v);
    for (const auto &dec : r.rateDecisions) {
        d.value(dec.epoch);
        d.value(dec.startCycle);
        d.value(dec.rate);
    }
    d.value(r.epochsUsed);
    return d.h;
}

/** Digest of every cell, row-major. */
std::vector<std::uint64_t>
gridDigests(const sim::Grid &g)
{
    std::vector<std::uint64_t> out;
    for (const auto &row : g.results)
        for (const auto &r : row)
            out.push_back(resultDigest(r));
    return out;
}

std::uint64_t
mismatches(const std::vector<std::uint64_t> &a,
           const std::vector<std::uint64_t> &b)
{
    if (a.size() != b.size())
        return std::max(a.size(), b.size());
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        n += a[i] != b[i];
    return n;
}

/** ORAM-timing budget |E|·lg|R| at paper constants; negative for the
 *  unprotected baselines, which have none. */
double
leakBudget(const sim::SystemConfig &c)
{
    switch (c.scheme) {
      case sim::Scheme::Dynamic:
        return timing::LeakageAccountant::paperConfigBits(c.rateCount,
                                                          c.epochGrowth);
      case sim::Scheme::Static:
        return 0.0; // one rate: lg|R| = 0
      default:
        return -1.0;
    }
}

cache::AccessKind
accessKind(workload::OpKind k)
{
    switch (k) {
      case workload::OpKind::InstFetch:
        return cache::AccessKind::InstFetch;
      case workload::OpKind::Load:
        return cache::AccessKind::Load;
      default:
        return cache::AccessKind::Store;
    }
}

} // namespace

GridScenario::GridScenario(std::uint64_t seed, unsigned threads,
                           bool check_threads)
    : seed_(seed), threads_(threads), checkThreads_(check_threads)
{
}

double
GridScenario::setupOnce()
{
    const auto t0 = Clock::now();
    configs_ = {
        scaled(sim::SystemConfig::baseDram(), seed_),
        scaled(sim::SystemConfig::baseOram(), seed_),
        scaled(sim::SystemConfig::dynamicScheme(4, 4), seed_),
        scaled(sim::SystemConfig::staticScheme(300), seed_),
        scaled(sim::SystemConfig::staticScheme(500), seed_),
        scaled(sim::SystemConfig::staticScheme(1300), seed_),
    };
    profiles_.clear();
    for (const auto &name : workload::specSuiteNames())
        profiles_.push_back(workload::specProfile(name));
    return secondsSince(t0);
}

double
GridScenario::rep(Checks &checks)
{
    const double insts_per_grid =
        static_cast<double>(configs_.size() * profiles_.size()) *
        static_cast<double>(kInsts + kWarmup);
    const auto t0 = Clock::now();
    last_ = sim::ExperimentEngine(threads_).run(configs_, profiles_, kInsts,
                                                kWarmup);
    const double minst_per_s = insts_per_grid / secondsSince(t0) / 1e6;
    ++passes_;
    const auto digests = gridDigests(last_);
    if (firstDigests_.empty())
        firstDigests_ = digests;
    else
        checks.tally(digests.size(), mismatches(firstDigests_, digests),
                     "paper_grid: cell result differs between reps");
    return minst_per_s;
}

bool
GridScenario::enough() const
{
    return passes_ >= 4;
}

void
GridScenario::finish(Checks &checks, Report &report, const Rates &rates)
{
    // Thread-count independence, then leakage against each budget.
    if (checkThreads_) {
        const sim::Grid serial = sim::ExperimentEngine(1).run(
            configs_, profiles_, kInsts, kWarmup);
        checks.tally(firstDigests_.size(),
                     mismatches(firstDigests_, gridDigests(serial)),
                     "paper_grid: 1-thread and N-thread results differ");
    }
    const sim::Grid &grid = last_;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
        const double budget = leakBudget(configs_[c]);
        if (budget < 0)
            continue;
        for (std::size_t w = 0; w < profiles_.size(); ++w) {
            const sim::SimResult &r = grid.at(c, w);
            checks.expect(r.simLeakageBits <= budget + 1e-9 &&
                              r.paperLeakageBits <= budget + 1e-9,
                          "paper_grid: leakage over budget in " +
                              r.configName + "/" + r.workloadName);
        }
    }

    std::vector<double> overhead;
    double dyn_watts = 0, base_watts = 0, leak = 0;
    for (std::size_t w = 0; w < profiles_.size(); ++w) {
        overhead.push_back(
            sim::perfOverheadX(grid.at(kDynamic, w), grid.at(kBaseDram, w)));
        dyn_watts += grid.at(kDynamic, w).watts;
        base_watts += grid.at(kBaseDram, w).watts;
        leak = std::max(leak, grid.at(kDynamic, w).paperLeakageBits);
    }
    report.add("grid_sim_minst_per_s", "Minst/s", median(rates.atRefSpeed));
    report.note("grid_sim_minst_per_s.raw", "Minst/s", median(rates.raw));
    report.add("grid_dyn_overhead_x", "x", sim::geoMean(overhead));
    report.add("grid_dyn_power_x", "x", dyn_watts / base_watts);
    report.add("grid_dyn_leak_bits", "bits", leak);
}

double
GridScenario::trace(Checks &checks, Report &report, SpanRecorder &spans)
{
    const std::size_t nw = profiles_.size();
    const std::size_t ncells = configs_.size() * nw;

    // Untraced baseline through the engine.
    auto t0 = Clock::now();
    const sim::Grid base =
        sim::ExperimentEngine(threads_).run(configs_, profiles_, kInsts,
                                            kWarmup);
    const double untraced_s = secondsSince(t0);
    const auto base_digests = gridDigests(base);

    // Traced pass: the engine's cells, one span around each runOne at
    // the engine's per-cell seed, on the same number of threads.
    std::vector<double> cell_s(ncells, 0.0);
    std::vector<std::uint64_t> digests(ncells, 0);
    t0 = Clock::now();
    {
        ScopedSpan root(spans, "sim.grid", SpanRecorder::kNoParent);
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t i = next++; i < ncells; i = next++) {
                const sim::SystemConfig &cfg = configs_[i / nw];
                const std::size_t w = i % nw;
                const auto c0 = Clock::now();
                ScopedSpan cell(spans, "sim.engine.cell", root.id(), i);
                digests[i] = resultDigest(sim::runOne(
                    cfg, profiles_[w], kInsts, kWarmup,
                    sim::ExperimentEngine::cellSeed(cfg, w)));
                cell_s[i] = secondsSince(c0);
            }
        };
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads_; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    const double traced_s = secondsSince(t0);
    checks.tally(ncells, mismatches(base_digests, digests),
                 "paper_grid: traced runOne differs from the engine");

    // Outside-in layer probes: replay each profile's trace stream and
    // feed the addresses it emits through a fresh cache hierarchy.
    double trace_s = 0, cache_s = 0, insts = 0, accesses = 0;
    std::vector<workload::TraceOp> ops;
    for (std::size_t w = 0; w < nw; ++w) {
        workload::SyntheticTrace tr(
            profiles_[w], sim::ExperimentEngine::cellSeed(configs_[0], w));
        ops.clear();
        InstCount n = 0;
        auto p0 = Clock::now();
        {
            ScopedSpan s(spans, "workload.trace_next",
                         SpanRecorder::kNoParent, w);
            while (n < kInsts + kWarmup) {
                ops.push_back(tr.next());
                n += ops.back().gapInsts + 1;
            }
        }
        trace_s += secondsSince(p0);
        insts += static_cast<double>(n);
        cache::Hierarchy h(configs_[0].llcBytes);
        p0 = Clock::now();
        {
            ScopedSpan s(spans, "cache.access", SpanRecorder::kNoParent, w);
            for (const auto &op : ops)
                h.access(op.addr, accessKind(op.kind));
        }
        cache_s += secondsSince(p0);
        accesses += static_cast<double>(ops.size());
    }

    double cell_sum = 0;
    for (const double s : cell_s)
        cell_sum += s;
    const double trace_ns = trace_s / insts * 1e9;
    const double cache_ns = cache_s / accesses * 1e9;
    // Every config replays each profile's stream once.
    const double replays = static_cast<double>(configs_.size());

    double mpki = 0, olat = 0, dummy = 0;
    for (std::size_t w = 0; w < nw; ++w) {
        const sim::SimResult &oram = base.at(kBaseOram, w);
        mpki += static_cast<double>(oram.llcMisses) * 1000.0 /
                static_cast<double>(oram.instructions);
        olat = std::max(olat, static_cast<double>(oram.oramLatency));
        dummy += base.at(kDynamic, w).dummyFraction();
    }

    report.add("sim.engine.cell_s_p50", "s", median(cell_s));
    report.add("sim.engine.cell_s_max", "s", quantile(cell_s, 1.0));
    report.add("sim.engine.idle_frac", "frac",
               1.0 - cell_sum / (threads_ * traced_s));
    report.add("workload.trace_ns_per_inst", "ns", trace_ns);
    report.add("cache.ns_per_access", "ns", cache_ns);
    report.add("grid.share.workload", "frac",
               trace_ns * 1e-9 * insts * replays / cell_sum);
    report.add("grid.share.cache", "frac",
               cache_ns * 1e-9 * accesses * replays / cell_sum);
    report.add("cache.llc_mpki", "1/kinst", mpki / static_cast<double>(nw));
    report.add("dram.olat_cycles", "cycles", olat);
    report.add("timing.dummy_frac", "frac",
               dummy / static_cast<double>(nw));
    report.add("trace.grid_overhead_frac", "frac",
               traced_s / untraced_s - 1.0);
    return untraced_s;
}

} // namespace perfbench
