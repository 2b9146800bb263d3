/**
 * @file
 * kv_zipf: sim::KvServingRun::run(), the deterministic single-producer
 * mode with one scheduler thread. 2000 closed-loop sessions keep one
 * ORAM transaction in flight each: Zipf 0.99 over 1024 keys, 85% get /
 * 5% scan(3) / 10% put, 48 B mean values, 4 shards at rate 300.
 */

#include <algorithm>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/sharded_device.hh"
#include "scenarios.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"
#include "workload/workload_source.hh"

using namespace tcoram;

namespace perfbench {

namespace {

constexpr std::uint32_t kSessions = 2000;
/**
 * Independent realizations of the seed per run. One realization's
 * simulated latencies swing by up to 15% from seed to seed (which home
 * slots the hot keys collide on); the simulated metrics are means over
 * these realizations.
 */
constexpr std::uint32_t kRealizations = 8;
/** Realizations every run repeats at least once (the first ones), so
 *  their determinism is checked; a longer run repeats them all. */
constexpr std::uint32_t kRepeatedRealizations = 4;
constexpr std::uint32_t kShards = 4;
constexpr Cycles kRate = 300;

/** The serving population of bench_kv_serving at full size: the home
 *  table runs at load factor 0.5, so no put fails. */
sim::KvServingConfig
servingConfig(std::uint64_t seed, std::uint32_t sub)
{
    seed = mixSeed(seed, sub);
    sim::KvServingConfig cfg;
    cfg.shards = kShards;
    cfg.rate = kRate;
    cfg.threads = 1;
    cfg.lanes = 1;
    cfg.seed = mixSeed(seed, 10);
    cfg.workload.method = "kv";
    cfg.workload.seed = mixSeed(seed, 11);
    cfg.workload.ranks = kSessions;
    cfg.workload.opsPerRank = 8;
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

/** Consecutive starts exactly one slot period apart on every shard. */
bool
exactlyPeriodic(const sim::KvServingRun &run)
{
    for (std::uint32_t i = 0; i < run.config().shards; ++i) {
        const Cycles period = run.shardPeriod(i);
        const std::vector<Cycles> starts = run.shardStarts(i);
        for (std::size_t k = 1; k < starts.size(); ++k)
            if (starts[k] - starts[k - 1] != period)
                return false;
    }
    return true;
}

} // namespace

struct KvScenario::Outcome
{
    double runSeconds = 0;
    std::uint64_t ops = 0;
    std::uint64_t txns = 0;
    std::uint64_t writes = 0;
    sim::KVStats stats;
    Cycles getP50 = 0, getP999 = 0, putP99 = 0;
    /** Last real slot's end over all shards. */
    Cycles makespan = 0;
    Cycles maxPeriod = 0;
    std::uint64_t slots = 0, dummySlots = 0;
};

KvScenario::KvScenario(std::uint64_t seed)
    : seed_(seed), digests_(kRealizations, 0)
{
}

KvScenario::~KvScenario() = default;

double
KvScenario::setupOnce()
{
    const auto t0 = Clock::now();
    pending_ = std::make_unique<sim::KvServingRun>(servingConfig(seed_, 0));
    return secondsSince(t0);
}

KvScenario::Outcome
KvScenario::runOnce(std::uint32_t sub, Checks &checks, SpanRecorder *spans)
{
    std::unique_ptr<sim::KvServingRun> run;
    if (sub == 0)
        run = std::move(pending_);
    if (!run)
        run = std::make_unique<sim::KvServingRun>(servingConfig(seed_, sub));
    Outcome o;
    const auto t0 = Clock::now();
    if (spans != nullptr) {
        ScopedSpan s(*spans, "sim.kv.run", SpanRecorder::kNoParent);
        run->run();
    } else {
        run->run();
    }
    o.runSeconds = secondsSince(t0);

    o.stats = run->stats();
    o.ops = run->opsCompleted();
    o.txns = o.stats.oramReads + o.stats.oramWrites;
    o.writes = o.stats.oramWrites;
    o.getP50 = run->getLatencyPercentile(0.50);
    o.getP999 = run->getLatencyPercentile(0.999);
    o.putP99 = run->putLatencyPercentile(0.99);
    for (std::uint32_t i = 0; i < run->config().shards; ++i) {
        o.maxPeriod = std::max(o.maxPeriod, run->shardPeriod(i));
        for (const auto &e : run->shardStream(i)) {
            ++o.slots;
            o.dummySlots += !e.real;
            if (e.real)
                o.makespan =
                    std::max(o.makespan, e.start + run->shardPeriod(i));
        }
    }

    checks.tally(o.ops, run->payloadMismatches(),
                 "kv_zipf: get returned a mismatched payload");
    checks.tally(o.stats.puts, o.stats.failedPuts, "kv_zipf: put failed");
    checks.expect(run->allTokensRetired(), "kv_zipf: unretired tokens");
    checks.expect(exactlyPeriodic(*run),
                  "kv_zipf: a shard stream is not exactly periodic");

    Digest d;
    for (const auto v :
         {o.stats.gets, o.stats.puts, o.stats.scans, o.stats.hits,
          o.stats.misses, o.stats.inserts, o.stats.updates,
          o.stats.failedPuts, o.stats.probes, o.stats.spillBlocksRead,
          o.stats.spillBlocksWritten, o.stats.oramReads,
          o.stats.oramWrites, o.ops, o.getP50, o.getP999, o.putP99})
        d.value(v);
    const std::string csv = run->streamCsv();
    d.bytes(csv.data(), csv.size());
    if (digests_[sub] == 0)
        digests_[sub] = d.h;
    checks.expect(d.h == digests_[sub],
                  "kv_zipf: run differs from the first run of the seed");
    return o;
}

double
KvScenario::rep(Checks &checks)
{
    // Cycle through the realizations; every repeat of a realization
    // checks determinism.
    const std::uint32_t sub = reps_++ % kRealizations;
    const Outcome o = runOnce(sub, checks, nullptr);
    const double txns_per_s = static_cast<double>(o.txns) / o.runSeconds;
    if (reps_ > kRealizations)
        return txns_per_s;
    ops_ += static_cast<double>(o.ops);
    txns_ += static_cast<double>(o.txns);
    simOpsPerMcycle_ +=
        static_cast<double>(o.ops) * 1e6 / static_cast<double>(o.makespan);
    getP50_ += static_cast<double>(o.getP50);
    getP999_ += static_cast<double>(o.getP999);
    putP99_ += static_cast<double>(o.putP99);
    return txns_per_s;
}

bool
KvScenario::enough() const
{
    return reps_ >= kRealizations + kRepeatedRealizations;
}

void
KvScenario::finish(Report &report, const Rates &rates)
{
    // Host cost differs between realizations by up to 20% but is nearly
    // proportional to their ORAM transactions, so runs of every
    // realization compare as transactions per second; the
    // realizations' ops per transaction turn the median into KV ops
    // per second.
    const double k = kRealizations;
    report.add("kv_ops_per_s", "1/s",
               median(rates.atRefSpeed) * ops_ / txns_);
    report.note("kv_ops_per_s.raw", "1/s", median(rates.raw) * ops_ / txns_);
    report.add("kv_sim_ops_per_mcycle", "1/Mcycle", simOpsPerMcycle_ / k);
    report.add("kv_get_p50_cycles", "cycles", getP50_ / k);
    report.add("kv_get_p999_cycles", "cycles", getP999_ / k);
    report.add("kv_put_p99_cycles", "cycles", putP99_ / k);
}

double
KvScenario::trace(Checks &checks, Report &report, SpanRecorder &spans)
{
    // Alternate untraced and traced runs of realization 0; its counts
    // are the per-layer counts.
    std::vector<double> untraced, traced;
    Outcome o;
    for (int i = 0; i < 2; ++i) {
        untraced.push_back(runOnce(0, checks, nullptr).runSeconds);
        o = runOnce(0, checks, &spans);
        traced.push_back(o.runSeconds);
    }
    const double txns = static_cast<double>(o.txns);
    const double run_ns = median(traced) / txns * 1e9;
    const sim::KvServingConfig cfg = servingConfig(seed_, 0);
    const std::uint64_t blocks = cfg.kv.totalBlocks();
    const double write_frac = static_cast<double>(o.writes) / txns;

    // The same read/write count over the KV table's block ids,
    // submitted straight to the functional sharded device.
    double device_s = 0;
    {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng(cfg.seed);
        oram::OramDeviceSpec spec;
        spec.kind = "functional";
        spec.keySeed = mixSeed(cfg.seed, 0x0de71ce5ull);
        oram::ShardedOramDevice dev(spec, oram::OramConfig::benchConfig(),
                                    kShards, mixSeed(cfg.seed, 0x0072a7e5ull),
                                    mem, rng);
        std::vector<std::uint8_t> data(cfg.kv.blockBytes, 0x5a);
        std::vector<std::uint8_t> out(cfg.kv.blockBytes);
        Rng ids(mixSeed(seed_, 21));
        Cycles now = 0;
        const auto t0 = Clock::now();
        ScopedSpan root(spans, "oram.sharded_device", SpanRecorder::kNoParent);
        for (std::uint64_t i = 0; i < o.txns; ++i) {
            auto txn = timing::OramTransaction::real(
                ids.nextBounded(blocks), ids.nextBool(write_frac));
            if (txn.isWrite)
                txn.data = data;
            else
                txn.out = out;
            ScopedSpan s(spans, "oram.submit", root.id(), i);
            now = dev.submit(now, txn).done;
        }
        device_s = secondsSince(t0);
    }

    // The ring scheduler alone: same shards, sessions and transaction
    // count in the same closed loop, on the timing device.
    double sched_s = 0;
    {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng(cfg.seed);
        oram::ShardedOramDevice dev(oram::OramDeviceSpec{},
                                    oram::OramConfig::benchConfig(), kShards,
                                    mixSeed(cfg.seed, 0x0072a7e5ull), mem,
                                    rng);
        const timing::RateSet rates{std::vector<Cycles>{kRate}};
        const timing::EpochSchedule schedule{cfg.epoch0, 2, Cycles{1} << 40};
        const timing::RateLearner learner{rates};
        protocol::LeakageParams params;
        params.rateCount = 1;
        params.epoch0 = cfg.epoch0;
        sim::RingScheduler::Options opts;
        opts.recordLatencies = false;
        sim::RingScheduler rs(dev, rates, schedule, learner, kRate, params,
                              opts);
        for (std::uint32_t s = 0; s < kSessions; ++s)
            rs.openSession(mixSeed(cfg.seed, 0x5e55'0000ull + s));
        std::vector<Cycles> clock(kSessions, 0);
        std::vector<bool> awaiting(kSessions, false);
        Rng ids(mixSeed(seed_, 22));
        std::uint64_t submitted = 0, done = 0;
        const auto t0 = Clock::now();
        ScopedSpan root(spans, "sim.sched", SpanRecorder::kNoParent);
        while (done < o.txns) {
            for (std::uint32_t s = 0; s < kSessions && submitted < o.txns;
                 ++s) {
                if (awaiting[s])
                    continue;
                if (!rs.trySubmit(s, clock[s],
                                  timing::OramTransaction::real(
                                      ids.nextBounded(blocks),
                                      ids.nextBool(write_frac), s)))
                    break;
                awaiting[s] = true;
                ++submitted;
            }
            rs.runUntilIdle();
            sim::SessionRing::Completion c;
            while (rs.lane(0).popCompletion(c)) {
                awaiting[c.sessionId] = false;
                clock[c.sessionId] = c.completion.done;
                ++done;
            }
        }
        sched_s = secondsSince(t0);
    }

    // The op stream alone.
    double source_s = 0;
    std::uint64_t source_ops = 0;
    {
        const auto source = workload::loadWorkload(cfg.workload);
        const auto t0 = Clock::now();
        ScopedSpan root(spans, "workload.kv_getNext", SpanRecorder::kNoParent);
        for (bool live = true; live;) {
            live = false;
            for (std::uint32_t r = 0; r < source->ranks(); ++r)
                if (source->getNext(r).kind != workload::WorkloadOpKind::End) {
                    ++source_ops;
                    live = true;
                }
        }
        source_s = secondsSince(t0);
    }

    const double ops = static_cast<double>(o.ops);
    const double device_ns = device_s / txns * 1e9;
    report.add("sim.kv.run_ns_per_txn", "ns", run_ns);
    report.add("sim.kv.device_ns_per_txn", "ns", device_ns);
    report.add("sim.kv.overhead_ns_per_txn", "ns", run_ns - device_ns);
    report.add("sim.sched.ns_per_txn", "ns", sched_s / txns * 1e9);
    report.add("workload.kv_ns_per_op", "ns",
               source_s / static_cast<double>(source_ops) * 1e9);
    report.add("kv.share.device", "frac", device_ns / run_ns);
    report.add("kv.share.sched", "frac", sched_s / txns * 1e9 / run_ns);
    report.add("sim.kv.txns_per_op", "count", txns / ops);
    report.add("sim.kv.probes_per_op", "count",
               static_cast<double>(o.stats.probes) / ops);
    report.add("sim.kv.spill_blocks_per_op", "count",
               static_cast<double>(o.stats.spillBlocksRead +
                                   o.stats.spillBlocksWritten) /
                   ops);
    report.add("sim.kv.hit_rate", "frac",
               static_cast<double>(o.stats.hits) /
                   static_cast<double>(o.stats.hits + o.stats.misses));
    report.add("timing.kv_dummy_frac", "frac",
               static_cast<double>(o.dummySlots) /
                   static_cast<double>(o.slots));
    report.add("timing.kv_period_cycles", "cycles",
               static_cast<double>(o.maxPeriod));
    report.add("trace.kv_overhead_frac", "frac",
               median(traced) / median(untraced) - 1.0);
    double untraced_s = 0;
    for (const double u : untraced)
        untraced_s += u;
    return untraced_s;
}

} // namespace perfbench
