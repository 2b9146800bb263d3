#include "sim/recovery_run.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "oram/oram_config.hh"
#include "sim/checkpoint.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

namespace {

/** Deterministic per-(session, k) backlog block id, spread wide so the
 *  PRF router sees distinct blocks (same scheme as the benches). */
std::uint64_t
blockId(std::uint32_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

/** Probe block ids live in their own sparse range so write-then-read
 *  probes land on blocks the backlog never touched. */
std::uint64_t
probeBlockId(std::uint64_t i)
{
    return 0xbe57'0000ull + i * 104'729ull;
}

/** Functional tree capacity cap per shard (keeps host memory
 *  bounded). */
constexpr std::uint64_t kFunctionalBlockCap = 512;

oram::OramDeviceSpec
innerSpec(const RecoveryRunConfig &cfg)
{
    oram::OramDeviceSpec spec;
    spec.kind = cfg.deviceKind;
    spec.functionalBlockCap = kFunctionalBlockCap;
    spec.fault = cfg.fault;
    spec.retryBudget = cfg.retryBudget;
    spec.pathMode = cfg.pathMode;
    spec.evictionPolicy = cfg.evictionPolicy;
    spec.evictionBudget = cfg.evictionBudget;
    return spec;
}

/** One lane whose in-flight bound covers the whole backlog: it is
 *  queued before the first serve, and tokens retire only as served. */
RingScheduler::Options
laneOptions(std::uint64_t backlog)
{
    RingScheduler::Options opts;
    opts.ringCapacity = std::max<std::uint64_t>(backlog, 2);
    return opts;
}

} // namespace

RecoveryRun::RecoveryRun(const RecoveryRunConfig &cfg)
    : cfg_(cfg), backlog_(materializeBacklog(cfg_)),
      stack_(innerSpec(cfg_), cfg_.shards, cfg_.rate, cfg_.seed,
             laneOptions(backlogTotal()))
{
    tcoram_assert(cfg_.shards >= 1, "recovery run needs a shard");
    tcoram_assert(cfg_.sessions >= 1, "recovery run needs a session");
    // Session 0 carries a finite budget so the shared LeakageMonitor
    // exists and its ledger is exercised (and checkpointed); with a
    // single-rate set the budget can never be exceeded.
    for (std::uint32_t s = 0; s < cfg_.sessions; ++s)
        stack_.scheduler().openSession(mixSeed(cfg_.seed, 0x5e55ull + s),
                                       s == 0 ? 64.0 : -1.0);
    probeArrival_.assign(cfg_.sessions, 0);
    // Probe arrivals must stay past every planned arrival (per-session
    // arrival order is asserted at enqueue).
    for (const PlannedOp &op : backlog_.plan)
        probeArrival_[op.session] =
            std::max(probeArrival_[op.session], op.arrival + 1);
}

RecoveryRun::Backlog
RecoveryRun::materializeBacklog(RecoveryRunConfig &cfg)
{
    using workload::WorkloadOp;
    using workload::WorkloadOpKind;
    Backlog b;
    if (cfg.workloadSpec.empty()) {
        // Open-loop: the whole backlog arrives up front (session s's
        // k-th transaction at cycle k), the saturation regime where
        // every shard serves back-to-back and the slot grid never
        // breaks.
        for (std::uint64_t k = 0; k < cfg.txnsPerSession; ++k)
            for (std::uint32_t s = 0; s < cfg.sessions; ++s)
                b.plan.push_back({s, k, blockId(s, k), k % 3 == 0});
        return b;
    }
    const workload::WorkloadParams params =
        workload::parseWorkloadSpec(cfg.workloadSpec);
    const auto source = workload::loadWorkload(params);
    b.intervalOps = source->checkpointIntervalOps();
    cfg.sessions = source->ranks();
    const std::uint64_t blocks = oram::OramConfig::benchConfig().numBlocks;
    // Walk each rank's stream to End, mapping access ops onto blocks;
    // think time stretches the rank's arrival clock. A checkpointAfter
    // request becomes a served-count mark: serve until servedTotal()
    // hits it, snapshot, continue.
    for (std::uint32_t rank = 0; rank < cfg.sessions; ++rank) {
        Cycles arrival = 0;
        for (;;) {
            const WorkloadOp op = source->getNext(rank);
            if (op.kind == WorkloadOpKind::End)
                break;
            if (op.kind == WorkloadOpKind::Think) {
                arrival += op.thinkCycles;
                continue;
            }
            const std::uint32_t n =
                op.kind == WorkloadOpKind::Scan ? op.scanLen : 1;
            for (std::uint32_t j = 0; j < n; ++j) {
                b.plan.push_back({rank, arrival++, (op.key + j) % blocks,
                                  op.kind == WorkloadOpKind::Put});
            }
            if (op.checkpointAfter)
                b.marks.push_back(b.plan.size());
            tcoram_assert(b.plan.size() < (1u << 24),
                          "workload-driven recovery backlog too large");
        }
    }
    std::sort(b.marks.begin(), b.marks.end());
    b.marks.erase(std::unique(b.marks.begin(), b.marks.end()),
                  b.marks.end());
    return b;
}

RecoveryRun::~RecoveryRun() = default;

void
RecoveryRun::start()
{
    tcoram_assert(!started_, "run already started or restored");
    started_ = true;
    for (const PlannedOp &op : backlog_.plan)
        submit(op.session, op.arrival,
               timing::OramTransaction::real(op.blockId, op.isWrite,
                                             op.session));
    // Move the backlog into the shard queues: checkpointable from here.
    stack_.scheduler().serveUpTo(0);
}

void
RecoveryRun::submit(std::uint32_t session, Cycles arrival,
                    const timing::OramTransaction &txn)
{
    const bool ok =
        stack_.scheduler().trySubmit(session, arrival, txn).has_value();
    tcoram_assert(ok, "backlog exceeds the lane's in-flight bound");
}

void
RecoveryRun::collectCompletions()
{
    SessionRing::Completion c;
    while (stack_.scheduler().lane(0).popCompletion(c))
        lastReal_ = std::max(lastReal_, c.completion.done);
}

bool
RecoveryRun::serveOne()
{
    tcoram_assert(started_, "start() or restoreFrom() first");
    const bool served = stack_.scheduler().serveUpTo(1) == 1;
    collectCompletions();
    return served;
}

Cycles
RecoveryRun::finish()
{
    stack_.scheduler().runUntilIdle();
    collectCompletions();
    // The drain horizon is derived from lastReal_, which restoreFrom()
    // reloads — an interrupted-and-restored run and the uninterrupted
    // one compute the identical horizon and hence identical streams.
    const Cycles horizon = stack_.drainHorizon(lastReal_);
    stack_.scheduler().drainUntil(horizon);
    return horizon;
}

std::string
RecoveryRun::saveTo(const std::string &path) const
{
    ByteWriter w;
    w.b(started_);
    w.u64(lastReal_);
    w.u64(probeArrival_.size());
    for (const Cycles a : probeArrival_)
        w.u64(a);
    stack_.device().saveState(w);
    stack_.scheduler().saveState(w);
    return saveCheckpoint(path, w.data());
}

std::string
RecoveryRun::restoreFrom(const std::string &path)
{
    tcoram_assert(!started_,
                  "restore must target a freshly constructed run");
    std::vector<std::uint8_t> payload;
    if (std::string err = loadCheckpoint(path, payload); !err.empty())
        return err;
    ByteReader r(payload);
    started_ = r.b();
    lastReal_ = r.u64();
    const std::uint64_t probes = r.u64();
    tcoram_assert(probes == probeArrival_.size(),
                  "snapshot session count mismatch");
    for (Cycles &a : probeArrival_)
        a = r.u64();
    stack_.device().restoreState(r);
    stack_.scheduler().restoreState(r);
    if (!r.atEnd())
        return std::string("checkpoint: payload does not match this "
                           "configuration (decode ") +
               (r.ok() ? "left trailing bytes)" : "overran)");
    return {};
}

std::uint64_t
RecoveryRun::faultsInjected() const
{
    return stack_.sumFunctional(&oram::FunctionalOramDevice::faultsInjected);
}

std::uint64_t
RecoveryRun::faultsDetected() const
{
    return stack_.sumFunctional(&oram::FunctionalOramDevice::faultsDetected);
}

std::uint64_t
RecoveryRun::faultsRecovered() const
{
    return stack_.sumFunctional(
        &oram::FunctionalOramDevice::faultsRecovered);
}

std::uint64_t
RecoveryRun::retriesIssued() const
{
    return stack_.sumFunctional(&oram::FunctionalOramDevice::retriesIssued);
}

std::uint64_t
RecoveryRun::recoverySlots() const
{
    std::uint64_t n = 0;
    const RingScheduler &sched = stack_.scheduler();
    for (std::size_t i = 0; i < sched.shardCount(); ++i)
        n += sched.shard(i).enforcer().counters().recoverySlots();
    return n;
}

std::uint64_t
RecoveryRun::evictionsIssued() const
{
    return stack_.device().evictionsIssued();
}

std::uint64_t
RecoveryRun::verifyPayloads(std::uint64_t probes)
{
    if (cfg_.deviceKind != "functional")
        return 0; // timing backends move no payloads
    tcoram_assert(started_ && servedTotal() >= backlogTotal(),
                  "probe after the backlog is drained");
    const std::uint64_t bytes = stack_.device().shardConfig().blockBytes;
    std::vector<std::uint8_t> wrote(bytes);
    std::vector<std::uint8_t> read(bytes);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < probes; ++i) {
        const auto s = static_cast<std::uint32_t>(i % cfg_.sessions);
        const std::uint64_t id = probeBlockId(i);
        for (std::uint64_t j = 0; j < bytes; ++j)
            wrote[j] = static_cast<std::uint8_t>(
                mixSeed(cfg_.seed, i * bytes + j));
        std::fill(read.begin(), read.end(), 0);

        // Write then read back-to-back: the queue is empty, so each
        // submit is served immediately and the span views stay valid.
        timing::OramTransaction wt =
            timing::OramTransaction::real(id, /*is_write=*/true, s);
        wt.data = wrote;
        submit(s, probeArrival_[s]++, wt);
        serveOne();

        timing::OramTransaction rt =
            timing::OramTransaction::real(id, /*is_write=*/false, s);
        rt.out = read;
        submit(s, probeArrival_[s]++, rt);
        serveOne();

        if (read != wrote)
            ++mismatches;
    }
    return mismatches;
}

std::string
RecoveryRun::csvHeader()
{
    return "kind,shards,sessions,backlog,rate,fault_spec,"
           "served,last_real,faults_injected,faults_detected,"
           "faults_recovered,retries,recovery_slots";
}

std::string
RecoveryRun::csvRow() const
{
    std::ostringstream os;
    os << cfg_.deviceKind << ',' << cfg_.shards << ',' << cfg_.sessions
       << ',' << backlogTotal() << ',' << cfg_.rate << ','
       << (cfg_.fault.enabled() ? cfg_.fault.toString() : "none") << ','
       << servedTotal() << ',' << lastReal_ << ',' << faultsInjected() << ','
       << faultsDetected() << ',' << faultsRecovered() << ','
       << retriesIssued() << ',' << recoverySlots();
    return os.str();
}

} // namespace tcoram::sim
