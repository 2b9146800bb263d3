#include "timing/rate_enforcer.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::timing {

namespace {

/** Backoff slots owed for @p retries: sum over retry i of 2^(i-1) —
 *  mirrors oram::RecoveryEngine::backoffSlots (duplicated because the
 *  timing layer sits below oram in the dependency order). */
std::uint64_t
backoffSlots(std::uint64_t retries)
{
    return (std::uint64_t{1} << retries) - 1;
}

} // namespace

RateEnforcer::RateEnforcer(OramDeviceIf &device, const RateSet &rates,
                           const EpochSchedule &schedule,
                           const LearnerIf &learner, Cycles initial_rate)
    : device_(device),
      rates_(rates),
      schedule_(schedule),
      learner_(learner),
      rate_(initial_rate),
      rateFloor_(std::min(initial_rate, rates.fastest())),
      decisions_{{0, 0, initial_rate}}
{
    tcoram_assert(&learner.rates() == &rates,
                  "learner must be bound to the enforcer's rate set");
}

Cycles
RateEnforcer::nextSlot() const
{
    return lastCompletion_ + rate_;
}

void
RateEnforcer::evictInGap()
{
    // Background-eviction window after a completed slot: the device
    // may work until the next slot's earliest possible service start,
    // so an eviction in flight never delays a real access. When an
    // epoch transition comes first, the post-transition rate is
    // unknown here (the learner runs at the barrier) — bound the
    // window by the fastest rate any decision could pick, so the
    // eviction retires before even the earliest post-transition slot.
    //
    // Everything the horizon depends on — the slot grid, the epoch
    // schedule, calibrated constants — is public, so eviction timing
    // is data-independent, and this method runs after every
    // completion whoever applies the transitions, keeping N-worker
    // runs bit-identical to 1-worker runs.
    const Cycles boundary = nextBoundary();
    const Cycles slot = nextSlot();
    const Cycles horizon =
        boundary >= slot ? slot : lastCompletion_ + rateFloor_;
    const OramEvictionCharge e = device_.maybeEvict(horizon);
    if (e.evictions != 0) {
        // Charged like recovery slots: dummy-equivalent crypto/pin
        // traffic into the counters, never into the slot grid — the
        // learner's inputs (access count, ORAM cycles, waste) are
        // untouched, so rate decisions and start-cycle streams stay
        // bit-identical to an eviction-free run whenever occupancy
        // never binds.
        counters_.noteCrypto(e.cryptoBytes, e.cryptoCalls);
        counters_.noteEvictions(e.evictions);
    }
}

void
RateEnforcer::transitionAt(Cycles boundary)
{
    const Cycles epoch_cycles =
        boundary - schedule_.epochStart(epoch_);

    // A budget-limited session pins the rate once L is spent; forced
    // decisions are data-independent and leak nothing.
    Cycles new_rate;
    if (monitor_ != nullptr && !monitor_->canDecide()) {
        new_rate = rate_;
        monitor_->recordDecision(false);
        ++pinnedDecisions_;
    } else {
        new_rate = learner_.nextRate(epoch_cycles, counters_);
        if (monitor_ != nullptr)
            monitor_->recordDecision(true);
    }
    counters_.reset();
    ++epoch_;
    rate_ = new_rate;
    decisions_.push_back({epoch_, boundary, new_rate});
}

void
RateEnforcer::fireDummy(Cycles slot)
{
    const OramCompletion c = device_.submit(slot, OramTransaction::dummy());
    lastCompletion_ = c.done;
    counters_.noteCrypto(c.cryptoBytes, c.cryptoCalls);
    evictInGap();
}

OramCompletion
RateEnforcer::serve(Cycles arrival, const OramTransaction &txn)
{
    std::optional<OramCompletion> c;
    while (!(c = serveBounded(arrival, txn)))
        applyTransition();
    while (!payOwedSlots())
        applyTransition();
    return *c;
}

void
RateEnforcer::drainUntil(Cycles t)
{
    while (!drainBounded(t))
        applyTransition();
}

bool
RateEnforcer::payOwedSlots()
{
    // Backoff slots owed by the last retried completion fire at the
    // enforced positions the next idle dummies would have used, so an
    // observer cannot tell recovery from idleness — the leak-free
    // property the fault model requires. Transitions interleave
    // exactly as for idle dummies: one due at or before the next slot
    // goes first, which here means stopping for the barrier.
    while (owedSlotsLeft_ > 0) {
        if (nextBoundary() <= nextSlot())
            return false;
        fireDummy(nextSlot());
        --owedSlotsLeft_;
    }
    if (owedRetries_ != 0) {
        counters_.noteFaultRecovery(owedFaults_, owedRetries_,
                                    backoffSlots(owedRetries_));
        owedRetries_ = owedFaults_ = 0;
    }
    return true;
}

bool
RateEnforcer::drainBounded(Cycles t)
{
    if (!payOwedSlots())
        return false;
    // Interleave epoch transitions and idle dummy slots in time order:
    // when both are due, the transition goes first — here that means
    // stopping, since the transition belongs to the serial barrier.
    for (;;) {
        const Cycles boundary = nextBoundary();
        const Cycles slot = nextSlot();
        if (boundary <= t && boundary <= slot)
            return false;
        if (slot >= t)
            return true;
        fireDummy(slot); // the slot fires with no pending work
    }
}

std::optional<OramCompletion>
RateEnforcer::serveBounded(Cycles arrival, const OramTransaction &txn)
{
    tcoram_assert(txn.kind == OramTransaction::Kind::Real,
                  "dummies are scheduled by the enforcer, not submitted");

    // Owed recovery slots, then dummies due strictly before the
    // arrival, then the Req 3 charge — once per transaction. Retries
    // skip all three: once the transaction has arrived no dummy may
    // fire ahead of it, even when a transition drops the rate so far
    // that nextSlot() lands before the arrival again.
    if (!serveWasteCharged_) {
        if (!drainBounded(arrival))
            return std::nullopt;
        // Req 3 (Figure 4): this request was outstanding concurrently
        // with the previous real access (back-to-back queue) — charge
        // one rate period to Waste on top of the physical wait.
        if (arrival < lastRealCompletion_)
            counters_.noteWaste(rate_);
        serveWasteCharged_ = true;
    }

    // The request starts at the first slot at or after its arrival;
    // an epoch transition between arrival and that slot changes the
    // rate and hence the slot position, so it must be applied first.
    const Cycles slot = std::max(nextSlot(), arrival);
    if (nextBoundary() <= slot)
        return std::nullopt;

    // Waiting from arrival to slot start is rate-induced loss: the
    // paper's Waste cases (a) overset rate and (b) dummy in flight
    // both show up as slot - arrival here.
    if (slot > arrival)
        counters_.noteWaste(slot - arrival);

    const OramCompletion c = device_.submit(slot, txn);
    counters_.noteRealAccess(c.done - slot);
    counters_.noteCrypto(c.cryptoBytes, c.cryptoCalls);
    lastCompletion_ = c.done;
    lastRealCompletion_ = c.done;
    evictInGap();
    serveWasteCharged_ = false;
    if (c.retries > 0) {
        // Paid by the next bounded call, before anything else.
        owedRetries_ = c.retries;
        owedFaults_ = c.faultsDetected;
        owedSlotsLeft_ = backoffSlots(c.retries);
    }
    return c;
}

void
RateEnforcer::saveState(ByteWriter &w) const
{
    w.u64(rate_);
    w.u32(epoch_);
    w.u64(lastCompletion_);
    w.u64(lastRealCompletion_);
    w.u32(pinnedDecisions_);
    w.b(serveWasteCharged_);
    w.u64(owedRetries_);
    w.u64(owedFaults_);
    w.u64(owedSlotsLeft_);
    counters_.saveState(w);
    w.u64(decisions_.size());
    for (const RateDecision &d : decisions_) {
        w.u32(d.epoch);
        w.u64(d.startCycle);
        w.u64(d.rate);
    }
}

void
RateEnforcer::restoreState(ByteReader &r)
{
    rate_ = r.u64();
    epoch_ = r.u32();
    lastCompletion_ = r.u64();
    lastRealCompletion_ = r.u64();
    pinnedDecisions_ = r.u32();
    serveWasteCharged_ = r.b();
    owedRetries_ = r.u64();
    owedFaults_ = r.u64();
    owedSlotsLeft_ = r.u64();
    counters_.restoreState(r);
    decisions_.clear();
    const std::uint64_t n = r.u64();
    decisions_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        RateDecision d;
        d.epoch = r.u32();
        d.startCycle = r.u64();
        d.rate = r.u64();
        decisions_.push_back(d);
    }
}

} // namespace tcoram::timing
