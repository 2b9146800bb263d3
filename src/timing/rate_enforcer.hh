/**
 * @file
 * Leakage-enforced ORAM access scheduler (paper Figure 3). Within an
 * epoch, ORAM accesses — real or indistinguishable dummies — start
 * exactly `rate` cycles after the previous access completes. At each
 * epoch transition the rate learner picks the next rate from R using
 * the epoch's performance counters, which are then reset.
 *
 * The enforcer is event-driven: time advances when the processor
 * presents an LLC miss or when the run drains. Dummy accesses that
 * fire inside compute gaps are simulated (they cost energy and shape
 * the observable trace).
 *
 * A static (zero ORAM-timing-leakage) scheme is expressed as a
 * single-candidate RateSet: the learner can then only ever re-select
 * the same rate, giving lg 1 = 0 bits.
 */

#ifndef TCORAM_TIMING_RATE_ENFORCER_HH
#define TCORAM_TIMING_RATE_ENFORCER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/learner_if.hh"
#include "timing/oram_device.hh"
#include "timing/perf_counters.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::timing {

/** One epoch-boundary rate decision (for Figure 7 annotations). */
struct RateDecision
{
    unsigned epoch;
    Cycles startCycle;
    Cycles rate;
};

class RateEnforcer
{
  public:
    /**
     * @param device ORAM controller to drive
     * @param rates  public candidate set R
     * @param schedule epoch schedule E
     * @param learner rate learner (bound to @p rates)
     * @param initial_rate rate used during epoch 0 (paper: 10000)
     */
    RateEnforcer(OramDeviceIf &device, const RateSet &rates,
                 const EpochSchedule &schedule, const LearnerIf &learner,
                 Cycles initial_rate);

    /**
     * Attach a session leakage budget (§2.1): once the monitor's
     * budget is exhausted, epoch transitions stop consulting the
     * learner and pin the current rate — a forced decision consumes
     * no bits, so the realized leakage never exceeds L.
     */
    void attachMonitor(LeakageMonitor *monitor) { monitor_ = monitor; }

    // --- Bounded calls: the one serve algorithm ---
    //
    // Each call stops INSTEAD of processing an epoch transition; the
    // caller applies it with applyTransition() and retries. The ring
    // scheduler (sim/shard_worker.hh) does so at a barrier in shard-id
    // order, since a transition is the only step touching state shared
    // across shards (the LeakageMonitor) — M worker threads stay
    // race-free and bit-identical to one. A completion with retries
    // owes exponential-backoff recovery slots, kept as (checkpointed)
    // state and paid first by the next bounded call, at the positions
    // idle dummies would use: recovery is invisible in the stream.

    /**
     * Serve a real transaction arriving at cycle @p arrival: owed
     * slots and the dummies due before the arrival fire first, then
     * the transaction starts at the first enforced slot at or after
     * its arrival, so the stream stays periodic whatever it carries.
     * nullopt when a transition must be applied first; retry with the
     * SAME transaction (the Req 3 waste charge is tracked across
     * retries).
     */
    std::optional<OramCompletion> serveBounded(Cycles arrival,
                                               const OramTransaction &txn);

    /** Fire owed slots, then the dummies due before @p t. @return true
     *  once the schedule reached @p t, false at a transition. */
    bool drainBounded(Cycles t);

    /** Fire only the owed slots. @return true once none are owed,
     *  false at a transition. */
    bool payOwedSlots();

    /** The epoch boundary the bounded calls refuse to cross. */
    Cycles nextBoundary() const { return schedule_.epochStart(epoch_ + 1); }

    /** Apply the transition at nextBoundary() that a bounded call
     *  stopped at. */
    void applyTransition() { transitionAt(nextBoundary()); }

    // --- Single-stream loops over the bounded calls ---

    /** serveBounded() with transitions applied inline, then the owed
     *  slots paid. The line is available at .done. */
    OramCompletion serve(Cycles arrival, const OramTransaction &txn);

    /** Payload-free convenience over serve(). */
    Cycles
    serveReal(Cycles arrival)
    {
        return serve(arrival, OramTransaction::real()).done;
    }

    /** drainBounded() with transitions applied inline. Called when the
     *  program ends (and optionally at sync points). */
    void drainUntil(Cycles t);

    Cycles currentRate() const { return rate_; }
    unsigned currentEpoch() const { return epoch_; }
    const std::vector<RateDecision> &decisions() const { return decisions_; }
    const PerfCounters &counters() const { return counters_; }
    /** Transitions at which the leakage budget pinned the rate. */
    unsigned pinnedDecisions() const { return pinnedDecisions_; }

    /** Completion cycle of the most recent (real or dummy) access. */
    Cycles lastCompletion() const { return lastCompletion_; }

    /**
     * Checkpoint support: rate/epoch position, completion horizons,
     * owed recovery slots, counters and the decision log. The attached
     * monitor is shared across enforcers and checkpointed by its owner.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /**
     * Offer the device a background-eviction window (eviction engine,
     * oram/eviction_engine.hh) after a completed slot: from the
     * device's busy horizon up to the next slot's earliest possible
     * service start — bounded by the fastest candidate rate when an
     * epoch transition comes first, so an eviction in flight never
     * delays a post-transition slot. Eviction traffic is charged like
     * recovery slots (dummy-equivalent crypto into the counters),
     * never into the slot grid. No-op on eviction-free devices.
     */
    void evictInGap();
    /** Fire an idle (or recovery) dummy at @p slot. */
    void fireDummy(Cycles slot);
    /** Apply the epoch transition at @p boundary. */
    void transitionAt(Cycles boundary);
    /** Next cycle an access may start under the current rate. */
    Cycles nextSlot() const;

    OramDeviceIf &device_;
    const RateSet &rates_;
    EpochSchedule schedule_;
    const LearnerIf &learner_;
    PerfCounters counters_;
    Cycles rate_;
    /** Fastest rate any epoch decision could select (incl. epoch 0's
     *  initial rate): the eviction horizon's transition-safe bound. */
    Cycles rateFloor_;
    unsigned epoch_ = 0;
    Cycles lastCompletion_ = 0;
    /** Completion cycle of the last *real* access (Req 3 detection). */
    Cycles lastRealCompletion_ = 0;
    std::vector<RateDecision> decisions_;
    LeakageMonitor *monitor_ = nullptr;
    unsigned pinnedDecisions_ = 0;
    /**
     * Whether the in-flight bounded transaction already completed its
     * pre-arrival advance and took its Req 3 waste charge —
     * serveBounded() retries must skip both.
     */
    bool serveWasteCharged_ = false;
    /** The last retried completion's retry and fault counts (noted
     *  once its recovery slots are paid) and the slots still to fire. */
    std::uint64_t owedRetries_ = 0;
    std::uint64_t owedFaults_ = 0;
    std::uint64_t owedSlotsLeft_ = 0;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_RATE_ENFORCER_HH
