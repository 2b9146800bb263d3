/**
 * @file
 * ServingStack: the deterministic serving stack under both run
 * harnesses (sim/recovery_run.hh, sim/kv_serving.hh), wired in one
 * place so the two cannot drift apart:
 *
 *  - a DRAM model and the calibration Rng, seeded with the run seed;
 *  - a single-candidate RateSet at the run's rate, EpochSchedule
 *    (kEpoch0, 2, 2^40), a RateLearner and LeakageParams{rateCount =
 *    1, kEpoch0}. Every rate decision reveals lg 1 = 0 bits, so each
 *    shard's slot grid is pinned (exact periodicity is an exact check,
 *    not a statistical one) while the leakage monitor's ledger still
 *    runs and checkpoints;
 *  - a recorded ShardedOramDevice, key seed mixSeed(seed, 0x0de71ce5)
 *    and route seed mixSeed(seed, 0x0072a7e5);
 *  - the RingScheduler over that device.
 *
 * It also owns the views both harnesses report from: each shard's
 * recorded observable stream (the adversary's view), the slot periods,
 * the stream CSV digest, lane token retirement and the fault counters
 * summed over functional shards.
 *
 * Sessions are not opened here: each harness opens its own, with its
 * own identity seeds, because those seeds are part of each harness's
 * golden-pinned output.
 */

#ifndef TCORAM_SIM_SERVING_STACK_HH
#define TCORAM_SIM_SERVING_STACK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::sim {

class ServingStack
{
  public:
    /** First epoch length; small enough that runs cross boundaries. */
    static constexpr Cycles kEpoch0 = Cycles{1} << 18;
    /** Trailing-dummy drain horizon, in slot periods past the last
     *  real completion. */
    static constexpr Cycles kDrainSlackPeriods = 8;

    /** One observable stream event (a shard's adversary view). */
    struct Event
    {
        Cycles start = 0;
        bool real = false;

        bool operator==(const Event &) const = default;
    };

    /**
     * @param spec per-shard backend; its keySeed is replaced by the
     *        one derived from @p seed
     * @param opts scheduler lanes, ring bound, workers, sampling
     */
    ServingStack(oram::OramDeviceSpec spec, std::uint32_t shards,
                 Cycles rate, std::uint64_t seed,
                 const RingScheduler::Options &opts);
    ~ServingStack();

    RingScheduler &scheduler() { return sched_; }
    const RingScheduler &scheduler() const { return sched_; }
    oram::ShardedOramDevice &device() { return device_; }
    const oram::ShardedOramDevice &device() const { return device_; }
    std::uint32_t shardCount() const { return device_.shardCount(); }

    /** Enforced slot period of shard @p i: rate + its calibrated
     *  access latency (each shard calibrates independently). */
    Cycles shardPeriod(std::uint32_t i) const;
    /** Max slot period over the shards. */
    Cycles period() const;
    /** Trailing-dummy horizon: kDrainSlackPeriods periods past
     *  @p last_real. */
    Cycles drainHorizon(Cycles last_real) const
    {
        return last_real + kDrainSlackPeriods * period();
    }

    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const;
    std::vector<Cycles> shardStarts(std::uint32_t i) const;
    /** Every shard's stream as "shard,start,kind" rows — the
     *  bit-identity digest. */
    std::string streamCsv() const;

    /** Every lane drained, with every token retired. */
    bool allTokensRetired() const;

    /** @p counter summed over the functional shards (0 for timing
     *  shards). */
    std::uint64_t sumFunctional(std::uint64_t (
        oram::FunctionalOramDevice::*counter)() const) const;

  private:
    Cycles rate_;
    std::size_t lanes_;
    dram::DramModel mem_;
    Rng rng_;
    timing::RateSet rates_;
    timing::EpochSchedule schedule_;
    timing::RateLearner learner_;
    oram::ShardedOramDevice device_;
    RingScheduler sched_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SERVING_STACK_HH
