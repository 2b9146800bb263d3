/**
 * @file
 * Pluggable QoS dispatch policies for ShardSlot. A policy only
 * chooses WHICH eligible session's head transaction rides the shard's
 * next enforced slot — the enforcer alone times the slot, so no policy
 * can shift the shard's observable stream (test-enforced in
 * tests/test_scheduler_scale.cc).
 *
 * Eligibility: a session's head is eligible iff
 *     headArrival <= max(min over heads of headArrival, lastCompletion)
 * i.e. every head that has arrived by the shard's last completion is
 * eligible immediately (it would start at the same upcoming slot), and
 * when all heads are in the future only the earliest can go first.
 * Policies MUST return an eligible entry; the choice among eligible
 * entries is pure fairness policy.
 *
 * The view iterates sessions in round-robin scan order: position 0 is
 * the session after the last-served one, position size()-1 is the
 * last-served session itself. entry() is O(1) for sequential scans and
 * for the last position, so round-robin stays O(1) per pick under
 * backlog while earliest-deadline pays its documented O(active) scan.
 */

#ifndef TCORAM_TIMING_DISPATCH_POLICY_HH
#define TCORAM_TIMING_DISPATCH_POLICY_HH

#include <cstdint>
#include <memory>

#include "common/serial.hh"
#include "common/types.hh"

namespace tcoram::timing {

enum class DispatchPolicyKind
{
    RoundRobin,         ///< "rr": cycle sessions in activation order
    WeightedRoundRobin, ///< "wrr": weight w => w consecutive serves
    EarliestDeadline,   ///< "edf": min (headArrival + deadline offset)
};

/** Short name of a policy kind ("rr", "wrr", "edf"). */
const char *dispatchPolicyName(DispatchPolicyKind kind);

/** Read-only view of one shard's pending sessions, in RR scan order. */
class DispatchView
{
  public:
    struct Entry
    {
        std::uint32_t sid;
        Cycles headArrival;
        std::uint16_t weight;   ///< wrr share (>= 1)
        Cycles deadline;        ///< headArrival + per-session offset
    };

    virtual ~DispatchView() = default;
    /** Sessions with queued work; >= 1 when a pick is requested. */
    virtual std::size_t size() const = 0;
    /** @p k-th entry in scan order (0 = after last served). */
    virtual Entry entry(std::size_t k) const = 0;
    /** Completion cycle of the shard's last enforced access. */
    virtual Cycles lastCompletion() const = 0;
};

class DispatchPolicy
{
  public:
    virtual ~DispatchPolicy() = default;
    virtual DispatchPolicyKind kind() const = 0;
    /** Scan position of the (eligible) session to serve next. */
    virtual std::size_t pick(const DispatchView &view) = 0;
    /** Checkpoint support for policies that carry state across picks. */
    virtual void saveState(ByteWriter &) const {}
    virtual void restoreState(ByteReader &) {}
};

std::unique_ptr<DispatchPolicy> makeDispatchPolicy(DispatchPolicyKind kind);

} // namespace tcoram::timing

#endif // TCORAM_TIMING_DISPATCH_POLICY_HH
