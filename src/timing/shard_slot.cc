#include "timing/shard_slot.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::timing {

ShardSlot::ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
                     const RateSet &rates, const EpochSchedule &schedule,
                     const LearnerIf &learner, Cycles initial_rate)
    : shardId_(shard_id),
      enf_(device, rates, schedule, learner, initial_rate),
      policy_(makeDispatchPolicy(DispatchPolicyKind::RoundRobin))
{
}

void
ShardSlot::setDispatchPolicy(std::unique_ptr<DispatchPolicy> policy)
{
    policy_ = std::move(policy);
}

DispatchView::Entry
ShardSlot::View::entry(std::size_t k) const
{
    const std::size_t n = slot_.activeCount_;
    tcoram_dassert(k < n, "dispatch view position out of range");
    std::uint32_t idx;
    if (k == n - 1) {
        idx = slot_.listCursor_; // last served closes the scan
    } else if (cachedIdx_ != kNil && k == cachedPos_ + 1 &&
               cachedPos_ != n - 1) {
        idx = slot_.queuePool_[cachedIdx_].next;
    } else if (cachedIdx_ != kNil && k == cachedPos_) {
        idx = cachedIdx_;
    } else {
        idx = slot_.queuePool_[slot_.listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = slot_.queuePool_[idx].next;
    }
    cachedPos_ = k;
    cachedIdx_ = idx;
    const auto &q = slot_.queuePool_[idx];
    const Cycles head_arrival = slot_.nodePool_[q.head].arrival;
    return {q.sid, head_arrival, q.weight, head_arrival + q.deadlineOffset};
}

std::uint32_t
ShardSlot::allocNode(Cycles arrival, const OramTransaction &txn)
{
    std::uint32_t idx;
    if (nodeFree_ != kNil) {
        idx = nodeFree_;
        nodeFree_ = nodePool_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(nodePool_.size());
        nodePool_.emplace_back();
    }
    nodePool_[idx] = Node{arrival, txn, kNil};
    return idx;
}

void
ShardSlot::freeNode(std::uint32_t idx)
{
    nodePool_[idx].next = nodeFree_;
    nodeFree_ = idx;
}

void
ShardSlot::enqueue(std::uint32_t sid, Cycles arrival,
                   const OramTransaction &txn, std::uint16_t weight,
                   Cycles deadline_offset)
{
    if (sessionQueue_.size() <= sid)
        sessionQueue_.resize(static_cast<std::size_t>(sid) + 1, kNil);
    const std::uint32_t node = allocNode(arrival, txn);
    std::uint32_t q_idx = sessionQueue_[sid];
    if (q_idx == kNil) {
        // (Re)activate at the back of the round, so everyone already
        // waiting is served first: just before the last-served cursor,
        // or — when the last-served session left the list and the
        // cursor fell back to a stand-in that is still waiting — just
        // after the stand-in, taking over the cursor. (Joining before
        // a stand-in would pin it to the end of every scan, starving
        // it under closed-loop traffic.) Activation order is a pure
        // function of the enqueue sequence — worker-count independent.
        if (queueFree_ != kNil) {
            q_idx = queueFree_;
            queueFree_ = queuePool_[q_idx].next;
        } else {
            q_idx = static_cast<std::uint32_t>(queuePool_.size());
            queuePool_.emplace_back();
        }
        ActiveQueue &q = queuePool_[q_idx];
        q.sid = sid;
        q.head = q.tail = node;
        q.weight = std::max<std::uint16_t>(weight, 1);
        q.deadlineOffset = deadline_offset;
        if (activeCount_ == 0) {
            q.prev = q.next = q_idx;
            listCursor_ = q_idx;
        } else {
            const std::uint32_t next =
                cursorVacated_ ? queuePool_[listCursor_].next : listCursor_;
            const std::uint32_t prev = queuePool_[next].prev;
            q.prev = prev;
            q.next = next;
            queuePool_[prev].next = q_idx;
            queuePool_[next].prev = q_idx;
            if (cursorVacated_)
                listCursor_ = q_idx;
        }
        ++activeCount_;
        sessionQueue_[sid] = q_idx;
    } else {
        ActiveQueue &q = queuePool_[q_idx];
        tcoram_assert(nodePool_[q.tail].arrival <= arrival,
                      "per-session arrivals must be non-decreasing");
        nodePool_[q.tail].next = node;
        q.tail = node;
    }
    ++pending_;
}

std::uint32_t
ShardSlot::pick()
{
    View v(*this);
    const std::size_t k = policy_->pick(v);
    tcoram_assert(k < activeCount_, "dispatch policy picked position ", k,
                  " of ", activeCount_, " on shard ", shardId_);
    std::uint32_t idx = listCursor_;
    if (k != activeCount_ - 1) {
        idx = queuePool_[listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = queuePool_[idx].next;
    }
    listCursor_ = idx; // the cursor moves at pick time
    cursorVacated_ = false;
    return idx;
}

void
ShardSlot::popServed(std::uint32_t q_idx)
{
    ActiveQueue &q = queuePool_[q_idx];
    const std::uint32_t node = q.head;
    q.head = nodePool_[node].next;
    if (q.head == kNil)
        q.tail = kNil;
    freeNode(node);
    --pending_;
    if (q.head == kNil) {
        // Deactivate: unlink; the cursor falls back to the previous
        // entry (a stand-in) so the next scan continues from the same
        // place.
        sessionQueue_[q.sid] = kNil;
        if (activeCount_ == 1) {
            listCursor_ = kNil;
            cursorVacated_ = false;
        } else {
            queuePool_[q.prev].next = q.next;
            queuePool_[q.next].prev = q.prev;
            if (listCursor_ == q_idx) {
                listCursor_ = q.prev;
                cursorVacated_ = true;
            }
        }
        --activeCount_;
        q.next = queueFree_; // reuse the link as the freelist chain
        queueFree_ = q_idx;
    }
}

ShardSlot::ServeStatus
ShardSlot::serve(Served &out)
{
    if (heldQueue_ == kNil) {
        // Recovery slots owed by the previous serve fire before the
        // pick, so the policy sees the shard's true last completion.
        if (!enf_.payOwedSlots())
            return ServeStatus::Blocked;
        if (pending_ == 0)
            return ServeStatus::Idle;
        heldQueue_ = pick();
    }
    const ActiveQueue &q = queuePool_[heldQueue_];
    const Node &head = nodePool_[q.head];
    const auto c = enf_.serveBounded(head.arrival, head.txn);
    if (!c)
        return ServeStatus::Blocked;
    out = Served{q.sid, head.arrival, *c, head.txn.tag};
    popServed(heldQueue_);
    heldQueue_ = kNil;
    return ServeStatus::Done;
}

bool
ShardSlot::drain(Cycles t)
{
    tcoram_assert(idle(), "drain with transactions still queued on shard ",
                  shardId_);
    return enf_.drainBounded(t);
}

void
ShardSlot::saveState(ByteWriter &w) const
{
    enf_.saveState(w);
    w.u8(static_cast<std::uint8_t>(policy_->kind()));
    policy_->saveState(w);
    // Active sessions in scan order, the cursor's session last: that
    // order alone (not the pool indices) drives every later pick.
    w.u64(activeCount_);
    std::uint32_t held_pos = kNil;
    std::uint32_t idx = listCursor_;
    for (std::size_t k = 0; k < activeCount_; ++k) {
        idx = queuePool_[idx].next;
        if (idx == heldQueue_)
            held_pos = static_cast<std::uint32_t>(k);
        const ActiveQueue &q = queuePool_[idx];
        w.u32(q.sid);
        w.u32(q.weight);
        w.u64(q.deadlineOffset);
        std::uint64_t n = 0;
        for (std::uint32_t i = q.head; i != kNil; i = nodePool_[i].next)
            ++n;
        w.u64(n);
        for (std::uint32_t i = q.head; i != kNil; i = nodePool_[i].next) {
            const Node &node = nodePool_[i];
            tcoram_assert(node.txn.data.empty() && node.txn.out.empty(),
                          "span-carrying queued transactions are not "
                          "checkpointable on shard ", shardId_);
            w.u64(node.arrival);
            w.u8(static_cast<std::uint8_t>(node.txn.kind));
            w.u32(node.txn.sessionId);
            w.u64(node.txn.blockId);
            w.b(node.txn.isWrite);
            w.u64(node.txn.tag);
        }
    }
    w.u32(held_pos);
    w.b(cursorVacated_);
}

void
ShardSlot::restoreState(ByteReader &r)
{
    tcoram_assert(pending_ == 0 && heldQueue_ == kNil,
                  "restore must target an empty slot (shard ", shardId_, ")");
    enf_.restoreState(r);
    const auto kind = static_cast<DispatchPolicyKind>(r.u8());
    tcoram_assert(kind == policy_->kind(),
                  "snapshot dispatch policy mismatch on shard ", shardId_);
    policy_->restoreState(r);
    // Re-enqueueing in scan order rebuilds the identical activation
    // list: each session joins just before the cursor, i.e. at the
    // back of the round, and the cursor is the first joiner until the
    // last one served is re-linked as the final entry.
    cursorVacated_ = false;
    const std::uint64_t active = r.u64();
    std::vector<std::uint32_t> order;
    order.reserve(active);
    for (std::uint64_t k = 0; k < active && r.ok(); ++k) {
        const std::uint32_t sid = r.u32();
        const auto weight = static_cast<std::uint16_t>(r.u32());
        const Cycles deadline_offset = r.u64();
        const std::uint64_t n = r.u64();
        tcoram_assert(n > 0 || !r.ok(),
                      "snapshot activates an empty session queue");
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            const Cycles arrival = r.u64();
            OramTransaction txn;
            txn.kind = static_cast<OramTransaction::Kind>(r.u8());
            txn.sessionId = r.u32();
            txn.blockId = r.u64();
            txn.isWrite = r.b();
            txn.tag = r.u64();
            enqueue(sid, arrival, txn, weight, deadline_offset);
        }
        if (r.ok())
            order.push_back(sessionQueue_[sid]);
    }
    if (!order.empty())
        listCursor_ = order.back();
    const std::uint32_t held_pos = r.u32();
    if (held_pos != kNil) {
        tcoram_assert(held_pos < order.size(),
                      "snapshot held pick out of range on shard ", shardId_);
        heldQueue_ = order[held_pos];
    }
    cursorVacated_ = r.b();
}

} // namespace tcoram::timing
