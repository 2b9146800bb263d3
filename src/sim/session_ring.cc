#include "sim/session_ring.hh"

namespace tcoram::sim {

SessionRing::SessionRing(std::size_t capacity)
    : sq_(capacity), cq_(capacity), window_(sq_.capacity(), 0)
{
}

std::optional<std::uint64_t>
SessionRing::trySubmit(std::uint32_t sid, Cycles arrival,
                       const timing::OramTransaction &txn)
{
    // The single backpressure bound gates on the retirement FENCE, not
    // the drain count: completions pop in shard-fold order, so a
    // producer that pops a few out-of-order completions and resubmits
    // can push drained well past the fence, and a drain-count bound
    // would then let token - fence exceed the retirement window (two
    // live tokens aliasing one window slot). Because fence <= drained,
    // this bound is strictly tighter than submitted - drained <
    // capacity, so it still implies a free submission slot (sq
    // occupancy <= in-flight) AND reserves a completion slot.
    if (submitted() - fence_.load(std::memory_order_relaxed) >=
        sq_.capacity())
        return std::nullopt;
    const std::uint64_t token = nextToken_;
    const bool ok = sq_.tryPush(Submission{token, sid, arrival, txn});
    tcoram_assert(ok, "submission ring full below the in-flight bound");
    ++nextToken_;
    return token;
}

bool
SessionRing::popCompletion(Completion &out)
{
    if (!cq_.tryPop(out))
        return false;
    ++drained_;
    // Tokens retire out of order across shards; mark the slot in the
    // capacity-sized window and advance the fence over every
    // consecutively-retired token. trySubmit's fence bound guarantees
    // token - fence <= capacity for every live token, so slots never
    // collide.
    const std::size_t mask = window_.size() - 1;
    std::uint64_t fence = fence_.load(std::memory_order_relaxed);
    tcoram_dassert(out.token > fence && out.token - fence <= window_.size(),
                   "completion token outside the retirement window");
    window_[out.token & mask] = 1;
    while (window_[(fence + 1) & mask]) {
        window_[(fence + 1) & mask] = 0;
        ++fence;
    }
    fence_.store(fence, std::memory_order_release);
    return true;
}

bool
SessionRing::popSubmission(Submission &out)
{
    return sq_.tryPop(out);
}

void
SessionRing::pushCompletion(const Completion &c)
{
    const bool ok = cq_.tryPush(c);
    tcoram_assert(ok, "completion ring full: in-flight bound violated");
}

void
SessionRing::saveState(ByteWriter &w) const
{
    tcoram_assert(sq_.size() == 0 && cq_.size() == 0,
                  "lane rings must be empty at a checkpoint");
    const std::uint64_t fence = fence_.load(std::memory_order_relaxed);
    w.u64(nextToken_);
    w.u64(drained_);
    w.u64(fence);
    // Tokens above the fence already retired out of order.
    const std::size_t mask = window_.size() - 1;
    std::vector<std::uint64_t> marked;
    for (std::uint64_t t = fence + 1; t < nextToken_; ++t)
        if (window_[t & mask])
            marked.push_back(t);
    w.u64(marked.size());
    for (const std::uint64_t t : marked)
        w.u64(t);
}

void
SessionRing::restoreState(ByteReader &r)
{
    tcoram_assert(sq_.size() == 0 && cq_.size() == 0 && nextToken_ == 1,
                  "restore must target a fresh lane ring");
    nextToken_ = r.u64();
    drained_ = r.u64();
    const std::uint64_t fence = r.u64();
    const std::uint64_t n = r.u64();
    const std::size_t mask = window_.size() - 1;
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::uint64_t t = r.u64();
        tcoram_assert(t > fence && t - fence <= window_.size(),
                      "snapshot retirement mark outside the window");
        window_[t & mask] = 1;
    }
    fence_.store(fence, std::memory_order_release);
}

} // namespace tcoram::sim
