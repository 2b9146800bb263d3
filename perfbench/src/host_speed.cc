#include "host_speed.hh"

#include <algorithm>

#include "common.hh"

namespace perfbench {

namespace {

constexpr std::size_t kSorted = std::size_t{1} << 18; // 1 MB
constexpr std::size_t kBlocks = std::size_t{3} << 20; // 24 MB
constexpr int kSearches = 6000;
constexpr int kUpdates = 3000;
/** Seconds of one sample on an idle core of a 4-vCPU Sapphire Rapids
 *  VM. */
constexpr double kIdleSampleS = 1.25e-3;

} // namespace

HostSpeed::HostSpeed() : sorted_(kSorted), blocks_(kBlocks, 1)
{
    for (std::size_t i = 0; i < kSorted; ++i)
        sorted_[i] = static_cast<std::uint32_t>(7 * i);
}

double
HostSpeed::sample()
{
    auto next = [this] {
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        return x_ >> 24;
    };
    // Bring the search array back into this core's cache first, so the
    // time does not depend on what the scenarios evicted.
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < kSorted; i += 16)
        s += sorted_[i];

    // Two kinds of work the library's hot loops do: branchy searches
    // over an L2-sized array, and read-modify-writes of 64-byte blocks
    // scattered over a working set as large as the ORAM trees'.
    const auto t0 = Clock::now();
    for (int i = 0; i < kSearches; ++i) {
        const auto key = static_cast<std::uint32_t>(next() % (7 * kSorted));
        s += static_cast<std::uint64_t>(
            std::lower_bound(sorted_.begin(), sorted_.end(), key) -
            sorted_.begin());
    }
    for (int i = 0; i < kUpdates; ++i) {
        std::uint64_t *block = &blocks_[(next() % (kBlocks / 8)) * 8];
        for (std::uint64_t w = 0; w < 8; ++w)
            block[w] = (block[w] ^ s) * 0xbf58476d1ce4e5b9ull + w;
        s += block[3];
    }
    const double took = secondsSince(t0);
    sink_ += s;
    return kIdleSampleS / took;
}

} // namespace perfbench
