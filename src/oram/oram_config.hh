/**
 * @file
 * Path ORAM geometry (paper §3, §9.1.2). Defaults mirror the paper:
 * Z = 3 blocks per bucket, 64 B data blocks, 3 levels of recursion
 * with 32 B recursive blocks. Capacity is configurable: benches use a
 * scaled-down tree, while paperConfig() reproduces the 4 GB ORAM whose
 * path moves 24.2 KB per access.
 *
 * OramConfig is a plain aggregate: the geometry accessors derive every
 * figure from the fields on each call, so a caller that edits a field
 * never sees a stale depth. They are defined inline here because the
 * datapath evaluates them on every path walk.
 */

#ifndef TCORAM_ORAM_ORAM_CONFIG_HH
#define TCORAM_ORAM_ORAM_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace tcoram::oram {

struct OramConfig
{
    /** Number of logical data blocks stored. */
    std::uint64_t numBlocks = 1ull << 16;
    /** Data block (cache line) size in bytes. */
    std::uint64_t blockBytes = 64;
    /** Blocks per bucket. */
    unsigned z = 3;
    /** Per-block header stored in a bucket (id + leaf). */
    std::uint64_t headerBytes = 16;
    /** Levels of position-map recursion. */
    unsigned recursionLevels = 3;
    /** Block size of the recursive (position map) ORAMs. */
    std::uint64_t recursiveBlockBytes = 32;
    /** Stash capacity in blocks (excluding the transient path). */
    std::size_t stashCapacity = 200;

    /**
     * Tree depth: number of levels is depth+1, leaves = 2^depth.
     * Leaves are chosen so that capacity ~= Z * buckets / 2 holds the
     * blocks comfortably: leaves = max(1, numBlocks / Z) rounded up to
     * a power of two.
     */
    unsigned
    treeDepth() const
    {
        const std::uint64_t want = numBlocks / z ? numBlocks / z : 1;
        return ceilLog2(roundUpPow2(want));
    }

    /** Total buckets in the tree. */
    std::uint64_t
    numBuckets() const
    {
        return (std::uint64_t{1} << (treeDepth() + 1)) - 1;
    }

    /** Leaves in the tree. */
    std::uint64_t
    numLeaves() const
    {
        return std::uint64_t{1} << treeDepth();
    }

    /** Serialized bucket size in bytes (plaintext payload). */
    std::uint64_t
    bucketBytes() const
    {
        return static_cast<std::uint64_t>(z) * (blockBytes + headerBytes);
    }

    /** Bytes read (or written) for one path access of this tree. */
    std::uint64_t pathBytes() const;

    /**
     * Geometry of each recursive position-map ORAM, outermost first.
     * Level i stores the position map of level i-1 packed into
     * recursiveBlockBytes blocks (8 B per leaf label).
     */
    std::vector<OramConfig> recursionChain() const;

    /**
     * Total bytes moved on/off chip per full access (path read + path
     * write, data ORAM plus every recursive ORAM). The paper reports
     * 24.2 KB for its 4 GB configuration.
     */
    std::uint64_t totalBytesPerAccess() const;

    /** Paper-scale configuration (§9.1.2): 4 GB capacity, 1 GB working set. */
    static OramConfig paperConfig();
    /** Scaled-down default used by the benchmark harness. */
    static OramConfig benchConfig();
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_ORAM_CONFIG_HH
