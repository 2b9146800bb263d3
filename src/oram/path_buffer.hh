/**
 * @file
 * Per-ORAM-instance scratch arena. Every buffer a path access needs —
 * the path's bucket indices, the per-level plaintext buckets, the
 * contiguous serialized-path arena the batched CTR engine reads/writes,
 * the CTR segment and nonce scratch, the eviction sweep's level
 * buckets, and the physical-transaction trace — is allocated once here
 * and reused, so steady-state PathOram::access()/dummyAccess() perform
 * zero heap allocations. The stash's slot pool (oram/stash.hh) is the
 * remaining piece of the arena discipline.
 */

#ifndef TCORAM_ORAM_PATH_BUFFER_HH
#define TCORAM_ORAM_PATH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "crypto/ctr.hh"
#include "dram/memory_if.hh"
#include "oram/bucket.hh"
#include "oram/bucket_codec.hh"

namespace tcoram::oram {

/**
 * Record of the physical transactions one access generated. The
 * request vectors are reserved once (one read + one write per tree
 * level) and reset with clear(), which keeps their capacity.
 */
struct AccessTrace
{
    std::vector<dram::MemRequest> reads;
    std::vector<dram::MemRequest> writes;

    void reserve(std::size_t per_direction)
    {
        reads.reserve(per_direction);
        writes.reserve(per_direction);
    }

    /** Reset for the next access; keeps capacity. */
    void clear()
    {
        reads.clear();
        writes.clear();
    }

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &r : reads)
            total += r.bytes;
        for (const auto &w : writes)
            total += w.bytes;
        return total;
    }
};

/** Reusable buffers for one PathOram instance. */
struct PathBuffer
{
    /**
     * @param z bucket slots
     * @param block_bytes payload bytes per slot
     * @param levels tree levels (depth + 1), sizing the path arena
     * @param stash_capacity stash slot-pool size, sizing the eviction
     *        sweep scratch
     */
    PathBuffer(unsigned z, std::uint64_t block_bytes, unsigned levels,
               std::size_t stash_capacity)
        : scratch(z, block_bytes),
          plain(BucketCodec(z, block_bytes).serializedBytes()),
          pathPlain(BucketCodec(z, block_bytes).pathBytes(levels))
    {
        levelBuckets.reserve(levels);
        for (unsigned l = 0; l < levels; ++l)
            levelBuckets.emplace_back(z, block_bytes);
        pathIdx.resize(levels);
        segments.reserve(levels);
        nonces.resize(levels);
        levelCount.resize(levels);
        levelCursor.resize(levels);
        slotLevel.reserve(stash_capacity);
        sortedSlots.reserve(stash_capacity);
        pending.reserve(stash_capacity);
        placed.reserve(stash_capacity);
        trace.reserve(levels);
    }

    Bucket scratch;                   ///< one-bucket scratch (init path)
    std::vector<std::uint8_t> plain;  ///< serialized one-bucket scratch
    std::vector<std::uint8_t> pathPlain; ///< whole-path plaintext arena
    std::vector<Bucket> levelBuckets; ///< plaintext bucket per level

    /** Bucket index per level of the path being accessed, walked once
     *  by the read and reused by the write-back and the tag commit. */
    std::vector<std::uint64_t> pathIdx;
    Leaf pathLeaf = 0; ///< leaf pathIdx was walked for

    /** CTR segment list for the whole-path batched crypto call. */
    std::vector<crypto::CtrSegment> segments;
    /** Write-back nonces, drawn in one batched PRF call. */
    std::vector<std::uint64_t> nonces;

    // --- Eviction sweep scratch (bucketed by deepest legal level) ---
    std::vector<std::uint32_t> slotLevel;   ///< dl per resident slot
    std::vector<std::uint32_t> levelCount;  ///< residents per dl
    std::vector<std::uint32_t> levelCursor; ///< counting-sort cursors
    std::vector<std::uint32_t> sortedSlots; ///< pool indices, dl-desc
    std::vector<std::uint32_t> pending;     ///< overflow carry list
    std::vector<std::uint32_t> placed;      ///< slots to bulk-release

    AccessTrace trace;                ///< transactions of the last access
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_PATH_BUFFER_HH
