/**
 * @file
 * Per-ORAM-instance scratch arena. Every buffer a path access needs —
 * the path's bucket indices, the contiguous serialized-path arena the
 * batched CTR engine reads/writes, the CTR segment and nonce scratch,
 * the eviction sweep's sort scratch, and the physical-transaction
 * trace — is allocated once here and reused, so steady-state
 * PathOram::access()/dummyAccess() perform zero heap allocations. The
 * stash's slot pool (oram/stash.hh) is the remaining piece of the
 * arena discipline.
 *
 * The path arena is the only plaintext staging between the CTR pass
 * and the stash: a read unpacks its real slots straight into the stash
 * and a write-back packs the stash straight into it (BucketCodec's
 * slot reader and writers), with no per-level Bucket copies.
 */

#ifndef TCORAM_ORAM_PATH_BUFFER_HH
#define TCORAM_ORAM_PATH_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "crypto/ctr.hh"
#include "dram/memory_if.hh"
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
        : pathPlain(BucketCodec(z, block_bytes).pathBytes(levels))
    {
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

    /** Whole-path plaintext, level l's bucket at l * serializedBytes(). */
    std::vector<std::uint8_t> pathPlain;

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
