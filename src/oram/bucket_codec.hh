/**
 * @file
 * Bucket (de)serialization, split out of the bucket/path-ORAM classes
 * so the wire layout lives in exactly one place and both directions
 * can run over caller-owned buffers. The layout is fixed-size: Z
 * repetitions of [8 B id | 8 B leaf | blockBytes payload], dummies
 * included, so every sealed bucket is indistinguishable by length.
 *
 * The slot reader and writers (readSlot/writeSlot/writeDummySlot) are
 * the layout's only definition: encode/decode run them over a Bucket,
 * and PathOram runs them directly over its whole-path plaintext arena
 * — unpacking each decrypted path's real slots straight into the
 * stash and packing the stash straight back — so the hot path stages
 * nothing through Bucket objects.
 */

#ifndef TCORAM_ORAM_BUCKET_CODEC_HH
#define TCORAM_ORAM_BUCKET_CODEC_HH

#include <cstdint>
#include <cstring>
#include <span>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace tcoram::oram {

class Bucket;

class BucketCodec
{
  public:
    /** Per-slot header: 8-byte id + 8-byte leaf, little-endian. */
    static constexpr std::uint64_t kHeaderBytes = 16;

    BucketCodec(unsigned z, std::uint64_t block_bytes);

    unsigned z() const { return z_; }
    std::uint64_t blockBytes() const { return blockBytes_; }

    /** Serialized size of one slot: header plus payload. */
    std::uint64_t slotBytes() const { return kHeaderBytes + blockBytes_; }

    /** Fixed serialized size of one bucket. */
    std::uint64_t serializedBytes() const { return z_ * slotBytes(); }

    /** One decoded slot; the payload views the serialized bytes. */
    struct SlotView
    {
        BlockId id;
        Leaf leaf;
        std::span<const std::uint8_t> payload;

        bool isDummy() const { return id == kInvalidId; }
    };

    /**
     * Slot accessors over any serialized run of slots — one bucket or
     * a whole path, where slot @p i sits at byte i * slotBytes() (a
     * path's level l, slot s is slot l * z() + s).
     */
    SlotView
    readSlot(std::span<const std::uint8_t> in, std::size_t i) const
    {
        const std::span<const std::uint8_t> slot =
            in.subspan(i * slotBytes(), slotBytes());
        return {load64le(slot.data()), load64le(slot.data() + 8),
                slot.subspan(kHeaderBytes)};
    }

    /** Write a real slot; @p payload must be exactly blockBytes(). */
    void
    writeSlot(std::span<std::uint8_t> out, std::size_t i, BlockId id,
              Leaf leaf, std::span<const std::uint8_t> payload) const
    {
        const std::span<std::uint8_t> slot =
            out.subspan(i * slotBytes(), slotBytes());
        tcoram_assert(payload.size() == blockBytes_,
                      "slot payload size mismatch");
        store64le(slot.data(), id);
        store64le(slot.data() + 8, leaf);
        std::memcpy(slot.data() + kHeaderBytes, payload.data(), blockBytes_);
    }

    /** Write a dummy slot: id kInvalidId, leaf 0, zero payload. */
    void
    writeDummySlot(std::span<std::uint8_t> out, std::size_t i) const
    {
        const std::span<std::uint8_t> slot =
            out.subspan(i * slotBytes(), slotBytes());
        store64le(slot.data(), kInvalidId);
        store64le(slot.data() + 8, 0);
        std::memset(slot.data() + kHeaderBytes, 0, blockBytes_);
    }

    /**
     * Serialize @p bucket into @p out (exactly serializedBytes()).
     * Performs no heap allocation.
     */
    void encode(const Bucket &bucket, std::span<std::uint8_t> out) const;

    /**
     * Rebuild @p bucket from @p in (exactly serializedBytes()),
     * reusing the bucket's existing slot storage: no heap allocation
     * once the bucket's payload buffers have their steady-state
     * capacity.
     */
    void decode(std::span<const std::uint8_t> in, Bucket &bucket) const;

    /** Serialized size of a whole path of @p levels buckets. */
    std::uint64_t
    pathBytes(unsigned levels) const
    {
        return levels * serializedBytes();
    }

    /**
     * Serialize every bucket of a path into @p out, level i at byte
     * offset i * serializedBytes(). Laying the plaintexts contiguously
     * is what lets the ORAM encrypt a whole path with one batched CTR
     * call. @p out must be exactly pathBytes(buckets.size()).
     */
    void encodePath(std::span<const Bucket> buckets,
                    std::span<std::uint8_t> out) const;

    /** Inverse of encodePath; rebuilds every level's bucket in place. */
    void decodePath(std::span<const std::uint8_t> in,
                    std::span<Bucket> buckets) const;

  private:
    unsigned z_;
    std::uint64_t blockBytes_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_BUCKET_CODEC_HH
