#include "oram/bucket_codec.hh"

#include "common/log.hh"
#include "oram/bucket.hh"

namespace tcoram::oram {

BucketCodec::BucketCodec(unsigned z, std::uint64_t block_bytes)
    : z_(z), blockBytes_(block_bytes)
{
    tcoram_assert(z_ > 0, "bucket codec needs at least one slot");
}

void
BucketCodec::encode(const Bucket &bucket, std::span<std::uint8_t> out) const
{
    tcoram_assert(bucket.slots().size() == z_, "bucket Z mismatch");
    tcoram_assert(out.size() == serializedBytes(),
                  "encode buffer size mismatch");
    for (unsigned i = 0; i < z_; ++i) {
        const BlockSlot &s = bucket.slots()[i];
        writeSlot(out, i, s.id, s.leaf, s.payload);
    }
}

void
BucketCodec::decode(std::span<const std::uint8_t> in, Bucket &bucket) const
{
    tcoram_assert(bucket.slots().size() == z_, "bucket Z mismatch");
    tcoram_assert(in.size() == serializedBytes(),
                  "decode buffer size mismatch");
    for (unsigned i = 0; i < z_; ++i) {
        const SlotView v = readSlot(in, i);
        BlockSlot &s = bucket.slots()[i];
        s.id = v.id;
        s.leaf = v.leaf;
        s.payload.assign(v.payload.begin(), v.payload.end());
    }
}

void
BucketCodec::encodePath(std::span<const Bucket> buckets,
                        std::span<std::uint8_t> out) const
{
    tcoram_assert(out.size() == pathBytes(
                                    static_cast<unsigned>(buckets.size())),
                  "encodePath buffer size mismatch");
    const std::uint64_t sb = serializedBytes();
    for (std::size_t i = 0; i < buckets.size(); ++i)
        encode(buckets[i], out.subspan(i * sb, sb));
}

void
BucketCodec::decodePath(std::span<const std::uint8_t> in,
                        std::span<Bucket> buckets) const
{
    tcoram_assert(in.size() == pathBytes(
                                   static_cast<unsigned>(buckets.size())),
                  "decodePath buffer size mismatch");
    const std::uint64_t sb = serializedBytes();
    for (std::size_t i = 0; i < buckets.size(); ++i)
        decode(in.subspan(i * sb, sb), buckets[i]);
}

} // namespace tcoram::oram
