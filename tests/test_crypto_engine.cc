/**
 * @file
 * Batched crypto engine tests: FIPS-197 known answers across every
 * available backend (scalar / T-table / AES-NI), differential fuzz of
 * the batched CTR against a faithful replay of the seed scalar CTR,
 * segment batching, batched PRF evaluation, the bucket wire-format
 * golden vector that pins ciphertext bit-compatibility across
 * backends, path-level encode/decode, and cross-backend equality of
 * whole ORAM DRAM images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "crypto/sha256.hh"
#include "oram/bucket.hh"
#include "oram/bucket_codec.hh"
#include "oram/path_oram.hh"
#include "oram/stash.hh"

namespace tcoram {
namespace {

using crypto::Block128;
using crypto::CryptoBackend;
using crypto::Key128;

std::vector<CryptoBackend>
availableBackends()
{
    std::vector<CryptoBackend> v = {CryptoBackend::Scalar,
                                    CryptoBackend::TTable};
    if (crypto::aesniAvailable())
        v.push_back(CryptoBackend::AesNi);
    return v;
}

/** The seed (pre-PR) CTR loop: per-block scalar AES, per-byte XOR. */
void
seedCtrReference(const crypto::Aes128 &aes, std::uint64_t nonce,
                 std::span<const std::uint8_t> in,
                 std::span<std::uint8_t> out)
{
    Block128 counter{};
    for (int i = 0; i < 8; ++i)
        counter[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
    std::uint64_t block_index = 0;
    std::size_t off = 0;
    while (off < in.size()) {
        for (int i = 0; i < 8; ++i)
            counter[8 + i] =
                static_cast<std::uint8_t>(block_index >> (8 * i));
        const Block128 ks = aes.encryptBlockScalar(counter);
        const std::size_t n = std::min<std::size_t>(16, in.size() - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
        off += n;
        ++block_index;
    }
}

TEST(CryptoEngine, Fips197AcrossBackends)
{
    // FIPS-197 Appendix C.1 vector, checked through the batched entry
    // point at sizes that exercise the AES-NI 8-block main loop, the
    // remainder loop, and the single-block path.
    Key128 key{};
    Block128 plain{};
    for (int i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        plain[i] = static_cast<std::uint8_t>(i * 0x11);
    }
    const Block128 expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    for (const auto be : availableBackends()) {
        const auto engine = crypto::makeCryptoEngine(key, be);
        for (const std::size_t n : {1u, 7u, 8u, 9u, 64u}) {
            std::vector<Block128> blocks(n, plain);
            engine->encryptBlocks(blocks);
            for (const auto &b : blocks)
                EXPECT_EQ(b, expect) << engine->name() << " n=" << n;
        }
    }
}

TEST(CryptoEngine, BatchedMatchesSingleBlock)
{
    const Key128 key = crypto::keyFromSeed(11);
    Rng rng(3);
    for (const auto be : availableBackends()) {
        const auto engine = crypto::makeCryptoEngine(key, be);
        std::vector<Block128> blocks(37);
        for (auto &b : blocks)
            for (auto &x : b)
                x = static_cast<std::uint8_t>(rng.next());
        std::vector<Block128> expect;
        for (const auto &b : blocks)
            expect.push_back(engine->encryptBlock(b));
        engine->encryptBlocks(blocks);
        EXPECT_EQ(blocks, expect) << engine->name();
    }
}

TEST(CryptoEngine, TTableMatchesScalarRounds)
{
    // Aes128::encryptBlock (T-tables) must equal the byte-wise
    // reference rounds for arbitrary inputs.
    const crypto::Aes128 aes(crypto::keyFromSeed(123));
    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        Block128 b;
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(aes.encryptBlock(b), aes.encryptBlockScalar(b));
    }
}

TEST(CryptoEngine, BackendKnobRoundTrip)
{
    EXPECT_EQ(crypto::parseCryptoBackend("scalar"), CryptoBackend::Scalar);
    EXPECT_EQ(crypto::parseCryptoBackend("ttable"), CryptoBackend::TTable);
    EXPECT_EQ(crypto::parseCryptoBackend("aesni"), CryptoBackend::AesNi);
    EXPECT_EQ(crypto::parseCryptoBackend("auto"), CryptoBackend::Auto);
    EXPECT_STREQ(crypto::backendName(CryptoBackend::TTable), "ttable");

    const Key128 key = crypto::keyFromSeed(5);
    EXPECT_STREQ(
        crypto::makeCryptoEngine(key, CryptoBackend::Scalar)->name(),
        "scalar");
    EXPECT_STREQ(
        crypto::makeCryptoEngine(key, CryptoBackend::TTable)->name(),
        "ttable");
    // Requesting AES-NI always yields a working engine: hardware when
    // available, the T-table fallback otherwise.
    const auto ni = crypto::makeCryptoEngine(key, CryptoBackend::AesNi);
    if (crypto::aesniAvailable())
        EXPECT_STREQ(ni->name(), "aesni");
    else
        EXPECT_STREQ(ni->name(), "ttable");
}

TEST(CryptoEngine, DefaultBackendPinnable)
{
    crypto::setDefaultCryptoBackend(CryptoBackend::Scalar);
    const crypto::CtrCipher pinned(crypto::keyFromSeed(6));
    EXPECT_STREQ(pinned.backendName(), "scalar");
    crypto::setDefaultCryptoBackend(CryptoBackend::Auto);
}

TEST(CtrBatched, DifferentialFuzzVsSeedScalar)
{
    // Random lengths and nonces: the batched CTR of every backend must
    // produce byte-identical output to the seed per-block scalar loop.
    const Key128 key = crypto::keyFromSeed(77);
    const crypto::Aes128 ref_aes(key);
    Rng rng(1234);
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(key, be);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t len = rng.nextBounded(600);
            const std::uint64_t nonce = rng.next();
            std::vector<std::uint8_t> msg(len);
            for (auto &b : msg)
                b = static_cast<std::uint8_t>(rng.next());
            std::vector<std::uint8_t> expect(len), got(len);
            seedCtrReference(ref_aes, nonce, msg, expect);
            cipher.xcrypt(nonce, msg, got);
            ASSERT_EQ(got, expect)
                << cipher.backendName() << " len=" << len;
        }
    }
}

TEST(CtrBatched, InPlaceMatchesOutOfPlace)
{
    const crypto::CtrCipher cipher(crypto::keyFromSeed(8));
    std::vector<std::uint8_t> msg(213);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> out(msg.size());
    cipher.xcrypt(99, msg, out);
    std::vector<std::uint8_t> inplace = msg;
    cipher.xcrypt(99, inplace, inplace);
    EXPECT_EQ(inplace, out);
}

TEST(CtrBatched, SegmentsMatchPerSegmentCalls)
{
    // One xcryptSegments call over N independently-nonced buffers must
    // equal N separate xcrypt calls — this is the whole-path batching
    // the ORAM read/write paths rely on.
    const Key128 key = crypto::keyFromSeed(21);
    const crypto::CtrCipher cipher(key, CryptoBackend::TTable);
    Rng rng(55);
    std::vector<std::vector<std::uint8_t>> ins(7), sep, batch;
    std::vector<std::uint64_t> nonces;
    for (auto &v : ins) {
        v.resize(17 + rng.nextBounded(300));
        for (auto &b : v)
            b = static_cast<std::uint8_t>(rng.next());
        nonces.push_back(rng.next());
    }
    sep = ins;
    batch = ins;
    for (std::size_t i = 0; i < ins.size(); ++i)
        cipher.xcrypt(nonces[i], sep[i], sep[i]);
    std::vector<crypto::CtrSegment> segs;
    for (std::size_t i = 0; i < ins.size(); ++i)
        segs.push_back({nonces[i], batch[i], batch[i]});
    cipher.xcryptSegments(segs);
    EXPECT_EQ(batch, sep);
}

TEST(CtrBatched, EmptySegmentsAreSafe)
{
    // Zero-length segments anywhere in the batch — including trailing,
    // where the naive keystream index would run past the end — must be
    // no-ops that don't disturb their neighbors.
    const crypto::CtrCipher cipher(crypto::keyFromSeed(22));
    std::vector<std::uint8_t> msg(40, 0xab), expect(40);
    cipher.xcrypt(5, msg, expect);
    std::vector<std::uint8_t> got = msg, empty;
    const std::vector<crypto::CtrSegment> segs = {
        {1, empty, empty}, {5, got, got}, {2, empty, empty}};
    cipher.xcryptSegments(segs);
    EXPECT_EQ(got, expect);
    cipher.xcryptSegments({}); // and a fully empty batch
}

TEST(PrfBatched, EvalManyMatchesEval)
{
    const crypto::Prf prf(crypto::keyFromSeed(31));
    std::vector<std::uint64_t> got(40);
    prf.evalMany(1000, got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], prf.eval(1000 + i));
}

TEST(PrfBatched, NextManyMatchesNext64Stream)
{
    crypto::Prf a(crypto::keyFromSeed(32)), b(crypto::keyFromSeed(32));
    std::vector<std::uint64_t> batch(25);
    a.nextMany(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i], b.next64());
    // Streams stay in sync afterwards.
    EXPECT_EQ(a.next64(), b.next64());
}

/** Deterministic test bucket: two real slots + one dummy, Z = 3. */
oram::Bucket
goldenBucket()
{
    oram::Bucket b(3, 64);
    oram::BlockSlot s;
    s.id = 0x0123456789abcdefull;
    s.leaf = 42;
    s.payload.resize(64);
    for (int i = 0; i < 64; ++i)
        s.payload[i] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(b.insert(s));
    s.id = 7;
    s.leaf = 0xfedcba98ull;
    for (int i = 0; i < 64; ++i)
        s.payload[i] = static_cast<std::uint8_t>(255 - i);
    EXPECT_TRUE(b.insert(s));
    return b;
}

TEST(BucketWireFormat, GoldenVectorAcrossBackends)
{
    // Pins the serialized-bucket CTR ciphertext bit-for-bit: the same
    // bucket, key, and nonce must produce this exact ciphertext under
    // every backend, today and after any future crypto change. (The
    // seed scalar implementation produced exactly these bytes.)
    const oram::Bucket bucket = goldenBucket();
    const auto plain = bucket.serialize();
    const std::uint64_t nonce = 0x0011223344556677ull;
    const char *expect_sha =
        "05c727e60c56f9c858c24d95d010491ed964535090962cde08c889efe4357f7c";
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(crypto::keyFromSeed(0xdeadbeef), be);
        const auto ct = cipher.encrypt(plain, nonce);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(ct.data)), expect_sha)
            << cipher.backendName();
        // And the inverse direction round-trips.
        EXPECT_EQ(cipher.decrypt(ct), plain) << cipher.backendName();
    }
}

TEST(PathCodec, EncodeDecodePathRoundTrip)
{
    const unsigned levels = 5;
    oram::BucketCodec codec(3, 64);
    std::vector<oram::Bucket> path, decoded;
    Rng rng(17);
    for (unsigned l = 0; l < levels; ++l) {
        oram::Bucket b(3, 64);
        oram::BlockSlot s;
        s.id = l + 1;
        s.leaf = rng.next();
        s.payload.resize(64);
        for (auto &x : s.payload)
            x = static_cast<std::uint8_t>(rng.next());
        EXPECT_TRUE(b.insert(s));
        path.push_back(b);
        decoded.emplace_back(3, 64);
    }

    std::vector<std::uint8_t> arena(codec.pathBytes(levels));
    codec.encodePath(path, arena);

    // Path layout is exactly the per-bucket layout, concatenated.
    for (unsigned l = 0; l < levels; ++l) {
        std::vector<std::uint8_t> one(codec.serializedBytes());
        codec.encode(path[l], one);
        EXPECT_TRUE(std::equal(one.begin(), one.end(),
                               arena.begin() + l * codec.serializedBytes()))
            << "level " << l;
    }

    codec.decodePath(arena, decoded);
    for (unsigned l = 0; l < levels; ++l) {
        for (unsigned i = 0; i < 3; ++i) {
            EXPECT_EQ(decoded[l].slots()[i].id, path[l].slots()[i].id);
            EXPECT_EQ(decoded[l].slots()[i].leaf, path[l].slots()[i].leaf);
            EXPECT_EQ(decoded[l].slots()[i].payload,
                      path[l].slots()[i].payload);
        }
    }
}

TEST(PathCodec, SlotWriterAndReaderMatchEncodeDecode)
{
    // The slot reader/writers are what the ORAM's path unpack and pack
    // run over the path arena; encode/decode are what Bucket uses. On
    // a bucket mixing real and dummy slots both must agree byte for
    // byte, so the wire layout has one definition.
    const unsigned z = 4;
    const std::uint64_t bb = 48;
    oram::BucketCodec codec(z, bb);
    oram::Bucket b(z, bb);
    Rng rng(23);
    for (const unsigned i : {0u, 2u}) {
        oram::BlockSlot &s = b.slots()[i];
        s.id = 100 + i;
        s.leaf = rng.next();
        for (auto &x : s.payload)
            x = static_cast<std::uint8_t>(rng.next());
    }
    ASSERT_TRUE(b.slots()[1].isDummy());
    ASSERT_TRUE(b.slots()[3].isDummy());

    std::vector<std::uint8_t> encoded(codec.serializedBytes());
    codec.encode(b, encoded);

    // Writers -> same bytes as encode (dummies: id kInvalidId, leaf 0,
    // zero payload). Start from garbage so every byte is written.
    std::vector<std::uint8_t> written(codec.serializedBytes(), 0xcc);
    for (unsigned i = 0; i < z; ++i) {
        const oram::BlockSlot &s = b.slots()[i];
        if (s.isDummy())
            codec.writeDummySlot(written, i);
        else
            codec.writeSlot(written, i, s.id, s.leaf, s.payload);
    }
    EXPECT_EQ(written, encoded);

    // Reader over encode's bytes -> the bucket's slots.
    for (unsigned i = 0; i < z; ++i) {
        const oram::BucketCodec::SlotView v = codec.readSlot(encoded, i);
        const oram::BlockSlot &s = b.slots()[i];
        EXPECT_EQ(v.id, s.id) << "slot " << i;
        EXPECT_EQ(v.isDummy(), s.isDummy()) << "slot " << i;
        EXPECT_EQ(v.leaf, s.leaf) << "slot " << i;
        EXPECT_TRUE(std::equal(v.payload.begin(), v.payload.end(),
                               s.payload.begin(), s.payload.end()))
            << "slot " << i;
    }

    // decode of the writers' bytes -> the same bucket.
    oram::Bucket back(z, bb);
    codec.decode(written, back);
    for (unsigned i = 0; i < z; ++i) {
        EXPECT_EQ(back.slots()[i].id, b.slots()[i].id);
        EXPECT_EQ(back.slots()[i].leaf, b.slots()[i].leaf);
        EXPECT_EQ(back.slots()[i].payload, b.slots()[i].payload);
    }

    // Over a path arena, level l's slot s is slot l * z + s.
    std::vector<std::uint8_t> arena(codec.pathBytes(3), 0);
    codec.writeSlot(arena, 2 * z + 1, 7, 9, b.slots()[0].payload);
    std::vector<std::uint8_t> one(codec.serializedBytes());
    std::copy_n(arena.begin() + 2 * codec.serializedBytes(), one.size(),
                one.begin());
    EXPECT_EQ(codec.readSlot(one, 1).id, 7u);
    EXPECT_EQ(codec.readSlot(arena, 2 * z + 1).leaf, 9u);
}

TEST(PathOramCrossBackend, IdenticalDramImages)
{
    // The whole functional ORAM must be backend-transparent: identical
    // DRAM images (every bucket ciphertext) after an identical access
    // sequence under pinned scalar vs fastest-available backends.
    oram::OramConfig c;
    c.numBlocks = 256;
    c.recursionLevels = 0;
    c.stashCapacity = 400;

    auto run = [&](CryptoBackend be) {
        auto map = std::make_unique<oram::FlatPositionMap>(c.numBlocks);
        auto o = std::make_unique<oram::PathOram>(c, *map, 4242, 0, be);
        std::vector<std::uint8_t> out(c.blockBytes);
        std::vector<std::uint8_t> data(c.blockBytes);
        Rng rng(99);
        for (int i = 0; i < 120; ++i) {
            const BlockId id = rng.nextBounded(64);
            for (auto &x : data)
                x = static_cast<std::uint8_t>(rng.next());
            if (i % 3 == 0)
                o->accessInto(id, oram::Op::Write, data, out);
            else
                o->accessInto(id, oram::Op::Read, {}, out);
        }
        std::vector<crypto::Ciphertext> image;
        for (std::uint64_t i = 0; i < c.numBuckets(); ++i)
            image.push_back(o->bucketCiphertext(i));
        // Keep the position map alive until the image is captured.
        return image;
    };

    const auto scalar_image = run(CryptoBackend::Scalar);
    for (const auto be : availableBackends()) {
        if (be == CryptoBackend::Scalar)
            continue;
        EXPECT_EQ(run(be), scalar_image)
            << "backend " << crypto::backendName(be);
    }
}

TEST(StashSweep, ReleaseManyCompactsStably)
{
    oram::Stash st(8);
    for (BlockId id = 0; id < 6; ++id) {
        const std::uint8_t payload[] = {static_cast<std::uint8_t>(id)};
        st.put(id, id * 10, payload);
    }
    // Release the pool slots holding ids 1 and 4.
    std::vector<std::uint32_t> victims;
    for (const std::uint32_t idx : st.activeIndices())
        if (st.poolSlot(idx).id == 1 || st.poolSlot(idx).id == 4)
            victims.push_back(idx);
    ASSERT_EQ(victims.size(), 2u);
    st.releaseMany(victims);

    EXPECT_EQ(st.size(), 4u);
    EXPECT_FALSE(st.contains(1));
    EXPECT_FALSE(st.contains(4));
    for (BlockId id : {0u, 2u, 3u, 5u})
        EXPECT_TRUE(st.contains(id));
    // Released slots are reusable.
    const std::uint8_t payload[] = {9};
    st.put(100, 1, payload);
    EXPECT_EQ(st.size(), 5u);
}

} // namespace
} // namespace tcoram
