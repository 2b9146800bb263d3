/**
 * @file
 * Fused-datapath tests: bit-identity of the deferred cross-stage
 * crypto batch against the per-tree immediate reference (saveState
 * images and served payloads), the H+2 crypto-call budget across
 * recursion depths together with the H+1 path touches per access,
 * the phase-split label helpers (load64le/store64le), the
 * fused FlatPositionMap::update, out-of-band self-healing of pending
 * deferred write-backs, a golden digest pinning the fused DRAM image
 * against a recorded value, and the allocation-free steady state of
 * the deferred segment list and background eviction (counting global
 * new/delete).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "crypto/sha256.hh"
#include "dram/faulty_memory.hh"
#include "oram/path_oram.hh"
#include "oram/position_map.hh"

// ---------------------------------------------------------------------
// Counting allocator hook (same pattern as test_pipeline.cc): every
// global new/delete in this binary is counted so a test can assert a
// code region performs zero heap allocations.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

static std::uint64_t
allocationCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tcoram {
namespace {

oram::OramConfig
recursiveConfig(unsigned levels, std::uint64_t blocks = 128)
{
    oram::OramConfig c;
    c.numBlocks = blocks;
    c.recursionLevels = levels;
    c.stashCapacity = 400;
    return c;
}

/** Drive @p o through a deterministic mixed workload (writes, reads,
 *  dummies) and return every served payload concatenated. */
std::vector<std::uint8_t>
driveMixed(oram::RecursivePathOram &o, const oram::OramConfig &c,
           BlockId blocks, int rounds)
{
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes);
    std::vector<std::uint8_t> served;
    auto fill = [&](std::uint8_t tag) {
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(tag * 131 + i);
    };
    for (BlockId id = 0; id < blocks; ++id) {
        fill(static_cast<std::uint8_t>(id));
        o.accessInto(id, oram::Op::Write, data, out);
    }
    Rng rng(2026);
    for (int round = 0; round < rounds; ++round) {
        const BlockId id = rng.nextBounded(blocks);
        if (rng.nextBool(0.4)) {
            fill(static_cast<std::uint8_t>(rng.next()));
            o.accessInto(id, oram::Op::Write, data, out);
        } else if (rng.nextBool(0.1)) {
            o.dummyAccess();
        } else {
            o.accessInto(id, oram::Op::Read, {}, out);
        }
        served.insert(served.end(), out.begin(), out.end());
    }
    return served;
}

std::vector<std::uint8_t>
imageOf(const oram::RecursivePathOram &o)
{
    ByteWriter w;
    o.saveState(w);
    return w.data();
}

// ---------------------------------------------------------------------
// Differential: deferred batched write-back vs immediate per-tree
// encrypt. Same seed, same access sequence, same datapath structure —
// the ONLY difference is when the CTR engine runs. CTR keystream is a
// pure function of (key, nonce), so the serialized state (every
// tree's DRAM ciphertexts, nonces, PRF counters, stash, maps) must be
// byte-identical, as must every served payload.
// ---------------------------------------------------------------------

TEST(FusedDatapath, DeferredMatchesImmediateBitForBit)
{
    for (unsigned levels : {0u, 2u}) {
        const oram::OramConfig c = recursiveConfig(levels);
        oram::RecursivePathOram fused(c, 909, crypto::CryptoBackend::Auto,
                                      oram::Datapath::Fused);
        oram::RecursivePathOram imm(c, 909, crypto::CryptoBackend::Auto,
                                    oram::Datapath::FusedImmediate);
        const auto served_fused = driveMixed(fused, c, 48, 1500);
        const auto served_imm = driveMixed(imm, c, 48, 1500);
        EXPECT_EQ(served_fused, served_imm) << "levels=" << levels;
        EXPECT_EQ(imageOf(fused), imageOf(imm)) << "levels=" << levels;
    }
}

// ---------------------------------------------------------------------
// The H+2 crypto budget, pinned across recursion depths: every
// logical access (real or dummy, first-touch or steady-state) costs
// exactly treeCount() + 1 batched engine calls — H+1 whole-path read
// decrypts plus ONE cross-stage write-back flush — and touches each
// of the H+1 trees' paths exactly once.
// ---------------------------------------------------------------------

/** Path accesses summed over every tree of @p o. */
std::uint64_t
pathTouches(const oram::RecursivePathOram &o)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < o.treeCount(); ++i)
        total += o.tree(i).accessCount();
    return total;
}

TEST(FusedDatapath, CryptoCallsPerAccessIsTreesPlusOne)
{
    for (unsigned levels : {0u, 1u, 2u, 3u}) {
        const oram::OramConfig c = recursiveConfig(levels, 256);
        oram::RecursivePathOram o(c, 31 + levels);
        ASSERT_EQ(o.treeCount(), levels + 1u);
        const std::uint64_t per_access = o.treeCount() + 1;

        std::vector<std::uint8_t> out(c.blockBytes);
        std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
        std::uint64_t before = o.cryptoCalls();
        std::uint64_t touches = pathTouches(o);
        for (int i = 0; i < 64; ++i)
            o.accessInto(static_cast<BlockId>(i % 96),
                         i % 2 == 0 ? oram::Op::Write : oram::Op::Read,
                         i % 2 == 0 ? std::span<const std::uint8_t>(data)
                                    : std::span<const std::uint8_t>{},
                         out);
        EXPECT_EQ(o.cryptoCalls() - before, 64u * per_access)
            << "levels=" << levels;
        EXPECT_EQ(pathTouches(o) - touches, 64u * (levels + 1))
            << "levels=" << levels;

        before = o.cryptoCalls();
        touches = pathTouches(o);
        for (int i = 0; i < 32; ++i)
            o.dummyAccess();
        EXPECT_EQ(o.cryptoCalls() - before, 32u * per_access)
            << "levels=" << levels << " (dummy)";
        EXPECT_EQ(pathTouches(o) - touches, 32u * (levels + 1))
            << "levels=" << levels << " (dummy)";
    }
}

// ---------------------------------------------------------------------
// Out-of-band consultations self-heal pending deferred write-backs:
// a direct position-map read between logical accesses (what
// checkInvariant does) must not decode stale ciphertext.
// ---------------------------------------------------------------------

TEST(FusedDatapath, InvariantHoldsAfterMixedLoad)
{
    const oram::OramConfig c = recursiveConfig(2);
    oram::RecursivePathOram o(c, 77);
    driveMixed(o, c, 48, 2000);
    std::vector<BlockId> ids(48);
    for (BlockId i = 0; i < 48; ++i)
        ids[i] = i;
    // checkInvariant consults the recursive position map (Stage::get,
    // which defers ITS write-back) between direct bucket unseals —
    // the epoch self-heal in readPath keeps every decode consistent.
    EXPECT_TRUE(o.dataOram().checkInvariant(ids));
    EXPECT_TRUE(o.dataOram().checkInvariant(ids)) << "re-entrant";
}

// ---------------------------------------------------------------------
// Satellite units: the fused position-map update and the label
// (de)serialization helpers.
// ---------------------------------------------------------------------

TEST(FlatPositionMap, UpdateSwapsInOneTouch)
{
    oram::FlatPositionMap m(8);
    m.set(3, 41);
    EXPECT_EQ(m.update(3, 99), 41u);
    EXPECT_EQ(m.get(3), 99u);
    // Must agree with the get+set decomposition.
    oram::FlatPositionMap ref(8);
    ref.set(3, 41);
    const Leaf old = ref.get(3);
    ref.set(3, 99);
    EXPECT_EQ(old, 41u);
    EXPECT_EQ(ref.get(3), m.get(3));
}

TEST(BitUtils, Load64Store64RoundTrip)
{
    std::uint8_t buf[16] = {};
    const std::uint64_t v = 0x0123456789abcdefULL;
    store64le(buf + 3, v);
    EXPECT_EQ(load64le(buf + 3), v);
    // Little-endian byte layout is part of the on-disk/in-tree label
    // format (Stage blocks), not just a round-trip property.
    EXPECT_EQ(buf[3], 0xefu);
    EXPECT_EQ(buf[10], 0x01u);
    EXPECT_EQ(buf[0], 0x00u);
    EXPECT_EQ(buf[11], 0x00u);
}

// ---------------------------------------------------------------------
// Golden DRAM image: a fixed-seed fused H=2 run through a fixed mix of
// reads, writes, dummies and background evictions must reproduce a
// pinned sha256 over every tree's (nonce, ciphertext) image, its stash
// ids and its PRF draw counters. Unlike the deferred-vs-immediate
// differential above, which compares two modes of the same build, this
// pins the datapath against a recorded value: any change to draw
// order, nonce assignment, eviction placement or the wire format
// shows up here.
// ---------------------------------------------------------------------

std::string
goldenImageDigest(const oram::RecursivePathOram &o)
{
    ByteWriter w;
    for (std::size_t t = 0; t < o.treeCount(); ++t) {
        const oram::PathOram &tree = o.tree(t);
        for (std::uint64_t b = 0; b < tree.config().numBuckets(); ++b) {
            const crypto::Ciphertext &ct = tree.bucketCiphertext(b);
            w.u64(ct.nonce);
            w.bytes(ct.data);
        }
        const std::vector<BlockId> ids = tree.stash().residentIds();
        w.u64(ids.size());
        for (const BlockId id : ids)
            w.u64(id);
        const oram::PathOram::DrawStats d = tree.drawStats();
        w.u64(d.nonces);
        w.u64(d.leaves);
        w.u64(d.initLeaves);
    }
    return crypto::toHex(crypto::Sha256::hash(w.data()));
}

/** The golden runs' fixed op mix: writes, reads, dummies and
 *  background evictions over every block id. */
void
driveGoldenMix(oram::RecursivePathOram &o, const oram::OramConfig &c)
{
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes);
    Rng rng(4099);
    std::uint64_t evict_g = 0;
    for (int i = 0; i < 1200; ++i) {
        const BlockId id = rng.nextBounded(c.numBlocks);
        switch (rng.nextBounded(8)) {
          case 0:
          case 1:
          case 2:
            for (std::size_t k = 0; k < data.size(); ++k)
                data[k] = static_cast<std::uint8_t>(i * 7 + k);
            o.accessInto(id, oram::Op::Write, data, out);
            break;
          case 3:
            o.dummyAccess();
            break;
          case 4:
            o.backgroundEvict(evict_g++);
            break;
          default:
            o.accessInto(id, oram::Op::Read, {}, out);
            break;
        }
    }
}

TEST(FusedDatapath, GoldenDramImageDigest)
{
    const oram::OramConfig c = recursiveConfig(2, 256);
    oram::RecursivePathOram o(c, 20260417, crypto::CryptoBackend::Auto,
                              oram::Datapath::Fused);
    ASSERT_EQ(o.treeCount(), 3u);
    driveGoldenMix(o, c);
    EXPECT_EQ(goldenImageDigest(o), "12e31b3a3463c23a587fa5eb41d78642e8ea3853d7be656b95cf46c15ae5beb0");
}

// The same pin over the verified read path: integrity on, and a seeded
// injector flipping ciphertext bytes in transit so verifiedReadPath
// detects, discards and re-reads. The digest adds the recovery
// counters, so a change to the retry loop, the injector's draw order
// or the verified unpack shows up here.
TEST(FusedDatapath, GoldenVerifiedReadDigest)
{
    const oram::OramConfig c = recursiveConfig(2, 256);
    oram::RecursivePathOram o(c, 20260417, crypto::CryptoBackend::Auto,
                              oram::Datapath::Fused);
    o.enableIntegrity(0x1d7e9, /*retry_budget=*/6);
    dram::FaultInjector inj(dram::FaultSpec::parse("flip@0.004#11"), 0);
    o.attachFaultInjector(&inj);
    driveGoldenMix(o, c);
    EXPECT_GT(o.retriesIssued(), 0u);
    EXPECT_GT(o.faultsRecovered(), 0u);
    EXPECT_LE(o.faultsRecovered(), o.faultsDetected());

    ByteWriter w;
    w.str(goldenImageDigest(o));
    w.u64(o.retriesIssued());
    w.u64(o.faultsDetected());
    EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(w.data())), "c3715c099437c07ef4507375609bac8836f73283ef7c3d967bb8f4ae2b9b814b");
}

// ---------------------------------------------------------------------
// Allocation-free steady state: once warm, the fused recursive access
// (including the deferred segment list and its flush) and the
// background eviction pass (evictPath over the shared path-index
// scratch) perform zero heap allocations.
// ---------------------------------------------------------------------

TEST(AllocationFree, FusedRecursiveSteadyStateAccess)
{
    const oram::OramConfig c = recursiveConfig(2, 256);
    oram::RecursivePathOram o(c, 55);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0xa5);
    Rng rng(9);
    std::uint64_t evict_g = 0;
    for (int i = 0; i < 400; ++i) {
        const BlockId id = rng.nextBounded(96);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
        if (i % 7 == 0)
            o.dummyAccess();
        if (i % 5 == 0)
            o.backgroundEvict(evict_g++);
    }

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 500; ++i) {
        const BlockId id = rng.nextBounded(96);
        if (i % 3 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
        if (i % 11 == 0)
            o.dummyAccess();
        if (i % 4 == 0)
            o.backgroundEvict(evict_g++);
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "fused recursive access allocated in steady state";
    EXPECT_GT(o.evictionCount(), 0u);
}

} // namespace
} // namespace tcoram
