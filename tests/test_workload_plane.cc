/**
 * @file
 * Workload plane tests: the WorkloadSource registry and spec parser,
 * per-rank generator determinism under interleaving, the versioned
 * binary op-trace format (round-trip + rejection), KV-over-ORAM block
 * packing (inline/spill round trips, probing, updates, misses, failed
 * puts), the KV-serving harness's pinned streams, worker-count
 * bit-identity and freshness oracle, op-stream replay through
 * RecoveryRun's workload backlog (synthetic-vs-recorded-trace
 * identity, the reported backlog), the Daly checkpoint method driving
 * RecoveryRun's snapshot chain, and the SystemConfig / stat-dump
 * plumbing around all of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "sim/kv_backend.hh"
#include "sim/kv_serving.hh"
#include "sim/recovery_run.hh"
#include "sim/stat_dump.hh"
#include "sim/system_config.hh"
#include "workload/op_trace.hh"
#include "workload/workload_source.hh"

using namespace tcoram;
using workload::WorkloadOp;
using workload::WorkloadOpKind;
using workload::WorkloadParams;

namespace {

std::string
tmpPath(const std::string &name)
{
    return "test_workload_plane_" + name;
}

/** Pull rank @p rank of a fresh source to End (capped). */
std::vector<WorkloadOp>
pullRank(workload::WorkloadSource &src, std::uint32_t rank,
         std::size_t cap = 100'000)
{
    std::vector<WorkloadOp> out;
    while (out.size() < cap) {
        const WorkloadOp op = src.getNext(rank);
        out.push_back(op);
        if (op.kind == WorkloadOpKind::End)
            break;
    }
    return out;
}

WorkloadParams
kvParams()
{
    WorkloadParams p;
    p.method = "kv";
    p.ranks = 3;
    p.opsPerRank = 40;
    p.keySpace = 64;
    p.zipfTheta = 0.9;
    p.getFraction = 0.6;
    p.scanFraction = 0.2;
    p.scanLen = 4;
    p.thinkCycles = 50;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Registry + spec parsing

TEST(WorkloadRegistry, ListsBuiltinsSorted)
{
    const auto methods = workload::WorkloadRegistry::instance().methods();
    EXPECT_TRUE(std::is_sorted(methods.begin(), methods.end()));
    for (const char *m : {"daly", "kv", "synthetic", "trace"}) {
        EXPECT_TRUE(workload::WorkloadRegistry::instance().contains(m))
            << m;
        EXPECT_NE(std::find(methods.begin(), methods.end(), m),
                  methods.end());
    }
    EXPECT_FALSE(
        workload::WorkloadRegistry::instance().contains("nope"));
}

TEST(WorkloadRegistryDeath, UnknownMethodIsFatal)
{
    WorkloadParams p;
    p.method = "definitely-not-registered";
    EXPECT_DEATH({ auto s = workload::loadWorkload(p); }, "unknown");
}

TEST(WorkloadSpec, ParsesMethodAndKeys)
{
    const WorkloadParams p = workload::parseWorkloadSpec(
        "kv:seed=7,ranks=3,ops=10,keys=100,theta=0.5,get=0.7,scan=0.1,"
        "scanlen=5,value=32,think=100");
    EXPECT_EQ(p.method, "kv");
    EXPECT_EQ(p.seed, 7u);
    EXPECT_EQ(p.ranks, 3u);
    EXPECT_EQ(p.opsPerRank, 10u);
    EXPECT_EQ(p.keySpace, 100u);
    EXPECT_DOUBLE_EQ(p.zipfTheta, 0.5);
    EXPECT_DOUBLE_EQ(p.getFraction, 0.7);
    EXPECT_DOUBLE_EQ(p.scanFraction, 0.1);
    EXPECT_EQ(p.scanLen, 5u);
    EXPECT_EQ(p.valueBytes, 32u);
    EXPECT_EQ(p.thinkCycles, 100u);
}

TEST(WorkloadSpec, BareMethodAndDalyKeys)
{
    EXPECT_EQ(workload::parseWorkloadSpec("synthetic").method,
              "synthetic");
    const WorkloadParams d = workload::parseWorkloadSpec(
        "daly:mtti=1e6,delta=5000,opcycles=100");
    EXPECT_DOUBLE_EQ(d.mttiCycles, 1e6);
    EXPECT_EQ(d.checkpointCycles, 5000u);
    EXPECT_EQ(d.opCycles, 100u);
}

TEST(WorkloadSpecDeath, RejectsBadSpecs)
{
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:bogus=1"); },
        "bogus");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:seed=abc"); },
        "unsigned integer");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:ranks=0"); },
        "ranks");
    EXPECT_DEATH({ auto p = workload::parseWorkloadSpec(""); },
                 "method");
}

// ---------------------------------------------------------------------
// Generator contracts

TEST(WorkloadDeterminism, RankStreamsSurviveInterleaving)
{
    for (const char *method : {"synthetic", "kv", "daly"}) {
        WorkloadParams p = kvParams();
        p.method = method;
        // Reference: pull each rank to End, one rank at a time.
        auto ref_src = workload::loadWorkload(p);
        std::vector<std::vector<WorkloadOp>> ref;
        for (std::uint32_t r = 0; r < p.ranks; ++r)
            ref.push_back(pullRank(*ref_src, r));
        // Adversarial interleaving: round-robin ranks 2,0,1,2,0,1,...
        auto mixed_src = workload::loadWorkload(p);
        std::vector<std::vector<WorkloadOp>> mixed(p.ranks);
        std::vector<bool> ended(p.ranks, false);
        while (!std::all_of(ended.begin(), ended.end(),
                            [](bool b) { return b; })) {
            for (const std::uint32_t r : {2u, 0u, 1u}) {
                if (ended[r])
                    continue;
                const WorkloadOp op = mixed_src->getNext(r);
                mixed[r].push_back(op);
                if (op.kind == WorkloadOpKind::End)
                    ended[r] = true;
            }
        }
        for (std::uint32_t r = 0; r < p.ranks; ++r)
            EXPECT_EQ(ref[r], mixed[r]) << method << " rank " << r;
    }
}

TEST(WorkloadDeterminism, EndIsTerminalAndIdempotent)
{
    WorkloadParams p = kvParams();
    p.opsPerRank = 3;
    auto src = workload::loadWorkload(p);
    auto ops = pullRank(*src, 0);
    ASSERT_FALSE(ops.empty());
    EXPECT_EQ(ops.back().kind, WorkloadOpKind::End);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(src->getNext(0).kind, WorkloadOpKind::End);
}

TEST(WorkloadDeterminism, SeedsSeparateRanks)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const auto r0 = pullRank(*src, 0);
    const auto r1 = pullRank(*src, 1);
    EXPECT_NE(r0, r1); // astronomically unlikely to collide
}

TEST(WorkloadBurstDepth, ThinkTimeBoundsTheBurst)
{
    WorkloadParams p = kvParams();
    p.thinkCycles = 50; // think ops interleave: short bursts
    const std::uint32_t with_think =
        workload::observedBurstDepth(p, 1u << 20);
    p.thinkCycles = 0; // open loop: the whole rank is one burst
    const std::uint32_t open = workload::observedBurstDepth(p, 1u << 20);
    EXPECT_GE(with_think, 1u);
    EXPECT_GT(open, with_think);
    // The cap clamps.
    EXPECT_EQ(workload::observedBurstDepth(p, 2), 2u);
}

// ---------------------------------------------------------------------
// Op-trace format

TEST(OpTrace, RoundTripsThroughBytesAndFiles)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const workload::OpTrace trace = workload::recordOpTrace(*src);
    EXPECT_EQ(trace.rankCount(), p.ranks);

    const auto bytes = workload::encodeOpTrace(trace);
    workload::OpTrace back;
    EXPECT_EQ(workload::decodeOpTrace(bytes, back), "");
    EXPECT_EQ(trace, back);

    const std::string path = tmpPath("roundtrip.trace");
    EXPECT_EQ(workload::writeOpTrace(path, trace), "");
    workload::OpTrace from_file;
    EXPECT_EQ(workload::readOpTrace(path, from_file), "");
    EXPECT_EQ(trace, from_file);
    std::remove(path.c_str());
}

TEST(OpTrace, ReplaysRecordedStream)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const workload::OpTrace trace = workload::recordOpTrace(*src);
    const std::string path = tmpPath("replay.trace");
    ASSERT_EQ(workload::writeOpTrace(path, trace), "");

    WorkloadParams rp;
    rp.method = "trace";
    rp.path = path;
    auto replay = workload::loadWorkload(rp);
    EXPECT_EQ(replay->ranks(), p.ranks);
    auto fresh = workload::loadWorkload(p);
    for (std::uint32_t r = 0; r < p.ranks; ++r)
        EXPECT_EQ(pullRank(*replay, r), pullRank(*fresh, r))
            << "rank " << r;
    std::remove(path.c_str());
}

TEST(OpTrace, RejectsCorruptInputs)
{
    WorkloadParams p = kvParams();
    p.ranks = 2;
    p.opsPerRank = 5;
    auto src = workload::loadWorkload(p);
    const auto bytes =
        workload::encodeOpTrace(workload::recordOpTrace(*src));
    workload::OpTrace out;

    // Truncation at every interesting boundary fails, never crashes.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{11},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(keep));
        EXPECT_NE(workload::decodeOpTrace(cut, out), "") << keep;
    }

    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_NE(workload::decodeOpTrace(bad_magic, out).find("magic"),
              std::string::npos);

    auto bad_version = bytes;
    bad_version[4] = 99;
    EXPECT_NE(workload::decodeOpTrace(bad_version, out).find("version"),
              std::string::npos);

    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_NE(workload::decodeOpTrace(trailing, out).find("trailing"),
              std::string::npos);

    auto bad_kind = bytes;
    bad_kind[20] = 0x7f; // first record's kind byte (12-byte header
                         // + 8-byte rank-0 op count before it)
    EXPECT_NE(workload::decodeOpTrace(bad_kind, out).find("kind"),
              std::string::npos);

    EXPECT_NE(workload::readOpTrace(tmpPath("missing.trace"), out), "");
}

// ---------------------------------------------------------------------
// KV block packing

TEST(KvBackend, GeometryAndCodec)
{
    sim::KvConfig cfg;
    cfg.blockBytes = 64;
    cfg.homeSlots = 32;
    cfg.spillPerSlot = 2;
    EXPECT_EQ(cfg.inlineCapacity(), 51u);
    EXPECT_EQ(cfg.maxValueBytes(), 51u + 128u);
    EXPECT_EQ(cfg.totalBlocks(), 32u * 3u);

    sim::KVBackend be(cfg);
    EXPECT_EQ(be.spillBlocksFor(0), 0u);
    EXPECT_EQ(be.spillBlocksFor(51), 0u);
    EXPECT_EQ(be.spillBlocksFor(52), 1u);
    EXPECT_EQ(be.spillBlocksFor(51 + 64), 1u);
    EXPECT_EQ(be.spillBlocksFor(51 + 65), 2u);

    // Home and spill ids never collide across the table.
    std::vector<std::uint64_t> ids;
    for (std::uint64_t s = 0; s < cfg.homeSlots; ++s) {
        ids.push_back(be.homeBlockId(s));
        for (std::uint32_t j = 0; j < cfg.spillPerSlot; ++j)
            ids.push_back(be.spillBlockId(s, j));
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

    std::vector<std::uint8_t> value(40);
    for (std::size_t i = 0; i < value.size(); ++i)
        value[i] = static_cast<std::uint8_t>(i * 3);
    std::vector<std::uint8_t> block(cfg.blockBytes);
    be.encodeRecord(block, 0xdeadbeefull, value);
    const auto h = be.decodeHeader(block);
    EXPECT_TRUE(h.used);
    EXPECT_EQ(h.key, 0xdeadbeefull);
    EXPECT_EQ(h.len, 40u);
}

TEST(KvBackend, PutGetRoundTripsAcrossSpills)
{
    oram::OramConfig ocfg;
    ocfg.numBlocks = 1 << 10;
    ocfg.recursionLevels = 2;
    ocfg.stashCapacity = 400;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::FunctionalOramDevice dev(ocfg, mem, rng, /*key_seed=*/3);

    sim::KvConfig kcfg;
    kcfg.homeSlots = 64;
    kcfg.spillPerSlot = 2;
    sim::KVBackend be(kcfg);
    sim::KvOpCursor cur(be);
    Cycles now = 0;

    // Sizes straddling the inline boundary and both spill blocks.
    const std::vector<std::uint32_t> sizes{1,  50, 51, 52,
                                           64, 115, 116, 179};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint64_t key = 1000 + i;
        std::vector<std::uint8_t> value(sizes[i]);
        for (std::size_t j = 0; j < value.size(); ++j)
            value[j] = static_cast<std::uint8_t>(
                mixSeed(key, j));
        cur.beginPut(key, value);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_FALSE(cur.failed());

        cur.beginGet(key);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_TRUE(cur.hit()) << sizes[i];
        EXPECT_EQ(cur.value(), value) << sizes[i];
    }

    // Update in place with a different length; the new len wins.
    std::vector<std::uint8_t> shorter(20, 0x5a);
    cur.beginPut(1007, shorter);
    sim::kvRunSync(cur, dev, 0, now);
    cur.beginGet(1007);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_TRUE(cur.hit());
    EXPECT_EQ(cur.value(), shorter);
    EXPECT_GE(cur.stats().updates, 1u);

    // Absent key misses.
    cur.beginGet(99'999);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_FALSE(cur.hit());
    EXPECT_GE(cur.stats().misses, 1u);
}

TEST(KvBackend, ProbesThroughCollisionsAndFailsPastTheLimit)
{
    oram::OramConfig ocfg;
    ocfg.numBlocks = 1 << 10;
    ocfg.recursionLevels = 2;
    ocfg.stashCapacity = 400;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(13);
    oram::FunctionalOramDevice dev(ocfg, mem, rng, 5);

    sim::KvConfig kcfg;
    kcfg.homeSlots = 8; // tiny: collisions guaranteed
    kcfg.probeLimit = 8;
    sim::KVBackend be(kcfg);
    sim::KvOpCursor cur(be);
    Cycles now = 0;

    const std::vector<std::uint8_t> v(10, 0xab);
    for (std::uint64_t key = 0; key < 8; ++key) {
        cur.beginPut(key, v);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_FALSE(cur.failed()) << key;
    }
    EXPECT_GT(cur.stats().probes, cur.stats().puts); // probing happened
    // Every key still readable through its probe chain.
    for (std::uint64_t key = 0; key < 8; ++key) {
        cur.beginGet(key);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_TRUE(cur.hit()) << key;
    }
    // The table is full: a ninth distinct key exhausts the probe limit.
    cur.beginPut(100, v);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_TRUE(cur.failed());
    EXPECT_EQ(cur.stats().failedPuts, 1u);
    cur.beginGet(100);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_FALSE(cur.hit());
}

TEST(KvServing, SelfVerifyingValueCodec)
{
    std::vector<std::uint8_t> value;
    sim::KvServingRun::buildValue(value, 0x1234'5678'9abcull, 7, 64);
    EXPECT_EQ(value.size(), 64u);
    EXPECT_EQ(sim::KvServingRun::checkValue(value, 0x1234'5678'9abcull),
              std::optional<std::uint64_t>(7));
    EXPECT_FALSE(sim::KvServingRun::checkValue(value, 0x999ull));
    value[40] ^= 1;
    EXPECT_FALSE(
        sim::KvServingRun::checkValue(value, 0x1234'5678'9abcull));
}

TEST(KvServing, FreshnessOracleCountsStaleReadsAndLostUpdates)
{
    // Session 1's first put, then session 2's put of the same key.
    const std::uint64_t key = 5;
    const std::uint64_t v1 = (std::uint64_t{1} << 32) | 0;
    const std::uint64_t v2 = (std::uint64_t{2} << 32) | 0;
    std::vector<std::uint8_t> old_value, new_value;
    sim::KvServingRun::buildValue(old_value, key, v1, 32);
    sim::KvServingRun::buildValue(new_value, key, v2, 32);

    sim::KvFreshnessOracle oracle(16);
    std::uint64_t mismatches = 0;
    auto read = [&](std::uint64_t k, bool hit,
                    const std::vector<std::uint8_t> &value) {
        mismatches += !oracle.fresh(k, hit, value) ? 1 : 0;
    };
    read(key, /*hit=*/false, {}); // never put: a miss is fresh
    oracle.commit(key, v1);
    read(key, true, old_value); // the latest commit: fresh
    EXPECT_EQ(mismatches, 0u);

    oracle.commit(key, v2);
    read(key, true, old_value); // stale: an older version
    EXPECT_EQ(mismatches, 1u);
    read(key, false, {}); // lost update: a miss after a commit
    EXPECT_EQ(mismatches, 2u);
    read(key, true, new_value); // the latest commit again: fresh
    EXPECT_EQ(mismatches, 2u);

    // Integrity still counts: a corrupted latest version, and a value
    // of another key.
    std::vector<std::uint8_t> torn = new_value;
    torn[20] ^= 1;
    read(key, true, torn);
    read(key + 1, true, new_value);
    EXPECT_EQ(mismatches, 4u);
    // Keys beyond the table are integrity-checked only.
    std::vector<std::uint8_t> far_value;
    sim::KvServingRun::buildValue(far_value, 99, v1, 32);
    read(99, true, far_value);
    read(99, false, {});
    EXPECT_EQ(mismatches, 4u);
}

// ---------------------------------------------------------------------
// Serving harness determinism

namespace {

sim::KvServingConfig
smallServing()
{
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.workload.method = "kv";
    cfg.workload.ranks = 64;
    cfg.workload.opsPerRank = 4;
    cfg.workload.keySpace = 128;
    cfg.workload.scanFraction = 0.1;
    cfg.workload.scanLen = 2;
    cfg.kv.homeSlots = 512;
    return cfg;
}

} // namespace

TEST(KvServing, WorkerCountsAreBitIdentical)
{
    sim::KvServingRun one(smallServing());
    one.run();
    EXPECT_TRUE(one.allTokensRetired());
    EXPECT_EQ(one.payloadMismatches(), 0u);
    EXPECT_GT(one.opsCompleted(), 0u);

    auto cfg4 = smallServing();
    cfg4.threads = 4;
    sim::KvServingRun four(cfg4);
    four.run();
    EXPECT_EQ(four.streamCsv(), one.streamCsv());
    EXPECT_EQ(four.opsCompleted(), one.opsCompleted());
    EXPECT_EQ(four.stats().hits, one.stats().hits);
}

TEST(KvServing, GoldenPinnedServingStream)
{
    // Absolute pins of the serving run, recorded before the serving
    // stack was shared with RecoveryRun: FNV-1a over the whole stream
    // CSV plus the KV counters. Payload bytes are not observable, so
    // the pins also hold across payload-codec changes; a harness
    // change that moves any slot, kind or count fails them.
    struct Pin
    {
        double getFraction;
        std::size_t csvBytes;
        std::uint64_t csvDigest;
        std::uint64_t hits, misses, oramReads, oramWrites, ops;
    };
    const Pin pins[] = {
        // smallServing() as is: gets and scans only.
        {0.9, 3912, 6185136912462332666ull, 0, 286, 286, 0, 286},
        // With 30% puts: inserts, updates, spills and hits.
        {0.6, 6321, 3729742931735547804ull, 111, 72, 346, 142, 277},
    };
    for (const Pin &pin : pins) {
        auto cfg = smallServing();
        cfg.workload.getFraction = pin.getFraction;
        sim::KvServingRun run(cfg);
        run.run();
        const std::string csv = run.streamCsv();
        std::uint64_t h = 1469598103934665603ull;
        for (const char c : csv) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ull;
        }
        EXPECT_EQ(csv.size(), pin.csvBytes) << pin.getFraction;
        EXPECT_EQ(h, pin.csvDigest) << pin.getFraction;
        const sim::KVStats st = run.stats();
        EXPECT_EQ(st.hits, pin.hits) << pin.getFraction;
        EXPECT_EQ(st.misses, pin.misses) << pin.getFraction;
        EXPECT_EQ(st.oramReads, pin.oramReads) << pin.getFraction;
        EXPECT_EQ(st.oramWrites, pin.oramWrites) << pin.getFraction;
        EXPECT_EQ(run.opsCompleted(), pin.ops) << pin.getFraction;
        EXPECT_EQ(run.payloadMismatches(), 0u) << pin.getFraction;
    }
}

TEST(KvServing, MultiProducerServesEverythingCleanly)
{
    auto cfg = smallServing();
    cfg.lanes = 4;
    cfg.threads = 2;
    sim::KvServingRun mp(cfg);
    mp.runMultiProducer();
    EXPECT_TRUE(mp.allTokensRetired());
    EXPECT_EQ(mp.payloadMismatches(), 0u);
    EXPECT_EQ(mp.stats().failedPuts, 0u);
    // Same op population as the single-producer run (the submission
    // interleaving may differ; the work served must not).
    sim::KvServingRun sp(smallServing());
    sp.run();
    EXPECT_EQ(mp.opsCompleted(), sp.opsCompleted());
}

TEST(KvServingDeath, RejectsTableLargerThanShardSubtree)
{
    auto cfg = smallServing();
    cfg.kv.homeSlots = 1u << 15; // 3 * 2^15 blocks > 2^15 per shard
    EXPECT_DEATH({ sim::KvServingRun run(cfg); }, "per-shard subtree");
}

// ---------------------------------------------------------------------
// Op-stream replay through RecoveryRun's workload backlog: one API,
// bit-identical trace replay

namespace {

/** Serve @p spec's whole backlog (2 shards) and drain. */
std::unique_ptr<sim::RecoveryRun>
replayed(const std::string &spec)
{
    sim::RecoveryRunConfig cfg;
    cfg.shards = 2;
    cfg.rate = 300;
    cfg.workloadSpec = spec;
    auto run = std::make_unique<sim::RecoveryRun>(cfg);
    run->start();
    run->finish();
    return run;
}

} // namespace

TEST(RecoveryRunWorkload, RecordedTraceIsBitIdentical)
{
    const std::string spec = "synthetic:ranks=4,ops=32";
    const auto synth = replayed(spec);
    EXPECT_TRUE(synth->allTokensRetired());
    EXPECT_EQ(synth->servedTotal(), synth->backlogTotal());

    const std::string path = tmpPath("replay_identity.trace");
    {
        auto src = workload::loadWorkload(workload::parseWorkloadSpec(spec));
        ASSERT_EQ(workload::writeOpTrace(path,
                                         workload::recordOpTrace(*src)),
                  "");
    }
    const auto replay = replayed("trace:path=" + path);
    EXPECT_EQ(replay->streamCsv(), synth->streamCsv());
    EXPECT_EQ(replay->servedTotal(), synth->servedTotal());
    EXPECT_EQ(replay->backlogTotal(), synth->backlogTotal());
    std::remove(path.c_str());
}

TEST(RecoveryRunWorkload, KvMethodRunsThroughTheSameApi)
{
    const auto run = replayed("kv:ranks=3,ops=40,keys=64,theta=0.9,"
                              "get=0.6,scan=0.2,scanlen=4,think=50");
    EXPECT_TRUE(run->allTokensRetired());
    EXPECT_EQ(run->config().sessions, 3u);
    EXPECT_GT(run->backlogTotal(), 0u);
    EXPECT_EQ(run->servedTotal(), run->backlogTotal());
}

TEST(RecoveryRunWorkload, CsvRowReportsTheQueuedBacklog)
{
    auto starts_with = [](const std::string &row, const std::string &p) {
        return row.compare(0, p.size(), p) == 0;
    };
    EXPECT_TRUE(starts_with(sim::RecoveryRun::csvHeader(),
                            "kind,shards,sessions,backlog,rate,"));

    // Synthetic mode: sessions * txnsPerSession.
    sim::RecoveryRunConfig cfg;
    cfg.sessions = 3;
    cfg.txnsPerSession = 5;
    sim::RecoveryRun synthetic(cfg);
    synthetic.start();
    synthetic.finish();
    EXPECT_TRUE(starts_with(synthetic.csvRow(), "timing,1,3,15,1000,"))
        << synthetic.csvRow();

    // Workload mode: the workload's accesses, not txnsPerSession.
    const auto daly = replayed("daly:ranks=2,ops=40,mtti=1e5,delta=4500,"
                               "opcycles=1000");
    EXPECT_EQ(daly->backlogTotal(), 80u);
    EXPECT_EQ(daly->servedTotal(), 80u);
    EXPECT_TRUE(starts_with(daly->csvRow(), "timing,2,2,80,300,"))
        << daly->csvRow();
}

// ---------------------------------------------------------------------
// Daly checkpoint chain

TEST(DalyWorkload, ComputesTheOptimumInterval)
{
    WorkloadParams p;
    p.method = "daly";
    p.ranks = 1;
    p.opsPerRank = 100;
    p.mttiCycles = 1e6;
    p.checkpointCycles = 5000;
    p.opCycles = 100;
    auto src = workload::loadWorkload(p);
    // t_opt = sqrt(2*5000*1e6) - 5000 = 95000 cycles -> 950 ops.
    EXPECT_EQ(src->checkpointIntervalOps(), 950u);

    // delta >= M/2 degenerates to t_opt = M.
    p.checkpointCycles = 600'000;
    auto degenerate = workload::loadWorkload(p);
    EXPECT_EQ(degenerate->checkpointIntervalOps(), 10'000u);

    // Markers land exactly every interval.
    p.checkpointCycles = 450; // t_opt = 30000 - 450 -> 295 ops... use small
    p.mttiCycles = 1e5;
    p.opCycles = 1000;
    auto marked = workload::loadWorkload(p);
    const std::uint64_t interval = marked->checkpointIntervalOps();
    ASSERT_GE(interval, 1u);
    std::uint64_t since = 0;
    for (const WorkloadOp &op : pullRank(*marked, 0)) {
        if (op.kind == WorkloadOpKind::End)
            break;
        ++since;
        if (op.checkpointAfter) {
            EXPECT_EQ(since, interval);
            since = 0;
        }
    }
}

TEST(DalyRecovery, SnapshotChainRestoresBitIdentically)
{
    sim::RecoveryRunConfig cfg;
    cfg.shards = 2;
    cfg.rate = 500;
    cfg.workloadSpec = "daly:ranks=2,ops=40,mtti=1e5,delta=4500,"
                       "opcycles=1000";
    sim::RecoveryRun probe(cfg);
    EXPECT_TRUE(probe.workloadDriven());
    EXPECT_EQ(probe.backlogTotal(), 80u);
    EXPECT_GT(probe.checkpointIntervalOps(), 0u);
    ASSERT_FALSE(probe.checkpointMarks().empty());
    const std::uint64_t mark = probe.checkpointMarks().front();
    ASSERT_GT(mark, 0u);
    ASSERT_LT(mark, probe.backlogTotal());

    // Uninterrupted reference run.
    sim::RecoveryRun ref(cfg);
    ref.start();
    ref.finish();

    // Chained run: serve to the first Daly mark, snapshot, finish in a
    // fresh harness restored from the snapshot.
    const std::string path = tmpPath("daly.ckpt");
    {
        sim::RecoveryRun first(cfg);
        first.start();
        while (first.servedTotal() < mark)
            ASSERT_TRUE(first.serveOne());
        ASSERT_EQ(first.saveTo(path), "");
    }
    sim::RecoveryRun resumed(cfg);
    ASSERT_EQ(resumed.restoreFrom(path), "");
    EXPECT_EQ(resumed.servedTotal(), mark);
    resumed.finish();
    EXPECT_EQ(resumed.servedTotal(), ref.servedTotal());
    for (std::uint32_t i = 0; i < ref.shardCount(); ++i) {
        const auto a = ref.shardStream(i);
        const auto b = resumed.shardStream(i);
        // The resumed run's recorder only saw the post-snapshot tail;
        // it must equal the reference stream's tail exactly.
        ASSERT_LE(b.size(), a.size());
        EXPECT_TRUE(std::equal(b.begin(), b.end(),
                               a.end() - static_cast<long>(b.size())))
            << "shard " << i;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// SystemConfig plumbing + stat dump

TEST(SystemConfigWorkload, ParsesAndValidates)
{
    sim::SystemConfig cfg = sim::SystemConfig::dynamicScheme(4, 4);
    cfg.workload = "kv:ranks=5,keys=64";
    const WorkloadParams p = cfg.workloadSpec();
    EXPECT_EQ(p.method, "kv");
    EXPECT_EQ(p.ranks, 5u);
    EXPECT_EQ(p.keySpace, 64u);
}

TEST(SystemConfigWorkloadDeath, NamesTheConfigKey)
{
    sim::SystemConfig cfg = sim::SystemConfig::dynamicScheme(4, 4);
    EXPECT_DEATH({ auto p = cfg.workloadSpec(); }, "workload spec");
    cfg.workload = "kv:bogus=1";
    EXPECT_DEATH({ auto p = cfg.workloadSpec(); }, "bogus");
}

TEST(SystemConfigWorkload, EvictionAutoTune)
{
    sim::SystemConfig cfg = sim::SystemConfig::dynamicScheme(4, 4);
    // Off: falls back to the fixed budget.
    EXPECT_EQ(cfg.evictionAutoBudget(), cfg.evictionBudget);
    // On, valid: highwater + async + a workload to observe.
    cfg.evictionAutoTune = true;
    cfg.dramMode = "async";
    cfg.evictionPolicy = "highwater";
    cfg.workload = "kv:ranks=4,ops=16,think=100";
    const std::uint32_t budget = cfg.evictionAutoBudget();
    EXPECT_GE(budget, 1u);
    EXPECT_LE(budget, sim::SystemConfig::kMaxEvictionBudget);
}

TEST(SystemConfigWorkloadDeath, AutoTuneNeedsHighwater)
{
    sim::SystemConfig cfg = sim::SystemConfig::dynamicScheme(4, 4);
    cfg.evictionAutoTune = true;
    cfg.workload = "kv";
    EXPECT_DEATH({ auto b = cfg.evictionAutoBudget(); }, "highwater");
}

TEST(StatDumpKv, ExportsKvKeysAsPinnedCsv)
{
    sim::KVStats s;
    s.gets = 10;
    s.hits = 6;
    s.misses = 4;
    s.puts = 3;
    s.probes = 14;
    s.spillBlocksRead = 5;
    const StatDump d = sim::toStatDump(s, 1234, 5678);
    EXPECT_EQ(d.get("kv.gets"), 10.0);
    EXPECT_DOUBLE_EQ(d.get("kv.hit_rate"), 0.6);
    EXPECT_EQ(d.get("kv.get_p99_cycles"), 1234.0);
    EXPECT_EQ(d.get("kv.put_p99_cycles"), 5678.0);
    EXPECT_TRUE(d.has("kv.spill_blocks_read"));

    // Pinned bytes: key order, classic-locale numbers, 6 significant
    // digits.
    EXPECT_EQ(sim::kvStatsCsv(s, 1234, 5678),
              "stat,value\n"
              "kv.failed_puts,0\n"
              "kv.get_p99_cycles,1234\n"
              "kv.gets,10\n"
              "kv.hit_rate,0.6\n"
              "kv.hits,6\n"
              "kv.inserts,0\n"
              "kv.misses,4\n"
              "kv.oram_reads,0\n"
              "kv.oram_writes,0\n"
              "kv.probes,14\n"
              "kv.probes_per_op,1.07692\n"
              "kv.put_p99_cycles,5678\n"
              "kv.puts,3\n"
              "kv.scans,0\n"
              "kv.spill_blocks_read,5\n"
              "kv.spill_blocks_written,0\n"
              "kv.updates,0\n");
}
