/**
 * @file
 * datapath_h3: the bare fused RecursivePathOram at paper geometry with
 * the functional datapath capped at 2^16 blocks and H=3 recursion
 * stages (4 trees), serving a 50/50 write/read mix over ids uniform on
 * the full capacity. A shadow of the last version written to each id
 * checks that every access returns the freshest value.
 */

#include <algorithm>

#include "common/rng.hh"
#include "crypto/ctr.hh"
#include "oram/bucket.hh"
#include "oram/bucket_codec.hh"
#include "oram/position_map.hh"
#include "scenarios.hh"

using namespace tcoram;

namespace perfbench {

namespace {

constexpr std::uint64_t kIds = std::uint64_t{1} << 16;
/** Accesses per timed batch (one throughput sample). */
constexpr std::size_t kBatch = 1000;
/** Timed batches per repetition. */
constexpr std::size_t kRepBatches = 10;
/** Batches of each of the untraced and the traced pass. */
constexpr std::size_t kTraceBatches = 60;
/** Untimed accesses before the first sample. */
constexpr std::size_t kWarmupAccesses = 2000;
/** Fixed prefix the replay twin re-runs for the determinism check. */
constexpr std::uint64_t kReplayAccesses = 20000;

oram::OramConfig
paperScaleConfig()
{
    oram::OramConfig c = oram::OramConfig::paperConfig();
    c.numBlocks = std::min<std::uint64_t>(c.numBlocks, kIds);
    c.recursionLevels = 3;
    c.stashCapacity = std::max<std::size_t>(c.stashCapacity, 1024);
    return c;
}

/** Payload of version @p version of block @p id (version 0 is the
 *  zero-filled block a never-written id reads as). */
void
fillPayload(std::vector<std::uint8_t> &buf, BlockId id, std::uint32_t version)
{
    if (version == 0) {
        std::fill(buf.begin(), buf.end(), 0);
        return;
    }
    std::uint64_t x = mixSeed(id, version);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        if (i % 8 == 0)
            x = mixSeed(x, i);
        buf[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
    }
}

} // namespace

/** One tree plus its deterministic op stream and freshness shadow. */
class DatapathScenario::TreeClient
{
  public:
    explicit TreeClient(std::uint64_t seed)
        : oram_(paperScaleConfig(), mixSeed(seed, 1)),
          ops_(mixSeed(seed, 2)), version_(kIds, 0),
          data_(oram_.dataOram().config().blockBytes),
          out_(data_.size()), expect_(data_.size())
    {
    }

    /** One logical access of the mix; checks the returned payload. */
    void
    step()
    {
        const BlockId id = ops_.nextBounded(kIds);
        if (ops_.nextBool(0.5)) {
            fillPayload(data_, id, ++version_[id]);
            oram_.accessInto(id, oram::Op::Write, data_, out_);
        } else {
            oram_.accessInto(id, oram::Op::Read, {}, out_);
        }
        fillPayload(expect_, id, version_[id]);
        stale_ += out_ != expect_;
        served_.bytes(out_.data(), out_.size());
        if (++accesses_ == kReplayAccesses) {
            prefixDigest_ = served_.h;
            prefixHighWater_ = oram_.dataOram().stash().highWater();
            prefixCalls_ = oram_.cryptoCalls();
        }
    }

    /** Run until the fixed replay prefix has been served. */
    void
    finishPrefix()
    {
        while (accesses_ < kReplayAccesses)
            step();
    }

    oram::RecursivePathOram &oram() { return oram_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t stale() const { return stale_; }

    /** State at kReplayAccesses: served-payload digest, data-tree
     *  stash high water and crypto calls. */
    std::uint64_t prefixDigest() const { return prefixDigest_; }
    std::uint64_t prefixHighWater() const { return prefixHighWater_; }
    std::uint64_t prefixCalls() const { return prefixCalls_; }

  private:
    oram::RecursivePathOram oram_;
    Rng ops_;
    std::vector<std::uint32_t> version_;
    std::vector<std::uint8_t> data_, out_, expect_;
    std::uint64_t accesses_ = 0, stale_ = 0;
    Digest served_;
    std::uint64_t prefixDigest_ = 0, prefixHighWater_ = 0, prefixCalls_ = 0;
};

namespace {

/**
 * Run @p batches timed batches and return each batch's accesses per
 * second. With @p spans, each access gets its own
 * span under @p root and its latency lands in @p access_us. Counts
 * batches whose crypto-call delta is not exactly H+2 per access.
 */
std::vector<double>
timedBatches(DatapathScenario::TreeClient &d, std::size_t batches,
             std::uint64_t &bad_call_batches, SpanRecorder *spans = nullptr,
             std::int32_t root = SpanRecorder::kNoParent,
             std::vector<double> *access_us = nullptr)
{
    const std::uint64_t calls_per_access = d.oram().treeCount() + 1;
    std::vector<double> rates;
    while (rates.size() < batches) {
        const std::uint64_t calls0 = d.oram().cryptoCalls();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kBatch; ++i) {
            if (spans == nullptr) {
                d.step();
                continue;
            }
            const auto a0 = Clock::now();
            ScopedSpan s(*spans, "oram.accessInto", root, d.accesses());
            d.step();
            access_us->push_back(secondsSince(a0) * 1e6);
        }
        rates.push_back(static_cast<double>(kBatch) / secondsSince(t0));
        bad_call_batches +=
            d.oram().cryptoCalls() - calls0 != kBatch * calls_per_access;
    }
    return rates;
}

/** ns per iteration of @p fn, repeated for at least @p min_s. */
template <typename Fn>
double
nsPerCall(double min_s, Fn &&fn)
{
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    double s = 0;
    do {
        for (int i = 0; i < 64; ++i)
            fn();
        n += 64;
        s = secondsSince(t0);
    } while (s < min_s);
    return s / static_cast<double>(n) * 1e9;
}

} // namespace

DatapathScenario::DatapathScenario(std::uint64_t seed) : seed_(seed) {}

DatapathScenario::~DatapathScenario() = default;

double
DatapathScenario::setupOnce()
{
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<TreeClient>(seed_);
    const double s = secondsSince(t0);
    main_ = std::move(twin_);
    twin_ = std::move(fresh);
    return s;
}

std::string
DatapathScenario::backendName() const
{
    // The trees' cipher resolves CryptoBackend::Auto the same way.
    return crypto::CtrCipher(crypto::Key128{}).backendName();
}

namespace {

/** Freshness, call-count and replay-determinism checks. */
void
finishChecks(DatapathScenario::TreeClient &main, DatapathScenario::TreeClient &twin,
             std::uint64_t bad_call_batches, std::uint64_t batches,
             Checks &checks)
{
    main.finishPrefix();
    twin.finishPrefix();
    checks.tally(main.accesses(), main.stale(),
                 "datapath_h3: access returned a stale payload");
    checks.tally(batches, bad_call_batches,
                 "datapath_h3: crypto calls per access != H+2");
    checks.expect(main.prefixDigest() == twin.prefixDigest() &&
                      main.prefixHighWater() == twin.prefixHighWater() &&
                      main.prefixCalls() == twin.prefixCalls(),
                  "datapath_h3: replay of the same seed diverged");
}

} // namespace

std::vector<double>
DatapathScenario::rep()
{
    TreeClient &d = *main_;
    if (reps_++ == 0)
        for (std::size_t i = 0; i < kWarmupAccesses; ++i)
            d.step();
    return timedBatches(d, kRepBatches, badCallBatches_);
}

bool
DatapathScenario::enough() const
{
    return reps_ >= 6;
}

void
DatapathScenario::finish(Checks &checks, Report &report, const Rates &rates)
{
    finishChecks(*main_, *twin_, badCallBatches_, rates.raw.size(), checks);
    report.add("dp_acc_per_s", "1/s", median(rates.atRefSpeed));
    report.note("dp_acc_per_s.raw", "1/s", median(rates.raw));
}

double
DatapathScenario::trace(Checks &checks, Report &report, SpanRecorder &spans)
{
    TreeClient &d = *main_;
    for (std::size_t i = 0; i < kWarmupAccesses; ++i)
        d.step();
    // Untraced and traced batches alternate, so host drift lands on
    // both sides of the tracing-overhead ratio alike.
    std::uint64_t bad = 0;
    double untraced_s = 0;
    std::vector<double> untraced, traced, access_us;
    const std::uint64_t calls0 = d.oram().cryptoCalls();
    const std::uint64_t acc0 = d.accesses();
    for (std::size_t i = 0; i < kTraceBatches; ++i) {
        const auto u0 = Clock::now();
        untraced.push_back(timedBatches(d, 1, bad).front());
        untraced_s += secondsSince(u0);
        ScopedSpan root(spans, "oram.datapath", SpanRecorder::kNoParent, i);
        traced.push_back(
            timedBatches(d, 1, bad, &spans, root.id(), &access_us).front());
    }
    const double calls_per_access =
        static_cast<double>(d.oram().cryptoCalls() - calls0) /
        static_cast<double>(d.accesses() - acc0);
    finishChecks(d, *twin_, bad, 2 * kTraceBatches, checks);

    // Outside-in probes on one access's shapes: per tree, a path of
    // treeDepth()+1 buckets; reads decrypt one tree per call, the
    // write-back flush encrypts every tree's path in one call. The
    // buckets rotate through an arena far larger than the host caches,
    // as the trees' ciphertext does.
    const oram::RecursivePathOram &o = d.oram();
    std::vector<std::vector<crypto::CtrSegment>> reads(o.treeCount());
    std::vector<crypto::CtrSegment> flush;
    std::vector<std::size_t> lens; // bucket bytes, in segment order
    std::size_t set_bytes = 0;
    std::uint64_t nonce = 1;
    for (std::size_t t = 0; t < o.treeCount(); ++t) {
        const oram::OramConfig &c = o.tree(t).config();
        for (unsigned l = 0; l <= c.treeDepth(); ++l) {
            lens.push_back(c.bucketBytes());
            set_bytes += c.bucketBytes();
            reads[t].push_back({nonce++, {}, {}});
        }
    }
    const std::size_t sets = (std::size_t{64} << 20) / set_bytes + 1;
    std::vector<std::uint8_t> arena(sets * set_bytes, 0x5a);
    std::size_t set = 0;
    auto nextSet = [&] {
        std::uint8_t *p = arena.data() + (set++ % sets) * set_bytes;
        flush.clear();
        std::size_t i = 0;
        for (auto &r : reads)
            for (auto &seg : r) {
                seg.in = {p, lens[i]};
                seg.out = {p, lens[i]};
                p += lens[i++];
                flush.push_back(seg);
            }
    };
    const std::uint64_t bytes = 2 * set_bytes;
    const crypto::Key128 key{1, 2, 3, 4, 5, 6, 7, 8};
    const crypto::CtrCipher cipher(key);
    double ctr_ns = 0, aes_ns = 0, codec_data_ns = 0, codec_ns = 0;
    {
        ScopedSpan s(spans, "crypto.xcryptSegments", SpanRecorder::kNoParent);
        ctr_ns = nsPerCall(0.2, [&] {
            nextSet();
            for (const auto &r : reads)
                cipher.xcryptSegments(r);
            cipher.xcryptSegments(flush);
        });
    }
    std::uint64_t flush_blocks = 0;
    for (const auto &seg : flush)
        flush_blocks += crypto::CtrCipher::chunksFor(seg.in.size());
    {
        const auto engine = crypto::makeCryptoEngine(key);
        std::vector<crypto::Block128> blocks(flush_blocks);
        ScopedSpan s(spans, "crypto.encryptBlocks", SpanRecorder::kNoParent);
        aes_ns = nsPerCall(0.2, [&] { engine->encryptBlocks(blocks); }) /
                 static_cast<double>(flush_blocks);
    }
    {
        ScopedSpan s(spans, "oram.codec", SpanRecorder::kNoParent);
        for (std::size_t t = 0; t < o.treeCount(); ++t) {
            const oram::OramConfig &c = o.tree(t).config();
            const oram::BucketCodec codec(c.z, c.blockBytes);
            std::vector<oram::Bucket> path(c.treeDepth() + 1,
                                           oram::Bucket(c.z, c.blockBytes));
            for (std::size_t l = 0; l < path.size(); ++l)
                path[l].insert({l, l, std::vector<std::uint8_t>(
                                          c.blockBytes, std::uint8_t(l))});
            std::vector<std::uint8_t> ser(codec.pathBytes(path.size()));
            const double ns = nsPerCall(0.05, [&] {
                codec.encodePath(path, ser);
                codec.decodePath(ser, path);
            });
            codec_ns += ns;
            if (t == 0)
                codec_data_ns = ns;
        }
    }
    double posmap_ns = 0;
    {
        oram::FlatPositionMap map(kIds);
        Rng r(mixSeed(seed_, 3));
        ScopedSpan s(spans, "oram.posmap_update", SpanRecorder::kNoParent);
        posmap_ns = nsPerCall(0.05, [&] {
            map.update(r.nextBounded(kIds), r.nextBounded(kIds));
        });
    }

    const double access_ns = median(access_us) * 1e3;
    const double aes_per_access = aes_ns * 2.0 * flush_blocks;
    report.add("oram.access_us_p50", "us", median(access_us));
    report.add("oram.access_us_p99", "us", quantile(access_us, 0.99));
    report.add("crypto.ctr_ns_per_access", "ns", ctr_ns);
    report.add("crypto.aes_ns_per_block", "ns", aes_ns);
    report.add("crypto.calls_per_access", "count", calls_per_access);
    report.add("crypto.bytes_per_access", "B", static_cast<double>(bytes));
    report.add("oram.codec_ns_per_path", "ns", codec_data_ns);
    report.add("oram.posmap_ns_per_update", "ns", posmap_ns);
    report.add("oram.stash_high_water", "count",
               static_cast<double>(d.prefixHighWater()));
    report.add("dp.share.ctr_xor", "frac",
               (ctr_ns - aes_per_access) / access_ns);
    report.add("dp.share.aes", "frac", aes_per_access / access_ns);
    report.add("dp.share.codec", "frac", codec_ns / access_ns);
    report.add("dp.share.posmap", "frac", posmap_ns / access_ns);
    report.add("trace.dp_overhead_frac", "frac",
               median(untraced) / median(traced) - 1.0);
    return untraced_s;
}

} // namespace perfbench
