/**
 * @file
 * Functional-datapath throughput bench: fused position-map updates +
 * cross-stage batched path crypto vs its bit-identity reference.
 *
 *  - Fused:          one path access per tree per logical access, all
 *                    write-back encrypts retired in ONE batched call
 *                    (H+2 engine calls per access for H stages).
 *  - FusedImmediate: same access structure, per-tree immediate
 *                    encrypt — the bit-identity reference.
 *
 * Geometry mirrors the timing experiments' FunctionalOramDevice: the
 * paper's 2^26-block modeled tree with the functional datapath capped
 * at 2^16 blocks (ids fold modulo the realized capacity), recursion
 * chain included.
 *
 * Usage:
 *   bench_functional_rate [--quick] [--check] [--json <path>]
 *                         [--depth-sweep]
 *
 * --check runs the self-contained correctness gates (no baseline
 * file needed — every gate is machine-independent):
 *   1. fused path touches per access == treeCount() (one path per tree,
 *      summed PathOram::accessCount() deltas);
 *   2. fused and FusedImmediate serialized states (every tree's DRAM
 *      image, nonces, PRF counters, stash, maps) byte-identical after
 *      the same mixed workload, and every served payload equal;
 *   3. fused crypto-call delta per access == treeCount() + 1 (H+2);
 *   4. ColumnBatch serialization independent of chunk assignment.
 * --depth-sweep additionally measures and gates H in {0,1,2,3} (the
 * ASan CI job drives this with --quick).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "oram/path_oram.hh"
#include "sim/column_batch.hh"

using namespace tcoram;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FunctionalOramDevice's realized geometry: paper-modeled tree with
 *  the functional datapath capped at 2^16 blocks. */
oram::OramConfig
paperScaleConfig(unsigned recursion_levels)
{
    oram::OramConfig c = oram::OramConfig::paperConfig();
    c.numBlocks = std::min<std::uint64_t>(c.numBlocks, 1ull << 16);
    c.recursionLevels = recursion_levels;
    c.stashCapacity = std::max<std::size_t>(c.stashCapacity, 1024);
    return c;
}

struct ModeResult
{
    double accPerS = 0.0;
    std::uint64_t cryptoPerAccess = 0; ///< steady-state delta
    std::uint64_t pathTouches = 0;     ///< summed over trees
    std::vector<std::uint8_t> image;   ///< serialized state
    std::uint64_t servedHash = 0;      ///< FNV-1a over served payloads
};

/** Path accesses summed over every tree of @p o. */
std::uint64_t
pathTouches(const oram::RecursivePathOram &o)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < o.treeCount(); ++i)
        total += o.tree(i).accessCount();
    return total;
}

/** Warm up, run @p accesses of the standard mixed workload, measure. */
ModeResult
runMode(const oram::OramConfig &c, oram::Datapath dp, std::size_t accesses)
{
    oram::RecursivePathOram o(c, 4242, crypto::CryptoBackend::Auto, dp);
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
    Rng rng(7);

    for (int i = 0; i < 400; ++i)
        o.accessInto(rng.nextBounded(4096), oram::Op::Read, {}, out);

    ModeResult r;
    std::uint64_t hash = 1469598103934665603ull; // FNV offset basis
    const std::uint64_t calls0 = o.cryptoCalls();
    const std::uint64_t touches0 = pathTouches(o);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(4096);
        if (i % 2 == 0) {
            data[0] = static_cast<std::uint8_t>(i);
            o.accessInto(id, oram::Op::Write, data, out);
        } else {
            o.accessInto(id, oram::Op::Read, {}, out);
        }
        for (const std::uint8_t b : out)
            hash = (hash ^ b) * 1099511628211ull;
    }
    r.accPerS = static_cast<double>(accesses) / secondsSince(t0);
    r.cryptoPerAccess = (o.cryptoCalls() - calls0) / accesses;
    r.pathTouches = pathTouches(o) - touches0;
    r.servedHash = hash;

    ByteWriter w;
    o.saveState(w);
    r.image = w.data();
    return r;
}

/** Gate 4: chunk-assignment-independent ColumnBatch bytes. */
bool
columnBatchIdentityHolds()
{
    using enum sim::ColumnType;
    const sim::ColumnSchema schema{{{"k", U64}, {"v", F64}}};
    auto append = [](sim::ColumnChunk &c, std::uint64_t key) {
        c.beginRow(key);
        c.u64(key);
        c.f64(static_cast<double>(key) * 0.125);
        c.endRow();
    };
    sim::ColumnBatch scattered(schema, 4);
    for (std::uint64_t key = 64; key-- > 0;)
        append(scattered.chunk(key % 4), key);
    sim::ColumnBatch single(schema, 1);
    for (std::uint64_t key = 0; key < 64; ++key)
        append(single.chunk(0), key);
    return scattered.csv() == single.csv();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const bool sweep = bench::hasFlag(argc, argv, "--depth-sweep");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_functional.json");

    const std::size_t accesses = quick ? 2000 : 20000;

    bench::banner("functional datapath: fused map updates + batched "
                  "cross-stage crypto");

    std::vector<std::pair<std::string, double>> results;
    auto put = [&](const std::string &key, double v) {
        results.emplace_back(key, v);
    };

    bool ok = true;
    auto gate = [&](bool cond, const char *what) {
        if (!cond) {
            std::printf("FAIL: %s\n", what);
            ok = false;
        }
    };

    const std::vector<unsigned> depths =
        sweep ? std::vector<unsigned>{0, 1, 2, 3} : std::vector<unsigned>{3};

    for (const unsigned levels : depths) {
        const oram::OramConfig c = paperScaleConfig(levels);
        const std::uint64_t trees = 1 + c.recursionChain().size();

        const ModeResult fused =
            runMode(c, oram::Datapath::Fused, accesses);
        const ModeResult unfused =
            runMode(c, oram::Datapath::FusedImmediate, accesses);
        const double touches_per_access =
            static_cast<double>(fused.pathTouches) / accesses;

        std::printf("H=%u (%llu trees): fused %9.1f acc/s   "
                    "unfused %9.1f acc/s   "
                    "(%.2f path touches, %llu crypto calls/access)\n",
                    levels, static_cast<unsigned long long>(trees),
                    fused.accPerS, unfused.accPerS, touches_per_access,
                    static_cast<unsigned long long>(fused.cryptoPerAccess));

        const std::string suffix = "_h" + std::to_string(levels);
        put("acc_per_s_fused" + suffix, fused.accPerS);
        put("acc_per_s_unfused" + suffix, unfused.accPerS);
        put("path_touches_per_access" + suffix, touches_per_access);
        put("crypto_calls_per_access" + suffix,
            static_cast<double>(fused.cryptoPerAccess));

        if (check) {
            gate(fused.pathTouches == accesses * trees,
                 "fused path touches per access != treeCount()");
            gate(fused.image == unfused.image,
                 "fused vs FusedImmediate serialized state diverged");
            gate(fused.servedHash == unfused.servedHash,
                 "fused vs FusedImmediate served payloads diverged");
            gate(fused.cryptoPerAccess == trees + 1,
                 "fused crypto calls per access != treeCount() + 1");
            gate(unfused.cryptoPerAccess >= 2 * trees,
                 "FusedImmediate lost its per-tree encrypt accounting");
        }
    }

    if (check)
        gate(columnBatchIdentityHolds(),
             "ColumnBatch bytes depend on chunk assignment");

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os << "{\n";
        os << "  \"bench\": \"functional_rate\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false");
        char buf[64];
        for (const auto &[key, v] : results) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            os << ",\n  \"" << key << "\": " << buf;
        }
        os << "\n}\n";
        std::ofstream f(json_path);
        if (!f)
            tcoram_fatal("cannot write ", json_path);
        f << os.str();
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (check) {
        if (!ok)
            return 1;
        std::printf("check OK%s\n", sweep ? " (depth sweep)" : "");
    }
    return 0;
}
