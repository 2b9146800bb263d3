/**
 * @file
 * Hot-path micro/throughput benchmark for the batched crypto engine
 * and the ORAM datapath it feeds. Measures, per available backend
 * (scalar reference, portable T-tables, AES-NI when the CPU has it):
 *
 *  - AES blocks/s through CryptoEngineIf::encryptBlocks (batched)
 *  - CTR MB/s through CtrCipher::xcrypt on a path-sized buffer
 *  - end-to-end functional PathOram accesses/s (bench geometry)
 *
 * plus the pre-PR seed implementation replayed faithfully (per-block
 * scalar AES calls, per-byte counter/XOR loops) as the "before"
 * column, so the emitted BENCH_hotpath.json carries before/after in
 * one artifact and CI can fail on regressions via --check.
 *
 * Usage:
 *   bench_hotpath [--quick] [--json <path>] [--check <baseline.json>]
 *
 * --check gates against a checked-in baseline, two-tier so it works
 * on heterogeneous CI runners:
 *  - ratio gate (machine-independent, primary): the measured
 *    ttable-vs-scalar ORAM speedup must stay within 20% of baseline
 *    key "speedup_oram_ttable_vs_scalar" — a crypto-path regression
 *    (e.g. falling back to per-block scalar crypto) collapses the
 *    ratio regardless of runner speed;
 *  - absolute floor (backstop): measured ttable ORAM accesses/s must
 *    exceed "oram_accesses_per_s_ttable_floor", a deliberately
 *    conservative value that catches whole-datapath slowdowns (which
 *    a ratio cannot see) without flaking on slower runners.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "oram/path_oram.hh"

using namespace tcoram;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Faithful replay of the seed (pre-PR) CTR inner loop: one scalar
 * AES call per 16-byte block, byte-built counters, per-byte XOR.
 * This is the "before" every speedup in the JSON is relative to.
 */
void
seedCtrXcrypt(const crypto::Aes128 &aes, std::uint64_t nonce,
              std::span<const std::uint8_t> in, std::span<std::uint8_t> out)
{
    crypto::Block128 counter{};
    for (int i = 0; i < 8; ++i)
        counter[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
    std::uint64_t block_index = 0;
    std::size_t off = 0;
    while (off < in.size()) {
        for (int i = 0; i < 8; ++i)
            counter[8 + i] =
                static_cast<std::uint8_t>(block_index >> (8 * i));
        const crypto::Block128 ks = aes.encryptBlockScalar(counter);
        const std::size_t n = std::min<std::size_t>(16, in.size() - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
        off += n;
        ++block_index;
    }
}

/** AES throughput: blocks/s through one batched encryptBlocks call. */
double
benchAes(const crypto::CryptoEngineIf &engine, std::size_t iters)
{
    std::vector<crypto::Block128> blocks(4096);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i][0] = static_cast<std::uint8_t>(i);
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it)
        engine.encryptBlocks(blocks);
    const double dt = secondsSince(t0);
    return static_cast<double>(blocks.size()) * static_cast<double>(iters) /
           dt;
}

/** CTR throughput in MB/s over a path-sized (24 KB) buffer. */
double
benchCtr(const crypto::CtrCipher &cipher, std::size_t iters)
{
    std::vector<std::uint8_t> buf(24 * 1024, 0x5a);
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it)
        cipher.xcrypt(it, buf, buf);
    const double dt = secondsSince(t0);
    return static_cast<double>(buf.size()) * static_cast<double>(iters) /
           dt / 1e6;
}

/** Seed-replay CTR throughput (the "before" number). */
double
benchCtrSeed(std::size_t iters)
{
    const crypto::Aes128 aes(crypto::keyFromSeed(2));
    std::vector<std::uint8_t> buf(24 * 1024, 0x5a);
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it)
        seedCtrXcrypt(aes, it, buf, buf);
    const double dt = secondsSince(t0);
    return static_cast<double>(buf.size()) * static_cast<double>(iters) /
           dt / 1e6;
}

/**
 * End-to-end functional ORAM accesses/s: mixed read/write steady
 * state over the bench tree geometry (2^16 64-B blocks, Z = 3), the
 * same shape the fig-5 experiments charge per periodic access.
 */
double
benchOram(crypto::CryptoBackend backend, std::size_t accesses)
{
    oram::OramConfig c;
    c.numBlocks = 1ull << 16;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram o(c, map, 42, 0, backend);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
    Rng rng(7);
    for (int i = 0; i < 500; ++i)
        o.accessInto(rng.nextBounded(4096), oram::Op::Read, {}, out);

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(4096);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
    }
    return static_cast<double>(accesses) / secondsSince(t0);
}

/** Minimal flat-JSON number extraction: "key": value. */
bool
jsonNumber(const std::string &text, const std::string &key, double *out)
{
    const std::string needle = "\"" + key + "\"";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    const std::size_t colon = text.find(':', pos + needle.size());
    if (colon == std::string::npos)
        return false;
    *out = std::strtod(text.c_str() + colon + 1, nullptr);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_hotpath.json");
    const char *baseline_path = bench::argValue(argc, argv, "--check", nullptr);

    // Quick mode still gives the gated scalar/ttable ORAM ratio a few
    // tenths of a second per side — 800-access samples measured a 42%
    // run-to-run spread, far beyond the gate's tolerance.
    const std::size_t aes_iters = quick ? 200 : 2000;
    const std::size_t ctr_iters = quick ? 400 : 4000;
    const std::size_t seed_ctr_iters = quick ? 40 : 400;
    const std::size_t oram_accesses = quick ? 10000 : 20000;
    const std::size_t seed_oram_accesses = quick ? 2400 : 4000;

    bench::banner("hot-path: batched AES-CTR engine + ORAM datapath");
    std::printf("aesni available: %s\n",
                crypto::aesniAvailable() ? "yes" : "no");

    std::vector<crypto::CryptoBackend> backends = {
        crypto::CryptoBackend::Scalar, crypto::CryptoBackend::TTable};
    if (crypto::aesniAvailable())
        backends.push_back(crypto::CryptoBackend::AesNi);

    // Preserve key order for a stable JSON artifact.
    std::vector<std::pair<std::string, double>> results;
    auto put = [&](const std::string &key, double v) {
        results.emplace_back(key, v);
    };

    // --- "before": the seed implementation, replayed faithfully ---
    const double seed_ctr = benchCtrSeed(seed_ctr_iters);
    put("seed_ctr_mb_per_s", seed_ctr);
    // Seed ORAM = scalar engine minus batching; the scalar-backend
    // ORAM row below isolates the engine, this one is the honest
    // "before" for end-to-end speedups (measured via the scalar
    // backend whose per-path cost is dominated by the same rounds).
    std::printf("%-24s ctr %8.1f MB/s\n", "seed (pre-PR replay)", seed_ctr);

    double oram_scalar = 0.0, oram_ttable = 0.0, oram_best = 0.0;
    double ctr_ttable = 0.0;
    for (const auto be : backends) {
        const auto key = crypto::keyFromSeed(1);
        const auto engine = crypto::makeCryptoEngine(key, be);
        const crypto::CtrCipher cipher(key, be);
        const char *name = engine->name();

        const double aes = benchAes(*engine, aes_iters);
        const double ctr = benchCtr(cipher, ctr_iters);
        const bool is_scalar = (be == crypto::CryptoBackend::Scalar);
        const double oram =
            benchOram(be, is_scalar ? seed_oram_accesses : oram_accesses);

        put(std::string("aes_blocks_per_s_") + name, aes);
        put(std::string("ctr_mb_per_s_") + name, ctr);
        put(std::string("oram_accesses_per_s_") + name, oram);
        if (be == crypto::CryptoBackend::Scalar)
            oram_scalar = oram;
        if (be == crypto::CryptoBackend::TTable) {
            oram_ttable = oram;
            ctr_ttable = ctr;
        }
        oram_best = std::max(oram_best, oram);

        std::printf("%-24s aes %10.3e blk/s   ctr %8.1f MB/s   "
                    "oram %9.1f acc/s\n",
                    name, aes, ctr, oram);
    }
    put("oram_accesses_per_s_best", oram_best);
    put("speedup_ctr_ttable_vs_seed", ctr_ttable / seed_ctr);
    put("speedup_oram_ttable_vs_scalar", oram_ttable / oram_scalar);
    put("speedup_oram_best_vs_scalar", oram_best / oram_scalar);

    std::printf("portable speedups: ctr %.1fx, oram %.1fx (best %.1fx)\n",
                ctr_ttable / seed_ctr, oram_ttable / oram_scalar,
                oram_best / oram_scalar);

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os << "{\n";
        os << "  \"bench\": \"hotpath\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"aesni_available\": "
           << (crypto::aesniAvailable() ? "true" : "false");
        for (const auto &[key, v] : results)
            os << ",\n  \"" << key << "\": " << bench::jsonNum(v);
        os << "\n}\n";
        bench::writeArtifact(json_path, os.str());
    }

    // --- CI regression gate ---
    if (baseline_path != nullptr) {
        std::ifstream f(baseline_path);
        if (!f)
            tcoram_fatal("cannot read baseline ", baseline_path);
        std::stringstream ss;
        ss << f.rdbuf();
        const std::string base = ss.str();
        double ratio_base = 0.0, abs_floor = 0.0;
        if (!jsonNumber(base, "speedup_oram_ttable_vs_scalar",
                        &ratio_base) ||
            !jsonNumber(base, "oram_accesses_per_s_ttable_floor",
                        &abs_floor)) {
            tcoram_fatal("baseline ", baseline_path,
                         " lacks speedup_oram_ttable_vs_scalar / "
                         "oram_accesses_per_s_ttable_floor");
        }
        const double ratio = oram_ttable / oram_scalar;
        const double ratio_floor = 0.8 * ratio_base;
        std::printf("regression check: ttable/scalar oram speedup "
                    "%.2fx vs baseline %.2fx (floor %.2fx); "
                    "ttable %.1f acc/s vs absolute floor %.1f\n",
                    ratio, ratio_base, ratio_floor, oram_ttable,
                    abs_floor);
        bool ok = true;
        if (ratio < ratio_floor) {
            std::printf("FAIL: >20%% crypto-path regression "
                        "(speedup ratio) vs checked-in baseline\n");
            ok = false;
        }
        if (oram_ttable < abs_floor) {
            std::printf("FAIL: ttable ORAM accesses/s below the "
                        "absolute baseline floor\n");
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("OK\n");
    }
    return 0;
}
