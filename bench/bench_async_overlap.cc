/**
 * @file
 * Split-transaction DRAM overlap bench: sync (whole-path read, then
 * whole-path write-back) vs pipelined (bucket write-backs issued while
 * deeper reads are in flight) ORAM path scheduling, swept over tree
 * depth x banks-per-channel on the banked DDR3 model.
 *
 * Per cell it reports the calibrated sync OLAT, the pipelined OLAT
 * (data-ready latency), the pipelined occupancy (full drain), and the
 * OLAT improvement. Two invariants are asserted on every cell, not
 * just reported:
 *
 *  - the sync calibration is bit-identical to the pre-split
 *    two-accessBatch controller (replayed inline as the reference) —
 *    the adapter contract behind the golden CSVs;
 *  - pipelined OLAT <= sync OLAT (the pipeline reschedules transfers,
 *    it never adds any).
 *
 * A sharded async run through the ring scheduler is also
 * driven, asserting every shard's observable stream stays exactly
 * periodic (gap = max(rate + OLAT, occupancy)) under the shrunk slots.
 *
 * Usage:
 *   bench_async_overlap [--quick] [--json <path>] [--check]
 *
 * --check (CI gate) additionally fails unless the pipelined OLAT at
 * paper-scale depth (2^26 blocks, 8 banks/channel) improves on sync by
 * at least 15%.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/oram_controller.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"

using namespace tcoram;

namespace {

constexpr std::uint64_t kCalibSeed = 42;
constexpr std::uint64_t kPaperBlocksLog2 = 26; // 4 GB of 64 B blocks

struct Cell
{
    std::uint64_t blocksLog2 = 0;
    unsigned depth = 0;
    unsigned banks = 0;
    Cycles syncOlat = 0;
    Cycles pipeOlat = 0;
    Cycles pipeOccupancy = 0;
    double improvement = 0.0;
    bool syncMatchesPrePr = false;
};

/**
 * The pre-split controller's calibration, replayed inline as the
 * reference: gather every bucket of one random path per tree, read
 * them all in one batch, then write them all back in a second batch
 * issued at the read phase's completion. Identical code (and identical
 * RNG draws) to the seed OramController::calibrate.
 */
Cycles
preSplitCalibration(const oram::OramConfig &cfg, dram::MemoryIf &mem,
                    Rng &rng)
{
    const Cycles start = 1000;
    std::vector<oram::OramConfig> trees = cfg.recursionChain();
    trees.insert(trees.begin(), cfg);

    std::vector<dram::MemRequest> reads;
    Addr base = 0;
    for (const auto &tree : trees) {
        const unsigned depth = tree.treeDepth();
        const Leaf leaf = rng.nextBounded(tree.numLeaves());
        std::uint64_t idx = 0;
        reads.push_back({base, tree.bucketBytes(), false});
        for (unsigned l = 0; l < depth; ++l) {
            const std::uint64_t bit = (leaf >> (depth - 1 - l)) & 1;
            idx = 2 * idx + 1 + bit;
            reads.push_back(
                {base + idx * tree.bucketBytes(), tree.bucketBytes(),
                 false});
        }
        base += tree.numBuckets() * tree.bucketBytes();
    }

    const Cycles read_done = mem.accessBatch(start, reads);
    std::vector<dram::MemRequest> writes = reads;
    for (auto &req : writes)
        req.isWrite = true;
    return mem.accessBatch(read_done, writes) - start;
}

Cell
runCell(std::uint64_t blocks_log2, unsigned banks)
{
    oram::OramConfig cfg = oram::OramConfig::paperConfig();
    cfg.numBlocks = std::uint64_t{1} << blocks_log2;
    dram::DramConfig dcfg;
    dcfg.banksPerChannel = banks;

    Cell c;
    c.blocksLog2 = blocks_log2;
    c.depth = cfg.treeDepth();
    c.banks = banks;
    {
        dram::DramModel mem(dcfg);
        Rng rng(kCalibSeed);
        oram::OramController ctrl(cfg, mem, rng, oram::PathMode::Sync);
        c.syncOlat = ctrl.accessLatency();
    }
    {
        dram::DramModel mem(dcfg);
        Rng rng(kCalibSeed);
        oram::OramController ctrl(cfg, mem, rng,
                                  oram::PathMode::Pipelined);
        c.pipeOlat = ctrl.accessLatency();
        c.pipeOccupancy = ctrl.occupancyPerAccess();
    }
    {
        dram::DramModel mem(dcfg);
        Rng rng(kCalibSeed);
        c.syncMatchesPrePr =
            preSplitCalibration(cfg, mem, rng) == c.syncOlat;
    }
    c.improvement = 1.0 - static_cast<double>(c.pipeOlat) /
                              static_cast<double>(c.syncOlat);
    return c;
}

/**
 * Drive a 4-shard async array through the ring scheduler
 * with an open-loop backlog and trailing dummies, and verify every
 * shard's recorded stream is exactly periodic at
 * max(rate + OLAT, occupancy) — the enforced slots shrink to the
 * pipelined latency without the observable channel losing periodicity.
 */
bool
asyncShardStreamsPeriodic(Cycles rate, std::string &detail)
{
    constexpr std::uint32_t kShards = 4;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(kCalibSeed);
    oram::OramDeviceSpec inner;
    inner.pathMode = oram::PathMode::Pipelined;
    oram::ShardedOramDevice device(inner, oram::OramConfig::benchConfig(),
                                   kShards, /*route_seed=*/7, mem, rng,
                                   /*record=*/true);
    timing::RateSet rates{std::vector<Cycles>{rate}};
    timing::EpochSchedule schedule{Cycles{1} << 30, 2, Cycles{1} << 40};
    timing::RateLearner learner{rates};
    protocol::LeakageParams params;
    params.rateCount = 1;
    sim::RingScheduler sched(device, rates, schedule, learner, rate,
                             params);

    sched.openSession(0x5eed);
    for (std::uint64_t k = 0; k < 512; ++k)
        if (!sched.trySubmit(0, k,
                             timing::OramTransaction::real(k * 7919ull)))
            tcoram_fatal("backlog exceeds the lane capacity");
    const Cycles last = sched.runUntilIdle();
    sched.drainUntil(last + 16 * (rate + device.accessLatency()));

    for (std::uint32_t i = 0; i < kShards; ++i) {
        const auto &dev = device.shard(i);
        const Cycles period = std::max(rate + dev.accessLatency(),
                                       dev.occupancyPerAccess());
        const auto starts = device.recorder(i)->startCycles();
        if (starts.size() < 8) {
            detail = "shard stream too short";
            return false;
        }
        std::size_t j = 0;
        if (!bench::exactlyPeriodic(starts, period, &j)) {
            std::ostringstream os;
            os << "shard " << i << " gap " << j << ": "
               << (starts[j] - starts[j - 1]) << " != " << period;
            detail = os.str();
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_async.json");

    const std::vector<std::uint64_t> blocks_log2 =
        quick ? std::vector<std::uint64_t>{16, kPaperBlocksLog2}
              : std::vector<std::uint64_t>{12, 16, 20, kPaperBlocksLog2};
    const std::vector<unsigned> bank_counts =
        quick ? std::vector<unsigned>{8} : std::vector<unsigned>{4, 8, 16};

    bench::banner(
        "split-transaction DRAM: pipelined vs sync ORAM path scheduling");
    std::printf("%-8s %-7s %-7s %-10s %-10s %-11s %-9s %-9s\n", "blocks",
                "depth", "banks", "sync-OLAT", "pipe-OLAT", "occupancy",
                "improv", "sync==pre");

    std::vector<Cell> cells;
    for (unsigned banks : bank_counts) {
        for (std::uint64_t b : blocks_log2) {
            const Cell c = runCell(b, banks);
            std::printf("2^%-6llu %-7u %-7u %-10llu %-10llu %-11llu "
                        "%-8.1f%% %-9s\n",
                        (unsigned long long)c.blocksLog2, c.depth, c.banks,
                        (unsigned long long)c.syncOlat,
                        (unsigned long long)c.pipeOlat,
                        (unsigned long long)c.pipeOccupancy,
                        100.0 * c.improvement,
                        c.syncMatchesPrePr ? "yes" : "NO");
            cells.push_back(c);
        }
    }

    std::string periodic_detail;
    const bool periodic = asyncShardStreamsPeriodic(1000, periodic_detail);
    std::printf("async shard streams under ShardSlot enforcement: %s%s%s\n",
                periodic ? "exactly periodic" : "APERIODIC",
                periodic ? "" : " — ", periodic_detail.c_str());

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os << "{\n  \"bench\": \"async_overlap\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"calib_seed\": " << kCalibSeed << ",\n";
        os << "  \"async_streams_periodic\": "
           << (periodic ? "true" : "false") << ",\n";
        os << "  \"cells\": [";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            os << (i ? ",\n    {" : "\n    {");
            os << "\"blocks_log2\": " << c.blocksLog2;
            os << ", \"depth\": " << c.depth;
            os << ", \"banks_per_channel\": " << c.banks;
            os << ", \"sync_olat\": " << c.syncOlat;
            os << ", \"pipelined_olat\": " << c.pipeOlat;
            os << ", \"pipelined_occupancy\": " << c.pipeOccupancy;
            os << ", \"improvement\": " << bench::jsonNum(c.improvement);
            os << ", \"sync_matches_pre_split\": "
               << (c.syncMatchesPrePr ? "true" : "false");
            os << "}";
        }
        os << "\n  ]\n}\n";
        bench::writeArtifact(json_path, os.str());
    }

    // --- CI gate ---
    if (check) {
        bool ok = true;
        bool saw_paper_cell = false;
        for (const Cell &c : cells) {
            if (c.pipeOlat > c.syncOlat) {
                std::printf("FAIL: pipelined OLAT %llu > sync %llu at "
                            "2^%llu blocks, %u banks\n",
                            (unsigned long long)c.pipeOlat,
                            (unsigned long long)c.syncOlat,
                            (unsigned long long)c.blocksLog2, c.banks);
                ok = false;
            }
            if (!c.syncMatchesPrePr) {
                std::printf("FAIL: sync calibration differs from the "
                            "pre-split controller at 2^%llu blocks, %u "
                            "banks\n",
                            (unsigned long long)c.blocksLog2, c.banks);
                ok = false;
            }
            if (c.blocksLog2 == kPaperBlocksLog2 && c.banks == 8) {
                saw_paper_cell = true;
                if (c.improvement < 0.15) {
                    std::printf("FAIL: paper-scale improvement %.1f%% < "
                                "15%%\n",
                                100.0 * c.improvement);
                    ok = false;
                }
            }
        }
        if (!saw_paper_cell) {
            std::printf("FAIL: sweep omitted the paper-scale gate cell\n");
            ok = false;
        }
        if (!periodic) {
            std::printf("FAIL: async shard stream aperiodic (%s)\n",
                        periodic_detail.c_str());
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("check OK: pipelined <= sync everywhere, >= 15%% at "
                    "paper scale, sync bit-identical to pre-split, "
                    "async streams periodic\n");
    }
    return 0;
}
