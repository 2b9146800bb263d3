/**
 * @file
 * DDR3-like DRAM timing parameters. Defaults follow the paper's
 * Table 1 memory system: 667 MHz (DDR), 2 channels, 16 bytes of pin
 * bandwidth per DRAM cycle. The timing numbers are representative
 * DDR3-1333 values expressed in DRAM clock cycles; the model stands in
 * for the paper's DRAMSim2.
 */

#ifndef TCORAM_DRAM_DRAM_CONFIG_HH
#define TCORAM_DRAM_DRAM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace tcoram::dram {

struct DramConfig
{
    /** Number of independent channels (paper: 2). */
    unsigned channels = 2;
    /** Banks per channel. */
    unsigned banksPerChannel = 8;
    /** Row size in bytes (row-buffer reach). */
    std::uint64_t rowBytes = 8192;
    /** Bytes transferred per DRAM cycle over the pins (paper: 16). */
    std::uint64_t bytesPerCycle = 16;

    /**
     * Ratio of DRAM command clock to processor clock. The paper rate-
     * matches DDR at 2 * 667 MHz = 1.334 GHz against a 1 GHz core, so
     * one DRAM cycle = 0.75 processor cycles; we keep timing math in
     * DRAM cycles and convert at the boundary.
     */
    double dramCyclesPerCpuCycle = 1.334;

    /** Activate-to-read delay, DRAM cycles (tRCD). */
    unsigned tRCD = 9;
    /** Read-to-data delay (tCAS / CL). */
    unsigned tCAS = 9;
    /** Precharge delay (tRP). */
    unsigned tRP = 9;
    /** Minimum row-open time (tRAS). */
    unsigned tRAS = 24;
    /** Command/turnaround gap between back-to-back channel bursts. */
    unsigned cmdGap = 2;

    /**
     * Refresh modeling. Every tREFI DRAM cycles the channel blocks
     * for tRFC while a refresh completes (all-bank refresh). Refresh
     * is one of the nondeterministic-timing sources §8.1 leans on
     * when arguing that deterministic-replay defences break. Set
     * refreshEnabled = false for the idealized model.
     */
    bool refreshEnabled = false;
    unsigned tREFI = 10400; ///< ~7.8 us at 1.334 GHz
    unsigned tRFC = 214;    ///< ~160 ns

    /**
     * Row-buffer management. Open-page is standard; the paper's §10
     * discussion ("disable row buffers or place them in a public
     * state") motivates the closed-page option, which we expose for
     * the no-ORAM protection study.
     */
    bool closedPage = false;

    /** Convert DRAM cycles to (rounded-up) processor cycles. */
    Cycles toCpuCycles(std::uint64_t dram_cycles) const
    {
        return static_cast<Cycles>(
            static_cast<double>(dram_cycles) / dramCyclesPerCpuCycle + 0.999999);
    }

    /** DRAM cycles needed to move @p nbytes over the pins. */
    std::uint64_t burstCycles(std::uint64_t nbytes) const
    {
        return (nbytes + bytesPerCycle - 1) / bytesPerCycle;
    }
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_DRAM_CONFIG_HH
