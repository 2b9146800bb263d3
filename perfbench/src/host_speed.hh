/**
 * @file
 * Host speed reference: a fixed piece of work that belongs to the
 * benchmark, not to the library, timed between the measured
 * repetitions.
 *
 * On a shared host each core runs at one of two speeds, up to 1.7x
 * apart, depending on whether another tenant keeps its sibling hardware
 * thread and the shared cache busy; the cores switch independently
 * every few seconds and the share of slow time drifts over minutes.
 * The scenarios and the reference slow down together, so a sample
 * scaled by a power of the reference's speed around it keeps a change
 * to the library in full and loses most of the drift. Over 46 runs,
 * the log of each median figure against the log of the run's median
 * reference speed had slopes of -0.9 (set-up time), 1.7 to 2.1
 * (datapath throughput) and 2.3 to 2.5 (KV throughput): set-up time is
 * multiplied by the speed, and the two single-threaded throughputs are
 * divided by its square. The grid runs on every core while the
 * reference measures one, so its throughput follows the reference
 * less closely (slopes 1.2 to 2.0) and is divided by the speed itself;
 * its square overcorrected it.
 */

#ifndef TCORAM_PERFBENCH_HOST_SPEED_HH
#define TCORAM_PERFBENCH_HOST_SPEED_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    HostSpeed();

    /**
     * Run the reference once on the calling thread.
     * @return the speed it ran at: 1 on an idle core of the machine the
     *         benchmark was written on, below 1 on a busier or slower
     *         core.
     */
    double sample();

  private:
    std::vector<std::uint32_t> sorted_;
    std::vector<std::uint64_t> blocks_;
    std::uint64_t x_ = 1;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // TCORAM_PERFBENCH_HOST_SPEED_HH
