/**
 * @file
 * Ablations of the rate learner's design choices:
 *   1. Algorithm-1 shift-register divider vs an exact divider
 *      (§7.2-7.3: the shifter undersets by <= 2x, which compensates
 *      for burstiness).
 *   2. lg-spaced vs linearly spaced rate candidates (§9.2: lg spacing
 *      gives memory-bound workloads more fast-end choices).
 *   3. First-epoch rate sensitivity (§6.2: the initial epoch's rate is
 *      data-independent; its choice should wash out).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace tcoram;

namespace {

double
geoPerf(const sim::Grid &g, std::size_t c)
{
    std::vector<double> xs;
    for (std::size_t w = 0; w < g.workloads.size(); ++w)
        xs.push_back(sim::perfOverheadX(g.at(c, w), g.at(0, w)));
    return sim::geoMean(xs);
}

double
avgWatts(const sim::Grid &g, std::size_t c)
{
    double s = 0;
    for (std::size_t w = 0; w < g.workloads.size(); ++w)
        s += g.at(c, w).watts;
    return s / static_cast<double>(g.workloads.size());
}

} // namespace

int
main()
{
    setQuiet(true);
    const auto profiles = bench::suiteProfiles();

    auto shifter = bench::scaled(sim::SystemConfig::dynamicScheme(4, 4));
    auto exact = shifter;
    exact.name = "dynamic_R4_E4_exactdiv";
    exact.divider = timing::RateLearner::Divider::Exact;
    auto linear = shifter;
    linear.name = "dynamic_R4_E4_linearR";
    linear.linearSpacing = true;
    auto init_fast = shifter;
    init_fast.name = "dynamic_R4_E4_init256";
    init_fast.initialRate = 256;
    auto init_slow = shifter;
    init_slow.name = "dynamic_R4_E4_init32768";
    init_slow.initialRate = 32768;

    const std::vector<sim::SystemConfig> configs = {
        bench::scaled(sim::SystemConfig::baseDram()),
        shifter,
        exact,
        linear,
        init_fast,
        init_slow};
    const auto grid =
        bench::runGridParallel(configs, profiles, bench::kInsts, bench::kWarmup);

    bench::banner("Learner ablations (geomean perf overhead, avg power)");
    std::printf("%-26s %-10s %-10s\n", "config", "perf (x)", "power (W)");
    for (std::size_t c = 1; c < configs.size(); ++c)
        std::printf("%-26s %-10.2f %-10.3f\n", configs[c].name.c_str(),
                    geoPerf(grid, c), avgWatts(grid, c));

    std::printf("\nExpectations: shifter ~ exact (|R| is coarse, §7.3); "
                "linear R hurts memory-bound\nworkloads (fast-end gap "
                "256 -> 11093); initial-rate choice washes out after\n"
                "epoch 0 (§6.2).\n");
    return 0;
}
