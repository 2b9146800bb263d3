#include "sim/report.hh"

#include <cstdio>
#include <locale>
#include <sstream>

#include "common/log.hh"

namespace tcoram::sim {

namespace {

/**
 * CSV must be byte-stable across host environments: a grouping or
 * comma-decimal global locale would corrupt the numeric columns.
 */
std::ostringstream
classicStream()
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    return os;
}

} // namespace

std::string
csvHeader()
{
    return "config,workload,instructions,cycles,ipc,watts,on_chip_watts,"
           "llc_misses,oram_real,oram_dummy,dummy_fraction,oram_latency,"
           "oram_bytes_per_access,epochs_used,sim_leakage_bits,"
           "paper_leakage_bits";
}

std::string
csvRow(const SimResult &r)
{
    std::ostringstream os = classicStream();
    os << r.configName << ',' << r.workloadName << ',' << r.instructions
       << ',' << r.cycles << ',' << r.ipc << ',' << r.watts << ','
       << r.onChipWatts << ',' << r.llcMisses << ',' << r.oramReal << ','
       << r.oramDummy << ',' << r.dummyFraction() << ',' << r.oramLatency
       << ',' << r.oramBytesPerAccess << ',' << r.epochsUsed << ','
       << r.simLeakageBits << ',' << r.paperLeakageBits;
    return os.str();
}

std::string
toCsv(const Grid &grid)
{
    std::ostringstream os = classicStream();
    os << csvHeader() << '\n';
    for (const auto &per_config : grid.results)
        for (const auto &r : per_config)
            os << csvRow(r) << '\n';
    return os.str();
}

void
writeCsv(const Grid &grid, const std::string &path)
{
    const std::string text = toCsv(grid);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        tcoram_fatal("cannot open CSV output: ", path);
    const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size())
        tcoram_fatal("short write to CSV output: ", path);
}

} // namespace tcoram::sim
