#include "sim/stat_dump.hh"

#include <locale>
#include <sstream>

namespace tcoram::sim {

StatDump
toStatDump(const KVStats &s, Cycles get_p99, Cycles put_p99)
{
    StatDump d;
    d.set("kv.gets", static_cast<double>(s.gets));
    d.set("kv.puts", static_cast<double>(s.puts));
    d.set("kv.scans", static_cast<double>(s.scans));
    d.set("kv.hits", static_cast<double>(s.hits));
    d.set("kv.misses", static_cast<double>(s.misses));
    const std::uint64_t lookups = s.hits + s.misses;
    d.set("kv.hit_rate", lookups == 0
                             ? 0.0
                             : static_cast<double>(s.hits) /
                                   static_cast<double>(lookups));
    d.set("kv.inserts", static_cast<double>(s.inserts));
    d.set("kv.updates", static_cast<double>(s.updates));
    d.set("kv.failed_puts", static_cast<double>(s.failedPuts));
    d.set("kv.probes", static_cast<double>(s.probes));
    const std::uint64_t ops = s.gets + s.puts;
    d.set("kv.probes_per_op", ops == 0
                                  ? 0.0
                                  : static_cast<double>(s.probes) /
                                        static_cast<double>(ops));
    d.set("kv.spill_blocks_read",
          static_cast<double>(s.spillBlocksRead));
    d.set("kv.spill_blocks_written",
          static_cast<double>(s.spillBlocksWritten));
    d.set("kv.oram_reads", static_cast<double>(s.oramReads));
    d.set("kv.oram_writes", static_cast<double>(s.oramWrites));
    d.set("kv.get_p99_cycles", static_cast<double>(get_p99));
    d.set("kv.put_p99_cycles", static_cast<double>(put_p99));
    return d;
}

std::string
kvStatsCsv(const KVStats &s, Cycles get_p99, Cycles put_p99)
{
    // Bound to a local: the map all() returns lives in the dump.
    const StatDump d = toStatDump(s, get_p99, put_p99);
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "stat,value\n";
    for (const auto &[key, value] : d.all())
        os << key << ',' << value << '\n';
    return os.str();
}

} // namespace tcoram::sim
