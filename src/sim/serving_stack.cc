#include "sim/serving_stack.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "oram/oram_config.hh"

namespace tcoram::sim {

namespace {

oram::OramDeviceSpec
keyed(oram::OramDeviceSpec spec, std::uint64_t seed)
{
    spec.keySeed = mixSeed(seed, 0x0de71ce5ull);
    return spec;
}

protocol::LeakageParams
singleRateParams()
{
    protocol::LeakageParams p;
    p.rateCount = 1;
    p.epoch0 = ServingStack::kEpoch0;
    return p;
}

} // namespace

ServingStack::ServingStack(oram::OramDeviceSpec spec, std::uint32_t shards,
                           Cycles rate, std::uint64_t seed,
                           const RingScheduler::Options &opts)
    : rate_(rate), lanes_(opts.lanes), mem_(dram::DramConfig{}),
      rng_(seed), rates_(std::vector<Cycles>{rate}),
      schedule_(kEpoch0, 2, Cycles{1} << 40), learner_(rates_),
      device_(keyed(std::move(spec), seed),
              oram::OramConfig::benchConfig(), shards,
              mixSeed(seed, 0x0072a7e5ull), mem_, rng_, /*record=*/true),
      sched_(device_, rates_, schedule_, learner_, rate,
             singleRateParams(), opts)
{
}

ServingStack::~ServingStack() = default;

Cycles
ServingStack::shardPeriod(std::uint32_t i) const
{
    return rate_ + device_.shard(i).accessLatency();
}

Cycles
ServingStack::period() const
{
    Cycles p = 0;
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        p = std::max(p, shardPeriod(i));
    return p;
}

std::vector<ServingStack::Event>
ServingStack::shardStream(std::uint32_t i) const
{
    const timing::RecordingOramDevice *rec = device_.recorder(i);
    tcoram_assert(rec != nullptr, "the serving stack always records");
    std::vector<Event> out;
    out.reserve(rec->records().size());
    for (const auto &r : rec->records())
        out.push_back({r.completion.start,
                       r.kind == timing::OramTransaction::Kind::Real});
    return out;
}

std::vector<Cycles>
ServingStack::shardStarts(std::uint32_t i) const
{
    std::vector<Cycles> out;
    for (const Event &e : shardStream(i))
        out.push_back(e.start);
    return out;
}

std::string
ServingStack::streamCsv() const
{
    std::ostringstream os;
    os << "shard,start,kind\n";
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        for (const Event &e : shardStream(i))
            os << i << ',' << e.start << ',' << (e.real ? 'r' : 'd')
               << '\n';
    return os.str();
}

bool
ServingStack::allTokensRetired() const
{
    for (std::size_t l = 0; l < lanes_; ++l) {
        const SessionRing &ring = sched_.lane(l);
        if (ring.drained() != ring.submitted() ||
            ring.retiredFence() != ring.submitted())
            return false;
    }
    return true;
}

std::uint64_t
ServingStack::sumFunctional(
    std::uint64_t (oram::FunctionalOramDevice::*counter)() const) const
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &device_.innerDevice(i)))
            n += (dev->*counter)();
    return n;
}

} // namespace tcoram::sim
