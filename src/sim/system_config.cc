#include "sim/system_config.hh"

#include <sstream>

#include "common/log.hh"
#include "oram/oram_device.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

dram::BackendSpec
SystemConfig::memorySpec() const
{
    dram::BackendSpec spec;
    spec.flatLatency = baseDramLatency;
    switch (scheme) {
      case Scheme::BaseDram:
        spec.kind = "flat";
        break;
      case Scheme::ProtectedDram:
        // §10 variant: public-state (closed-page) row buffers.
        spec.kind = "banked";
        spec.dram.closedPage = true;
        break;
      default:
        spec.kind = "banked";
        break;
    }
    if (!memoryBackend.empty() && memoryBackend != spec.kind) {
        // Validate here, where the config (not a later registry make()
        // deep in construction) can be named in the error.
        if (!dram::BackendRegistry::instance().contains(memoryBackend)) {
            tcoram_fatal(
                "config '", name, "': unknown memory backend \"",
                memoryBackend, "\" (registered: ",
                joinNames(dram::BackendRegistry::instance().kinds()), ")");
        }
        if (memoryBackend == "trace")
            spec.traceInner = spec.kind;
        spec.kind = memoryBackend;
    }
    // Timing-fault kinds (delay/refuse) live in the memory layer: wrap
    // whatever backend was resolved above in the FaultyMemory
    // decorator. Data kinds are the functional datapath's job and do
    // not touch the memory spec.
    const dram::FaultSpec fault = faultSpecParsed();
    if (fault.enabled() && fault.has(dram::kFaultTimingMask) &&
        spec.kind != "faulty") {
        spec.faultInner = spec.kind;
        spec.kind = "faulty";
        spec.fault = fault;
        // Keep only the kinds this layer injects; the datapath arms
        // flip/stuck from the same parsed spec independently.
        spec.fault.kinds &= dram::kFaultTimingMask;
    }
    return spec;
}

dram::FaultSpec
SystemConfig::faultSpecParsed() const
{
    if (faultSpec.empty())
        return {};
    return dram::FaultSpec::parse(faultSpec);
}

std::string
SystemConfig::oramDeviceKind() const
{
    if (oramDevice.empty())
        return "timing";
    if (!oram::oramDeviceKindKnown(oramDevice)) {
        tcoram_fatal("config '", name, "': unknown ORAM device \"",
                     oramDevice, "\" (registered: ",
                     joinNames(oram::oramDeviceKinds()), ")");
    }
    return oramDevice;
}

std::string
SystemConfig::dramModeKind() const
{
    if (dramMode.empty())
        return "sync";
    if (dramMode != "sync" && dramMode != "async") {
        tcoram_fatal("config '", name, "': unknown dramMode \"", dramMode,
                     "\" (known: async, sync)");
    }
    return dramMode;
}

oram::PathMode
SystemConfig::pathMode() const
{
    return dramModeKind() == "async" ? oram::PathMode::Pipelined
                                     : oram::PathMode::Sync;
}

std::uint32_t
SystemConfig::shardCount() const
{
    if (oramShards == 0 || oramShards > kMaxOramShards) {
        tcoram_fatal("config '", name, "': oramShards must be in [1, ",
                     kMaxOramShards, "], got ", oramShards);
    }
    return oramShards;
}

oram::EvictionPolicy
SystemConfig::evictionPolicyKind() const
{
    oram::EvictionPolicy p;
    if (evictionPolicy.empty() || evictionPolicy == "off") {
        p = oram::EvictionPolicy::Off;
    } else if (evictionPolicy == "gap") {
        p = oram::EvictionPolicy::Gap;
    } else if (evictionPolicy == "highwater") {
        p = oram::EvictionPolicy::HighWater;
    } else {
        tcoram_fatal("config '", name, "': unknown evictionPolicy \"",
                     evictionPolicy, "\" (known: ",
                     oram::evictionPolicyNames(), ")");
    }
    if (p != oram::EvictionPolicy::Off &&
        pathMode() != oram::PathMode::Pipelined) {
        tcoram_fatal("config '", name, "': evictionPolicy \"",
                     evictionPolicy, "\" requires dramMode = \"async\" "
                     "(the sync controller has no write-back tail to "
                     "defer)");
    }
    return p;
}

std::uint32_t
SystemConfig::evictionBudgetValue() const
{
    if (evictionBudget > kMaxEvictionBudget) {
        tcoram_fatal("config '", name, "': evictionBudget must be in [0, ",
                     kMaxEvictionBudget, "], got ", evictionBudget);
    }
    if (evictionBudget == 0 &&
        evictionPolicyKind() != oram::EvictionPolicy::Off) {
        tcoram_fatal("config '", name, "': evictionBudget must be nonzero "
                     "when evictionPolicy is \"", evictionPolicy, "\"");
    }
    return evictionBudget;
}

workload::WorkloadParams
SystemConfig::workloadSpec() const
{
    if (workload.empty()) {
        tcoram_fatal("config '", name, "': workload spec is empty "
                     "(expected \"method:k=v,...\", methods: ",
                     joinNames(workload::WorkloadRegistry::instance()
                                   .methods()),
                     ")");
    }
    // parseWorkloadSpec validates keys and the method name itself and
    // is fatal with the offending spec; prefix the config key so the
    // failure names where the string came from.
    workload::WorkloadParams params =
        workload::parseWorkloadSpec(workload);
    if (!workload::WorkloadRegistry::instance().contains(params.method)) {
        tcoram_fatal("config '", name, "': unknown workload method \"",
                     params.method, "\" (registered: ",
                     joinNames(workload::WorkloadRegistry::instance()
                                   .methods()),
                     ")");
    }
    return params;
}

std::uint32_t
SystemConfig::evictionAutoBudget() const
{
    if (!evictionAutoTune)
        return evictionBudgetValue();
    if (evictionPolicyKind() != oram::EvictionPolicy::HighWater) {
        tcoram_fatal("config '", name, "': evictionAutoTune requires "
                     "evictionPolicy = \"highwater\" (got \"",
                     evictionPolicy.empty() ? "off" : evictionPolicy,
                     "\")");
    }
    const workload::WorkloadParams params = workloadSpec();
    return workload::observedBurstDepth(params, kMaxEvictionBudget);
}

SystemConfig
SystemConfig::baseDram()
{
    SystemConfig c;
    c.name = "base_dram";
    c.scheme = Scheme::BaseDram;
    return c;
}

SystemConfig
SystemConfig::baseOram()
{
    SystemConfig c;
    c.name = "base_oram";
    c.scheme = Scheme::BaseOram;
    return c;
}

SystemConfig
SystemConfig::staticScheme(Cycles rate)
{
    SystemConfig c;
    c.scheme = Scheme::Static;
    c.staticRate = rate;
    c.initialRate = rate;
    std::ostringstream os;
    os << "static_" << rate;
    c.name = os.str();
    return c;
}

SystemConfig
SystemConfig::dynamicScheme(std::size_t rate_count, unsigned epoch_growth)
{
    SystemConfig c;
    c.scheme = Scheme::Dynamic;
    c.rateCount = rate_count;
    c.epochGrowth = epoch_growth;
    std::ostringstream os;
    os << "dynamic_R" << rate_count << "_E" << epoch_growth;
    c.name = os.str();
    return c;
}

SystemConfig
SystemConfig::protectedDram(std::size_t rate_count, unsigned epoch_growth)
{
    SystemConfig c = dynamicScheme(rate_count, epoch_growth);
    c.scheme = Scheme::ProtectedDram;
    // DRAM accesses are ~40 cycles, not ~1500: the useful rate band
    // sits proportionally lower (idle slot cost is one line transfer).
    c.rateLo = 32;
    c.rateHi = 4096;
    c.initialRate = 512;
    std::ostringstream os;
    os << "protected_dram_R" << rate_count << "_E" << epoch_growth;
    c.name = os.str();
    return c;
}

} // namespace tcoram::sim
