#include "common/config.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/log.hh"
#include "topo/graph.hh"

namespace mcmgpu {

namespace {

std::string
joinIssues(const std::vector<ConfigIssue> &issues)
{
    std::ostringstream os;
    os << "invalid machine description (" << issues.size() << " issue"
       << (issues.size() == 1 ? "" : "s") << ")";
    for (const ConfigIssue &i : issues)
        os << "\n  - " << i.message;
    return os.str();
}

/** A bandwidth must be positive and finite; NaN compares false. */
bool
finitePositive(double gbps)
{
    return gbps > 0.0 && std::isfinite(gbps);
}

/**
 * The paper carves L1.5 capacity out of the memory-side L2 in an
 * iso-transistor manner; when (almost) all of the L2 moves, a small 32 KB
 * per-partition sliver remains to accelerate atomics (section 5.1.2).
 */
constexpr uint64_t kTotalCacheBudget = 16 * MiB;
constexpr uint64_t kL2SliverPerPartition = 32 * KiB;

/** Figure 2's proportional L2 and L1.5 budget: 16 MB at 256 SMs. */
uint64_t
cacheBudget(uint64_t sms)
{
    return kTotalCacheBudget * sms / 256;
}

} // namespace

ConfigError::ConfigError(std::vector<ConfigIssue> issues)
    : std::runtime_error(joinIssues(issues)), issues_(std::move(issues))
{
}

bool
ConfigError::has(ConfigErrc code) const
{
    return std::any_of(issues_.begin(), issues_.end(),
                       [code](const ConfigIssue &i) {
                           return i.code == code;
                       });
}

std::vector<ConfigIssue>
GpuConfig::check() const
{
    std::vector<ConfigIssue> issues;
    auto flag = [&](ConfigErrc code, auto &&...parts) {
        issues.push_back(ConfigIssue{
            code,
            log_detail::concat("config '", name, "': ",
                               std::forward<decltype(parts)>(parts)...)});
    };

    if (num_modules == 0)
        flag(ConfigErrc::NoModules, "num_modules == 0");
    if (sms_per_module == 0)
        flag(ConfigErrc::NoSms, "sms_per_module == 0");
    if (partitions_per_module == 0)
        flag(ConfigErrc::NoPartitions, "partitions_per_module == 0");
    if (l2.line_bytes == 0 || (l2.line_bytes & (l2.line_bytes - 1)))
        flag(ConfigErrc::BadLineSize, "L2 line size must be a power of two");
    if (l1.line_bytes != l2.line_bytes || l15.line_bytes != l2.line_bytes)
        flag(ConfigErrc::LineSizeMismatch,
             "all cache levels must share a line size");
    if (page_bytes == 0 || (page_bytes & (page_bytes - 1)))
        flag(ConfigErrc::BadPageSize, "page size must be a power of two");
    if (page_bytes < l2.line_bytes)
        flag(ConfigErrc::PageBelowLine, "pages smaller than a cache line");
    if (interleave_bytes < l2.line_bytes)
        flag(ConfigErrc::InterleaveBelowLine,
             "interleave granularity below line size");
    // Every rate test is written so that NaN and infinity fail it.
    if (!finitePositive(dram_total_gbps))
        flag(ConfigErrc::NoDramBandwidth, "DRAM bandwidth must be positive");
    if (num_modules > 1 && !finitePositive(link_gbps))
        flag(ConfigErrc::NoLinkBandwidth,
             "inter-module links need bandwidth");
    if (l15_alloc != L15Alloc::Off && l15.size_bytes == 0)
        flag(ConfigErrc::L15NoCapacity, "L1.5 enabled with zero capacity");
    // Each level is built per SM, GPM or partition, and a Cache counts
    // its sets in 32 bits: a present level holds at least one set in
    // every instance, and fewer than 2^32, of at most kMaxWays ways.
    auto sets = [&](const char *level, const CacheGeometry &g,
                    uint64_t instances) {
        if (g.size_bytes == 0 || instances == 0)
            return; // no such level, or no machine (flagged above)
        const uint64_t per = g.size_bytes / instances;
        const uint64_t set = static_cast<uint64_t>(g.line_bytes) * g.ways;
        if (set == 0 || per / set == 0 ||
            per / set > std::numeric_limits<uint32_t>::max()) {
            flag(ConfigErrc::BadCacheSets, level, " of ", per,
                 " B does not hold 1 to 2^32 - 1 sets of ", g.ways, " x ",
                 g.line_bytes, " B");
        }
        if (g.ways > CacheGeometry::kMaxWays)
            flag(ConfigErrc::BadCacheWays, level, " has ", g.ways,
                 " ways; a set holds at most ", CacheGeometry::kMaxWays);
    };
    sets("per-SM L1", l1, 1);
    sets("per-GPM L1.5", l15, num_modules);
    sets("per-partition L2", l2, totalPartitions());

    if (fabric_vcs > 2)
        flag(ConfigErrc::BadFabricVcs, "fabric_vcs ", fabric_vcs,
             " unsupported (0 = off, 1 = shared pool, 2 = req/resp)");
    if (fabric_vcs > 0 && vc_credits == 0)
        flag(ConfigErrc::BadVcCredits,
             "vc_credits must be positive when virtual channels are on");

    // --- Topology ----------------------------------------------------------
    // Every machine must spell its topology correctly, but a single
    // module compiles to a fabric without links whatever the family
    // says, so only multi-module machines validate structure.
    topo::TopologyDesc desc;
    std::string perr;
    if (!topo::parseTopology(topology, desc, perr)) {
        flag(ConfigErrc::TopoBadSpec, "topology '", topology, "': ", perr);
    } else if (num_modules > 1) {
        if (desc.kind == topo::TopoKind::Package &&
            !finitePositive(pkg_link_gbps)) {
            flag(ConfigErrc::NoLinkBandwidth,
                 "inter-package links need bandwidth");
        }
        for (const topo::TopoIssue &ti :
             topo::checkTopology(desc, num_modules)) {
            switch (ti.kind) {
              case topo::TopoIssueKind::BadSpec:
                flag(ConfigErrc::TopoBadSpec, ti.message);
                break;
              case topo::TopoIssueKind::DimsMismatch:
                flag(ConfigErrc::TopoDimsMismatch, ti.message);
                break;
              case topo::TopoIssueKind::Unreachable:
                flag(ConfigErrc::TopoUnreachable, ti.message);
                break;
            }
        }
    }

    // --- Fault-plan sanity -------------------------------------------------
    for (const FaultPlan::SweptSm &s : fault.swept_sms) {
        if (s.module >= num_modules)
            flag(ConfigErrc::FaultBadModule, "fault plan sweeps SM of "
                 "module ", s.module, " but machine has ", num_modules);
        else if (s.local_sm >= sms_per_module)
            flag(ConfigErrc::FaultBadSm, "fault plan sweeps SM ",
                 s.local_sm, " of module ", s.module, " but GPMs have ",
                 sms_per_module, " SMs");
    }
    if (!fault.swept_sms.empty() && num_modules > 0 && sms_per_module > 0) {
        for (ModuleId m = 0; m < num_modules; ++m) {
            if (fault.sweptSmsIn(m) >= sms_per_module) {
                flag(ConfigErrc::FaultModuleFullySwept, "fault plan "
                     "disables every SM of module ", m,
                     "; a GPM with no SMs cannot be scheduled around");
            }
        }
    }
    for (const FaultPlan::LinkFault &f : fault.link_faults) {
        if (f.module != FaultPlan::kAllModules && f.module >= num_modules)
            flag(ConfigErrc::FaultBadModule, "fault plan derates link of "
                 "module ", f.module, " but machine has ", num_modules);
        if (!(f.bw_derate > 0.0 && f.bw_derate <= 1.0))
            flag(ConfigErrc::FaultBadLinkDerate, "link derate ",
                 f.bw_derate, " outside (0, 1]");
        if (!(f.error_rate >= 0.0 && f.error_rate <= 1.0))
            flag(ConfigErrc::FaultBadLinkErrorRate, "link error rate ",
                 f.error_rate, " outside [0, 1]");
    }
    if (num_modules > 0 && partitions_per_module > 0) {
        uint32_t alive = 0;
        for (PartitionId p = 0; p < totalPartitions(); ++p)
            alive += fault.partitionDead(p) ? 0 : 1;
        for (PartitionId p : fault.dead_partitions) {
            if (p >= totalPartitions())
                flag(ConfigErrc::FaultBadPartition, "fault plan kills "
                     "partition ", p, " but machine has ",
                     totalPartitions());
        }
        if (!fault.dead_partitions.empty() && alive == 0)
            flag(ConfigErrc::FaultAllPartitionsDead,
                 "fault plan kills every DRAM partition");
    }

    return issues;
}

void
GpuConfig::validate() const
{
    std::vector<ConfigIssue> issues = check();
    if (!issues.empty())
        throw ConfigError(std::move(issues));
}

GpuConfig &
GpuConfig::withL15(uint64_t total_bytes, L15Alloc alloc)
{
    const uint64_t budget = cacheBudget(totalSms());
    l15.size_bytes = total_bytes;
    l15_alloc = total_bytes == 0 ? L15Alloc::Off : alloc;
    l2.size_bytes = std::max(total_bytes < budget ? budget - total_bytes : 0,
                             kL2SliverPerPartition * totalPartitions());
    return *this;
}

namespace configs {

namespace {

/** The one spelling of every machine the command line can name. */
const struct
{
    const char *name;
    GpuConfig (*make)();
} kPresets[] = {
    {"mono-32", [] { return monolithic(32); }},
    {"mono-128", monolithicBuildableMax},
    {"mono-256", monolithicUnbuildable},
    {"mcm-basic", [] { return mcmBasic(); }},
    {"mcm-optimized", [] { return mcmOptimized(); }},
    {"mcm-mesh", mcmMesh},
    {"mcm-mesh+adaptive", mcmMeshAdaptive},
    {"mcm-rings", mcmRingOfRings},
    {"mcm-package", mcmPackage},
    {"mcm-turnaround", mcmTurnaround},
    {"multi-gpu", multiGpuBaseline},
    {"multi-gpu-opt", multiGpuOptimized},
};

} // namespace

GpuConfig
monolithic(uint32_t num_sms)
{
    fatal_if(num_sms == 0 || num_sms % 32 != 0,
             "monolithic preset wants a multiple of 32 SMs, got ", num_sms);
    GpuConfig c;
    c.name = "monolithic-" + std::to_string(num_sms);
    c.num_modules = 1;
    c.sms_per_module = num_sms;
    // Keep one partition per 32 SMs so channel counts (and hence DRAM
    // parallelism) scale with the machine exactly like the paper's
    // proportional scaling experiment.
    c.partitions_per_module = num_sms / 32;
    c.l2.size_bytes = cacheBudget(num_sms);
    c.dram_total_gbps = 3072.0 * num_sms / 256.0;
    c.link_gbps = 0.0;
    c.cta_sched = CtaSchedPolicy::CentralizedRR;
    c.page_policy = PagePolicy::FineInterleave;
    return c;
}

GpuConfig
monolithicBuildableMax()
{
    return monolithic(128).withName("monolithic-128-max-buildable");
}

GpuConfig
monolithicUnbuildable()
{
    return monolithic(256).withName("monolithic-256-unbuildable");
}

GpuConfig
mcmBasic(double link_gbps)
{
    GpuConfig c;
    c.name = "mcm-basic";
    c.num_modules = 4;
    c.sms_per_module = 64;
    c.partitions_per_module = 1;
    c.l2.size_bytes = kTotalCacheBudget;
    c.dram_total_gbps = 3072.0;
    c.topology = "ring";
    c.link_gbps = link_gbps;
    c.link_hop_cycles = 32;
    c.cta_sched = CtaSchedPolicy::CentralizedRR;
    c.page_policy = PagePolicy::FineInterleave;
    return c;
}

GpuConfig
mcmWithL15(uint64_t l15_total, L15Alloc alloc, double link_gbps)
{
    // A 32MB L1.5 exceeds the budget on purpose (the paper's
    // non-iso-transistor data point).
    GpuConfig c = mcmBasic(link_gbps).withL15(l15_total, alloc);
    c.name = "mcm-l15-" + std::to_string(l15_total / MiB) + "mb" +
             (alloc == L15Alloc::RemoteOnly ? "-remote" : "-all");
    return c;
}

GpuConfig
mcmOptimized(double link_gbps)
{
    GpuConfig c = mcmWithL15(8 * MiB, L15Alloc::RemoteOnly, link_gbps);
    c.cta_sched = CtaSchedPolicy::DistributedBatch;
    c.page_policy = PagePolicy::FirstTouch;
    c.name = "mcm-optimized";
    return c;
}

GpuConfig
mcmMesh()
{
    GpuConfig c = mcmBasic();
    c.topology = "mesh2d:2x2";
    c.name = "mcm-mesh";
    return c;
}

GpuConfig
mcmTurnaround()
{
    GpuConfig c = mcmBasic();
    // PR 7's calibration sweep: an 8-cycle per-channel bus turnaround
    // matches GDDR-class tRTW/tWTR budgets at this clock, and a
    // 16-entry posted write-drain batch amortizes the penalty to one
    // turnaround per drain. Validated on the write-heavy streaming
    // workload (see tests/test_dram_turnaround.cc): batching recovers
    // most of the naive per-write turnaround loss.
    c.dram_turnaround_cycles = 8;
    c.dram_write_drain = 16;
    c.name = "mcm-turnaround";
    return c;
}

GpuConfig
mcmMeshAdaptive()
{
    GpuConfig c = mcmMesh();
    c.route_policy = RoutePolicy::Adaptive;
    c.name = "mcm-mesh+adaptive";
    return c;
}

GpuConfig
mcmRingOfRings()
{
    GpuConfig c = mcmBasic();
    c.topology = "ring-of-rings:2/2";
    c.name = "mcm-rings";
    return c;
}

GpuConfig
mcmPackage()
{
    GpuConfig c = mcmBasic();
    // Two basic packages side by side: double the modules, L2 and DRAM
    // scale with them, and the board tier gets the multi-GPU baseline's
    // link pricing (256 GB/s aggregate, board-level hop latency).
    c.num_modules = 8;
    c.l2.size_bytes = 2 * kTotalCacheBudget;
    c.dram_total_gbps = 2.0 * 3072.0;
    c.topology = "package:2";
    c.pkg_link_gbps = 256.0;
    c.pkg_link_hop_cycles = 256;
    // Fine-grain scheduling and interleave perform poorly over a slow
    // board link (section 6.1); follow the multi-GPU baseline.
    c.cta_sched = CtaSchedPolicy::DistributedBatch;
    c.page_policy = PagePolicy::FirstTouch;
    c.name = "mcm-package";
    return c;
}

GpuConfig
multiGpuBaseline()
{
    GpuConfig c;
    c.name = "multi-gpu-baseline";
    c.num_modules = 2;
    c.sms_per_module = 128;
    // Each discrete GPU is the maximal buildable die: 8MB L2, 1.5 TB/s.
    c.partitions_per_module = 4;
    c.l2.size_bytes = 16 * MiB;
    c.dram_total_gbps = 3072.0;
    c.topology = "ring";     // two nodes: degenerates to one link pair
    c.link_gbps = 256.0;     // 256 GB/s aggregate over both directions
    c.link_hop_cycles = 256; // board-level hop (serdes + PCB flight)
    c.board_level_links = true;
    // Section 6.1: distributed scheduling and first touch are applied to
    // the multi-GPU baseline as well (fine-grain alternatives performed
    // very poorly over the slow board link).
    c.cta_sched = CtaSchedPolicy::DistributedBatch;
    c.page_policy = PagePolicy::FirstTouch;
    return c;
}

GpuConfig
multiGpuOptimized()
{
    GpuConfig c = multiGpuBaseline();
    // Half of each GPU's L2 becomes a GPU-side remote-only cache.
    c.withL15(8 * MiB, L15Alloc::RemoteOnly);
    c.name = "multi-gpu-optimized";
    return c;
}

const std::vector<std::string> &
presetNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &p : kPresets)
            out.push_back(p.name);
        return out;
    }();
    return names;
}

GpuConfig
preset(const std::string &name)
{
    for (const auto &p : kPresets) {
        if (name == p.name)
            return p.make();
    }
    fatal("unknown machine preset '", name, "'");
}

} // namespace configs

} // namespace mcmgpu
