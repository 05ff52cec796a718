/**
 * @file
 * Machine description for every GPU organization studied in the paper:
 * monolithic GPUs (buildable and hypothetical), the basic and optimized
 * MCM-GPU, and on-board multi-GPU systems.
 *
 * All named presets correspond to configurations evaluated in the paper;
 * Table 3 is exactly what mcmBasic() describes.
 */

#ifndef MCMGPU_COMMON_CONFIG_HH
#define MCMGPU_COMMON_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"

namespace mcmgpu {

/** Machine-description defects detectable by GpuConfig::check(). */
enum class ConfigErrc
{
    NoModules,
    NoSms,
    NoPartitions,
    BadLineSize,
    LineSizeMismatch,
    BadPageSize,
    PageBelowLine,
    InterleaveBelowLine,
    NoDramBandwidth,
    NoLinkBandwidth,
    L15NoCapacity,
    BadCacheSets, //!< a cache instance holds no set, or 2^32 sets or more
    BadCacheWays, //!< a cache level has more than CacheGeometry::kMaxWays
    FaultBadModule,
    FaultBadSm,
    FaultModuleFullySwept,
    FaultBadLinkDerate,
    FaultBadLinkErrorRate,
    FaultBadPartition,
    FaultAllPartitionsDead,
    BadFabricVcs,
    BadVcCredits,
    TopoBadSpec,       //!< unparseable/ill-formed --topology spec
    TopoDimsMismatch,  //!< topology dims do not cover num_modules
    TopoUnreachable,   //!< routing tables leave some pair unroutable
};

/** One defect found by GpuConfig::check(): a code plus prose. */
struct ConfigIssue
{
    ConfigErrc code;
    std::string message;
};

/** Thrown by GpuConfig::validate(); carries every issue found. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(std::vector<ConfigIssue> issues);

    const std::vector<ConfigIssue> &issues() const { return issues_; }

    /** True when some issue carries @p code (test assertions). */
    bool has(ConfigErrc code) const;

  private:
    std::vector<ConfigIssue> issues_;
};

/** How CTAs are handed to SMs (paper section 5.2). */
enum class CtaSchedPolicy
{
    /** Global round-robin across all SMs, like a monolithic GPU. */
    CentralizedRR,
    /** Contiguous CTA batches split equally among modules. */
    DistributedBatch,
    /**
     * Distributed batches plus contiguity-preserving work stealing:
     * an idle module takes the tail half of the largest remaining
     * batch. Implements the dynamic mechanism the paper leaves to
     * future work for imbalanced grids (section 5.4).
     */
    DynamicBatch,
};

/** How pages are mapped to memory partitions (paper section 5.3). */
enum class PagePolicy
{
    /** 256B-granularity interleave across all partitions (baseline). */
    FineInterleave,
    /** Page maps to the partition local to the first-touching module. */
    FirstTouch,
    /** Whole pages interleaved round-robin across partitions. */
    RoundRobinPage,
};

/** Allocation filter of the GPM-side L1.5 cache (paper section 5.1). */
enum class L15Alloc
{
    Off,        //!< no L1.5 cache present
    All,        //!< cache both local and remote lines
    RemoteOnly, //!< cache only lines homed on a remote module
};

/**
 * How the memory system resolves a post-L1 access.
 *
 * Chain computes the whole L1.5 → fabric → L2 → DRAM round trip
 * synchronously at issue (the historical model; bit-identical timing,
 * zero extra events). Staged walks the same path as a split
 * transaction — one calendar event per pipeline stage — which makes
 * in-flight occupancy observable over simulated time and enables
 * finite per-module remote MSHRs (`remote_mshrs`) with stall-on-full
 * back-pressure into the SM scoreboard.
 */
enum class MemModel
{
    Chain,  //!< synchronous chain-equivalent composition (default)
    Staged, //!< event-per-stage split transactions
};

/**
 * How the fabric chooses among equal-cost candidate routes
 * (docs/TOPOLOGY.md "Route policies").
 *
 * Static reproduces the legacy behaviour bit for bit: ties alternate on
 * a global toggle, everything else takes its single candidate. Adaptive
 * scores each candidate by the summed backlogCycles(now) of its links
 * and takes the least-congested one, breaking score ties towards the
 * lowest candidate index; when every candidate scores the same it falls
 * back to the legacy toggle — turning the congestion telemetry into a
 * closed control loop while staying fully deterministic.
 */
enum class RoutePolicy
{
    Static,   //!< legacy toggle over ties (default; bit-identical)
    Adaptive, //!< least-backlog candidate, toggle only on full ties
};

/** Geometry/latency of one set-associative cache level. */
struct CacheGeometry
{
    /** Most ways a set may hold: a Cache keeps each set's recency order
     *  as one 4-bit way index per position in a 64-bit word. */
    static constexpr uint32_t kMaxWays = 16;

    uint64_t size_bytes = 0;
    uint32_t line_bytes = 128;
    uint32_t ways = 16;
    Cycle hit_latency = 30;

    /** Sets of one instance of @p size_bytes; GpuConfig::check()
     *  rejects every machine whose count would be 0 or not fit. */
    uint32_t
    numSets() const
    {
        if (size_bytes == 0)
            return 0;
        return static_cast<uint32_t>(size_bytes /
                                     (static_cast<uint64_t>(line_bytes) *
                                      ways));
    }
};

/**
 * Full description of one logical GPU. Sizes marked "total" are summed
 * over the entire logical GPU and divided among modules/partitions when
 * the machine is instantiated.
 */
struct GpuConfig
{
    std::string name = "unnamed";

    // --- Organization -----------------------------------------------------
    uint32_t num_modules = 4;       //!< GPMs (or discrete GPUs on a board)
    uint32_t sms_per_module = 64;
    uint32_t partitions_per_module = 1;

    // --- SM ----------------------------------------------------------------
    uint32_t max_warps_per_sm = 64;
    uint32_t max_ctas_per_sm = 16;
    uint32_t sm_issue_width = 1;    //!< warp-instructions issued per cycle
    /** In-order SMs scoreboard loads and keep issuing until a value is
     *  consumed; this caps the independent memory requests one warp may
     *  have in flight (per-warp MLP). */
    uint32_t max_outstanding_per_warp = 4;

    // --- Caches -------------------------------------------------------------
    CacheGeometry l1{128 * KiB, 128, 4, 4};    //!< per SM
    CacheGeometry l15{0, 128, 16, 16};         //!< total across the GPU
    CacheGeometry l2{16 * MiB, 128, 16, 30};   //!< total across the GPU
    L15Alloc l15_alloc = L15Alloc::Off;
    /** Serial tag-check latency added to requests that miss the L1.5
     *  before they can head for the fabric (cause of the paper's
     *  DWT/NN regressions). */
    Cycle l15_miss_penalty = 4;

    // --- DRAM ----------------------------------------------------------------
    double dram_total_gbps = 3072.0;   //!< aggregate DRAM bandwidth (GB/s)
    double dram_latency_ns = 100.0;
    uint32_t channels_per_partition = 8;
    /** Read/write bus-turnaround penalty per channel: switching a
     *  channel's bus direction costs this many cycles before the next
     *  access is served. 0 (the default) disables the model entirely —
     *  timing stays bit-identical to the turnaround-free seed. */
    Cycle dram_turnaround_cycles = 0;
    /** Write-drain policy (only meaningful with a turnaround penalty):
     *  posted writes buffer per channel and drain as one batch once
     *  this many accumulate — or when a read needs the bus — paying one
     *  turnaround per batch instead of one per interleaved write.
     *  0 keeps every write immediate. */
    uint32_t dram_write_drain = 0;

    // --- Inter-module fabric --------------------------------------------------
    /**
     * The fabric's topology spec ("ring", "mesh2d[:RxC]",
     * "ring-of-rings:G/R", "package:P", "ports" — docs/TOPOLOGY.md),
     * validated by check(). A single-module machine compiles any spec
     * to a fabric without links.
     */
    std::string topology = "ring";
    double link_gbps = 768.0;          //!< aggregate GB/s of one link
                                       //!< (both directions combined)
    Cycle link_hop_cycles = 32;        //!< per-hop latency penalty
    bool board_level_links = false;    //!< true for multi-GPU systems
    /** Inter-package (NVLink-class) link pricing, used only by the
     *  package:P topology's board-tier links; on-package GRS links keep
     *  using link_gbps / link_hop_cycles. Aggregate GB/s per link. */
    double pkg_link_gbps = 256.0;
    Cycle pkg_link_hop_cycles = 256;
    /** Equal-cost candidate selection in the fabric. Static (the
     *  default) alternates ties on a global toggle; Adaptive steers
     *  each message onto the candidate with the least summed link
     *  backlog at send time (docs/TOPOLOGY.md). Topologies without
     *  equal-cost ties (ports, a single module) are unaffected. */
    RoutePolicy route_policy = RoutePolicy::Static;

    // --- Memory pipeline ---------------------------------------------------------
    /** Split-transaction model selector; Chain reproduces the seed
     *  timing bit-for-bit. */
    MemModel mem_model = MemModel::Chain;
    /** Per-module remote MSHRs under MemModel::Staged: requests homed
     *  on a remote module wait for a free entry before entering the
     *  fabric (section 4.1's outstanding-request pressure). 0 means
     *  unbounded; ignored under MemModel::Chain. */
    uint32_t remote_mshrs = 0;
    /** Fabric virtual channels under MemModel::Staged. 0 disables
     *  credit flow control entirely (the default: transactions enter
     *  the fabric unconditionally, timing identical to today). 1 runs
     *  requests and responses through one shared credit pool — a
     *  deliberately deadlock-prone protocol used for diagnosis tests.
     *  2 gives responses their own channel, making the fabric
     *  protocol-deadlock-free by construction (see docs/FABRIC.md). */
    uint32_t fabric_vcs = 0;
    /** Credits (buffer slots) per VC per directed GPM pair; a class
     *  out of credits parks in a bounded FIFO until a credit frees.
     *  Ignored when fabric_vcs == 0. */
    uint32_t vc_credits = 64;

    // --- Memory management ------------------------------------------------------
    PagePolicy page_policy = PagePolicy::FineInterleave;
    uint64_t page_bytes = 4 * KiB;
    uint32_t interleave_bytes = 256;   //!< fine-interleave granularity

    // --- Scheduling ----------------------------------------------------------
    CtaSchedPolicy cta_sched = CtaSchedPolicy::CentralizedRR;
    /** Driver + hardware kernel launch latency, scaled to this
     *  suite's shortened kernels (real launches cost 2-10 us; these
     *  kernels are ~100x shorter than the paper's 1B-instruction
     *  windows). The serial cost is what bends Figure 2's strong
     *  scaling below linear. */
    Cycle kernel_launch_cycles = 300;

    // --- Faults & guard rails --------------------------------------------------
    /** Injected degradation; empty = pristine machine. */
    FaultPlan fault;
    /** No-progress watchdog window: pending events but no retired warp
     *  instruction for this many cycles (or events) raises a SimStall
     *  with a machine-occupancy diagnostic. 0 disables the watchdog. */
    Cycle watchdog_cycles = 2'000'000;
    /** Hard per-run cycle budget; kCycleMax = unlimited. Hitting it
     *  surfaces RunStatus::CycleLimit rather than an error. */
    Cycle cycle_limit = kCycleMax;

    // --- Parallel-in-run simulation (docs/PDES.md) -----------------------------
    /** Worker threads for the conservative PDES engine: each GPM's
     *  events run in their own simulation domain, synchronized at
     *  lookahead-bounded window barriers. 1 (the default) keeps the
     *  historical single-queue serial engine, bit for bit. Values > 1
     *  require an eligible machine (staged memory model, distributed
     *  CTA scheduling, a fabric lookahead above one cycle, ...);
     *  ineligible machines warn once and run serially. */
    uint32_t sim_threads = 1;

    // --- Derived helpers -------------------------------------------------------
    uint32_t totalSms() const { return num_modules * sms_per_module; }
    uint32_t totalPartitions() const
    { return num_modules * partitions_per_module; }
    double dramGbpsPerPartition() const
    { return dram_total_gbps / totalPartitions(); }
    uint64_t l2BytesPerPartition() const
    { return l2.size_bytes / totalPartitions(); }
    uint64_t l15BytesPerModule() const
    { return l15.size_bytes / num_modules; }

    /**
     * Structured consistency check: every defect found, including
     * fault-plan sanity (out-of-range ids, a fully swept GPM, every
     * partition dead). Empty result = valid machine.
     */
    std::vector<ConfigIssue> check() const;

    /** Throw a ConfigError listing every check() issue; no-op if valid. */
    void validate() const;

    // --- Fluent mutators used by experiment sweeps ------------------------------
    GpuConfig &withName(std::string n) { name = std::move(n); return *this; }
    GpuConfig &withLinkGbps(double gbps) { link_gbps = gbps; return *this; }
    /**
     * Carve an L1.5 of @p total_bytes out of the L2, iso-transistor
     * (section 5.1): the two share a budget of 64 KiB per SM (Figure
     * 2's proportional rule), and the L2 keeps the rest, never less
     * than a 32 KiB sliver per partition for atomics. An L1.5 past the
     * budget leaves only the sliver. 0 turns the L1.5 off and gives
     * the L2 the whole budget.
     */
    GpuConfig &withL15(uint64_t total_bytes, L15Alloc alloc);
    GpuConfig &withSched(CtaSchedPolicy p) { cta_sched = p; return *this; }
    GpuConfig &withPagePolicy(PagePolicy p) { page_policy = p; return *this; }
    GpuConfig &withFault(FaultPlan plan)
    { fault = std::move(plan); return *this; }
    GpuConfig &
    withMemModel(MemModel m, uint32_t mshrs = 0)
    {
        mem_model = m;
        remote_mshrs = mshrs;
        return *this;
    }
    GpuConfig &
    withFabricVcs(uint32_t vcs, uint32_t credits = 64)
    {
        fabric_vcs = vcs;
        vc_credits = credits;
        return *this;
    }
    GpuConfig &
    withTopology(std::string spec)
    {
        topology = std::move(spec);
        return *this;
    }
    GpuConfig &
    withRoutePolicy(RoutePolicy p)
    {
        route_policy = p;
        return *this;
    }
    GpuConfig &
    withSimThreads(uint32_t n)
    {
        sim_threads = n == 0 ? 1 : n;
        return *this;
    }
};

/**
 * MCMGPU_FIELDS(obj, f, prefix, m1, m2, ...) binds the members of
 * @p obj as m1, m2, ... and hands each to f under its own spelling, so
 * the binding is the field list: it fails to compile unless it names
 * every member, and no member can be bound without being visited.
 */
#define MCMGPU_FIELDS(obj, f, prefix, ...)                                  \
    auto &[__VA_ARGS__] = obj;                                             \
    config_detail::visitMembers(f, prefix, #__VA_ARGS__, __VA_ARGS__)

namespace config_detail {

/** Calls f(prefix + name, member) on each of @p members, taking the
 *  names in order from @p names, their comma-separated spelling. A
 *  CacheGeometry or FaultPlan member is walked field by field. */
template <typename F, typename... M>
void
visitMembers(F &f, const std::string &prefix, std::string_view names,
             M &...members)
{
    auto visit = [&](auto &member) {
        const size_t begin = names.find_first_not_of(", ");
        const size_t end = names.find_first_of(", ", begin);
        const std::string name =
            prefix + std::string(names.substr(begin, end - begin));
        names.remove_prefix(std::min(end, names.size()));
        using S = std::remove_cvref_t<decltype(member)>;
        if constexpr (std::is_same_v<S, CacheGeometry> ||
                      std::is_same_v<S, FaultPlan>)
            forEachField(member, f, name + ".");
        else
            f(name, member);
    };
    (visit(members), ...);
}

} // namespace config_detail

/**
 * The one list of a machine's settings: calls f(name, member) on every
 * member of @p obj, in declaration order, each name prefixed with
 * @p prefix. @p obj is a GpuConfig, a CacheGeometry, a FaultPlan or a
 * FaultPlan list item; a GpuConfig's CacheGeometry and FaultPlan
 * members are walked in place ("l2.ways", "fault.seed").
 * experiment::configKey() is this walk.
 */
template <typename T, typename F>
void
forEachField(T &obj, F &&f, const std::string &prefix = "")
{
    using S = std::remove_const_t<T>;
    if constexpr (std::is_same_v<S, CacheGeometry>) {
        MCMGPU_FIELDS(obj, f, prefix, size_bytes, line_bytes, ways,
                      hit_latency);
    } else if constexpr (std::is_same_v<S, FaultPlan>) {
        MCMGPU_FIELDS(obj, f, prefix, swept_sms, link_faults,
                      link_retry_cycles, seed, dead_partitions);
    } else if constexpr (std::is_same_v<S, FaultPlan::SweptSm>) {
        MCMGPU_FIELDS(obj, f, prefix, module, local_sm);
    } else if constexpr (std::is_same_v<S, FaultPlan::LinkFault>) {
        MCMGPU_FIELDS(obj, f, prefix, module, bw_derate, error_rate);
    } else {
        static_assert(std::is_same_v<S, GpuConfig>);
        MCMGPU_FIELDS(obj, f, prefix, name, num_modules, sms_per_module,
                      partitions_per_module, max_warps_per_sm,
                      max_ctas_per_sm, sm_issue_width,
                      max_outstanding_per_warp, l1, l15, l2, l15_alloc,
                      l15_miss_penalty, dram_total_gbps, dram_latency_ns,
                      channels_per_partition, dram_turnaround_cycles,
                      dram_write_drain, topology, link_gbps, link_hop_cycles,
                      board_level_links, pkg_link_gbps, pkg_link_hop_cycles,
                      route_policy, mem_model, remote_mshrs, fabric_vcs,
                      vc_credits, page_policy, page_bytes, interleave_bytes,
                      cta_sched, kernel_launch_cycles, fault, watchdog_cycles,
                      cycle_limit, sim_threads);
    }
}

#undef MCMGPU_FIELDS

namespace configs {

/**
 * A monolithic single-die GPU with @p num_sms SMs; L2 capacity and DRAM
 * bandwidth scale proportionally with SM count as in Figure 2
 * (384 GB/s + 2 MB at 32 SMs up to 3 TB/s + 16 MB at 256 SMs).
 */
GpuConfig monolithic(uint32_t num_sms);

/** The largest GPU assumed buildable on one die: 128 SMs (section 2.1). */
GpuConfig monolithicBuildableMax();

/** The hypothetical, unbuildable 256-SM monolithic GPU. */
GpuConfig monolithicUnbuildable();

/** Table 3: the basic 4-GPM, 256-SM MCM-GPU. */
GpuConfig mcmBasic(double link_gbps = 768.0);

/** Basic MCM-GPU with an L1.5 of @p l15_total bytes carved out of its
 *  L2 (GpuConfig::withL15). */
GpuConfig mcmWithL15(uint64_t l15_total, L15Alloc alloc = L15Alloc::RemoteOnly,
                     double link_gbps = 768.0);

/**
 * The fully optimized MCM-GPU (section 5.4): 8MB remote-only L1.5 +
 * 8MB L2, distributed CTA scheduling, first-touch page placement.
 */
GpuConfig mcmOptimized(double link_gbps = 768.0);

/** Basic MCM-GPU rewired as a 2x2 mesh (Figure 1's package layout):
 *  same GPMs and link pricing, dimension-ordered routing. */
GpuConfig mcmMesh();

/**
 * Basic MCM-GPU with the calibrated DRAM bus-turnaround model armed:
 * an 8-cycle read/write turnaround per channel plus a 16-entry posted
 * write-drain batch (PR 7's sweep; see docs/MODEL.md §DRAM). Validated
 * against a write-heavy streaming workload — batching drains keeps the
 * turnaround tax to one penalty per batch instead of one per write.
 */
GpuConfig mcmTurnaround();

/** The mesh preset with congestion-aware route selection: identical
 *  machine, but equal-cost XY/YX candidates are picked by least summed
 *  link backlog instead of the static toggle (docs/TOPOLOGY.md). */
GpuConfig mcmMeshAdaptive();

/** Basic MCM-GPU as a ring-of-rings: 2 local rings of 2 GPMs plus an
 *  express ring over the group gateways. */
GpuConfig mcmRingOfRings();

/** Two basic MCM packages on one board: on-package rings bridged by
 *  NVLink-class inter-package links (8 GPMs, 512 SMs total). */
GpuConfig mcmPackage();

/**
 * Baseline 2x128-SM multi-GPU (section 6.1): 256 GB/s aggregate board
 * link, distributed scheduling + first touch, no GPU-side remote cache.
 */
GpuConfig multiGpuBaseline();

/** Optimized multi-GPU: half of each GPU's L2 becomes a remote-only cache. */
GpuConfig multiGpuOptimized();

/** The name of every preset preset() knows, in table order. */
const std::vector<std::string> &presetNames();

/** The preset called @p name (one of presetNames(); fatal otherwise). */
GpuConfig preset(const std::string &name);

} // namespace configs

} // namespace mcmgpu

#endif // MCMGPU_COMMON_CONFIG_HH
