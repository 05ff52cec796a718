/**
 * @file
 * The inter-module fabric.
 *
 * The paper joins GPM crossbars into "a modular on-package ring or
 * mesh" (section 3.2), and the analytical sizing of section 3.3.1
 * abstracts the fabric as per-GPM ingress/egress port bandwidth. Each
 * of these, like the ring-of-rings and multi-package extensions, is a
 * compiled topology (topo/graph.hh): a graph of named links plus a
 * table of candidate routes. One Fabric drives any of them with a route
 * lookup and a hop-by-hop traversal — the shape lives entirely in the
 * tables. A single-module machine compiles to a graph without links,
 * so its fabric costs nothing (the on-chip crossbar).
 *
 * Deadlock freedom is by construction: every route is loop-free
 * (verifyRoutes), mesh routing is dimension-ordered (no illegal
 * turns), and protocol deadlock (request/response cycles through the
 * per-pair credit pools) is broken by FabricStage's virtual channels —
 * the escape VC drains responses ahead of requests on every topology
 * this builds (docs/TOPOLOGY.md, docs/FABRIC.md).
 */

#ifndef MCMGPU_TOPO_FABRIC_HH
#define MCMGPU_TOPO_FABRIC_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "noc/link.hh"
#include "topo/graph.hh"

namespace mcmgpu {

/** Result of pushing a message through a fabric. */
struct FabricTransfer
{
    Cycle arrival = 0;  //!< when the last byte reaches the destination
    /** Traversed links that leave a module: a pass through the port
     *  model's switch is one hop, not two. */
    uint32_t hops = 0;
    /** The route crossed a board-class (inter-package) link, so the
     *  bytes price at board energy; otherwise the machine-wide link
     *  domain applies. */
    bool board = false;
};

/**
 * Construct one link with @p plan's degradation for the segment
 * leaving @p upstream applied: derated bandwidth, and a transient-error
 * process seeded per link (@p salt keeps parallel link arrays — cw/ccw,
 * egress/ingress — on distinct error streams). nullptr plan = clean link.
 */
Link makeFaultedLink(std::string name, double gbps, Cycle hop_cycles,
                     const FaultPlan *plan, ModuleId upstream,
                     uint64_t salt);

/** The inter-module interconnect, driven by a compiled topology. */
class Fabric
{
  public:
    /**
     * Compile @p desc for @p params and instantiate its links, with
     * @p plan's degradation (bandwidth derate, transient errors)
     * applied per link. Under RoutePolicy::Adaptive the tables
     * additionally carry the mesh's equal-hop YX alternates and send()
     * picks the least-backlogged candidate; the default Static policy
     * alternates equal-cost ties on a global toggle.
     */
    Fabric(const topo::TopologyDesc &desc, const topo::TopoParams &params,
           const FaultPlan *plan = nullptr,
           RoutePolicy policy = RoutePolicy::Static);

    /** The fabric of machine @p cfg: its topology spec compiled with
     *  the config's link pricing, route policy and FaultPlan. */
    static std::unique_ptr<Fabric> create(const GpuConfig &cfg);

    /**
     * Move @p bytes from module @p src to module @p dst starting at
     * @p now. src == dst is a no-op returning now.
     */
    FabricTransfer send(ModuleId src, ModuleId dst, uint64_t bytes,
                        Cycle now);

    /** Bytes carried by links leaving a module, hops weighted. */
    uint64_t linkBytes() const;

    /**
     * Total payload bytes injected into the fabric (each message counted
     * once, regardless of path length). This is the "inter-GPM
     * bandwidth" metric of Figures 7/10/14.
     */
    uint64_t injectedBytes() const { return injected_; }

    /** Transient link errors hit so far. */
    uint64_t transientErrors() const;

    /** One line per link: rate, carried bytes, busy cycles, errors.
     *  Feeds the watchdog's stall diagnostic. */
    void dumpOccupancy(std::ostream &os) const;

    /** Visitor for one physical link: a stable display name (e.g.
     *  "ring.cw2") plus the link itself. */
    using LinkVisitor = std::function<void(const std::string &, Link &)>;

    /**
     * Call @p visit once per directional link in the graph's pinned
     * emission order. The observability layer uses this to attach
     * per-link probes and harvest busy intervals, and the sampler
     * registers per-link counters in this order.
     */
    void visitLinks(const LinkVisitor &visit);

    /**
     * Record every hop's traversal latency (service + queueing + hop
     * cycles) into @p hist. Purely observational; not owned, nullptr
     * detaches.
     */
    void setHopHistogram(stats::Histogram *hist) { hop_hist_ = hist; }

    /** Sends where the adaptive route policy scored a multi-candidate
     *  pair (0 under the static policy). */
    uint64_t routeAdaptivePicks() const { return route_adaptive_picks_; }

    /** Adaptive picks that chose a different candidate than the toggle
     *  would have — messages actually steered by congestion. */
    uint64_t routeDiverted() const { return route_diverted_; }

    /** Distribution of chosen candidate indices over all adaptive
     *  multi-candidate picks (element i = times candidate i won). */
    const std::vector<uint64_t> &
    routeCandidatePicks() const
    {
        return cand_picks_;
    }

    /**
     * Minimum cross-module route latency in cycles: min over src != dst
     * of any candidate route's summed hop cycles. This is the PDES
     * engine's conservative lookahead; 0 on a single module.
     */
    Cycle minRouteCycles() const;

    /** The compiled graph backing this fabric (for tests). */
    const topo::TopoGraph &graph() const { return graph_; }

  private:
    /** What send() reports for one candidate route, precomputed. */
    struct RouteMeta
    {
        uint32_t hops = 0;  //!< links on the route that leave a module
        bool board = false; //!< the route crosses a board-class link
    };

    /** Congestion-scored candidate choice for a multi-candidate pair
     *  (adaptive policy only); maintains the pick counters and leaves
     *  route_toggle_ untouched unless every candidate's score ties. */
    size_t pickAdaptive(const topo::RouteSet &set, Cycle now);

    topo::TopoGraph graph_;
    RoutePolicy policy_;
    topo::RouteTable table_;
    std::vector<Link> links_; //!< parallel to graph_.links
    /** Per (src * nodes + dst), per candidate. */
    std::vector<std::vector<RouteMeta>> route_meta_;
    uint64_t injected_ = 0;
    uint64_t route_toggle_ = 0; //!< balances equal-cost candidates
    uint64_t route_adaptive_picks_ = 0; //!< multi-candidate sends scored
    uint64_t route_diverted_ = 0; //!< picks that overrode the toggle
    std::vector<uint64_t> cand_picks_; //!< adaptive picks per cand index
    stats::Histogram *hop_hist_ = nullptr; //!< optional, not owned
};

} // namespace mcmgpu

#endif // MCMGPU_TOPO_FABRIC_HH
