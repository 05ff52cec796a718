/**
 * @file
 * Compiled topology: a graph of named nodes (GPMs) and directed links,
 * plus deterministic per-hop routing tables. Link names, emission
 * order, per-direction bandwidth split and fault-plan seeding are part
 * of the contract: the ring, mesh and port builders reproduce the
 * hand-written fabrics they replaced bit for bit (tests/
 * legacy_fabrics.hh keeps those as the parity reference), and
 * ring-of-rings and multi-package graphs extend the same machinery
 * (docs/TOPOLOGY.md).
 *
 * Routing is computed once at build time. Every (src, dst) pair gets
 * one or more candidate routes (ordered link sequences); pairs with
 * several candidates are equal-cost ties that the fabric alternates
 * over with a global toggle.
 */

#ifndef MCMGPU_TOPO_GRAPH_HH
#define MCMGPU_TOPO_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "topo/desc.hh"

namespace mcmgpu {
namespace topo {

/** One directed link of the compiled graph. */
struct TopoLinkDesc
{
    std::string name;   //!< stable display name ("ring.cw0", "board.cw1")
    uint32_t src = 0;   //!< upstream node
    uint32_t dst = 0;   //!< downstream node
    bool board = false; //!< board-class link: priced at board energy
    double gbps = 0.0;  //!< per-direction bandwidth, GB/s
    Cycle hop_cycles = 0;
    /** Fault-plan keying: derate/error lookups use this module id and
     *  the salt keeps parallel link arrays on distinct error streams
     *  (cw = 1, ccw = 2 — the legacy ring values). */
    ModuleId fault_upstream = 0;
    uint64_t fault_salt = 0;
};

/** Link-pricing inputs for the graph builders. */
struct TopoParams
{
    uint32_t num_modules = 0;
    double link_gbps = 768.0;       //!< aggregate GB/s of one link
    Cycle link_hop_cycles = 32;
    double pkg_link_gbps = 256.0;   //!< aggregate GB/s, inter-package
    Cycle pkg_link_hop_cycles = 256;
    /** Legacy multi-GPU flag: the whole fabric is board-class. */
    bool board_level_links = false;
};

/** The compiled node/link graph. Nodes 0 .. nodes-1 are the modules,
 *  the only route endpoints; switches are transit-only vertices
 *  numbered after them (the port model's central switch). */
struct TopoGraph
{
    uint32_t nodes = 0;
    uint32_t switches = 0;
    std::vector<TopoLinkDesc> links;

    /** Link @p l starts at a module, so its bytes are inter-module
     *  traffic; a link out of a switch re-carries bytes that a module's
     *  link already counted. */
    bool leavesModule(const TopoLinkDesc &l) const { return l.src < nodes; }

    bool
    hasBoardLinks() const
    {
        for (const TopoLinkDesc &l : links)
            if (l.board)
                return true;
        return false;
    }
};

/** One route: link indices into TopoGraph::links, in traversal order. */
using LinkSeq = std::vector<uint32_t>;

/** All candidate routes for one (src, dst) pair, deterministic order
 *  (clockwise-first); more than one only for equal-cost ties. */
struct RouteSet
{
    std::vector<LinkSeq> candidates;
};

/** Per-pair routing table; entries[src * nodes + dst]. */
struct RouteTable
{
    uint32_t nodes = 0;
    std::vector<RouteSet> entries;

    const RouteSet &
    at(uint32_t src, uint32_t dst) const
    {
        return entries[static_cast<size_t>(src) * nodes + dst];
    }
};

/** Structural defects found by checkTopology(). */
enum class TopoIssueKind
{
    BadSpec,      //!< family constraint violated (e.g. < 2 groups)
    DimsMismatch, //!< dims do not cover num_modules exactly
    Unreachable,  //!< some (src, dst) pair has no valid route
};

struct TopoIssue
{
    TopoIssueKind kind;
    std::string message;
};

/**
 * Compile @p desc into nodes and links. The desc must have passed
 * checkTopology() for @p params.num_modules; violations are fatal
 * here, not diagnosed. A single module compiles to a graph without
 * links, whatever the family: it has no inter-module traffic.
 */
TopoGraph buildTopoGraph(const TopologyDesc &desc, const TopoParams &params);

/**
 * Deterministic routing tables for @p graph: dimension-order (XY) on
 * the mesh, shortest-path with tie candidates on rings, hierarchical
 * local/express/local on ring-of-rings and package graphs, and egress
 * then ingress port through the switch on the port model.
 *
 * With @p equal_cost_alternates set (the adaptive route policy), mesh
 * pairs whose endpoints differ in both dimensions additionally get the
 * YX route as a second candidate — same hop count, XY first so
 * candidate 0 is always the legacy route. The default (false) emits
 * tables byte-identical to the historical single-candidate form, which
 * is what keeps the static policy bit-identical.
 */
RouteTable computeRoutes(const TopologyDesc &desc, const TopoGraph &graph,
                         bool equal_cost_alternates = false);

/**
 * Property-check @p table against @p graph: every src != dst pair has
 * at least one candidate, every candidate is link-connected from src
 * to dst, and no candidate revisits a node. Returns one message per
 * violation; empty = sound.
 */
std::vector<std::string> verifyRoutes(const TopoGraph &graph,
                                      const RouteTable &table);

/**
 * Full structural validation of @p desc against a module count: family
 * constraints, dims coverage, and (by building the graph + routes with
 * placeholder pricing) route soundness. Used by GpuConfig::check().
 */
std::vector<TopoIssue> checkTopology(const TopologyDesc &desc,
                                     uint32_t num_modules);

/** The most-square R x C grid covering @p nodes (a prime count
 *  degenerates to a 1 x N line). */
void mostSquareGrid(uint32_t nodes, uint32_t &rows, uint32_t &cols);

} // namespace topo
} // namespace mcmgpu

#endif // MCMGPU_TOPO_GRAPH_HH
