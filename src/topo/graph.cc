#include "topo/graph.hh"

#include "common/log.hh"

namespace mcmgpu {
namespace topo {

namespace {

/** Link ids of one ring layer: cw[i] leaves stop i clockwise
 *  (toward stop (i+1) % k), ccw[i] counter-clockwise. */
struct RingLinks
{
    std::vector<uint32_t> cw;
    std::vector<uint32_t> ccw;
};

/** The structural side of a compiled graph: which link index plays
 *  which role. Re-derivable from the desc alone (the builders emit
 *  links in a fixed canonical order), so computeRoutes() can rebuild
 *  it without the graph carrying routing metadata. */
struct Layout
{
    uint32_t nodes = 0;

    RingLinks flat; //!< TopoKind::Ring

    // TopoKind::Mesh2D
    uint32_t mesh_rows = 0;
    uint32_t mesh_cols = 0;
    std::vector<int32_t> mesh_link_of; //!< (a * nodes + b) -> id, -1

    // TopoKind::RingOfRings / TopoKind::Package
    uint32_t group_size = 0;        //!< stops per local ring (R or M)
    std::vector<RingLinks> local;   //!< one ring layer per group
    RingLinks express;              //!< ring over the group gateways

    // TopoKind::Ports: link ids of module i's ports
    std::vector<uint32_t> egress;
    std::vector<uint32_t> ingress;
};

std::string
num(uint32_t v)
{
    return std::to_string(v);
}

/** Append one link to @p graph and return its id. */
uint32_t
addLink(TopoGraph &graph, std::string name, uint32_t src, uint32_t dst,
        bool board, double gbps, Cycle hop_cycles, ModuleId fault_upstream,
        uint64_t fault_salt)
{
    graph.links.push_back({std::move(name), src, dst, board, gbps,
                           hop_cycles, fault_upstream, fault_salt});
    return static_cast<uint32_t>(graph.links.size() - 1);
}

/**
 * Emit the interleaved cw/ccw link pair for every stop of one ring
 * layer — the storage order the sampler registers per-link counters
 * in, so it is pinned (stats.json depends on it).
 *
 * @p stop_module maps a local stop index to its global node id;
 * 2-stop rings still get both directions built (their names show up
 * in link counters even though only cw routes).
 */
RingLinks
emitRing(TopoGraph &graph, const std::string &prefix, uint32_t stops,
         const std::vector<uint32_t> &stop_module, bool board, double gbps,
         Cycle hop_cycles, uint64_t cw_salt, uint64_t ccw_salt)
{
    RingLinks ids;
    ids.cw.reserve(stops);
    ids.ccw.reserve(stops);
    for (uint32_t i = 0; i < stops; ++i) {
        const uint32_t here = stop_module[i];
        ids.cw.push_back(addLink(graph, prefix + "cw" + num(i), here,
                                 stop_module[(i + 1) % stops], board, gbps,
                                 hop_cycles, here, cw_salt));
        ids.ccw.push_back(addLink(graph, prefix + "ccw" + num(i), here,
                                  stop_module[(i + stops - 1) % stops],
                                  board, gbps, hop_cycles, here, ccw_salt));
    }
    return ids;
}

std::vector<uint32_t>
identityStops(uint32_t n)
{
    std::vector<uint32_t> v(n);
    for (uint32_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

/**
 * Build @p graph and @p layout for @p desc. Single source of truth for
 * link ordering: buildTopoGraph() keeps the graph, computeRoutes()
 * re-runs this to recover the layout.
 */
void
compile(const TopologyDesc &desc, const TopoParams &params, TopoGraph &graph,
        Layout &layout)
{
    const uint32_t n = params.num_modules;
    fatal_if(n == 0, "topology '", desc.spec, "' needs at least one module");
    graph.nodes = n;
    layout.nodes = n;
    if (n == 1)
        return; // nothing to connect: the on-chip case
    fatal_if(params.link_gbps <= 0.0,
             "topology links need positive bandwidth");

    // The configured link bandwidth is the aggregate of one physical
    // link (the paper's "768 GB/s per link"); each direction gets half.
    const double per_dir = params.link_gbps / 2.0;
    const Cycle hop = params.link_hop_cycles;
    const bool board = params.board_level_links;

    switch (desc.kind) {
      case TopoKind::Ring: {
        layout.flat = emitRing(graph, "ring.", n, identityStops(n), board,
                               per_dir, hop, 1, 2);
        return;
      }
      case TopoKind::Mesh2D: {
        uint32_t rows = desc.mesh_rows, cols = desc.mesh_cols;
        if (desc.meshAuto())
            mostSquareGrid(n, rows, cols);
        fatal_if(static_cast<uint64_t>(rows) * cols != n,
                 "mesh dims ", rows, "x", cols, " do not cover ", n,
                 " modules");
        layout.mesh_rows = rows;
        layout.mesh_cols = cols;
        layout.mesh_link_of.assign(static_cast<size_t>(n) * n, -1);
        // Pinned a-major / b-inner emission order, names, and fault
        // salts (3 + downstream node).
        for (uint32_t a = 0; a < n; ++a) {
            const uint32_t ax = a % cols, ay = a / cols;
            for (uint32_t b = 0; b < n; ++b) {
                const uint32_t bx = b % cols, by = b / cols;
                const uint32_t dist = (ax > bx ? ax - bx : bx - ax) +
                                      (ay > by ? ay - by : by - ay);
                if (dist != 1)
                    continue;
                layout.mesh_link_of[static_cast<size_t>(a) * n + b] =
                    static_cast<int32_t>(
                        addLink(graph, "mesh." + num(a) + "->" + num(b), a,
                                b, board, per_dir, hop, a, 3 + b));
            }
        }
        return;
      }
      case TopoKind::RingOfRings: {
        const uint32_t groups = desc.groups;
        const uint32_t stops = desc.ring_stops;
        fatal_if(static_cast<uint64_t>(groups) * stops != n,
                 "ring-of-rings ", groups, "/", stops, " does not cover ",
                 n, " modules");
        layout.group_size = stops;
        layout.local.reserve(groups);
        std::vector<uint32_t> gateways(groups);
        for (uint32_t g = 0; g < groups; ++g) {
            std::vector<uint32_t> members(stops);
            for (uint32_t l = 0; l < stops; ++l)
                members[l] = g * stops + l;
            gateways[g] = members[0];
            layout.local.push_back(
                emitRing(graph, "rring.g" + num(g) + ".", stops, members,
                         board, per_dir, hop, 1, 2));
        }
        // Express ring over the group gateways: still on-package GRS
        // links, just a higher routing tier (distinct fault salts keep
        // its error streams off the local rings').
        layout.express = emitRing(graph, "xring.", groups, gateways, board,
                                  per_dir, hop, 6, 7);
        return;
      }
      case TopoKind::Package: {
        const uint32_t pkgs = desc.packages;
        fatal_if(pkgs < 2 || n % pkgs != 0,
                 "package:", pkgs, " does not divide ", n, " modules");
        const uint32_t per_pkg = n / pkgs;
        layout.group_size = per_pkg;
        std::vector<uint32_t> gateways(pkgs);
        for (uint32_t p = 0; p < pkgs; ++p) {
            std::vector<uint32_t> members(per_pkg);
            for (uint32_t l = 0; l < per_pkg; ++l)
                members[l] = p * per_pkg + l;
            gateways[p] = members[0];
            // One GPM per package leaves no on-package ring to build.
            if (per_pkg >= 2) {
                layout.local.push_back(
                    emitRing(graph, "pkg" + num(p) + ".", per_pkg, members,
                             board, per_dir, hop, 1, 2));
            }
        }
        // Inter-package NVLink-class links: board energy domain, priced
        // by the pkg_link_* knobs instead of the on-package GRS ones.
        fatal_if(params.pkg_link_gbps <= 0.0,
                 "inter-package links need positive bandwidth");
        layout.express = emitRing(graph, "board.", pkgs, gateways,
                                  /*board=*/true, params.pkg_link_gbps / 2.0,
                                  params.pkg_link_hop_cycles, 8, 9);
        return;
      }
      case TopoKind::Ports: {
        // Section 3.3.1's port abstraction: each module owns one egress
        // and one ingress port, meeting at a central switch (node n).
        // The hop latency splits across the two port traversals so one
        // send costs exactly one hop end to end; both ports fault-key
        // on their module, salts 4/5 keeping their error streams apart.
        graph.switches = 1;
        for (uint32_t i = 0; i < n; ++i) {
            layout.egress.push_back(addLink(graph, "ports.egress" + num(i),
                                            i, n, board, per_dir, hop / 2,
                                            i, 4));
            layout.ingress.push_back(
                addLink(graph, "ports.ingress" + num(i), n, i, board,
                        per_dir, hop - hop / 2, i, 5));
        }
        return;
      }
    }
    panic("unknown topology kind");
}

/**
 * Candidate link sequences for moving from stop @p s to stop @p d on a
 * ring layer: strict shortest path picks one direction, an
 * equal-distance tie yields [cw, ccw] (the fabric's toggle alternates
 * over them), and a 2-stop ring always goes clockwise so the one
 * physical link pair is not double-counted.
 */
std::vector<LinkSeq>
ringSegment(const RingLinks &ring, uint32_t s, uint32_t d)
{
    const uint32_t k = static_cast<uint32_t>(ring.cw.size());
    if (s == d)
        return {LinkSeq{}};
    const uint32_t fwd = (d + k - s) % k;
    const uint32_t bwd = k - fwd;

    auto walk = [&](bool clockwise, uint32_t hops) {
        LinkSeq seq;
        seq.reserve(hops);
        uint32_t at = s;
        for (uint32_t h = 0; h < hops; ++h) {
            if (clockwise) {
                seq.push_back(ring.cw[at]);
                at = (at + 1) % k;
            } else {
                seq.push_back(ring.ccw[at]);
                at = (at + k - 1) % k;
            }
        }
        return seq;
    };

    if (k == 2 || fwd < bwd)
        return {walk(true, fwd)};
    if (bwd < fwd)
        return {walk(false, bwd)};
    return {walk(true, fwd), walk(false, bwd)};
}

/** Concatenate every candidate of @p a with every candidate of @p b
 *  (route segments compose independently; order is a-major so the
 *  clockwise-first convention survives composition). */
std::vector<LinkSeq>
crossConcat(const std::vector<LinkSeq> &a, const std::vector<LinkSeq> &b)
{
    std::vector<LinkSeq> out;
    out.reserve(a.size() * b.size());
    for (const LinkSeq &x : a) {
        for (const LinkSeq &y : b) {
            LinkSeq seq = x;
            seq.insert(seq.end(), y.begin(), y.end());
            out.push_back(std::move(seq));
        }
    }
    return out;
}

/** XY route on the mesh: X first, then Y. */
LinkSeq
meshRoute(const Layout &layout, uint32_t src, uint32_t dst)
{
    const uint32_t cols = layout.mesh_cols;
    LinkSeq seq;
    uint32_t at = src;
    auto step = [&](uint32_t next) {
        const int32_t id =
            layout.mesh_link_of[static_cast<size_t>(at) * layout.nodes +
                                next];
        panic_if(id < 0, "mesh nodes ", at, " and ", next,
                 " are not adjacent");
        seq.push_back(static_cast<uint32_t>(id));
        at = next;
    };
    while (at % cols != dst % cols)
        step(at % cols < dst % cols ? at + 1 : at - 1);
    while (at / cols != dst / cols)
        step(at / cols < dst / cols ? at + cols : at - cols);
    return seq;
}

/** YX route on the mesh: the same walk with the dimension order
 *  flipped. Equal hop count to meshRoute(); differs from it only when
 *  src and dst disagree in both dimensions. Still turn-restricted (one
 *  Y-to-X turn, never X-to-Y-to-X), so loop freedom is preserved. */
LinkSeq
meshRouteYx(const Layout &layout, uint32_t src, uint32_t dst)
{
    const uint32_t cols = layout.mesh_cols;
    LinkSeq seq;
    uint32_t at = src;
    auto step = [&](uint32_t next) {
        const int32_t id =
            layout.mesh_link_of[static_cast<size_t>(at) * layout.nodes +
                                next];
        panic_if(id < 0, "mesh nodes ", at, " and ", next,
                 " are not adjacent");
        seq.push_back(static_cast<uint32_t>(id));
        at = next;
    };
    while (at / cols != dst / cols)
        step(at / cols < dst / cols ? at + cols : at - cols);
    while (at % cols != dst % cols)
        step(at % cols < dst % cols ? at + 1 : at - 1);
    return seq;
}

/** Hierarchical local/express/local composition for ring-of-rings and
 *  package graphs. Intra-group traffic never leaves its local ring. */
std::vector<LinkSeq>
hierRoute(const Layout &layout, uint32_t src, uint32_t dst)
{
    const uint32_t r = layout.group_size;
    const uint32_t gs = src / r, ls = src % r;
    const uint32_t gd = dst / r, ld = dst % r;

    auto localSeg = [&](uint32_t g, uint32_t from,
                        uint32_t to) -> std::vector<LinkSeq> {
        if (from == to || r < 2)
            return {LinkSeq{}};
        return ringSegment(layout.local[g], from, to);
    };

    if (gs == gd)
        return localSeg(gs, ls, ld);
    std::vector<LinkSeq> out = localSeg(gs, ls, 0);
    out = crossConcat(out, ringSegment(layout.express, gs, gd));
    return crossConcat(out, localSeg(gd, 0, ld));
}

} // namespace

void
mostSquareGrid(uint32_t nodes, uint32_t &rows, uint32_t &cols)
{
    rows = 1;
    for (uint32_t d = 1; d * d <= nodes; ++d) {
        if (nodes % d == 0)
            rows = d;
    }
    cols = nodes / rows;
}

TopoGraph
buildTopoGraph(const TopologyDesc &desc, const TopoParams &params)
{
    TopoGraph graph;
    Layout layout;
    compile(desc, params, graph, layout);
    return graph;
}

RouteTable
computeRoutes(const TopologyDesc &desc, const TopoGraph &graph,
              bool equal_cost_alternates)
{
    TopoGraph scratch;
    Layout layout;
    TopoParams params;
    params.num_modules = graph.nodes;
    compile(desc, params, scratch, layout);
    panic_if(scratch.links.size() != graph.links.size(),
             "topology graph does not match its desc");

    RouteTable table;
    table.nodes = graph.nodes;
    table.entries.resize(static_cast<size_t>(graph.nodes) * graph.nodes);
    for (uint32_t s = 0; s < graph.nodes; ++s) {
        for (uint32_t d = 0; d < graph.nodes; ++d) {
            if (s == d)
                continue;
            RouteSet &set =
                table.entries[static_cast<size_t>(s) * graph.nodes + d];
            switch (desc.kind) {
              case TopoKind::Ring:
                set.candidates = ringSegment(layout.flat, s, d);
                break;
              case TopoKind::Mesh2D:
                set.candidates = {meshRoute(layout, s, d)};
                // The adaptive policy needs path diversity the static
                // XY table deliberately lacks: offer the equal-hop YX
                // walk as well wherever it is distinct.
                if (equal_cost_alternates) {
                    LinkSeq yx = meshRouteYx(layout, s, d);
                    if (yx != set.candidates.front())
                        set.candidates.push_back(std::move(yx));
                }
                break;
              case TopoKind::RingOfRings:
              case TopoKind::Package:
                set.candidates = hierRoute(layout, s, d);
                break;
              case TopoKind::Ports:
                set.candidates = {{layout.egress[s], layout.ingress[d]}};
                break;
            }
        }
    }
    return table;
}

std::vector<std::string>
verifyRoutes(const TopoGraph &graph, const RouteTable &table)
{
    std::vector<std::string> problems;
    auto pairTag = [](uint32_t s, uint32_t d) {
        return std::to_string(s) + "->" + std::to_string(d);
    };
    for (uint32_t s = 0; s < table.nodes; ++s) {
        for (uint32_t d = 0; d < table.nodes; ++d) {
            if (s == d)
                continue;
            const RouteSet &set = table.at(s, d);
            if (set.candidates.empty()) {
                problems.push_back("no route for " + pairTag(s, d));
                continue;
            }
            for (const LinkSeq &seq : set.candidates) {
                if (seq.empty()) {
                    problems.push_back("empty route for " + pairTag(s, d));
                    continue;
                }
                std::vector<bool> visited(graph.nodes + graph.switches,
                                          false);
                visited[s] = true;
                uint32_t at = s;
                bool bad = false;
                for (uint32_t id : seq) {
                    if (id >= graph.links.size() ||
                        graph.links[id].src != at) {
                        problems.push_back("disconnected route for " +
                                           pairTag(s, d));
                        bad = true;
                        break;
                    }
                    at = graph.links[id].dst;
                    if (visited[at]) {
                        problems.push_back("loop in route for " +
                                           pairTag(s, d));
                        bad = true;
                        break;
                    }
                    visited[at] = true;
                }
                if (!bad && at != d) {
                    problems.push_back("route for " + pairTag(s, d) +
                                       " ends at " + std::to_string(at));
                }
            }
        }
    }
    return problems;
}

std::vector<TopoIssue>
checkTopology(const TopologyDesc &desc, uint32_t num_modules)
{
    std::vector<TopoIssue> issues;
    auto bad = [&](TopoIssueKind kind, std::string msg) {
        issues.push_back({kind, std::move(msg)});
    };

    if (num_modules < 2) {
        bad(TopoIssueKind::BadSpec, "topology '" + desc.spec +
                                        "' needs at least two modules");
        return issues;
    }
    switch (desc.kind) {
      case TopoKind::Ring:
      case TopoKind::Ports:
        break;
      case TopoKind::Mesh2D:
        if (!desc.meshAuto() &&
            static_cast<uint64_t>(desc.mesh_rows) * desc.mesh_cols !=
                num_modules) {
            bad(TopoIssueKind::DimsMismatch,
                "mesh dims " + std::to_string(desc.mesh_rows) + "x" +
                    std::to_string(desc.mesh_cols) + " do not cover " +
                    std::to_string(num_modules) + " modules");
        }
        break;
      case TopoKind::RingOfRings:
        if (desc.groups < 2 || desc.ring_stops < 2) {
            bad(TopoIssueKind::BadSpec,
                "ring-of-rings wants at least 2 groups of 2 stops, got " +
                    std::to_string(desc.groups) + "/" +
                    std::to_string(desc.ring_stops));
        } else if (static_cast<uint64_t>(desc.groups) * desc.ring_stops !=
                   num_modules) {
            bad(TopoIssueKind::DimsMismatch,
                "ring-of-rings " + std::to_string(desc.groups) + "/" +
                    std::to_string(desc.ring_stops) + " does not cover " +
                    std::to_string(num_modules) + " modules");
        }
        break;
      case TopoKind::Package:
        if (desc.packages < 2) {
            bad(TopoIssueKind::BadSpec,
                "package topology wants at least 2 packages");
        } else if (num_modules % desc.packages != 0) {
            bad(TopoIssueKind::DimsMismatch,
                "package:" + std::to_string(desc.packages) +
                    " does not divide " + std::to_string(num_modules) +
                    " modules");
        }
        break;
    }
    if (!issues.empty())
        return issues;

    // Structure is plausible — prove every pair routable by compiling
    // with placeholder pricing and property-checking the tables.
    TopoParams params;
    params.num_modules = num_modules;
    const TopoGraph graph = buildTopoGraph(desc, params);
    const RouteTable table = computeRoutes(desc, graph);
    for (std::string &msg : verifyRoutes(graph, table))
        bad(TopoIssueKind::Unreachable, std::move(msg));
    return issues;
}

} // namespace topo
} // namespace mcmgpu
