/**
 * @file
 * Tests for the topology subsystem: spec parsing, structured config
 * validation, routing-table properties (connected, loop-free,
 * deterministic), bit-exact parity of the compiled ring, mesh and port
 * fabrics with the hand-written references in legacy_fabrics.hh,
 * hierarchical routing on ring-of-rings and multi-package graphs, and
 * mesh deadlock injection under credit flow control.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "legacy_fabrics.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "topo/desc.hh"
#include "topo/fabric.hh"
#include "topo/graph.hh"
#include "workloads/patterns.hh"

namespace mcmgpu {
namespace {

using topo::TopoGraph;
using topo::TopoKind;
using topo::TopologyDesc;
using topo::TopoParams;
using topo::RouteTable;
using workloads::ArrayRef;
using workloads::Category;
using workloads::KernelSpec;
using workloads::Workload;
using workloads::WorkloadBuilder;

TopologyDesc
parsed(const std::string &spec)
{
    TopologyDesc d;
    std::string err;
    EXPECT_TRUE(topo::parseTopology(spec, d, err)) << spec << ": " << err;
    return d;
}

TopoParams
params(uint32_t modules, double gbps = 768.0, Cycle hop = 32)
{
    TopoParams p;
    p.num_modules = modules;
    p.link_gbps = gbps;
    p.link_hop_cycles = hop;
    return p;
}

// --- Spec parsing ------------------------------------------------------------

TEST(TopoParse, AcceptsEveryFamily)
{
    EXPECT_EQ(parsed("ring").kind, TopoKind::Ring);

    TopologyDesc mesh = parsed("mesh2d:2x2");
    EXPECT_EQ(mesh.kind, TopoKind::Mesh2D);
    EXPECT_EQ(mesh.mesh_rows, 2u);
    EXPECT_EQ(mesh.mesh_cols, 2u);
    EXPECT_FALSE(mesh.meshAuto());
    EXPECT_TRUE(parsed("mesh2d").meshAuto());
    EXPECT_TRUE(parsed("mesh2d:auto").meshAuto());

    TopologyDesc rr = parsed("ring-of-rings:2/4");
    EXPECT_EQ(rr.kind, TopoKind::RingOfRings);
    EXPECT_EQ(rr.groups, 2u);
    EXPECT_EQ(rr.ring_stops, 4u);

    TopologyDesc pkg = parsed("package:2");
    EXPECT_EQ(pkg.kind, TopoKind::Package);
    EXPECT_EQ(pkg.packages, 2u);

    EXPECT_EQ(parsed("ports").kind, TopoKind::Ports);
}

TEST(TopoParse, RejectsMalformedSpecs)
{
    TopologyDesc d;
    std::string err;
    EXPECT_FALSE(topo::parseTopology("torus:4", d, err));
    EXPECT_NE(err.find("unknown topology family"), std::string::npos);
    EXPECT_FALSE(topo::parseTopology("ring:4", d, err));
    EXPECT_FALSE(topo::parseTopology("mesh2d:0x2", d, err));
    EXPECT_FALSE(topo::parseTopology("mesh2d:2y2", d, err));
    EXPECT_FALSE(topo::parseTopology("mesh2d:x", d, err));
    EXPECT_FALSE(topo::parseTopology("ring-of-rings:2", d, err));
    EXPECT_FALSE(topo::parseTopology("ring-of-rings:0/4", d, err));
    EXPECT_FALSE(topo::parseTopology("package:", d, err));
    EXPECT_FALSE(topo::parseTopology("package:0", d, err));
    EXPECT_FALSE(topo::parseTopology("", d, err));
    EXPECT_FALSE(topo::parseTopology("ports:2", d, err));
    // A trailing ':' with nothing after it is a typo in every family,
    // never a request for the default (bare mesh2d is the auto grid).
    for (const char *spec : {"ring:", "mesh2d:", "ring-of-rings:",
                             "package:", "ports:"}) {
        EXPECT_FALSE(topo::parseTopology(spec, d, err)) << spec;
        EXPECT_NE(err.find("empty parameter"), std::string::npos) << err;
    }
}

// --- Structured config validation --------------------------------------------

TEST(TopoConfig, BadSpecSurfacesAsTopoBadSpec)
{
    GpuConfig cfg = configs::mcmBasic().withTopology("torus:4");
    try {
        cfg.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::TopoBadSpec)) << e.what();
    }
}

TEST(TopoConfig, MeshDimsMustCoverModules)
{
    GpuConfig cfg = configs::mcmBasic().withTopology("mesh2d:3x2");
    try {
        cfg.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::TopoDimsMismatch)) << e.what();
    }
}

TEST(TopoConfig, HierarchicalDimsValidated)
{
    // 2*3 != 4 modules.
    GpuConfig a = configs::mcmBasic().withTopology("ring-of-rings:2/3");
    EXPECT_THROW(a.validate(), ConfigError);
    // Degenerate single-group hierarchy is a spec error, not a mismatch.
    GpuConfig b = configs::mcmBasic().withTopology("ring-of-rings:1/4");
    try {
        b.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::TopoBadSpec)) << e.what();
    }
    // 3 packages cannot split 4 modules.
    GpuConfig c = configs::mcmBasic().withTopology("package:3");
    try {
        c.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::TopoDimsMismatch)) << e.what();
    }
}

TEST(TopoConfig, PackageNeedsInterPackageBandwidth)
{
    GpuConfig cfg = configs::mcmPackage();
    cfg.pkg_link_gbps = 0.0;
    try {
        cfg.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::NoLinkBandwidth)) << e.what();
    }
}

TEST(TopoConfig, ValidSpecsPass)
{
    EXPECT_NO_THROW(
        configs::mcmBasic().withTopology("mesh2d:2x2").validate());
    EXPECT_NO_THROW(
        configs::mcmBasic().withTopology("ring-of-rings:2/2").validate());
    EXPECT_NO_THROW(configs::mcmPackage().validate());
    EXPECT_NO_THROW(configs::mcmMesh().validate());
    EXPECT_NO_THROW(configs::mcmRingOfRings().validate());
    // Zero-credit VCs stay rejected alongside topology checks.
    GpuConfig cfg = configs::mcmMesh().withFabricVcs(2, 0);
    try {
        cfg.validate();
        FAIL() << "validate must throw";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::BadVcCredits)) << e.what();
    }
}

// --- Routing-table properties ------------------------------------------------

struct Shape
{
    std::string spec;
    uint32_t modules;
};

/** Names each case by its spec and module count (e.g. "ring on 2").
 *  Without it gtest prints the raw bytes, string pointer included, so
 *  the test names change from one build to the next. */
void
PrintTo(const Shape &s, std::ostream *os)
{
    *os << s.spec << " on " << s.modules;
}

class TopoRoutes : public ::testing::TestWithParam<Shape>
{
};

TEST_P(TopoRoutes, ConnectedLoopFreeAndDeterministic)
{
    const Shape &s = GetParam();
    const TopologyDesc desc = parsed(s.spec);
    const TopoGraph graph = topo::buildTopoGraph(desc, params(s.modules));
    const RouteTable table = topo::computeRoutes(desc, graph);

    // Every (src, dst) pair routable, every candidate connected and
    // loop-free — verifyRoutes walks each hop against the graph.
    const std::vector<std::string> problems =
        topo::verifyRoutes(graph, table);
    EXPECT_TRUE(problems.empty())
        << s.spec << "/" << s.modules << ": " << problems.front();

    // Deterministic across runs: recompiling yields identical tables.
    const TopoGraph graph2 = topo::buildTopoGraph(desc, params(s.modules));
    const RouteTable table2 = topo::computeRoutes(desc, graph2);
    ASSERT_EQ(graph2.links.size(), graph.links.size());
    for (size_t i = 0; i < graph.links.size(); ++i)
        EXPECT_EQ(graph2.links[i].name, graph.links[i].name);
    ASSERT_EQ(table2.entries.size(), table.entries.size());
    for (size_t i = 0; i < table.entries.size(); ++i) {
        ASSERT_EQ(table2.entries[i].candidates,
                  table.entries[i].candidates)
            << s.spec << " entry " << i;
    }

    // checkTopology agrees these shapes are sound.
    EXPECT_TRUE(topo::checkTopology(desc, s.modules).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopoRoutes,
    ::testing::Values(Shape{"ring", 2}, Shape{"ring", 3}, Shape{"ring", 4},
                      Shape{"ring", 7}, Shape{"mesh2d", 4},
                      Shape{"mesh2d", 6}, Shape{"mesh2d:4x4", 16},
                      Shape{"mesh2d:1x5", 5}, Shape{"ring-of-rings:2/2", 4},
                      Shape{"ring-of-rings:2/4", 8},
                      Shape{"ring-of-rings:3/3", 9},
                      Shape{"ring-of-rings:4/2", 8}, Shape{"package:2", 8},
                      Shape{"package:4", 8}, Shape{"package:2", 2},
                      Shape{"ports", 2}, Shape{"ports", 5},
                      Shape{"ports", 16}));

TEST(TopoRoutes, CheckTopologyFlagsMismatches)
{
    using topo::TopoIssueKind;
    auto kinds = [](const std::vector<topo::TopoIssue> &issues) {
        std::vector<TopoIssueKind> ks;
        for (const auto &i : issues)
            ks.push_back(i.kind);
        return ks;
    };
    EXPECT_EQ(kinds(topo::checkTopology(parsed("mesh2d:2x3"), 4)),
              std::vector<TopoIssueKind>{TopoIssueKind::DimsMismatch});
    EXPECT_EQ(kinds(topo::checkTopology(parsed("ring-of-rings:1/4"), 4)),
              std::vector<TopoIssueKind>{TopoIssueKind::BadSpec});
    EXPECT_EQ(kinds(topo::checkTopology(parsed("package:3"), 4)),
              std::vector<TopoIssueKind>{TopoIssueKind::DimsMismatch});
    EXPECT_TRUE(topo::checkTopology(parsed("mesh2d:2x2"), 4).empty());
}

// --- Parity with the hand-written reference fabrics --------------------------

/** Drive both fabrics through an identical deterministic send schedule
 *  and insist on equal arrivals, hops, and byte counters. */
template <typename Legacy>
void
expectSendParity(Legacy &legacy, Fabric &table, uint32_t nodes)
{
    Cycle now = 0;
    uint64_t bytes = 32;
    for (uint32_t round = 0; round < 6; ++round) {
        for (uint32_t s = 0; s < nodes; ++s) {
            for (uint32_t d = 0; d < nodes; ++d) {
                const FabricTransfer a = legacy.send(s, d, bytes, now);
                const FabricTransfer b = table.send(s, d, bytes, now);
                EXPECT_EQ(a.arrival, b.arrival)
                    << s << "->" << d << " round " << round;
                EXPECT_EQ(a.hops, b.hops) << s << "->" << d;
                now += 17;
                bytes = bytes == 32 ? 4096 : 32;
            }
        }
    }
    EXPECT_EQ(legacy.linkBytes(), table.linkBytes());
    EXPECT_EQ(legacy.injectedBytes(), table.injectedBytes());
}

class TopoParity : public ::testing::TestWithParam<uint32_t>
{
};

/** The link names of @p fabric in visit order. */
template <typename AnyFabric>
std::vector<std::string>
visitNames(AnyFabric &fabric)
{
    std::vector<std::string> names;
    fabric.visitLinks(
        [&](const std::string &n, Link &) { names.push_back(n); });
    return names;
}

TEST_P(TopoParity, TableRoutedRingMatchesRingFabric)
{
    const uint32_t nodes = GetParam();
    legacy::RingFabric legacy(nodes, 768.0, 32);
    Fabric table(parsed("ring"), params(nodes));
    expectSendParity(legacy, table, nodes);
}

TEST_P(TopoParity, TableRoutedMeshMatchesMeshFabric)
{
    const uint32_t nodes = GetParam();
    legacy::MeshFabric legacy(nodes, 768.0, 32);
    Fabric table(parsed("mesh2d"), params(nodes));
    expectSendParity(legacy, table, nodes);
}

TEST_P(TopoParity, TableRoutedPortsMatchesPortsFabric)
{
    const uint32_t nodes = GetParam();
    // An odd hop latency checks the egress/ingress split.
    legacy::PortsFabric legacy(nodes, 768.0, 33);
    Fabric table(parsed("ports"), params(nodes, 768.0, 33));
    expectSendParity(legacy, table, nodes);
    EXPECT_EQ(visitNames(legacy), visitNames(table));

    // Both ports of a module key their derate and error process on it,
    // with salts 4 and 5: the per-link seeds must line up exactly.
    FaultPlan plan;
    plan.derateLinks(0.5);
    plan.injectLinkErrors(0.05);
    plan.withSeed(7);
    legacy::PortsFabric faulty_legacy(nodes, 768.0, 32, &plan);
    Fabric faulty_table(parsed("ports"), params(nodes), &plan);
    Cycle now = 0;
    for (uint32_t round = 0; round < 100; ++round) {
        for (uint32_t s = 0; s < nodes; ++s) {
            for (uint32_t d = 0; d < nodes; ++d) {
                const FabricTransfer a =
                    faulty_legacy.send(s, d, 256, now);
                const FabricTransfer b = faulty_table.send(s, d, 256, now);
                ASSERT_EQ(a.arrival, b.arrival) << s << "->" << d;
                now += 31;
            }
        }
    }
    EXPECT_GT(faulty_table.transientErrors(), 0u)
        << "error process must fire";
    EXPECT_EQ(faulty_legacy.transientErrors(),
              faulty_table.transientErrors());
    EXPECT_EQ(faulty_legacy.linkBytes(), faulty_table.linkBytes());
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, TopoParity,
                         ::testing::Values(2u, 3u, 4u, 5u, 8u, 16u));

TEST(TopoParity, RingLinkNamesAndVisitOrderPreserved)
{
    legacy::RingFabric legacy(4, 768.0, 32);
    Fabric table(parsed("ring"), params(4));
    EXPECT_EQ(visitNames(legacy), visitNames(table))
        << "sampler counter names/order must not change";
}

TEST(TopoParity, PortsGainOneHopLookaheadAndHopLatencies)
{
    // The two behaviours the compiled port model adds over the
    // hand-written one: a PDES lookahead of exactly one hop (egress
    // plus ingress), and per-port latencies in the hop histogram.
    Fabric f(parsed("ports"), params(4, 768.0, 33));
    EXPECT_EQ(f.minRouteCycles(), 33u);

    stats::Histogram hops = stats::Histogram::makeLog2("hops", 16);
    f.setHopHistogram(&hops);
    const FabricTransfer t = f.send(0, 3, 64, 0);
    EXPECT_EQ(t.hops, 1u) << "one pass through the switch is one hop";
    EXPECT_EQ(hops.count(), 2u) << "egress and ingress each record";
    EXPECT_EQ(hops.sum(), t.arrival);
}

TEST(TopoParity, FaultPlanSeedingMatchesLegacyRing)
{
    // Same derate and error process per link: the per-link PRNG seeds
    // (plan->seed ^ (salt * 8191 + upstream)) must line up exactly.
    FaultPlan plan;
    plan.derateLinks(0.5);
    plan.injectLinkErrors(0.05);
    plan.withSeed(99);

    legacy::RingFabric legacy(4, 768.0, 32, &plan);
    Fabric table(parsed("ring"), params(4), &plan);

    Cycle now = 0;
    for (uint32_t round = 0; round < 200; ++round) {
        for (uint32_t s = 0; s < 4; ++s) {
            for (uint32_t d = 0; d < 4; ++d) {
                const FabricTransfer a = legacy.send(s, d, 256, now);
                const FabricTransfer b = table.send(s, d, 256, now);
                ASSERT_EQ(a.arrival, b.arrival) << s << "->" << d;
                now += 31;
            }
        }
    }
    EXPECT_GT(table.transientErrors(), 0u) << "error process must fire";
    EXPECT_EQ(legacy.transientErrors(), table.transientErrors());
}

// --- Hierarchical topologies -------------------------------------------------

TEST(TopoHier, RingOfRingsRoutesLocalExpressLocal)
{
    Fabric f(parsed("ring-of-rings:2/4"), params(8));
    // Intra-group stays on the local ring.
    EXPECT_EQ(f.send(1, 2, 64, 0).hops, 1u);
    EXPECT_EQ(f.send(1, 3, 64, 0).hops, 2u);
    // Gateway to gateway: one express hop.
    EXPECT_EQ(f.send(0, 4, 64, 0).hops, 1u);
    // Interior to interior: local to gateway, express, gateway to dst.
    EXPECT_EQ(f.send(1, 5, 64, 0).hops, 3u);
    EXPECT_EQ(f.send(2, 6, 64, 0).hops, 5u);

    bool saw_local = false, saw_express = false;
    f.visitLinks([&](const std::string &n, Link &) {
        saw_local |= n.rfind("rring.g", 0) == 0;
        saw_express |= n.rfind("xring.", 0) == 0;
    });
    EXPECT_TRUE(saw_local);
    EXPECT_TRUE(saw_express);
    EXPECT_FALSE(f.graph().hasBoardLinks())
        << "ring-of-rings is all on-package";
}

TEST(TopoHier, PackageTopologyPricesBoardTierSeparately)
{
    TopoParams p = params(8);
    p.pkg_link_gbps = 256.0;
    p.pkg_link_hop_cycles = 256;
    Fabric f(parsed("package:2"), p);

    EXPECT_TRUE(f.graph().hasBoardLinks());
    bool saw_board = false;
    f.visitLinks([&](const std::string &n, Link &l) {
        if (n.rfind("board.", 0) == 0) {
            saw_board = true;
            EXPECT_EQ(l.hopCycles(), 256u) << n;
        } else {
            EXPECT_EQ(l.hopCycles(), 32u) << n;
        }
    });
    EXPECT_TRUE(saw_board);

    // On-package transfer: no board flag; cross-package: flagged, and
    // the slow board hop dominates its latency.
    const FabricTransfer local = f.send(1, 2, 64, 0);
    EXPECT_FALSE(local.board);
    const FabricTransfer cross = f.send(0, 4, 64, 0);
    EXPECT_TRUE(cross.board);
    EXPECT_GE(cross.arrival, 256u);
}

TEST(TopoHier, SingleGpmPackagesDegenerateToBoardRing)
{
    // package:2 over 2 modules: no local rings at all, just the board
    // ring between the two gateway GPMs.
    Fabric f(parsed("package:2"), params(2));
    EXPECT_EQ(f.send(0, 1, 64, 0).hops, 1u);
    f.visitLinks([&](const std::string &n, Link &) {
        EXPECT_EQ(n.rfind("board.", 0), 0u) << n;
    });
    EXPECT_TRUE(f.send(0, 1, 64, 0).board);
}

// --- Fabric::create dispatch -------------------------------------------------

TEST(TopoCreate, ConfigSpecWinsOverFabricKind)
{
    // mcmBasic's fabric kind is a ring; a spec set on top replaces it.
    GpuConfig cfg = configs::mcmBasic().withTopology("mesh2d:2x2");
    auto fabric = Fabric::create(cfg);
    bool saw_mesh = false;
    fabric->visitLinks([&](const std::string &n, Link &) {
        saw_mesh |= n.rfind("mesh.", 0) == 0;
    });
    EXPECT_TRUE(saw_mesh) << "spec must override the preset's ring";
}

TEST(TopoCreate, ConfigSpecSelectsTopology)
{
    // The config's spec is the one name of its fabric; presets spell
    // theirs out.
    EXPECT_EQ(configs::mcmBasic().topology, "ring");
    EXPECT_EQ(configs::mcmMesh().topology, "mesh2d:2x2");
    for (const auto &[spec, prefix] :
         {std::pair{"ring", "ring."}, std::pair{"mesh2d:2x2", "mesh."},
          std::pair{"ports", "ports."}}) {
        auto fabric =
            Fabric::create(configs::mcmBasic().withTopology(spec));
        for (const std::string &n : visitNames(*fabric))
            EXPECT_EQ(n.rfind(prefix, 0), 0u) << spec << ": " << n;
    }
}

TEST(TopoCreate, SingleModuleCompilesToIdealFabric)
{
    // One module has nothing to connect: any spec compiles to a graph
    // without links, the ideal on-chip fabric.
    GpuConfig cfg = configs::monolithic(32).withTopology("mesh2d:2x2");
    auto fabric = Fabric::create(cfg);
    EXPECT_TRUE(fabric->graph().links.empty());
    EXPECT_EQ(fabric->send(0, 0, 4096, 7).arrival, 7u);
    EXPECT_EQ(fabric->linkBytes(), 0u);
    EXPECT_EQ(fabric->minRouteCycles(), 0u);
}

// --- Deadlock injection on the mesh ------------------------------------------

/** The canonical remote-heavy streaming workload from the deadlock
 *  tests: every GPM reads both arrays, crossing every pair both ways. */
Workload
meshStream(uint32_t ctas)
{
    WorkloadBuilder b("tstream", "tstream", Category::MemoryIntensive);
    ArrayRef in{b.alloc(8 * MiB), 8 * MiB};
    ArrayRef out{b.alloc(8 * MiB), 8 * MiB};
    KernelSpec k;
    k.name = "tstream";
    k.num_ctas = ctas;
    k.warps_per_cta = 4;
    k.items_per_warp = 8;
    k.compute_per_item = 2;
    k.arrays = {in, out};
    k.accesses = {workloads::part(0), workloads::part(1, true)};
    k.seed = 3;
    b.launch(k, 2);
    return b.build();
}

TEST(TopoDeadlock, MeshWithOneVcWedgesWithNamedCycle)
{
    setQuietLogging(true);
    GpuConfig cfg = configs::mcmBasic().withTopology("mesh2d:2x2");
    cfg.withMemModel(MemModel::Staged, 4);
    cfg.withFabricVcs(1, 1);
    cfg.validate();
    RunResult r = Simulator::run(cfg, meshStream(512));
    ASSERT_EQ(r.status, RunStatus::Deadlock) << r.stall_diagnostic;
    EXPECT_NE(r.stall_diagnostic.find("CYCLE:"), std::string::npos)
        << r.stall_diagnostic;
    EXPECT_NE(r.stall_diagnostic.find("vc0:gpm"), std::string::npos)
        << r.stall_diagnostic;
}

TEST(TopoDeadlock, MeshEscapeVcCompletes)
{
    setQuietLogging(true);
    GpuConfig cfg = configs::mcmBasic().withTopology("mesh2d:2x2");
    cfg.withMemModel(MemModel::Staged, 4);
    cfg.withFabricVcs(2, 1); // response escape VC, credits still minimal
    cfg.validate();
    RunResult r = Simulator::run(cfg, meshStream(128));
    EXPECT_EQ(r.status, RunStatus::Finished) << r.stall_diagnostic;
    EXPECT_GT(r.ipc(), 0.0);
}

TEST(TopoDeadlock, RingOfRingsEscapeVcCompletes)
{
    setQuietLogging(true);
    GpuConfig cfg = configs::mcmBasic().withTopology("ring-of-rings:2/2");
    cfg.withMemModel(MemModel::Staged, 16);
    cfg.withFabricVcs(2, 64);
    cfg.validate();
    RunResult r = Simulator::run(cfg, meshStream(128));
    EXPECT_EQ(r.status, RunStatus::Finished) << r.stall_diagnostic;
}

// --- Adaptive route policy ---------------------------------------------------

/** Sum of bytesCarried over links whose name starts with @p prefix. */
uint64_t
bytesOn(Fabric &f, const std::string &prefix)
{
    uint64_t sum = 0;
    f.visitLinks([&](const std::string &n, Link &l) {
        if (n.rfind(prefix, 0) == 0)
            sum += l.bytesCarried();
    });
    return sum;
}

TEST(TopoAdaptive, IdleRingMatchesLegacyToggle)
{
    // Widely-spaced sends: every link drains between transfers, so all
    // candidate scores tie and the adaptive policy falls back to the
    // balancing toggle — bit-for-bit the hand-written ring.
    legacy::RingFabric legacy(4, 768.0, 32);
    Fabric adaptive(parsed("ring"), params(4), nullptr,
                    RoutePolicy::Adaptive);
    Cycle now = 0;
    for (uint32_t round = 0; round < 8; ++round) {
        for (uint32_t s = 0; s < 4; ++s) {
            for (uint32_t d = 0; d < 4; ++d) {
                const FabricTransfer a = legacy.send(s, d, 256, now);
                const FabricTransfer b = adaptive.send(s, d, 256, now);
                EXPECT_EQ(a.arrival, b.arrival)
                    << s << "->" << d << " round " << round;
                EXPECT_EQ(a.hops, b.hops) << s << "->" << d;
                now += 100000; // full drain: scores always tie
            }
        }
    }
    EXPECT_EQ(legacy.linkBytes(), adaptive.linkBytes());
    EXPECT_EQ(adaptive.routeDiverted(), 0u) << "ties never divert";
}

TEST(TopoAdaptive, CongestedRingDivertsWithoutAdvancingToggle)
{
    Fabric f(parsed("ring"), params(4), nullptr, RoutePolicy::Adaptive);
    // Pile bytes onto the cw 0->1 segment (single-candidate sends:
    // nothing is scored, the toggle does not move).
    for (int i = 0; i < 8; ++i)
        f.send(0, 1, 1 * MiB, 0);
    EXPECT_EQ(f.routeAdaptivePicks(), 0u);
    const uint64_t cw_before = bytesOn(f, "ring.cw");
    const uint64_t ccw_before = bytesOn(f, "ring.ccw");

    // Three opposite-pair sends while cw is congested: each scores
    // [cw >> ccw], diverts to the ccw candidate, and must leave the
    // toggle untouched.
    for (int i = 0; i < 3; ++i)
        f.send(0, 2, 64, 0);
    EXPECT_EQ(f.routeAdaptivePicks(), 3u);
    EXPECT_EQ(f.routeDiverted(), 3u);
    EXPECT_EQ(f.routeCandidatePicks(), (std::vector<uint64_t>{0, 3}));
    EXPECT_EQ(bytesOn(f, "ring.cw"), cw_before) << "cw must be avoided";
    EXPECT_EQ(bytesOn(f, "ring.ccw"), ccw_before + 3 * 2 * 64);

    // Far in the future everything has drained: the tie falls back to
    // the toggle, which must still sit at its pre-diversion value and
    // pick candidate 0 (cw). Had the diversions advanced it three
    // times, this send would take ccw instead.
    f.send(0, 2, 64, 100'000'000);
    EXPECT_EQ(f.routeCandidatePicks(), (std::vector<uint64_t>{1, 3}));
    EXPECT_EQ(f.routeDiverted(), 3u) << "tie picks are not diversions";
}

TEST(TopoAdaptive, MeshTablesGainYxAlternatesOnlyWhenAdaptive)
{
    const TopologyDesc desc = parsed("mesh2d:2x2");
    const TopoGraph graph = topo::buildTopoGraph(desc, params(4));
    const RouteTable xy = topo::computeRoutes(desc, graph);
    const RouteTable both = topo::computeRoutes(desc, graph, true);

    // The adaptive tables stay sound and keep the XY route first, so
    // candidate 0 is identical between the policies on every pair.
    EXPECT_TRUE(topo::verifyRoutes(graph, both).empty());
    ASSERT_EQ(xy.entries.size(), both.entries.size());
    for (size_t e = 0; e < xy.entries.size(); ++e) {
        if (xy.entries[e].candidates.empty())
            continue; // src == dst
        EXPECT_EQ(xy.entries[e].candidates.front(),
                  both.entries[e].candidates.front()) << "entry " << e;
    }
    // Diagonal pairs gain exactly the YX alternate; row/column
    // neighbours have one shortest path under either policy.
    EXPECT_EQ(xy.at(0, 3).candidates.size(), 1u);
    EXPECT_EQ(both.at(0, 3).candidates.size(), 2u);
    EXPECT_EQ(both.at(2, 1).candidates.size(), 2u);
    EXPECT_EQ(xy.at(0, 1).candidates.size(), 1u);
    EXPECT_EQ(both.at(0, 1).candidates.size(), 1u);
    EXPECT_EQ(both.at(0, 2).candidates.size(), 1u);
}

TEST(TopoAdaptive, MeshDivertsAroundHotLink)
{
    Fabric f(parsed("mesh2d:2x2"), params(4), nullptr,
             RoutePolicy::Adaptive);
    // Saturate the XY route's first hop (0->1); the YX alternate via
    // 0->2 is idle, so a diagonal send must turn south first.
    for (int i = 0; i < 8; ++i)
        f.send(0, 1, 1 * MiB, 0);
    const uint64_t south_before = bytesOn(f, "mesh.0->2");
    f.send(0, 3, 64, 0);
    EXPECT_EQ(f.routeDiverted(), 1u);
    EXPECT_EQ(bytesOn(f, "mesh.0->2"), south_before + 64);
    EXPECT_EQ(bytesOn(f, "mesh.2->3"), 64u);
}

TEST(TopoAdaptive, ConfigKeyDistinguishesPolicies)
{
    const std::string stat = experiment::configKey(configs::mcmMesh());
    const std::string adap =
        experiment::configKey(configs::mcmMeshAdaptive());
    EXPECT_NE(stat, adap);
    // Same machine apart from the policy: the keys must still differ.
    GpuConfig renamed = configs::mcmMeshAdaptive().withName("mcm-mesh");
    EXPECT_NE(experiment::configKey(renamed), stat);
}

TEST(TopoAdaptive, ExplicitStaticRunsCycleIdenticalToDefault)
{
    // `--route-policy static` is the default spelled out: on every
    // table-routed family the explicit policy must reproduce the
    // default run cycle for cycle (the frozen-baseline guarantee).
    setQuietLogging(true);
    const Workload w = meshStream(64);
    for (const char *spec : {"ring", "mesh2d:2x2", "package:2"}) {
        GpuConfig def = configs::mcmBasic().withTopology(spec);
        if (parsed(spec).kind == TopoKind::Package) {
            def.num_modules = 8;
            def.pkg_link_gbps = 256.0;
            def.pkg_link_hop_cycles = 256;
        }
        def.withName(std::string("static-default+") + spec);
        GpuConfig expl = def;
        expl.withRoutePolicy(RoutePolicy::Static)
            .withName(std::string("static-explicit+") + spec);
        const RunResult a = Simulator::run(def, w);
        const RunResult b = Simulator::run(expl, w);
        EXPECT_EQ(a.status, RunStatus::Finished) << spec;
        EXPECT_EQ(a.cycles, b.cycles) << spec;
        EXPECT_EQ(a.inter_module_bytes, b.inter_module_bytes) << spec;
    }
}

} // namespace
} // namespace mcmgpu
