/**
 * @file
 * Unit tests for the inter-module fabric as each topology spec compiles
 * it: ring routing and bandwidth, the mesh's XY routing and grid shape,
 * the port-model abstraction, the free single-module fabric, and the
 * factory.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "sim/simulator.hh"
#include "topo/fabric.hh"
#include "workloads/workload.hh"

namespace mcmgpu {
namespace {

/** The fabric @p spec compiles to over @p modules modules. */
Fabric
compiled(const std::string &spec, uint32_t modules, double gbps, Cycle hop)
{
    topo::TopologyDesc desc;
    std::string err;
    EXPECT_TRUE(topo::parseTopology(spec, desc, err)) << err;
    topo::TopoParams p;
    p.num_modules = modules;
    p.link_gbps = gbps;
    p.link_hop_cycles = hop;
    return Fabric(desc, p);
}

// --- ring ---------------------------------------------------------------------

TEST(RingFabric, SelfSendIsFree)
{
    Fabric ring = compiled("ring", 4, 768.0, 32);
    FabricTransfer t = ring.send(2, 2, 4096, 100);
    EXPECT_EQ(t.arrival, 100u);
    EXPECT_EQ(t.hops, 0u);
    EXPECT_EQ(ring.injectedBytes(), 0u);
}

TEST(RingFabric, AdjacentHopLatency)
{
    Fabric ring = compiled("ring", 4, 768.0, 32);
    FabricTransfer t = ring.send(0, 1, 16, 0);
    EXPECT_EQ(t.hops, 1u);
    EXPECT_GE(t.arrival, 32u);
    EXPECT_LE(t.arrival, 34u);
}

TEST(RingFabric, OppositeNodeTakesTwoHops)
{
    Fabric ring = compiled("ring", 4, 768.0, 32);
    FabricTransfer t = ring.send(0, 2, 16, 0);
    EXPECT_EQ(t.hops, 2u);
    EXPECT_GE(t.arrival, 64u);
}

TEST(RingFabric, ShortestPathRouting)
{
    Fabric ring = compiled("ring", 8, 768.0, 1);
    for (ModuleId s = 0; s < 8; ++s) {
        for (ModuleId d = 0; d < 8; ++d) {
            uint32_t expect = std::min((d + 8 - s) % 8, (s + 8 - d) % 8);
            EXPECT_EQ(ring.send(s, d, 16, 0).hops, expect)
                << s << " -> " << d;
        }
    }
}

TEST(RingFabric, EqualDistanceRoutesAlternate)
{
    Fabric ring = compiled("ring", 4, 768.0, 0);
    // 0 -> 2 is ambiguous; two sends should use different directions,
    // so total link bytes = 2 messages * 2 hops but spread over 4
    // distinct segments (no segment carries both).
    ring.send(0, 2, 1000, 0);
    ring.send(0, 2, 1000, 0);
    EXPECT_EQ(ring.linkBytes(), 4000u);
    EXPECT_EQ(ring.injectedBytes(), 2000u);
    ring.visitLinks([](const std::string &n, Link &l) {
        EXPECT_LE(l.bytesCarried(), 1000u) << n;
    });
}

TEST(RingFabric, BandwidthSerializesLargeTransfers)
{
    Fabric ring = compiled("ring", 4, 768.0, 0); // 384 B/cy per direction
    Cycle t1 = ring.send(0, 1, 38400, 0).arrival; // 100 cycles
    EXPECT_GE(t1, 100u);
    Cycle t2 = ring.send(0, 1, 38400, 0).arrival;
    EXPECT_GE(t2, 200u);
}

TEST(RingFabric, TwoNodeRingUsesOneLinkPair)
{
    Fabric ring = compiled("ring", 2, 256.0, 10); // 128 B/cy per direction
    // Both directions exist independently...
    Cycle fwd = ring.send(0, 1, 12800, 0).arrival; // 100 cy + hop
    Cycle bwd = ring.send(1, 0, 12800, 0).arrival;
    EXPECT_GE(fwd, 100u);
    EXPECT_GE(bwd, 100u);
    // ...but repeated sends in one direction serialize on one link
    // (bandwidth is NOT double-counted through the ccw segments).
    Cycle second = ring.send(0, 1, 12800, 0).arrival;
    EXPECT_GE(second, 200u);
}

TEST(RingFabric, InvalidUseRejected)
{
    // A single module is a valid (link-free) fabric; none at all is not.
    EXPECT_ANY_THROW(compiled("ring", 0, 768.0, 32));
    EXPECT_ANY_THROW(compiled("ring", 4, 0.0, 32));
    Fabric ring = compiled("ring", 4, 768.0, 32);
    EXPECT_ANY_THROW(ring.send(0, 7, 16, 0));
}

class RingSizeSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RingSizeSweep, HopsBoundedByHalfRing)
{
    const uint32_t n = GetParam();
    Fabric ring = compiled("ring", n, 768.0, 1);
    for (ModuleId s = 0; s < n; ++s) {
        for (ModuleId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            FabricTransfer t = ring.send(s, d, 16, 0);
            EXPECT_GE(t.hops, 1u);
            EXPECT_LE(t.hops, n / 2);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeSweep,
                         ::testing::Values(2u, 3u, 4u, 6u, 8u, 16u));

// --- mesh2d -------------------------------------------------------------------

/** The link names of @p f in visit order. */
std::vector<std::string>
linkNames(Fabric &f)
{
    std::vector<std::string> names;
    f.visitLinks([&](const std::string &n, Link &) { names.push_back(n); });
    return names;
}

TEST(MeshFabric, FourNodesFormTwoByTwo)
{
    Fabric mesh = compiled("mesh2d", 4, 768.0, 32);
    EXPECT_EQ(linkNames(mesh),
              (std::vector<std::string>{"mesh.0->1", "mesh.0->2",
                                        "mesh.1->0", "mesh.1->3",
                                        "mesh.2->0", "mesh.2->3",
                                        "mesh.3->1", "mesh.3->2"}));
}

TEST(MeshFabric, AdjacentAndDiagonalHops)
{
    Fabric mesh = compiled("mesh2d", 4, 768.0, 32);
    EXPECT_EQ(mesh.send(0, 1, 16, 0).hops, 1u);
    EXPECT_EQ(mesh.send(0, 2, 16, 0).hops, 1u);
    EXPECT_EQ(mesh.send(0, 3, 16, 0).hops, 2u) << "diagonal = X then Y";
    EXPECT_EQ(mesh.send(1, 1, 16, 0).hops, 0u);
}

TEST(MeshFabric, XyRoutingIsMinimal)
{
    Fabric mesh = compiled("mesh2d", 16, 768.0, 1); // 4x4
    for (ModuleId s = 0; s < 16; ++s) {
        for (ModuleId d = 0; d < 16; ++d) {
            uint32_t sx = s % 4, sy = s / 4, dx = d % 4, dy = d / 4;
            uint32_t manhattan = (sx > dx ? sx - dx : dx - sx) +
                                 (sy > dy ? sy - dy : dy - sy);
            EXPECT_EQ(mesh.send(s, d, 16, 0).hops, manhattan);
        }
    }
}

TEST(MeshFabric, EightNodesFormTwoByFour)
{
    Fabric mesh = compiled("mesh2d", 8, 768.0, 1);
    // 2 rows x 4 columns: 2 * 3 horizontal + 4 vertical edges, both
    // directions, and node 4 sits directly below node 0.
    EXPECT_EQ(mesh.graph().links.size(), 20u);
    EXPECT_EQ(mesh.send(0, 4, 16, 0).hops, 1u);
    EXPECT_EQ(mesh.send(0, 3, 16, 0).hops, 3u);
    EXPECT_EQ(mesh.send(3, 4, 16, 0).hops, 4u);
}

TEST(MeshFabric, BandwidthAccountedPerHop)
{
    Fabric mesh = compiled("mesh2d", 4, 768.0, 0);
    mesh.send(0, 3, 1000, 0); // 2 hops
    EXPECT_EQ(mesh.injectedBytes(), 1000u);
    EXPECT_EQ(mesh.linkBytes(), 2000u);
}

TEST(MeshFabric, FactoryAndEndToEnd)
{
    using namespace workloads;
    GpuConfig cfg = configs::mcmBasic().withTopology("mesh2d");
    cfg.name = "mcm-mesh";
    auto f = Fabric::create(cfg);
    EXPECT_EQ(f->send(0, 3, 16, 0).hops, 2u);

    // A full simulation runs on the mesh and produces sane results.
    setQuietLogging(true);
    WorkloadBuilder b("meshy", "meshy", Category::MemoryIntensive);
    ArrayRef in{b.alloc(4 * MiB), 4 * MiB};
    ArrayRef out{b.alloc(4 * MiB), 4 * MiB};
    KernelSpec k;
    k.name = "meshy";
    k.num_ctas = 256;
    k.warps_per_cta = 4;
    k.items_per_warp = 8;
    k.compute_per_item = 2;
    k.arrays = {in, out};
    k.accesses = {part(0), part(1, true)};
    b.launch(k, 1);
    Workload w = b.build();
    RunResult r = Simulator::run(cfg, w);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.inter_module_bytes, 0u);
}

TEST(MeshFabric, InvalidUseRejected)
{
    EXPECT_ANY_THROW(compiled("mesh2d", 0, 768.0, 1));
    EXPECT_ANY_THROW(compiled("mesh2d", 4, -1.0, 1));
    Fabric mesh = compiled("mesh2d", 4, 768.0, 1);
    EXPECT_ANY_THROW(mesh.send(0, 9, 16, 0));
}

// --- ports --------------------------------------------------------------------

TEST(PortsFabric, EndToEndLatencyEqualsHop)
{
    Fabric ports = compiled("ports", 4, 768.0, 32);
    FabricTransfer t = ports.send(0, 3, 16, 0);
    EXPECT_EQ(t.hops, 1u);
    EXPECT_GE(t.arrival, 32u);
    EXPECT_LE(t.arrival, 34u);
}

TEST(PortsFabric, EgressIsTheSharedResource)
{
    Fabric ports = compiled("ports", 4, 768.0, 0); // 384 B/cy per port
    // Two messages from the same source to different destinations
    // share the egress port.
    ports.send(0, 1, 38400, 0);
    Cycle t = ports.send(0, 2, 38400, 0).arrival;
    EXPECT_GE(t, 200u);
    // Messages between disjoint module pairs don't contend at all.
    Cycle u = ports.send(1, 3, 38400, 0).arrival;
    EXPECT_LE(u, 210u);
}

TEST(PortsFabric, CountsEachMessageOnce)
{
    Fabric ports = compiled("ports", 4, 768.0, 32);
    ports.send(0, 1, 1000, 0);
    ports.send(2, 3, 500, 0);
    EXPECT_EQ(ports.injectedBytes(), 1500u);
    EXPECT_EQ(ports.linkBytes(), 1500u);
}

// --- single module and factory ------------------------------------------------

TEST(IdealFabric, IsCompletelyFree)
{
    // One module: whatever the spec, nothing to connect and no cost.
    auto ideal = Fabric::create(configs::monolithic(64));
    EXPECT_TRUE(ideal->graph().links.empty());
    FabricTransfer t = ideal->send(0, 0, 1 << 20, 42);
    EXPECT_EQ(t.arrival, 42u);
    EXPECT_EQ(t.hops, 0u);
    EXPECT_EQ(ideal->linkBytes(), 0u);
    EXPECT_EQ(ideal->injectedBytes(), 0u);
}

TEST(FabricFactory, SelectsByConfig)
{
    GpuConfig mono = configs::monolithicUnbuildable();
    auto f1 = Fabric::create(mono);
    EXPECT_EQ(f1->send(0, 0, 100, 7).arrival, 7u);

    GpuConfig mcm = configs::mcmBasic();
    auto f2 = Fabric::create(mcm);
    EXPECT_GT(f2->send(0, 1, 100, 0).arrival, 0u);

    GpuConfig ports = configs::mcmBasic().withTopology("ports");
    auto f3 = Fabric::create(ports);
    EXPECT_EQ(f3->send(0, 2, 16, 0).hops, 1u);

    // A single-module machine gets the link-free fabric even when it
    // names a ring.
    GpuConfig single = configs::monolithic(64).withTopology("ring");
    auto f4 = Fabric::create(single);
    EXPECT_EQ(f4->linkBytes(), 0u);
    EXPECT_TRUE(f4->graph().links.empty());
}

} // namespace
} // namespace mcmgpu
