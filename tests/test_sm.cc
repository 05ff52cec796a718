/**
 * @file
 * Unit tests for the SM model using a mock memory system: warp
 * execution, issue-pipeline contention, scoreboarded memory-level
 * parallelism, CTA slot accounting, and L1 behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "common/units.hh"
#include "core/sm.hh"

namespace mcmgpu {
namespace {

/** Scripted warp trace for tests. */
class ScriptTrace : public WarpTrace
{
  public:
    explicit ScriptTrace(std::vector<WarpOp> ops) : ops_(std::move(ops)) {}

    bool
    next(WarpOp &op) override
    {
        if (idx_ >= ops_.size())
            return false;
        op = ops_[idx_++];
        return true;
    }

  private:
    std::vector<WarpOp> ops_;
    size_t idx_ = 0;
};

WarpOp
computeOp(uint32_t cycles)
{
    WarpOp op;
    op.compute_cycles = cycles;
    return op;
}

WarpOp
loadOp(Addr addr)
{
    WarpOp op;
    op.has_mem = true;
    op.addr = addr;
    return op;
}

WarpOp
storeOp(Addr addr, uint32_t bytes = 128)
{
    WarpOp op;
    op.has_mem = true;
    op.is_store = true;
    op.addr = addr;
    op.bytes = bytes;
    return op;
}

/** Mock context: fixed-latency memory, records traffic. */
class MockContext : public SmContext
{
  public:
    void
    memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
              Cycle now, TxnDoneFn done) override
    {
        accesses.push_back({src, addr, bytes, is_store, now});
        MemTxn txn;
        txn.addr = addr;
        txn.bytes = bytes;
        txn.is_store = is_store;
        txn.src = src;
        txn.issued = now;
        txn.t = now + (is_store ? store_latency : load_latency);
        txn.phase = TxnPhase::Complete;
        done(txn, txn.t);
    }

    void ctaFinished(SmId sm) override { finished.push_back(sm); }

    struct Access
    {
        ModuleId src;
        Addr addr;
        uint32_t bytes;
        bool is_store;
        Cycle at;
    };

    EventQueue eq;
    std::vector<Access> accesses;
    std::vector<SmId> finished;
    Cycle load_latency = 200;
    Cycle store_latency = 50;
};

KernelDesc
kernelOf(std::vector<WarpOp> ops, uint32_t ctas = 1, uint32_t warps = 1)
{
    KernelDesc k;
    k.name = "test";
    k.num_ctas = ctas;
    k.warps_per_cta = warps;
    k.make_trace = [ops](CtaId, WarpId) {
        return std::make_unique<ScriptTrace>(ops);
    };
    return k;
}

GpuConfig
cfg()
{
    GpuConfig c = configs::mcmBasic();
    return c;
}

TEST(Sm, ComputeOnlyWarpTakesItsCycles)
{
    MockContext ctx;
    Sm sm(0, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({computeOp(10), computeOp(10)}), 0, 0);
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), 20u);
    EXPECT_EQ(sm.warpInstructions(), 2u);
    EXPECT_EQ(ctx.finished.size(), 1u);
    EXPECT_TRUE(sm.idle());
}

TEST(Sm, IssuePipelineSerializesWarps)
{
    MockContext ctx;
    Sm sm(1, 0, cfg(), ctx, ctx.eq);
    // 4 warps, each 10 cycles of compute: one shared issue pipeline
    // means ~40 cycles total.
    sm.launchCta(kernelOf({computeOp(10)}, 1, 4), 0, 0);
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), 40u);
}

TEST(Sm, L1MissGoesToMemoryOnceAndFills)
{
    MockContext ctx;
    Sm sm(2, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({loadOp(0x1000), computeOp(1), loadOp(0x1000)}),
                 0, 0);
    ctx.eq.run();
    ASSERT_EQ(ctx.accesses.size(), 1u) << "second load hits the L1";
    EXPECT_EQ(ctx.accesses[0].addr, 0x1000u);
    EXPECT_EQ(ctx.accesses[0].bytes, 128u);
    EXPECT_FALSE(ctx.accesses[0].is_store);
}

TEST(Sm, MemoryLatencyOverlapsAcrossWarps)
{
    MockContext ctx;
    Sm sm(3, 0, cfg(), ctx, ctx.eq);
    // Two warps each load a distinct line: latencies overlap, so the
    // total is ~one latency, not two.
    KernelDesc k;
    k.name = "two-warps";
    k.num_ctas = 1;
    k.warps_per_cta = 2;
    k.make_trace = [](CtaId, WarpId w) {
        return std::make_unique<ScriptTrace>(
            std::vector<WarpOp>{loadOp(0x1000 + w * 0x1000)});
    };
    sm.launchCta(k, 0, 0);
    ctx.eq.run();
    EXPECT_LT(ctx.eq.now(), 250u);
    EXPECT_GE(ctx.eq.now(), 200u);
}

TEST(Sm, ScoreboardAllowsRunAheadLoads)
{
    GpuConfig c = cfg();
    c.max_outstanding_per_warp = 4;
    MockContext ctx;
    Sm sm(4, 0, c, ctx, ctx.eq);
    // 4 independent loads from ONE warp: with MLP 4 they overlap and
    // finish in ~latency + issue, not 4x latency.
    sm.launchCta(kernelOf({loadOp(0x0), loadOp(0x2000), loadOp(0x4000),
                           loadOp(0x6000)}),
                 0, 0);
    ctx.eq.run();
    EXPECT_LT(ctx.eq.now(), 2 * ctx.load_latency);
}

TEST(Sm, ScoreboardDepthOneSerializesLoads)
{
    GpuConfig c = cfg();
    c.max_outstanding_per_warp = 1;
    MockContext ctx;
    Sm sm(5, 0, c, ctx, ctx.eq);
    sm.launchCta(kernelOf({loadOp(0x0), loadOp(0x2000), loadOp(0x4000)}),
                 0, 0);
    ctx.eq.run();
    EXPECT_GE(ctx.eq.now(), 2 * ctx.load_latency)
        << "each load must wait for the previous one";
}

TEST(Sm, StoresAreWriteThroughNoAllocate)
{
    MockContext ctx;
    Sm sm(6, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({storeOp(0x1000, 64), loadOp(0x1000)}), 0, 0);
    ctx.eq.run();
    ASSERT_EQ(ctx.accesses.size(), 2u)
        << "store does not allocate; the load still misses";
    EXPECT_TRUE(ctx.accesses[0].is_store);
    EXPECT_EQ(ctx.accesses[0].bytes, 64u);
    EXPECT_FALSE(ctx.accesses[1].is_store);
}

TEST(Sm, RetirementWaitsForOutstandingMemory)
{
    MockContext ctx;
    ctx.load_latency = 500;
    Sm sm(7, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({loadOp(0x0)}), 0, 0);
    ctx.eq.run();
    EXPECT_GE(ctx.eq.now(), 500u)
        << "CTA must not retire before its last load lands";
    EXPECT_EQ(ctx.finished.size(), 1u);
}

TEST(Sm, CanAcceptRespectsWarpAndCtaLimits)
{
    GpuConfig c = cfg();
    c.max_warps_per_sm = 8;
    c.max_ctas_per_sm = 4;
    MockContext ctx;
    Sm sm(8, 0, c, ctx, ctx.eq);

    KernelDesc fat = kernelOf({computeOp(1000)}, 4, 4); // 4 warps/CTA
    EXPECT_TRUE(sm.canAccept(fat));
    sm.launchCta(fat, 0, 0);
    EXPECT_TRUE(sm.canAccept(fat));
    sm.launchCta(fat, 1, 0);
    EXPECT_FALSE(sm.canAccept(fat)) << "8 warps resident: full";
    EXPECT_EQ(sm.residentCtas(), 2u);
    EXPECT_EQ(sm.residentWarps(), 8u);

    ctx.eq.run();
    EXPECT_TRUE(sm.canAccept(fat));
    EXPECT_TRUE(sm.idle());
}

TEST(Sm, LaunchWithoutSlotPanics)
{
    GpuConfig c = cfg();
    c.max_ctas_per_sm = 1;
    MockContext ctx;
    Sm sm(9, 0, c, ctx, ctx.eq);
    KernelDesc k = kernelOf({computeOp(5)});
    sm.launchCta(k, 0, 0);
    EXPECT_ANY_THROW(sm.launchCta(k, 1, 0));
}

TEST(Sm, FlushL1ForcesRefetch)
{
    MockContext ctx;
    Sm sm(10, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({loadOp(0x5000)}), 0, 0);
    ctx.eq.run();
    sm.flushL1();
    sm.launchCta(kernelOf({loadOp(0x5000)}), 1, ctx.eq.now());
    ctx.eq.run();
    EXPECT_EQ(ctx.accesses.size(), 2u);
}

TEST(Sm, ModulePropagatedToMemAccess)
{
    MockContext ctx;
    Sm sm(130, 2, cfg(), ctx, ctx.eq); // SM 130 on module 2
    sm.launchCta(kernelOf({loadOp(0xF000)}), 0, 0);
    ctx.eq.run();
    ASSERT_EQ(ctx.accesses.size(), 1u);
    EXPECT_EQ(ctx.accesses[0].src, 2u);
}

TEST(Sm, EmptyTraceRetiresImmediately)
{
    MockContext ctx;
    Sm sm(11, 0, cfg(), ctx, ctx.eq);
    sm.launchCta(kernelOf({}), 0, 5);
    ctx.eq.run();
    EXPECT_EQ(ctx.eq.now(), 5u);
    EXPECT_EQ(ctx.finished.size(), 1u);
}

class SmIssueWidthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(SmIssueWidthSweep, ThroughputScalesWithWidth)
{
    GpuConfig c = cfg();
    c.sm_issue_width = GetParam();
    MockContext ctx;
    Sm sm(12, 0, c, ctx, ctx.eq);
    sm.launchCta(kernelOf({computeOp(64), computeOp(64)}, 1, 4), 0, 0);
    ctx.eq.run();
    // 4 warps x 2 ops x 64 cycles / width.
    EXPECT_EQ(ctx.eq.now(), 4u * 2u * 64u / GetParam());
}

INSTANTIATE_TEST_SUITE_P(Widths, SmIssueWidthSweep,
                         ::testing::Values(1u, 2u, 4u));

} // namespace
} // namespace mcmgpu
