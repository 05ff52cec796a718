/**
 * @file
 * Tests for the extensions beyond the paper's baseline design: the
 * dynamic (work-stealing) CTA scheduler it leaves to future work. (The
 * mesh fabric alternative it mentions alongside the ring is tested with
 * the other topologies in test_ring.cc.)
 */

#include <gtest/gtest.h>

#include <set>

#include "common/config.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "gpu/cta_sched.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace mcmgpu {
namespace {

// --- DynamicScheduler --------------------------------------------------------

TEST(DynamicScheduler, BehavesLikeDistributedUntilImbalance)
{
    DynamicScheduler s(4);
    s.beginKernel(16);
    EXPECT_EQ(s.nextFor(2).value(), 8u);
    EXPECT_EQ(s.nextFor(2).value(), 9u);
    EXPECT_EQ(s.nextFor(0).value(), 0u);
    EXPECT_EQ(s.steals(), 0u);
}

TEST(DynamicScheduler, IdleModuleStealsContiguousTail)
{
    DynamicScheduler s(4);
    s.beginKernel(64); // 16 per module
    // Drain module 0 completely.
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(s.nextFor(0).has_value());
    // Next request steals the tail half of some other batch; the CTA
    // it returns is contiguous with that batch's end.
    auto stolen = s.nextFor(0);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(s.steals(), 1u);
    EXPECT_GE(*stolen, 16u);
    // The victim still owns its (shrunken) head.
    EXPECT_EQ(s.remaining(), 64u - 17u);
}

TEST(DynamicScheduler, EveryCtaExactlyOnceUnderStealing)
{
    DynamicScheduler s(4);
    s.beginKernel(1000);
    std::set<CtaId> seen;
    // Module 0 greedily takes everything; others drain normally.
    bool progress = true;
    while (progress) {
        progress = false;
        for (ModuleId m : {0u, 0u, 0u, 1u, 2u, 3u}) {
            if (auto c = s.nextFor(m)) {
                EXPECT_TRUE(seen.insert(*c).second);
                progress = true;
            }
        }
    }
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_GT(s.steals(), 0u);
}

TEST(DynamicScheduler, SmallRemaindersAreNotStolen)
{
    DynamicScheduler s(2);
    s.beginKernel(10); // 5 per module: below the steal threshold
    for (int i = 0; i < 5; ++i)
        s.nextFor(0);
    EXPECT_FALSE(s.nextFor(0).has_value())
        << "stealing tiny batches would destroy locality for nothing";
    EXPECT_EQ(s.remaining(), 5u);
}

TEST(DynamicScheduler, FactoryWiresPolicy)
{
    auto s = CtaScheduler::create(CtaSchedPolicy::DynamicBatch, 4);
    s->beginKernel(8);
    EXPECT_EQ(s->nextFor(3).value(), 6u);
}

TEST(DynamicScheduler, ImbalancedKernelFinishesFasterThanStatic)
{
    // A grid where the first quarter of CTAs does 8x the work of the
    // rest: static distributed scheduling leaves module 0 as the
    // straggler; dynamic stealing spreads the tail across modules.
    using namespace workloads;
    WorkloadBuilder b("imbalanced", "imb", Category::ComputeIntensive);
    b.alloc(4 * MiB);
    // More CTAs than the machine can hold at once (4096 slots), so
    // the scheduler queue is live when the imbalance shows.
    KernelDesc k;
    k.name = "imb";
    k.num_ctas = 16384;
    k.warps_per_cta = 2;
    k.make_trace = [](CtaId cta, WarpId) -> std::unique_ptr<WarpTrace> {
        class T : public WarpTrace
        {
          public:
            explicit T(uint32_t n) : left_(n) {}
            bool
            next(WarpOp &op) override
            {
                if (left_ == 0)
                    return false;
                --left_;
                op = WarpOp{};
                op.compute_cycles = 8;
                return true;
            }

          private:
            uint32_t left_;
        };
        return std::make_unique<T>(cta < 4096 ? 64 : 8);
    };
    k.signature = ""; // hand-written trace: uncacheable
    Workload w;
    w.name = "imbalanced";
    w.abbr = "imb";
    w.category = Category::ComputeIntensive;
    w.footprint_bytes = 4 * MiB;
    w.launches.push_back({k, 1});

    setQuietLogging(true);
    GpuConfig dist = configs::mcmBasic().withSched(
        CtaSchedPolicy::DistributedBatch);
    GpuConfig dyn =
        configs::mcmBasic().withSched(CtaSchedPolicy::DynamicBatch);
    RunResult r_dist = Simulator::run(dist, w);
    RunResult r_dyn = Simulator::run(dyn, w);
    EXPECT_LT(r_dyn.cycles, r_dist.cycles)
        << "work stealing must beat static batches on imbalanced grids";
}

} // namespace
} // namespace mcmgpu
