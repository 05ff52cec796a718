/**
 * @file
 * Unit tests for the driver runtime: kernel launch-to-retire flow, SM
 * refilling, scheduler integration, kernel-boundary flushes, the
 * rotating work-distributor origin, and the SM's warp slots.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "common/config.hh"
#include "common/units.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "workloads/patterns.hh"

namespace mcmgpu {
namespace {

using workloads::KernelSpec;
using workloads::makeKernel;

/** A trace that records which CTA ran; used to observe placement. */
class RecordingFactory
{
  public:
    KernelDesc
    kernel(uint32_t ctas, uint32_t warps, uint32_t ops)
    {
        KernelDesc k;
        k.name = "rec";
        k.num_ctas = ctas;
        k.warps_per_cta = warps;
        k.make_trace = [this, ops](CtaId cta, WarpId warp) {
            if (warp == 0)
                launches_.push_back(cta);
            return std::make_unique<Trace>(ops);
        };
        return k;
    }

    const std::vector<CtaId> &launches() const { return launches_; }

  private:
    class Trace : public WarpTrace
    {
      public:
        explicit Trace(uint32_t n) : left_(n) {}

        bool
        next(WarpOp &op) override
        {
            if (left_ == 0)
                return false;
            --left_;
            op = WarpOp{};
            op.compute_cycles = 4;
            return true;
        }

      private:
        uint32_t left_;
    };

    std::vector<CtaId> launches_;
};

KernelDesc
tinyKernel(uint32_t ctas = 64)
{
    KernelSpec k;
    k.name = "tiny";
    k.num_ctas = ctas;
    k.warps_per_cta = 2;
    k.items_per_warp = 4;
    k.compute_per_item = 2;
    k.arrays = {{0x1000'0000, 1 * MiB}};
    k.accesses = {workloads::part(0)};
    return makeKernel(k);
}

TEST(Runtime, RunsKernelToCompletion)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    rt.runKernel(tinyKernel());
    EXPECT_EQ(rt.kernelsExecuted(), 1u);
    EXPECT_GT(gpu.simEngine().now(), 0u);
    for (SmId s = 0; s < gpu.numSms(); ++s)
        EXPECT_TRUE(gpu.sm(s).idle()) << "sm " << s;
}

TEST(Runtime, AllCtasExecuteExactlyOnce)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    RecordingFactory rec;
    rt.runKernel(rec.kernel(500, 2, 3));
    std::set<CtaId> seen(rec.launches().begin(), rec.launches().end());
    EXPECT_EQ(rec.launches().size(), 500u);
    EXPECT_EQ(seen.size(), 500u);
}

TEST(Runtime, MoreCtasThanSlotsRefills)
{
    // 256 SMs x 16 CTA slots = 4096 resident; run 3x that.
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    RecordingFactory rec;
    rt.runKernel(rec.kernel(12288, 2, 2));
    EXPECT_EQ(rec.launches().size(), 12288u);
}

TEST(Runtime, KernelBoundaryFlushesL1s)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    rt.runKernel(tinyKernel());
    uint64_t l1_lines = 0;
    for (SmId s = 0; s < gpu.numSms(); ++s)
        l1_lines += gpu.sm(s).l1().validLines();
    EXPECT_EQ(l1_lines, 0u) << "software coherence flush after kernel";
}

TEST(Runtime, RunAllHonoursIterations)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    std::vector<KernelLaunch> launches;
    launches.push_back({tinyKernel(), 3});
    launches.push_back({tinyKernel(32), 2});
    rt.runAll(launches);
    EXPECT_EQ(rt.kernelsExecuted(), 5u);
}

TEST(Runtime, TimeAdvancesMonotonicallyAcrossKernels)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    rt.runKernel(tinyKernel());
    Cycle after_first = gpu.simEngine().now();
    rt.runKernel(tinyKernel());
    EXPECT_GT(gpu.simEngine().now(), after_first);
}

TEST(Runtime, RejectsImpossibleKernels)
{
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    KernelDesc zero;
    zero.name = "zero";
    zero.num_ctas = 0;
    zero.warps_per_cta = 1;
    zero.make_trace = [](CtaId, WarpId) {
        return std::unique_ptr<WarpTrace>();
    };
    EXPECT_ANY_THROW(rt.runKernel(zero));

    KernelDesc fat = tinyKernel();
    fat.warps_per_cta = 65; // more warps than an SM can hold
    EXPECT_ANY_THROW(rt.runKernel(fat));
}

TEST(Runtime, CentralizedSpreadsConsecutiveCtasAcrossModules)
{
    // Figure 8(a): the first wave of consecutive CTAs goes to
    // different GPMs.
    GpuSystem gpu(configs::mcmBasic());
    Runtime rt(gpu);
    RecordingFactory rec;

    // Record CTA -> module by observing launches against residency:
    // use a kernel with exactly one CTA per SM and check the first
    // four launches hit four distinct modules via scheduler order.
    rt.runKernel(rec.kernel(256, 2, 1));
    // Launch order == fill order; the first four CTAs must have been
    // handed out before any module received its second CTA.
    // (CTA ids are handed out in order by the centralized scheduler.)
    EXPECT_EQ(rec.launches()[0], 0u);
    EXPECT_EQ(rec.launches()[1], 1u);
    EXPECT_EQ(rec.launches()[2], 2u);
    EXPECT_EQ(rec.launches()[3], 3u);
}

TEST(Runtime, DistributedKeepsCtaRangesOnTheirModules)
{
    GpuConfig cfg = configs::mcmBasic().withSched(
        CtaSchedPolicy::DistributedBatch);
    GpuSystem gpu(cfg);
    Runtime rt(gpu);

    // 4096 CTAs fill the machine exactly; afterwards check residency
    // was range-partitioned by watching which SMs ran which CTAs via
    // first-touch pinning (pages pinned by CTA c land on c's module).
    GpuConfig ft = cfg.withPagePolicy(PagePolicy::FirstTouch);
    GpuSystem gpu2(ft);
    Runtime rt2(gpu2);

    KernelSpec k;
    k.name = "ranged";
    k.num_ctas = 4096;
    k.warps_per_cta = 1;
    k.items_per_warp = 1;
    k.compute_per_item = 1;
    k.arrays = {{0x1000'0000, 16 * MiB}}; // 4KB chunk per CTA == 1 page
    k.accesses = {workloads::part(0)};
    rt2.runKernel(makeKernel(k));

    // CTA c touches page c; distributed batches pin contiguous page
    // quarters to module 0..3 respectively.
    auto &pt = gpu2.pageTable();
    std::map<ModuleId, int> histogram;
    for (uint64_t page = 0; page < 4096; ++page) {
        Addr a = 0x1000'0000 + page * 4096;
        histogram[pt.moduleOf(pt.partitionFor(a, 0))]++;
    }
    ASSERT_EQ(histogram.size(), 4u);
    for (auto [m, n] : histogram)
        EXPECT_EQ(n, 1024) << "module " << m;
}

TEST(Runtime, FillOriginRotatesBetweenKernels)
{
    // With centralized scheduling, CTA 0 must not land on the same SM
    // in consecutive kernels (the work distributor keeps moving).
    GpuConfig cfg = configs::mcmBasic();
    cfg.page_policy = PagePolicy::FirstTouch;
    GpuSystem gpu(cfg);
    Runtime rt(gpu);

    KernelSpec k;
    k.name = "probe";
    k.num_ctas = 1; // a single CTA: lands wherever the origin points
    k.warps_per_cta = 1;
    k.items_per_warp = 1;
    k.compute_per_item = 1;
    k.arrays = {{0x1000'0000, 4 * KiB}};
    k.accesses = {workloads::part(0)};

    // Kernel 1 pins page 0 to the first module in fill order.
    rt.runKernel(makeKernel(k));
    PartitionId first = gpu.pageTable().partitionFor(0x1000'0000, 0);

    // Re-run with a different array so a fresh page is pinned by the
    // rotated origin; across several kernels the pin module changes.
    std::set<PartitionId> pins{first};
    for (int i = 1; i <= 4; ++i) {
        KernelSpec k2 = k;
        k2.arrays = {{0x1000'0000 + static_cast<Addr>(i) * 64 * KiB,
                      4 * KiB}};
        rt.runKernel(makeKernel(k2));
        pins.insert(
            gpu.pageTable().partitionFor(k2.arrays[0].base, 0));
    }
    EXPECT_GT(pins.size(), 1u)
        << "rotation must move the first CTA across modules";
}

/** What a finished run leaves behind: its final cycle, its event count
 *  and its stats.json. */
struct RunDigest
{
    Cycle cycles = 0;
    uint64_t events = 0;
    std::string stats;
};

RunDigest
digestOf(const GpuConfig &cfg, const KernelDesc &kernel)
{
    GpuSystem gpu(cfg);
    Runtime rt(gpu);
    rt.runKernel(kernel);
    rt.runKernel(kernel);
    std::ostringstream os;
    gpu.statsJson(os, kernel.name);
    return {gpu.simEngine().now(), gpu.eventsExecuted(), os.str()};
}

TEST(Runtime, WarpSlotsMatchTheTraceFactory)
{
    // Eight SMs of 16 CTA slots run a 1024-CTA grid twice, so every SM
    // reuses each of its warp slots dozens of times. A pattern kernel
    // runs its PatternTrace inside the warp slot; the same kernel with
    // its spec cleared builds each trace through make_trace instead.
    // Both must produce the same run bit for bit: under chain, and
    // under staged with one remote MSHR, where warps park on a full
    // scoreboard and again at retirement until their ops drain.
    GpuConfig chain = configs::mcmBasic();
    chain.sms_per_module = 2;
    GpuConfig staged = chain;
    staged.withMemModel(MemModel::Staged, 1);

    KernelSpec k;
    k.name = "slots";
    k.num_ctas = 1024;
    k.warps_per_cta = 4;
    k.items_per_warp = 6;
    k.compute_per_item = 2;
    k.arrays = {{0x1000'0000, 4 * MiB}, {0x2000'0000, 4 * MiB}};
    k.accesses = {workloads::part(0), workloads::gather(1, 64, 0.5),
                  workloads::part(1, true)};
    const KernelDesc in_slot = makeKernel(k);
    ASSERT_TRUE(in_slot.spec);
    KernelDesc factory = in_slot;
    factory.spec.reset();

    for (const GpuConfig &cfg : {chain, staged}) {
        const RunDigest a = digestOf(cfg, in_slot);
        const RunDigest b = digestOf(cfg, factory);
        const char *model =
            cfg.mem_model == MemModel::Staged ? "staged" : "chain";
        EXPECT_GT(a.cycles, 0u) << model;
        EXPECT_EQ(a.cycles, b.cycles) << model;
        EXPECT_EQ(a.events, b.events) << model;
        EXPECT_EQ(a.stats, b.stats) << model;
    }
}

} // namespace
} // namespace mcmgpu
