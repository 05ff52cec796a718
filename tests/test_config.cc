/**
 * @file
 * Unit tests for the machine presets and config validation: every
 * preset must match the paper's description of that machine.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/config.hh"
#include "common/units.hh"
#include "topo/fabric.hh"

namespace mcmgpu {
namespace {

TEST(Config, Table3Baseline)
{
    GpuConfig c = configs::mcmBasic();
    c.validate();
    EXPECT_EQ(c.num_modules, 4u);
    EXPECT_EQ(c.totalSms(), 256u);
    EXPECT_EQ(c.max_warps_per_sm, 64u);
    EXPECT_EQ(c.l1.size_bytes, 128 * KiB);
    EXPECT_EQ(c.l1.line_bytes, 128u);
    EXPECT_EQ(c.l1.ways, 4u);
    EXPECT_EQ(c.l2.size_bytes, 16 * MiB);
    EXPECT_EQ(c.l2.ways, 16u);
    EXPECT_DOUBLE_EQ(c.dram_total_gbps, 3072.0);
    EXPECT_DOUBLE_EQ(c.dram_latency_ns, 100.0);
    EXPECT_DOUBLE_EQ(c.link_gbps, 768.0);
    EXPECT_EQ(c.link_hop_cycles, 32u);
    EXPECT_EQ(c.topology, "ring");
    EXPECT_EQ(c.cta_sched, CtaSchedPolicy::CentralizedRR);
    EXPECT_EQ(c.page_policy, PagePolicy::FineInterleave);
    EXPECT_EQ(c.l15_alloc, L15Alloc::Off);
}

TEST(Config, MonolithicScalesProportionally)
{
    // Figure 2: 384 GB/s + 2MB at 32 SMs ... 3 TB/s + 16MB at 256 SMs.
    GpuConfig c32 = configs::monolithic(32);
    EXPECT_DOUBLE_EQ(c32.dram_total_gbps, 384.0);
    EXPECT_EQ(c32.l2.size_bytes, 2 * MiB);
    EXPECT_EQ(c32.num_modules, 1u);
    EXPECT_TRUE(Fabric::create(c32)->graph().links.empty())
        << "one die: the ideal on-chip fabric";

    GpuConfig c256 = configs::monolithic(256);
    EXPECT_DOUBLE_EQ(c256.dram_total_gbps, 3072.0);
    EXPECT_EQ(c256.l2.size_bytes, 16 * MiB);

    // Total DRAM channels scale with SM count too.
    EXPECT_EQ(c32.totalPartitions(), 1u);
    EXPECT_EQ(c256.totalPartitions(), 8u);
}

TEST(Config, MonolithicBuildableLimit)
{
    GpuConfig c = configs::monolithicBuildableMax();
    EXPECT_EQ(c.totalSms(), 128u);
    // Section 6.1: maximal die has 8MB L2 and 1.5 TB/s.
    EXPECT_EQ(c.l2.size_bytes, 8 * MiB);
    EXPECT_DOUBLE_EQ(c.dram_total_gbps, 1536.0);
}

TEST(Config, MonolithicRejectsOddCounts)
{
    EXPECT_ANY_THROW(configs::monolithic(0));
    EXPECT_ANY_THROW(configs::monolithic(48));
}

TEST(Config, IsoTransistorL15Rebalance)
{
    GpuConfig c8 = configs::mcmWithL15(8 * MiB);
    EXPECT_EQ(c8.l15.size_bytes, 8 * MiB);
    EXPECT_EQ(c8.l2.size_bytes, 8 * MiB);
    EXPECT_EQ(c8.l15_alloc, L15Alloc::RemoteOnly);

    // 16MB: almost all of the L2 moves; a 32KB/partition sliver stays.
    GpuConfig c16 = configs::mcmWithL15(16 * MiB);
    EXPECT_EQ(c16.l15.size_bytes, 16 * MiB);
    EXPECT_EQ(c16.l2.size_bytes, 4 * 32 * KiB);

    // 32MB: deliberately non-iso-transistor.
    GpuConfig c32 = configs::mcmWithL15(32 * MiB);
    EXPECT_EQ(c32.l15.size_bytes, 32 * MiB);
    uint64_t total = c32.l15.size_bytes + c32.l2.size_bytes;
    EXPECT_GT(total, 16 * MiB);
    c8.validate();
    c16.validate();
    c32.validate();
}

TEST(Config, OptimizedPresetMatchesSection54)
{
    GpuConfig c = configs::mcmOptimized();
    c.validate();
    EXPECT_EQ(c.l15.size_bytes, 8 * MiB);
    EXPECT_EQ(c.l2.size_bytes, 8 * MiB);
    EXPECT_EQ(c.l15_alloc, L15Alloc::RemoteOnly);
    EXPECT_EQ(c.cta_sched, CtaSchedPolicy::DistributedBatch);
    EXPECT_EQ(c.page_policy, PagePolicy::FirstTouch);
    EXPECT_DOUBLE_EQ(c.link_gbps, 768.0);
}

TEST(Config, MultiGpuMatchesSection61)
{
    GpuConfig c = configs::multiGpuBaseline();
    c.validate();
    EXPECT_EQ(c.num_modules, 2u);
    EXPECT_EQ(c.sms_per_module, 128u);
    EXPECT_DOUBLE_EQ(c.link_gbps, 256.0); // aggregate board bandwidth
    EXPECT_TRUE(c.board_level_links);
    EXPECT_DOUBLE_EQ(c.dram_total_gbps, 3072.0); // 1.5 TB/s per GPU
    EXPECT_EQ(c.l2.size_bytes, 16 * MiB);        // 8MB per GPU
    EXPECT_EQ(c.cta_sched, CtaSchedPolicy::DistributedBatch);
    EXPECT_EQ(c.page_policy, PagePolicy::FirstTouch);

    GpuConfig o = configs::multiGpuOptimized();
    o.validate();
    EXPECT_EQ(o.l15.size_bytes, 8 * MiB); // half of L2 moved GPU-side
    EXPECT_EQ(o.l2.size_bytes, 8 * MiB);
}

TEST(Config, DerivedQuantities)
{
    GpuConfig c = configs::mcmBasic();
    EXPECT_EQ(c.totalPartitions(), 4u);
    EXPECT_DOUBLE_EQ(c.dramGbpsPerPartition(), 768.0);
    EXPECT_EQ(c.l2BytesPerPartition(), 4 * MiB);
    c.withL15(8 * MiB, L15Alloc::RemoteOnly);
    EXPECT_EQ(c.l15BytesPerModule(), 2 * MiB);
}

TEST(Config, FluentMutators)
{
    GpuConfig c = configs::mcmBasic()
                      .withName("x")
                      .withLinkGbps(1536.0)
                      .withSched(CtaSchedPolicy::DistributedBatch)
                      .withPagePolicy(PagePolicy::FirstTouch);
    EXPECT_EQ(c.name, "x");
    EXPECT_DOUBLE_EQ(c.link_gbps, 1536.0);
    EXPECT_EQ(c.cta_sched, CtaSchedPolicy::DistributedBatch);
    EXPECT_EQ(c.page_policy, PagePolicy::FirstTouch);
    // withL15(0) turns the cache off regardless of the alloc argument.
    c.withL15(0, L15Alloc::All);
    EXPECT_EQ(c.l15_alloc, L15Alloc::Off);
}

TEST(Config, ValidateCatchesBrokenConfigs)
{
    GpuConfig c = configs::mcmBasic();
    c.num_modules = 0;
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.page_bytes = 100; // not a power of two
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.page_bytes = 64; // smaller than a line
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.l1.line_bytes = 64; // mismatched line sizes
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.dram_total_gbps = -5.0;
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.link_gbps = 0.0;
    EXPECT_ANY_THROW(c.validate());

    c = configs::mcmBasic();
    c.l15_alloc = L15Alloc::RemoteOnly; // enabled but zero capacity
    EXPECT_ANY_THROW(c.validate());
}

// The structured side of validation: each broken machine must report
// the specific ConfigErrc, so tests (and tools) can assert on causes
// instead of string-matching what() text.

TEST(ConfigIssues, ZeroModules)
{
    GpuConfig c = configs::mcmBasic();
    c.num_modules = 0;
    try {
        c.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::NoModules));
        EXPECT_FALSE(e.issues().empty());
    }
}

TEST(ConfigIssues, ZeroSmsPerModule)
{
    GpuConfig c = configs::mcmBasic();
    c.sms_per_module = 0;
    try {
        c.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::NoSms));
    }
}

TEST(ConfigIssues, L15EnabledWithZeroCapacity)
{
    GpuConfig c = configs::mcmBasic();
    c.l15_alloc = L15Alloc::RemoteOnly;
    c.l15.size_bytes = 0;
    try {
        c.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::L15NoCapacity));
    }
}

TEST(ConfigIssues, CacheSetCounts)
{
    // A Cache counts its sets in 32 bits. Machines this large are never
    // built here: check() alone must refuse them.
    const uint64_t set = 128 * 16;
    const uint64_t too_many = uint64_t(1) << 32;
    GpuConfig c = configs::mcmBasic();
    c.withL15(too_many * set * c.num_modules, L15Alloc::RemoteOnly);
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheSets));

    c = configs::mcmBasic();
    c.l2.size_bytes = too_many * set * c.totalPartitions();
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheSets));
    c.l2.size_bytes -= set * c.totalPartitions();
    EXPECT_TRUE(c.check().empty());

    // Every instance of a present level holds at least one set, and a
    // set of no ways has no count at all; building either would panic.
    c = configs::mcmBasic();
    c.withL15(set * c.num_modules - 1, L15Alloc::RemoteOnly);
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheSets));
    c = configs::mcmBasic();
    c.l2.size_bytes = set * c.totalPartitions() - 1;
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheSets));
    c = configs::mcmBasic();
    c.l1.ways = 0;
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheSets));
}

TEST(ConfigIssues, CacheWays)
{
    // A set's recency order holds CacheGeometry::kMaxWays way indices;
    // check() refuses more before a Cache would panic on them.
    GpuConfig c = configs::mcmBasic();
    c.l2.ways = CacheGeometry::kMaxWays + 1;
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheWays));
    c = configs::mcmBasic();
    c.l1.ways = 32;
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheWays));
    c = configs::mcmOptimized();
    c.l15.ways = 64;
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::BadCacheWays));

    // Up to the limit every level is fine, and an absent level's ways
    // build nothing.
    c = configs::mcmBasic();
    c.l1.ways = c.l2.ways = CacheGeometry::kMaxWays;
    c.l15.ways = 64;
    EXPECT_TRUE(c.check().empty());
}

TEST(ConfigIssues, CheckReturnsEveryProblemAtOnce)
{
    GpuConfig c = configs::mcmBasic();
    c.num_modules = 0;
    c.dram_total_gbps = 0.0;
    std::vector<ConfigIssue> issues = c.check();
    ASSERT_GE(issues.size(), 2u);
    ConfigError e(issues);
    EXPECT_TRUE(e.has(ConfigErrc::NoModules));
    EXPECT_TRUE(e.has(ConfigErrc::NoDramBandwidth));
}

TEST(ConfigIssues, ValidMachineHasNoIssues)
{
    EXPECT_TRUE(configs::mcmBasic().check().empty());
    EXPECT_TRUE(configs::mcmOptimized().check().empty());
    EXPECT_TRUE(configs::multiGpuBaseline().check().empty());
}

TEST(ConfigIssues, FaultPlanSanity)
{
    // Sweeping every SM of a GPM is rejected: the weighted batch split
    // cannot give work to a zero-weight module.
    GpuConfig c = configs::mcmBasic();
    c.fault = FaultPlan{}.sweepSms(1, c.sms_per_module);
    try {
        c.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_TRUE(e.has(ConfigErrc::FaultModuleFullySwept));
    }

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.sweepSm(c.num_modules, 0); // bad module id
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::FaultBadModule));

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.sweepSm(0, c.sms_per_module); // bad local SM
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::FaultBadSm));

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.derateLinks(1.5); // >1 would add bandwidth
    EXPECT_TRUE(
        ConfigError(c.check()).has(ConfigErrc::FaultBadLinkDerate));

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.injectLinkErrors(1.5); // probabilities top at 1
    EXPECT_TRUE(
        ConfigError(c.check()).has(ConfigErrc::FaultBadLinkErrorRate));

    // NaN compares false against every bound, so it must fail each.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    c = configs::mcmBasic();
    c.fault = FaultPlan{}.derateLinks(nan);
    EXPECT_TRUE(
        ConfigError(c.check()).has(ConfigErrc::FaultBadLinkDerate));

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.injectLinkErrors(nan);
    EXPECT_TRUE(
        ConfigError(c.check()).has(ConfigErrc::FaultBadLinkErrorRate));

    // p = 1.0 is legal: an always-erroring link is a valid fault plan
    // and surfaces as a typed LinkWedged stall, not a config error.
    c = configs::mcmBasic();
    c.fault = FaultPlan{}.injectLinkErrors(1.0);
    EXPECT_TRUE(c.check().empty());

    c = configs::mcmBasic();
    c.fault = FaultPlan{}.killPartition(c.totalPartitions());
    EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::FaultBadPartition));

    c = configs::mcmBasic();
    for (PartitionId p = 0; p < c.totalPartitions(); ++p)
        c.fault.killPartition(p);
    EXPECT_TRUE(
        ConfigError(c.check()).has(ConfigErrc::FaultAllPartitionsDead));

    // A survivable plan passes.
    c = configs::mcmBasic();
    c.fault = FaultPlan{}
                  .sweepSms(0, 4)
                  .derateLinks(0.5)
                  .injectLinkErrors(1e-3)
                  .killPartition(2);
    EXPECT_TRUE(c.check().empty());
}

TEST(ConfigIssues, NonFiniteBandwidth)
{
    // NaN compares false against any bound; it and infinity must fail
    // every rate check.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bad);
        GpuConfig c = configs::mcmBasic();
        c.link_gbps = bad;
        EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::NoLinkBandwidth));

        c = configs::mcmBasic();
        c.dram_total_gbps = bad;
        EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::NoDramBandwidth));

        c = configs::mcmBasic().withTopology("package:2");
        ASSERT_TRUE(c.check().empty());
        c.pkg_link_gbps = bad;
        EXPECT_TRUE(ConfigError(c.check()).has(ConfigErrc::NoLinkBandwidth));
    }
}

class LinkSweepPresets : public ::testing::TestWithParam<double>
{
};

TEST_P(LinkSweepPresets, AllFigure4SettingsValidate)
{
    GpuConfig c = configs::mcmBasic(GetParam());
    c.validate();
    EXPECT_DOUBLE_EQ(c.link_gbps, GetParam());
    GpuConfig o = configs::mcmOptimized(GetParam());
    o.validate();
}

INSTANTIATE_TEST_SUITE_P(Figure4Settings, LinkSweepPresets,
                         ::testing::Values(384.0, 768.0, 1536.0, 3072.0,
                                           6144.0));

} // namespace
} // namespace mcmgpu
