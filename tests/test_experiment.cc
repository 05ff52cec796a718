/**
 * @file
 * Unit tests for the experiment harness: config/workload fingerprints,
 * memoization identity, speedup pairing, and suite selection helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"
#include "sim/experiment.hh"

namespace mcmgpu {
namespace {

class ExperimentTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        experiment::setProgress(false);
        experiment::setCacheDir(""); // no disk cache inside unit tests
    }
};

/** Change @p v by the smallest step of its kind. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else if constexpr (std::is_floating_point_v<T>)
        v = std::nextafter(v, std::numeric_limits<T>::infinity());
    else if constexpr (std::is_integral_v<T>)
        ++v;
    else if constexpr (std::is_same_v<T, std::string>)
        v += 'x';
    else
        v.push_back({});
}

TEST_F(ExperimentTest, ConfigKeyDistinguishesTimingFields)
{
    GpuConfig a = configs::mcmBasic();
    GpuConfig b = configs::mcmBasic();
    EXPECT_EQ(experiment::configKey(a), experiment::configKey(b));

    b.link_gbps = 1536.0;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.page_policy = PagePolicy::FirstTouch;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.withL15(8 * MiB, L15Alloc::RemoteOnly);
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.max_outstanding_per_warp = 2;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    // The parallel engine has its own cycles, shared by every N >= 2.
    b = configs::mcmBasic().withSimThreads(2);
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));
    GpuConfig c = configs::mcmBasic().withSimThreads(4);
    EXPECT_EQ(experiment::configKey(b), experiment::configKey(c));

    // The display name must NOT affect the key.
    b = configs::mcmBasic().withName("renamed");
    EXPECT_EQ(experiment::configKey(a), experiment::configKey(b));

    // Every other field of the list reaches the key, by the smallest
    // step of its kind, on a pristine machine and on a faulty one.
    GpuConfig faulty = configs::mcmBasic();
    faulty.fault.sweepSms(1, 2).derateLinks(0.5).injectLinkErrors(1e-3)
        .killPartition(2);
    for (const GpuConfig &base : {configs::mcmBasic(), faulty}) {
        const std::string key = experiment::configKey(base);
        size_t fields = 0;
        forEachField(base, [&](std::string_view, const auto &) { ++fields; });
        for (size_t i = 0; i < fields; ++i) {
            GpuConfig p = base;
            std::string name;
            size_t at = 0;
            forEachField(p, [&](std::string_view field, auto &v) {
                if (at++ == i) {
                    name = field;
                    perturb(v);
                }
            });
            if (name == "name")
                EXPECT_EQ(experiment::configKey(p), key);
            else
                EXPECT_NE(experiment::configKey(p), key) << name;
        }
    }
    // So do the values inside the fault plan's lists.
    b = faulty;
    perturb(b.fault.swept_sms[1].local_sm);
    EXPECT_NE(experiment::configKey(b), experiment::configKey(faulty));
    b = faulty;
    perturb(b.fault.link_faults[0].bw_derate);
    EXPECT_NE(experiment::configKey(b), experiment::configKey(faulty));
    b = faulty;
    perturb(b.fault.link_faults[1].error_rate);
    EXPECT_NE(experiment::configKey(b), experiment::configKey(faulty));
}

TEST_F(ExperimentTest, ConfigKeysDifferAcrossPresets)
{
    std::vector<std::string> keys = {
        experiment::configKey(configs::mcmBasic()),
        experiment::configKey(configs::mcmOptimized()),
        experiment::configKey(configs::monolithicUnbuildable()),
        experiment::configKey(configs::monolithicBuildableMax()),
        experiment::configKey(configs::multiGpuBaseline()),
        experiment::configKey(configs::multiGpuOptimized()),
    };
    for (size_t i = 0; i < keys.size(); ++i) {
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
}

TEST_F(ExperimentTest, WorkloadKeysUniqueAcrossSuite)
{
    std::set<std::string> keys;
    for (const workloads::Workload &w : workloads::allWorkloads())
        EXPECT_TRUE(keys.insert(experiment::workloadKey(w)).second)
            << w.abbr;
}

TEST_F(ExperimentTest, MemoizationReturnsSameObject)
{
    const workloads::Workload *w = workloads::findByAbbr("TSP");
    ASSERT_NE(w, nullptr);
    const RunResult &a = experiment::run(configs::mcmBasic(), *w);
    const RunResult &b = experiment::run(configs::mcmBasic(), *w);
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.cycles, 0u);
}

TEST_F(ExperimentTest, SpeedupsPairByWorkload)
{
    RunResult x, y;
    x.workload = "A";
    x.cycles = 100;
    y.workload = "A";
    y.cycles = 200;
    std::vector<RunResult> test{x}, base{y};
    auto s = experiment::speedups(test, base);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0], 2.0);

    base[0].workload = "B";
    EXPECT_ANY_THROW(experiment::speedups(test, base));
}

TEST_F(ExperimentTest, SuiteSelectors)
{
    EXPECT_EQ(experiment::everyWorkload().size(), 48u);
    EXPECT_EQ(experiment::highParallelismWorkloads().size(), 33u);
}

TEST_F(ExperimentTest, RunManyPreservesOrder)
{
    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> two{ws[0], ws[1]};
    auto rs = experiment::runMany(configs::monolithic(32), two);
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs[0].workload, ws[0]->abbr);
    EXPECT_EQ(rs[1].workload, ws[1]->abbr);
}

TEST(RunResult, DerivedMetrics)
{
    RunResult r;
    r.cycles = 1000;
    r.warp_instructions = 2500;
    r.inter_module_bytes = 1'000'000;
    EXPECT_DOUBLE_EQ(r.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(r.interModuleTBps(), 1.0);
    RunResult base;
    base.cycles = 2000;
    EXPECT_DOUBLE_EQ(r.speedupOver(base), 2.0);

    RunResult zero;
    EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(zero.interModuleTBps(), 0.0);
}

} // namespace
} // namespace mcmgpu
