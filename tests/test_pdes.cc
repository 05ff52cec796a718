/**
 * @file
 * Tests for the parallel (PDES) engine path: per-GPM simulation
 * domains under conservative window barriers (docs/PDES.md).
 *
 * The headline property: simulation results are a function of the
 * configuration and workload alone, never of the worker count —
 * --sim-threads 2, 3, and 4 produce byte-identical stats.json and
 * fabric.json documents and identical headline metrics, with
 * observability on or off. The satellites: --sim-threads 1 is the
 * serial engine itself, ineligible configurations fall back to serial
 * with a warning, a degenerate (<= 1 cycle) lookahead falls back, and
 * serial-only observability attachments downgrade an already-parallel
 * system.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "gpu/gpu_system.hh"
#include "obs/options.hh"
#include "obs/recorder.hh"
#include "sim/simulator.hh"
#include "workloads/patterns.hh"
#include "workloads/workload.hh"

namespace mcmgpu {
namespace {

namespace fs = std::filesystem;

using workloads::AccessSpec;
using workloads::ArrayRef;
using workloads::Category;
using workloads::KernelSpec;
using workloads::Workload;
using workloads::WorkloadBuilder;

/** A unique empty scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> serial{0};
        path_ = (fs::temp_directory_path() /
                 ("mcmgpu-pdes-" + tag + "-" + std::to_string(::getpid()) +
                  "-" + std::to_string(serial++)))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * A small workload with heavy cross-GPM traffic: random gather loads
 * over the whole address space plus partitioned and gathered stores, so
 * every parallel message kind (request, response, store ack) crosses
 * domains many times per window.
 */
Workload
crossTrafficWorkload()
{
    WorkloadBuilder b("PDES Cross Traffic", "PdesX",
                      Category::MemoryIntensive);
    ArrayRef in{b.alloc(4 * MiB), 4 * MiB};
    ArrayRef out{b.alloc(4 * MiB), 4 * MiB};
    KernelSpec k;
    k.name = "pdes_cross";
    k.num_ctas = 128;
    k.warps_per_cta = 4;
    k.items_per_warp = 16;
    k.compute_per_item = 1;
    k.arrays = {in, out};
    AccessSpec scatter = workloads::gather(1);
    scatter.store = true; // random remote stores: the ack path
    k.accesses = {workloads::gather(0), scatter,
                  workloads::part(1, true)};
    b.launch(k, 2);
    return b.build();
}

/** The eligible parallel configuration: staged memory model,
 *  distributed CTA scheduling, multi-GPM machine. */
GpuConfig
pdesConfig(uint32_t threads)
{
    GpuConfig c = configs::mcmBasic();
    c.withMemModel(MemModel::Staged, 0);
    c.cta_sched = CtaSchedPolicy::DistributedBatch;
    c.withSimThreads(threads);
    return c;
}

/** Headline metrics that must not depend on the worker count. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warp_instructions, b.warp_instructions);
    EXPECT_EQ(a.kernels, b.kernels);
    EXPECT_EQ(a.inter_module_bytes, b.inter_module_bytes);
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    EXPECT_DOUBLE_EQ(a.l1_hit_rate, b.l1_hit_rate);
    EXPECT_DOUBLE_EQ(a.l15_hit_rate, b.l15_hit_rate);
    EXPECT_DOUBLE_EQ(a.l2_hit_rate, b.l2_hit_rate);
    EXPECT_DOUBLE_EQ(a.energy_chip_j, b.energy_chip_j);
    EXPECT_DOUBLE_EQ(a.energy_link_j, b.energy_link_j);
}

class PdesTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setQuietLogging(true);
        obs::setOptions(obs::Options{});
    }
    void TearDown() override { obs::setOptions(obs::Options{}); }
};

TEST_F(PdesTest, ResultsIdenticalAcrossWorkerCounts)
{
    const Workload w = crossTrafficWorkload();
    const RunResult two = Simulator::run(pdesConfig(2), w);
    const RunResult three = Simulator::run(pdesConfig(3), w);
    const RunResult four = Simulator::run(pdesConfig(4), w);
    ASSERT_EQ(two.status, RunStatus::Finished);
    EXPECT_GT(two.cycles, 0u);
    EXPECT_GT(two.inter_module_bytes, 0u); // remote traffic really flowed
    expectSameResult(two, three);
    expectSameResult(two, four);
}

TEST_F(PdesTest, StatsAndFabricJsonByteIdenticalAcrossWorkerCounts)
{
    const Workload w = crossTrafficWorkload();
    const GpuConfig cfg2 = pdesConfig(2);
    const GpuConfig cfg4 = pdesConfig(4);

    auto observedRun = [&](const GpuConfig &cfg,
                           const std::string &out_dir) {
        obs::Options opt;
        opt.stats_json = true;
        opt.sample_period = 512;
        opt.out_dir = out_dir;
        obs::setOptions(opt);
        return Simulator::run(cfg, w);
    };

    TempDir d2("smt2"), d4("smt4");
    const RunResult r2 = observedRun(cfg2, d2.str());
    const RunResult r4 = observedRun(cfg4, d4.str());
    ASSERT_EQ(r2.status, RunStatus::Finished);
    expectSameResult(r2, r4);

    // Observability is passive: the observed parallel run matches the
    // unobserved one cycle for cycle.
    obs::setOptions(obs::Options{});
    const RunResult bare = Simulator::run(cfg4, w);
    EXPECT_EQ(bare.cycles, r4.cycles);

    obs::Options opt = obs::options();
    opt.stats_json = true; // recreate namers with outputs enabled
    opt.out_dir = d2.str();
    obs::Recorder namer(opt, cfg2.name, w.abbr, cfg2.num_modules);
    size_t files = 0;
    for (const char *artifact : {"stats", "timeline", "fabric"}) {
        const std::string rel =
            fs::path(namer.outputPath(artifact)).filename().string();
        const std::string a = d2.str() + "/" + rel;
        const std::string b = d4.str() + "/" + rel;
        ASSERT_TRUE(fs::exists(a)) << a;
        ASSERT_TRUE(fs::exists(b)) << b;
        EXPECT_EQ(slurp(a), slurp(b)) << rel;
        ++files;
    }
    EXPECT_EQ(files, 3u);
}

TEST_F(PdesTest, PortModelRunsParallelByteIdentically)
{
    // The port model's lookahead is one full hop (egress + ingress), so
    // a staged, distributed ports machine is eligible like the ring.
    const Workload w = crossTrafficWorkload();
    auto portsConfig = [](uint32_t threads) {
        GpuConfig c = pdesConfig(threads).withTopology("ports");
        return c.withName("mcm-ports+staged-dist");
    };
    EXPECT_TRUE(GpuSystem(portsConfig(2)).simEngine().parallel());

    TempDir d2("ports2"), d4("ports4");
    obs::Options opt;
    opt.stats_json = true;
    opt.sample_period = 512;
    opt.out_dir = d2.str();
    obs::setOptions(opt);
    const RunResult r2 = Simulator::run(portsConfig(2), w);
    opt.out_dir = d4.str();
    obs::setOptions(opt);
    const RunResult r4 = Simulator::run(portsConfig(4), w);
    ASSERT_EQ(r2.status, RunStatus::Finished);
    EXPECT_GT(r2.inter_module_bytes, 0u);
    expectSameResult(r2, r4);

    obs::Recorder namer(opt, "mcm-ports+staged-dist", w.abbr, 4);
    for (const char *artifact : {"stats", "timeline", "fabric"}) {
        const std::string rel =
            fs::path(namer.outputPath(artifact)).filename().string();
        EXPECT_EQ(slurp(d2.str() + "/" + rel), slurp(d4.str() + "/" + rel))
            << rel;
    }
}

TEST_F(PdesTest, OneThreadIsTheSerialEngine)
{
    // --sim-threads 1 never activates domains: same code path as the
    // serial default, so the results are trivially bit-identical.
    GpuConfig one = pdesConfig(1);
    GpuSystem gpu(one);
    EXPECT_FALSE(gpu.simEngine().parallel());

    const Workload w = crossTrafficWorkload();
    GpuConfig serial = pdesConfig(1);
    serial.sim_threads = 1;
    const RunResult a = Simulator::run(serial, w);
    const RunResult b = Simulator::run(pdesConfig(1), w);
    expectSameResult(a, b);
}

TEST_F(PdesTest, IneligibleConfigsFallBackToSerial)
{
    // Chain memory model: transactions walk cross-module state inside
    // one continuation chain, which cannot shard.
    GpuConfig chain = pdesConfig(4);
    chain.withMemModel(MemModel::Chain, 0);
    EXPECT_FALSE(GpuSystem(chain).simEngine().parallel());

    // Virtual-channel credit flow control: credit pools are shared
    // hot-path state between source and home domains.
    GpuConfig vc = pdesConfig(4);
    vc.withFabricVcs(2, 64);
    EXPECT_FALSE(GpuSystem(vc).simEngine().parallel());

    // Single module: nothing to partition.
    GpuConfig mono = configs::monolithic(32);
    mono.withMemModel(MemModel::Staged, 0);
    mono.cta_sched = CtaSchedPolicy::DistributedBatch;
    mono.withSimThreads(4);
    EXPECT_FALSE(GpuSystem(mono).simEngine().parallel());

    // First-touch page placement: the page table is written from SM
    // contexts on every first access to a page.
    GpuConfig ft = pdesConfig(4);
    ft.page_policy = PagePolicy::FirstTouch;
    EXPECT_FALSE(GpuSystem(ft).simEngine().parallel());

    // And the eligible configuration really does go parallel.
    EXPECT_TRUE(GpuSystem(pdesConfig(4)).simEngine().parallel());
}

TEST_F(PdesTest, DegenerateLookaheadFallsBackToSerial)
{
    // A 1-cycle inter-GPM hop gives a 1-cycle lookahead: windows would
    // never admit more than the next event, so the engine stays serial.
    GpuConfig tight = pdesConfig(4);
    tight.link_hop_cycles = 1;
    GpuSystem gpu(tight);
    EXPECT_FALSE(gpu.simEngine().parallel());

    // The fallback must still simulate correctly.
    const Workload w = crossTrafficWorkload();
    const RunResult r = Simulator::run(tight, w);
    EXPECT_EQ(r.status, RunStatus::Finished);
    EXPECT_GT(r.cycles, 0u);
}

TEST_F(PdesTest, SerialOnlyAttachmentsDowngradeToSerial)
{
    // The event trace records spans into one shared sink; attaching it
    // to a parallel system downgrades the engine before any event runs.
    const GpuConfig cfg = pdesConfig(4);
    TempDir dir("trace");
    obs::Options opt;
    opt.trace_json = true;
    opt.out_dir = dir.str();

    GpuSystem gpu(cfg);
    EXPECT_TRUE(gpu.simEngine().parallel());
    obs::Recorder rec(opt, cfg.name, "PdesX", cfg.num_modules);
    gpu.attachRecorder(rec);
    EXPECT_FALSE(gpu.simEngine().parallel());

    // End-to-end: the downgraded run is the serial run, bit for bit.
    obs::setOptions(opt);
    const Workload w = crossTrafficWorkload();
    const RunResult traced = Simulator::run(cfg, w);
    obs::setOptions(obs::Options{});
    GpuConfig serial = cfg;
    serial.withSimThreads(1);
    const RunResult plain = Simulator::run(serial, w);
    EXPECT_EQ(traced.status, RunStatus::Finished);
    expectSameResult(traced, plain);
}

} // namespace
} // namespace mcmgpu
