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
 * serial engine itself, every ineligible configuration falls back to
 * serial with a warning naming its row, a degenerate (<= 1 cycle)
 * lookahead falls back, a machine built with a serial-only recorder
 * runs serial from the start, a run cut by its cycle limit freezes
 * the same machine for every worker count, and reading the stats
 * between kernels leaves the final totals unchanged on either engine.
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
#include "gpu/runtime.hh"
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

/** The number after the first `"<key>": ` at or after @p from. */
double
numberAfter(const std::string &doc, const std::string &key, size_t from = 0)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = doc.find(needle, from);
    EXPECT_NE(pos, std::string::npos) << key;
    return pos == std::string::npos
               ? -1.0
               : std::stod(doc.substr(pos + needle.size(), 32));
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

TEST_F(PdesTest, CycleLimitIdenticalAcrossWorkerCounts)
{
    // The limit lands mid-kernel with cross-domain messages in flight;
    // the engine inserts undelivered ones before run() returns, so the
    // frozen machine and its pending events match for every worker
    // count.
    const Workload w = crossTrafficWorkload();
    auto cutConfig = [](uint32_t threads) {
        GpuConfig c = pdesConfig(threads);
        c.cycle_limit = 2000; // the full run takes ~4200 cycles
        return c;
    };

    obs::Options opt;
    opt.stats_json = true;
    std::vector<RunResult> results;
    std::vector<std::string> stats;
    std::vector<size_t> pending;
    for (uint32_t threads : {2u, 3u, 4u}) {
        const GpuConfig cfg = cutConfig(threads);
        TempDir dir("cut" + std::to_string(threads));
        opt.out_dir = dir.str();
        obs::setOptions(opt);
        results.push_back(Simulator::run(cfg, w));
        obs::Recorder namer(opt, cfg.name, w.abbr, cfg.num_modules);
        stats.push_back(slurp(namer.outputPath("stats")));
        obs::setOptions(obs::Options{});

        GpuSystem gpu(cfg);
        Runtime rt(gpu);
        rt.runAll(w.launches);
        EXPECT_EQ(rt.status(), RunStatus::CycleLimit);
        pending.push_back(gpu.simEngine().pending());
    }

    for (const RunResult &r : results)
        EXPECT_EQ(r.status, RunStatus::CycleLimit);
    EXPECT_GT(pending[0], 0u);
    for (size_t i = 1; i < results.size(); ++i) {
        expectSameResult(results[0], results[i]);
        EXPECT_EQ(stats[0], stats[i]);
        EXPECT_EQ(pending[0], pending[i]);
    }
}

TEST_F(PdesTest, StatsReadBetweenKernelsKeepsCounting)
{
    // Every read folds the per-domain shards into the totals and starts
    // them afresh, so a read between the two kernels leaves the final
    // document unchanged, on the serial engine (one shard) and on the
    // parallel one.
    const Workload w = crossTrafficWorkload();
    ASSERT_EQ(w.launches.size(), 1u);
    ASSERT_EQ(w.launches[0].iterations, 2u);
    const KernelDesc &kernel = w.launches[0].kernel;
    obs::Options opt;
    opt.stats_json = true;
    for (uint32_t threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        const GpuConfig cfg = pdesConfig(threads);
        auto finalStats = [&](bool read_between) {
            obs::Recorder rec(opt, cfg.name, w.abbr, cfg.num_modules);
            GpuSystem gpu(cfg, &rec);
            EXPECT_EQ(gpu.simEngine().parallel(), threads > 1);
            Runtime rt(gpu);
            std::ostringstream os;
            rt.runKernel(kernel);
            if (read_between)
                gpu.statsJson(os, w.abbr);
            rt.runKernel(kernel);
            EXPECT_EQ(rt.status(), RunStatus::Finished);
            os.str("");
            gpu.statsJson(os, w.abbr);
            return os.str();
        };
        const std::string read_twice = finalStats(true);
        const std::string read_once = finalStats(false);
        EXPECT_EQ(numberAfter(read_twice, "txn_launched"),
                  numberAfter(read_once, "txn_launched"));
        EXPECT_TRUE(read_twice == read_once) << "final stats.json differs";

        // Every completed transaction lands in one latency histogram.
        for (const std::string &doc : {read_twice, read_once}) {
            double samples = 0;
            for (const char *h :
                 {"load_latency_local", "load_latency_remote",
                  "store_latency_local", "store_latency_remote"}) {
                const size_t at =
                    doc.find(std::string("\"name\": \"") + h + "\"");
                ASSERT_NE(at, std::string::npos) << h;
                samples += numberAfter(doc, "count", at);
            }
            EXPECT_GT(samples, 0.0);
            EXPECT_EQ(samples, numberAfter(doc, "txn_completed"));
        }
    }
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
    // Every row of GpuSystem::serialReason(): the machine runs serial,
    // and the reason names that row, not an earlier one.
    auto serialRow = [](const GpuConfig &cfg, obs::Recorder *rec,
                        const std::string &row) {
        SCOPED_TRACE(row);
        GpuSystem gpu(cfg, rec);
        EXPECT_FALSE(gpu.simEngine().parallel());
        const char *why = GpuSystem::serialReason(cfg, gpu.fabric(), rec);
        ASSERT_NE(why, nullptr);
        EXPECT_NE(std::string(why).find(row), std::string::npos) << why;
    };

    // Single module: nothing to partition.
    GpuConfig mono = configs::monolithic(32);
    mono.withMemModel(MemModel::Staged, 0);
    mono.cta_sched = CtaSchedPolicy::DistributedBatch;
    mono.withSimThreads(4);
    serialRow(mono, nullptr, "a single module");

    // Chain memory model: transactions walk cross-module state inside
    // one continuation chain, which cannot shard.
    GpuConfig chain = pdesConfig(4);
    chain.withMemModel(MemModel::Chain, 0);
    serialRow(chain, nullptr, "the chain memory model");

    // Virtual-channel credit flow control: credit pools are shared
    // hot-path state between source and home domains.
    GpuConfig vc = pdesConfig(4);
    vc.withFabricVcs(2, 64);
    serialRow(vc, nullptr, "virtual-channel credits");

    // Centralized CTA scheduling: one global queue hands out CTAs.
    GpuConfig central = pdesConfig(4);
    central.cta_sched = CtaSchedPolicy::CentralizedRR;
    serialRow(central, nullptr, "only the distributed CTA scheduler");

    // First-touch page placement: the page table is written from SM
    // contexts on every first access to a page.
    GpuConfig ft = pdesConfig(4);
    ft.page_policy = PagePolicy::FirstTouch;
    serialRow(ft, nullptr, "first-touch page placement");

    // Fault plans: retries and rehoming are global state.
    GpuConfig faulty = pdesConfig(4);
    faulty.fault.sweepSmsEveryModule(faulty.num_modules, 1);
    serialRow(faulty, nullptr, "fault plans");

    // A 1-cycle hop leaves no lookahead.
    GpuConfig tight = pdesConfig(4);
    tight.link_hop_cycles = 1;
    serialRow(tight, nullptr, "route latency <= 1 cycle");

    // The event trace and the flight recorder observe one global event
    // stream.
    const GpuConfig cfg = pdesConfig(4);
    TempDir dir("rows");
    obs::Options traced;
    traced.trace_json = true;
    traced.out_dir = dir.str();
    obs::Recorder trace_rec(traced, cfg.name, "PdesX", cfg.num_modules);
    serialRow(cfg, &trace_rec, "the event trace");
    obs::Options flight;
    flight.flight_recorder = 64;
    flight.out_dir = dir.str();
    obs::Recorder flight_rec(flight, cfg.name, "PdesX", cfg.num_modules);
    serialRow(cfg, &flight_rec, "the flight-recorder ring");

    // And the eligible configuration really does go parallel, with a
    // stats-only recorder too.
    EXPECT_TRUE(GpuSystem(cfg).simEngine().parallel());
    obs::Options stats;
    stats.stats_json = true;
    stats.out_dir = dir.str();
    obs::Recorder stats_rec(stats, cfg.name, "PdesX", cfg.num_modules);
    GpuSystem observed(cfg, &stats_rec);
    EXPECT_TRUE(observed.simEngine().parallel());
    EXPECT_EQ(GpuSystem::serialReason(cfg, observed.fabric(), &stats_rec),
              nullptr);
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
    // The event trace records spans into one shared sink; a machine
    // built with it runs the serial engine from the start.
    const GpuConfig cfg = pdesConfig(4);
    TempDir dir("trace");
    obs::Options opt;
    opt.trace_json = true;
    opt.out_dir = dir.str();

    EXPECT_TRUE(GpuSystem(cfg).simEngine().parallel());
    obs::Recorder rec(opt, cfg.name, "PdesX", cfg.num_modules);
    EXPECT_FALSE(GpuSystem(cfg, &rec).simEngine().parallel());

    // End-to-end: the traced run is the serial run, bit for bit.
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
