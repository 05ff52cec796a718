/**
 * @file
 * Unit tests for the parallel experiment runner (src/exec): thread
 * pool scheduling, concurrency-safe result cache, job-graph dedup and
 * failure isolation, telemetry JSON, and the headline determinism
 * guarantee — a parallel sweep is bit-for-bit identical to serial.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "exec/job_graph.hh"
#include "exec/progress.hh"
#include "exec/result_cache.hh"
#include "exec/telemetry.hh"
#include "exec/thread_pool.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace {

namespace fs = std::filesystem;
using exec::JobGraph;
using exec::JobRecord;
using exec::ResultCache;
using exec::TelemetrySink;
using exec::ThreadPool;

/** A unique empty scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> serial{0};
        path_ = (fs::temp_directory_path() /
                 ("mcmgpu-exec-" + tag + "-" +
                  std::to_string(::getpid()) + "-" +
                  std::to_string(serial++)))
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

RunResult
sampleResult(const std::string &workload, uint64_t cycles)
{
    RunResult r;
    r.workload = workload;
    r.config = "cfg";
    r.cycles = cycles;
    r.warp_instructions = cycles * 3;
    r.kernels = 7;
    r.inter_module_bytes = 1234567;
    r.dram_read_bytes = 1 << 20;
    r.dram_write_bytes = 1 << 19;
    r.l1_hit_rate = 0.5;
    r.l15_hit_rate = 0.25;
    r.l2_hit_rate = 0.125;
    r.energy_chip_j = 1.5;
    r.energy_link_j = 0.5;
    r.link_domain_bytes = 42;
    return r;
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.stall_diagnostic, b.stall_diagnostic);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warp_instructions, b.warp_instructions);
    EXPECT_EQ(a.kernels, b.kernels);
    EXPECT_EQ(a.inter_module_bytes, b.inter_module_bytes);
    EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes);
    EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes);
    // Bit-for-bit: exact double equality, not near-equality.
    EXPECT_EQ(a.l1_hit_rate, b.l1_hit_rate);
    EXPECT_EQ(a.l15_hit_rate, b.l15_hit_rate);
    EXPECT_EQ(a.l2_hit_rate, b.l2_hit_rate);
    EXPECT_EQ(a.energy_chip_j, b.energy_chip_j);
    EXPECT_EQ(a.energy_link_j, b.energy_link_j);
    EXPECT_EQ(a.link_domain_bytes, b.link_domain_bytes);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&] { done++; });
        pool.wait();
        EXPECT_EQ(done.load(), 10 * (round + 1));
    }
}

TEST(ThreadPool, WorkerIndexIdentifiesWorkers)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workerIndex(), -1); // caller is not a worker
    std::mutex mu;
    std::set<int> seen;
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            int idx = pool.workerIndex();
            std::lock_guard<std::mutex> lk(mu);
            seen.insert(idx);
        });
    }
    pool.wait();
    for (int idx : seen) {
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, 3);
    }
}

TEST(ThreadPool, SubmitFromWorkerIsStealable)
{
    // A worker that fans out subtasks must not deadlock wait().
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([&] {
        for (int i = 0; i < 8; ++i)
            pool.submit([&] { done++; });
    });
    pool.wait();
    EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, SingleThreadStillDrains)
{
    ThreadPool pool(1);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 16);
}

// --- ResultCache ----------------------------------------------------------

TEST(ResultCache, RoundTripsEveryField)
{
    TempDir dir("roundtrip");
    ResultCache cache(dir.str(), 2);
    const RunResult stored = sampleResult("W", 12345);
    ASSERT_TRUE(cache.store("k1", stored));
    RunResult loaded;
    ASSERT_TRUE(cache.load("k1", loaded));
    expectSameResult(stored, loaded);
    EXPECT_EQ(loaded.status, RunStatus::Finished);
}

TEST(ResultCache, DisabledCacheMissesAndStoresNothing)
{
    ResultCache cache("", 2);
    EXPECT_FALSE(cache.enabled());
    RunResult r;
    EXPECT_FALSE(cache.store("k", sampleResult("W", 1)));
    EXPECT_FALSE(cache.load("k", r));
    EXPECT_TRUE(cache.tryLock("k")); // nothing to serialize against
}

TEST(ResultCache, CorruptEntryIsQuarantinedNotServed)
{
    TempDir dir("corrupt");
    ResultCache cache(dir.str(), 2);
    ASSERT_TRUE(cache.store("k1", sampleResult("W", 777)));

    // Truncate the payload: right key, mangled body.
    const std::string p = cache.path("k1");
    {
        std::ofstream out(p, std::ios::trunc);
        out << "k1\nW cfg 77"; // cut mid-field
    }
    RunResult r;
    EXPECT_FALSE(cache.load("k1", r));
    EXPECT_FALSE(fs::exists(p)) << "corrupt entry should be renamed";
    EXPECT_TRUE(fs::exists(p + ".corrupt"));

    // A fresh store over the quarantined slot works again.
    ASSERT_TRUE(cache.store("k1", sampleResult("W", 777)));
    EXPECT_TRUE(cache.load("k1", r));
    EXPECT_EQ(r.cycles, 777u);
}

TEST(ResultCache, HashCollisionReadsAsMissWithoutQuarantine)
{
    TempDir dir("collision");
    ResultCache cache(dir.str(), 2);
    ASSERT_TRUE(cache.store("other-key", sampleResult("W", 5)));

    // Force a same-file collision by copying the entry over k1's path.
    fs::copy_file(cache.path("other-key"), cache.path("k1"),
                  fs::copy_options::overwrite_existing);
    RunResult r;
    EXPECT_FALSE(cache.load("k1", r));
    // The well-formed foreign entry must be left alone.
    EXPECT_TRUE(fs::exists(cache.path("k1")));
}

TEST(ResultCache, StaleLockIsBrokenFreshLockIsHonoured)
{
    TempDir dir("locks");
    ResultCache cache(dir.str(), 2);
    ASSERT_TRUE(cache.tryLock("k1"));
    EXPECT_FALSE(cache.tryLock("k1")) << "fresh lock must hold";
    cache.unlock("k1");
    EXPECT_TRUE(cache.tryLock("k1")) << "unlock must release";
    cache.unlock("k1");

    // Abandoned lock: pretend the holder died ages ago.
    ASSERT_TRUE(cache.tryLock("k1"));
    cache.setStaleLockAfter(0.0);
    EXPECT_TRUE(cache.tryLock("k1")) << "stale lock must be broken";
    cache.unlock("k1");
}

TEST(ResultCache, ManyThreadsHammerOneKey)
{
    // The satellite-1 regression test: concurrent store()s and load()s
    // of a single key must never surface a torn entry — every load is
    // either a miss or a complete, internally-consistent record.
    TempDir dir("hammer");
    ResultCache cache(dir.str(), 2);
    const int kThreads = 16;
    const int kIters = 50;
    std::atomic<int> torn{0};
    std::atomic<int> hits{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                if ((t + i) % 2 == 0) {
                    cache.store("hot", sampleResult("W", 999));
                } else {
                    RunResult r;
                    if (!cache.load("hot", r))
                        continue;
                    hits++;
                    // Any successful load must be the full record.
                    if (r.cycles != 999 || r.warp_instructions != 2997 ||
                        r.link_domain_bytes != 42 ||
                        r.l2_hit_rate != 0.125)
                        torn++;
                }
            }
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(torn.load(), 0);
    EXPECT_GT(hits.load(), 0);
    // No temp droppings left behind once everyone is done.
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir.str())) {
        (void)e;
        files++;
    }
    EXPECT_EQ(files, 1u);
}

// --- stats threading contract ---------------------------------------------

TEST(StatsThreading, ForeignThreadRegistrationPanics)
{
    setQuietLogging(true);
    stats::Group g("owned-here");
    g.add("ok", "registered on the owning thread");
    bool threw = false;
    std::thread([&] {
        try {
            g.add("bad", "registered from a foreign thread");
        } catch (const std::exception &) {
            threw = true;
        }
    }).join();
    EXPECT_TRUE(threw);
    EXPECT_EQ(g.find("bad"), nullptr);
}

TEST(StatsThreading, MoveAdoptsTheDestinationThread)
{
    stats::Group g("movable");
    stats::Scalar &c = g.add("n", "counter");
    c += 3;
    std::thread([g = std::move(g)]() mutable {
        stats::Group local(std::move(g));
        // The mover's thread now owns registration; references into
        // the deque stay valid across the move.
        local.add("more", "registered post-move");
        EXPECT_DOUBLE_EQ(local.find("n")->value(), 3.0);
    }).join();
}

// --- Telemetry ------------------------------------------------------------

JobRecord
sampleRecord(const std::string &w, bool hit, const std::string &status)
{
    JobRecord rec;
    rec.workload = w;
    rec.config = "mcm-basic";
    rec.key_hash = 0xdeadbeef;
    rec.status = status;
    rec.cache_hit = hit;
    rec.wall_ms = hit ? 0.0 : 12.5;
    rec.queue_ms = 1.5;
    rec.cycles = 1000;
    rec.retries = status == "stalled" ? 1 : 0;
    rec.worker = 0;
    return rec;
}

TEST(Telemetry, StatsAggregateRecords)
{
    TelemetrySink sink;
    sink.record(sampleRecord("A", false, "finished"));
    sink.record(sampleRecord("B", true, "finished"));
    sink.record(sampleRecord("C", false, "stalled"));
    const auto s = sink.stats();
    EXPECT_EQ(s.jobs, 3u);
    EXPECT_EQ(s.executed, 2u);
    EXPECT_EQ(s.cache_hits, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRatio(), 1.0 / 3.0);
    sink.clear();
    EXPECT_EQ(sink.stats().jobs, 0u);
}

TEST(Telemetry, TimeoutsAndDeadlocksAggregateSeparately)
{
    TelemetrySink sink;
    sink.record(sampleRecord("A", false, "finished"));
    sink.record(sampleRecord("B", false, "timeout"));
    sink.record(sampleRecord("C", false, "deadlock"));
    const auto s = sink.stats();
    EXPECT_EQ(s.failed, 2u) << "both count as failures";
    EXPECT_EQ(s.timeouts, 1u);
    EXPECT_EQ(s.deadlocks, 1u);

    std::ostringstream os;
    sink.dumpJson(os, 1);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"timeouts\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"deadlocks\": 1"), std::string::npos);
}

TEST(Telemetry, JsonIsWellFormedAndEscaped)
{
    TelemetrySink sink;
    JobRecord rec = sampleRecord("A", false, "error");
    rec.error = "panic: \"quoted\"\nand a\ttab \\ backslash";
    sink.record(rec);
    std::ostringstream os;
    sink.dumpJson(os, 4);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"mcmgpu-runs/1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(doc.find("\\n"), std::string::npos);
    EXPECT_NE(doc.find("\\t"), std::string::npos);
    EXPECT_NE(doc.find("\\\\ backslash"), std::string::npos);
    // No raw control characters may survive into the document.
    for (char c : doc)
        EXPECT_TRUE(c == '\n' || c >= 0x20) << int(c);
}

TEST(Telemetry, WriteJsonCommitsAtomically)
{
    TempDir dir("runsjson");
    TelemetrySink sink;
    sink.record(sampleRecord("A", false, "finished"));
    const std::string path = dir.str() + "/runs.json";
    ASSERT_TRUE(sink.writeJson(path, 2));
    ASSERT_TRUE(fs::exists(path));
    // Exactly the committed file — no temp files left.
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir.str())) {
        (void)e;
        files++;
    }
    EXPECT_EQ(files, 1u);
}

// --- JobGraph -------------------------------------------------------------

const workloads::Workload &
tinyWorkload(const char *abbr)
{
    const workloads::Workload *w = workloads::findByAbbr(abbr);
    EXPECT_NE(w, nullptr) << abbr;
    return *w;
}

TEST(JobGraphTest, AdmissionDedupsEqualKeys)
{
    TelemetrySink sink;
    JobGraph g(nullptr, &sink);
    const auto &w = tinyWorkload("TSP");
    GpuConfig cfg = configs::monolithic(32);
    size_t a = g.add(cfg, w, "same-key");
    size_t b = g.add(cfg, w, "same-key");
    size_t c = g.add(cfg, w, "other-key");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(g.size(), 2u);
    g.execute(1);
    EXPECT_EQ(&g.result(a), &g.result(b));
    EXPECT_EQ(sink.stats().jobs, 2u);
    expectSameResult(g.result(a), g.result(c));
}

TEST(JobGraphTest, CacheHitSkipsSimulation)
{
    TempDir dir("graphcache");
    ResultCache cache(dir.str(), 2);
    TelemetrySink sink;
    const auto &w = tinyWorkload("TSP");
    GpuConfig cfg = configs::monolithic(32);
    {
        JobGraph g(&cache, &sink);
        g.execute(1); // empty graph is a no-op
        size_t s = g.add(cfg, w, "key");
        g.execute(1);
        EXPECT_EQ(g.result(s).status, RunStatus::Finished);
    }
    EXPECT_EQ(sink.stats().executed, 1u);
    {
        JobGraph g(&cache, &sink);
        size_t s = g.add(cfg, w, "key");
        g.execute(4);
        EXPECT_EQ(g.result(s).status, RunStatus::Finished);
    }
    EXPECT_EQ(sink.stats().executed, 1u) << "second run must hit disk";
    EXPECT_EQ(sink.stats().cache_hits, 1u);
}

TEST(JobGraphTest, UncacheableJobNeverTouchesDisk)
{
    TempDir dir("nocache");
    ResultCache cache(dir.str(), 2);
    TelemetrySink sink;
    JobGraph g(&cache, &sink);
    const auto &w = tinyWorkload("TSP");
    size_t s = g.add(configs::monolithic(32), w, "key", false);
    g.execute(1);
    EXPECT_EQ(g.result(s).status, RunStatus::Finished);
    EXPECT_FALSE(fs::exists(cache.path("key")));
}

TEST(JobGraphTest, InvalidConfigBecomesPerJobErrorNotAbort)
{
    TelemetrySink sink;
    JobGraph g(nullptr, &sink);
    const auto &w = tinyWorkload("TSP");
    GpuConfig bad = configs::monolithic(32);
    bad.num_modules = 0; // validate() inside the simulator throws
    size_t sb = g.add(bad, w, "bad-key");
    size_t ok = g.add(configs::monolithic(32), w, "ok-key");
    g.execute(4);

    EXPECT_EQ(g.result(sb).status, RunStatus::Error);
    EXPECT_FALSE(g.result(sb).stall_diagnostic.empty());
    EXPECT_NE(g.error(sb), nullptr);
    EXPECT_EQ(g.result(ok).status, RunStatus::Finished);
    EXPECT_EQ(g.error(ok), nullptr);

    const auto recs = sink.records();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].status, "error");
    EXPECT_FALSE(recs[0].error.empty());
    EXPECT_EQ(recs[1].status, "finished");
    EXPECT_EQ(sink.stats().failed, 1u);
}

TEST(JobGraphTest, TimeoutRetriesWithBackoffThenSurfaces)
{
    TelemetrySink sink;
    JobGraph g(nullptr, &sink);
    g.setJobTimeout(1e-9); // every attempt is instantly over budget
    g.setMaxRetries(2);
    size_t s = g.add(configs::monolithic(32), tinyWorkload("TSP"),
                     "timeout-key");
    g.execute(1);

    EXPECT_EQ(g.result(s).status, RunStatus::Timeout);
    EXPECT_EQ(g.error(s), nullptr) << "a timeout is a status, not a throw";
    const auto recs = sink.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].status, "timeout");
    EXPECT_EQ(recs[0].retries, 2) << "timeouts ride the retry path";
    EXPECT_EQ(sink.stats().timeouts, 1u);
    EXPECT_GE(recs[0].wall_ms, 25.0 + 50.0)
        << "exponential backoff sleeps between attempts";
}

TEST(JobGraphTest, DeadlockIsNeverRetried)
{
    TelemetrySink sink;
    JobGraph g(nullptr, &sink);
    g.setMaxRetries(3);
    // 1 shared VC with one credit and a tiny MSHR pool: deterministic
    // protocol deadlock (see test_deadlock.cc); retrying it would just
    // reproduce the same cycle three more times.
    GpuConfig cfg = configs::mcmBasic();
    cfg.withMemModel(MemModel::Staged, 4);
    cfg.withFabricVcs(1, 1);
    size_t s = g.add(cfg, tinyWorkload("Stream"), "deadlock-key");
    g.execute(1);

    EXPECT_EQ(g.result(s).status, RunStatus::Deadlock);
    const auto recs = sink.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].status, "deadlock");
    EXPECT_EQ(recs[0].retries, 0) << "deadlocks are deterministic";
    EXPECT_EQ(sink.stats().deadlocks, 1u);
}

TEST(JobGraphTest, TelemetryCommitsInAdmissionOrder)
{
    TelemetrySink sink;
    JobGraph g(nullptr, &sink);
    const char *abbrs[] = {"TSP", "NN", "BTree", "QSort"};
    for (const char *a : abbrs)
        g.add(configs::monolithic(32), tinyWorkload(a),
              std::string("k-") + a);
    g.execute(8);
    const auto recs = sink.records();
    ASSERT_EQ(recs.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(recs[i].workload, abbrs[i]) << i;
}

TEST(JobGraphTest, ParallelMatchesSerialBitForBit)
{
    const char *abbrs[] = {"TSP", "NN", "BTree", "QSort", "LUD", "DWT"};
    GpuConfig cfgs[] = {configs::monolithic(32),
                        configs::monolithic(64)};

    auto runAll = [&](unsigned jobs) {
        JobGraph g(nullptr, nullptr);
        std::vector<size_t> slots;
        for (const GpuConfig &c : cfgs)
            for (const char *a : abbrs)
                slots.push_back(
                    g.add(c, tinyWorkload(a),
                          experiment::configKey(c) + "##" + a));
        g.execute(jobs);
        std::vector<RunResult> out;
        for (size_t s : slots)
            out.push_back(g.result(s));
        return out;
    };

    const auto serial = runAll(1);
    const auto parallel = runAll(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);
}

// --- experiment layer -----------------------------------------------------

class ExecExperimentTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        experiment::setProgress(false);
        experiment::setCacheDir("");
        experiment::setRunsJsonPath("");
        experiment::clearMemo();
        experiment::setJobs(1);
    }
    void
    TearDown() override
    {
        experiment::setJobs(1);
        experiment::setRunsJsonPath("");
        experiment::setCacheDir("");
    }
};

TEST_F(ExecExperimentTest, JobsSettingResolves)
{
    experiment::setJobs(3);
    EXPECT_EQ(experiment::jobs(), 3u);
    experiment::setJobs(0); // auto: one per hardware thread, never 0
    EXPECT_GE(experiment::jobs(), 1u);
}

TEST_F(ExecExperimentTest, ParseCliFlagConsumesSharedFlags)
{
    const std::vector<cli::FlagTable> tables{cli::sweepFlags()};
    cli::parse({"--jobs", "5", "--quiet", "--runs-json", "/tmp/x.json",
                "--cache-dir", ""},
               tables);
    EXPECT_EQ(experiment::jobs(), 5u);
    EXPECT_FALSE(exec::Progress::instance().enabled());
    // --other is the one rejection: no shared flag claims it.
    EXPECT_THROW(cli::parse({"--other"}, tables), cli::UsageError);
    experiment::setRunsJsonPath("");
}

TEST_F(ExecExperimentTest, RunMatrixShapeAndDedup)
{
    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> three{ws[0], ws[1], ws[2]};
    // Two identical configs (different display names) + one distinct:
    // the twins must dedup to one simulation per workload.
    GpuConfig a = configs::monolithic(32);
    GpuConfig twin = configs::monolithic(32).withName("twin");
    GpuConfig b = configs::monolithic(64);
    std::vector<GpuConfig> cfgs{a, twin, b};

    experiment::setJobs(4);
    auto grid = experiment::runMatrix(cfgs, three);
    ASSERT_EQ(grid.size(), 3u);
    for (const auto &row : grid)
        ASSERT_EQ(row.size(), 3u);
    for (size_t i = 0; i < three.size(); ++i) {
        EXPECT_EQ(grid[0][i].workload, three[i]->abbr);
        expectSameResult(grid[0][i], grid[1][i]); // twin == a
    }
    EXPECT_GT(grid[2][0].cycles, 0u);
}

TEST_F(ExecExperimentTest, MatrixParallelIdenticalToSerialWithFaults)
{
    // The satellite-3 acceptance test: a 3-config × 6-workload matrix
    // (including a PR-1 fault plan) must be byte-identical at
    // --jobs 8 and --jobs 1, cold memo both times.
    auto lim = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> ws(lim.begin(),
                                                lim.begin() + 6);
    GpuConfig faulty = configs::monolithic(64).withName("m64-faulty");
    faulty.fault.sweepSmsEveryModule(faulty.num_modules, 4);
    faulty.fault.derateLinks(0.75);
    std::vector<GpuConfig> cfgs{configs::monolithic(32),
                                configs::monolithic(64), faulty};

    experiment::setJobs(1);
    auto serial = experiment::runMatrix(cfgs, ws);
    experiment::clearMemo();
    experiment::setJobs(8);
    auto parallel = experiment::runMatrix(cfgs, ws);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); ++c) {
        ASSERT_EQ(serial[c].size(), parallel[c].size());
        for (size_t i = 0; i < serial[c].size(); ++i)
            expectSameResult(serial[c][i], parallel[c][i]);
    }
}

TEST_F(ExecExperimentTest, PrefetchWarmsTheMemo)
{
    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> two{ws[0], ws[1]};
    GpuConfig cfg = configs::monolithic(32);
    const GpuConfig matrix[] = {cfg};

    experiment::setJobs(4);
    experiment::prefetch(matrix, two);
    // run() now serves from the memo: same object both calls.
    const RunResult &r1 = experiment::run(cfg, *two[0]);
    const RunResult &r2 = experiment::run(cfg, *two[0]);
    EXPECT_EQ(&r1, &r2);
    EXPECT_EQ(r1.workload, two[0]->abbr);
}

TEST_F(ExecExperimentTest, SingleRunStillThrowsOnBadConfig)
{
    const auto &w = tinyWorkload("TSP");
    GpuConfig bad = configs::monolithic(32);
    bad.num_modules = 0;
    EXPECT_ANY_THROW(experiment::run(bad, w));
}

TEST_F(ExecExperimentTest, RunManyReportsPerJobErrors)
{
    const auto &w = tinyWorkload("TSP");
    GpuConfig bad = configs::monolithic(32);
    bad.num_modules = 0;
    std::vector<const workloads::Workload *> one{&w};
    auto rs = experiment::runMany(bad, one);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].status, RunStatus::Error);
    EXPECT_FALSE(rs[0].stall_diagnostic.empty());
}

TEST_F(ExecExperimentTest, RunsJsonWrittenAndValid)
{
    TempDir dir("runsjson-exp");
    const std::string path = dir.str() + "/runs.json";
    experiment::setRunsJsonPath(path);
    experiment::setJobs(2);

    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> two{ws[0], ws[1]};
    experiment::runMany(configs::monolithic(32), two);

    ASSERT_TRUE(fs::exists(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    EXPECT_NE(doc.find("\"schema\": \"mcmgpu-runs/1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"workload\": \"" + ws[0]->abbr + "\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"workload\": \"" + ws[1]->abbr + "\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"finished\""), std::string::npos);
    // Balanced braces/brackets — cheap structural sanity check.
    long braces = 0, brackets = 0;
    bool in_str = false;
    for (size_t i = 0; i < doc.size(); ++i) {
        char ch = doc[i];
        if (in_str) {
            if (ch == '\\')
                i++;
            else if (ch == '"')
                in_str = false;
            continue;
        }
        if (ch == '"')
            in_str = true;
        else if (ch == '{')
            braces++;
        else if (ch == '}')
            braces--;
        else if (ch == '[')
            brackets++;
        else if (ch == ']')
            brackets--;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(in_str);
}

TEST_F(ExecExperimentTest, SweepSummaryCountsJobs)
{
    const auto before = experiment::sweepSummary();
    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> two{ws[0], ws[1]};
    experiment::setJobs(2);
    experiment::runMany(configs::monolithic(32), two);
    const auto after = experiment::sweepSummary();
    EXPECT_EQ(after.graph.jobs, before.graph.jobs + 2);
    // Cold memo + disabled disk cache: both jobs actually simulated.
    EXPECT_EQ(after.graph.executed, before.graph.executed + 2);
    // Second sweep over the same pairs is pure memo.
    experiment::runMany(configs::monolithic(32), two);
    const auto memo = experiment::sweepSummary();
    EXPECT_EQ(memo.graph.jobs, after.graph.jobs);
    EXPECT_EQ(memo.memo_hits, after.memo_hits + 2);
}

// --- disk cache through the experiment layer ------------------------------

TEST_F(ExecExperimentTest, DiskCacheServesSecondColdProcessRun)
{
    TempDir dir("expcache");
    experiment::setCacheDir(dir.str());
    const auto &w = tinyWorkload("TSP");
    GpuConfig cfg = configs::monolithic(32);

    const auto s0 = experiment::sweepSummary();
    const RunResult first = experiment::run(cfg, w);
    experiment::clearMemo(); // simulate a fresh process
    const RunResult second = experiment::run(cfg, w);
    expectSameResult(first, second);
    const auto s1 = experiment::sweepSummary();
    EXPECT_EQ(s1.graph.executed, s0.graph.executed + 1)
        << "second run must come from disk, not simulation";
    EXPECT_EQ(s1.graph.cache_hits, s0.graph.cache_hits + 1);
}

} // namespace
} // namespace mcmgpu
