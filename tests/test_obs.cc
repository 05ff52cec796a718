/**
 * @file
 * Unit tests for the observability layer (src/obs) and the shared JSON
 * utilities it leans on: escaping of hostile names, the strict
 * well-formedness checker, histogram bucket edges, sampler window
 * arithmetic (including cycle-limit truncation), trace/stats document
 * validity, and the headline guarantee — per-run stats.json files are
 * byte-identical between --jobs 1 and --jobs 8.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "exec/telemetry.hh"
#include "obs/options.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace {

namespace fs = std::filesystem;

/** A unique empty scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> serial{0};
        path_ = (fs::temp_directory_path() /
                 ("mcmgpu-obs-" + tag + "-" + std::to_string(::getpid()) +
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

// --- json::escape / quoted / number ---------------------------------------

TEST(JsonEscape, HostileNamesCannotBreakOutOfAString)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(json::escape(std::string("a\x01z", 3)), "a\\u0001z");
    EXPECT_EQ(json::escape(std::string("\x00", 1)), "\\u0000");
    // Multi-byte UTF-8 passes through untouched.
    EXPECT_EQ(json::escape("\xcf\x80"), "\xcf\x80");
}

TEST(JsonEscape, HostileNameRoundTripsThroughValidator)
{
    const std::string hostile =
        "quote\" backslash\\ newline\n ctrl\x02 end";
    const std::string doc = "{" + json::quoted(hostile) + ": 1}";
    json::ValidationResult res = json::validate(doc);
    EXPECT_TRUE(res) << res.error << " at " << res.offset;
}

TEST(JsonNumber, DeterministicSpellings)
{
    EXPECT_EQ(json::number(0.0), "0");
    EXPECT_EQ(json::number(5.0), "5");
    EXPECT_EQ(json::number(-3.0), "-3");
    EXPECT_EQ(json::number(0.5), "0.5");
    // NaN and Inf have no JSON spelling; they must not corrupt a doc.
    EXPECT_EQ(json::number(std::nan("")), "0");
    EXPECT_EQ(json::number(INFINITY), "0");
    // Every spelling must itself be valid JSON.
    for (double v : {0.0, -0.0, 1e-9, 3.14159, -2.5e300, 1e18}) {
        json::ValidationResult res = json::validate(json::number(v));
        EXPECT_TRUE(res) << v << " -> " << json::number(v);
    }
}

TEST(JsonValidate, AcceptsRfc8259AndNothingElse)
{
    EXPECT_TRUE(json::validate("{}"));
    EXPECT_TRUE(json::validate("[]"));
    EXPECT_TRUE(json::validate("null"));
    EXPECT_TRUE(json::validate(" {\"a\": [1, 2.5, -3e2, \"x\", true]} "));

    EXPECT_FALSE(json::validate(""));
    EXPECT_FALSE(json::validate("{,}"));
    EXPECT_FALSE(json::validate("[1,]"));       // trailing comma
    EXPECT_FALSE(json::validate("{\"a\": 01}")); // leading zero
    EXPECT_FALSE(json::validate("{\"a\" 1}"));   // missing colon
    EXPECT_FALSE(json::validate("\"unterminated"));
    EXPECT_FALSE(json::validate("{} extra"));
    EXPECT_FALSE(json::validate("{\"a\": nul}"));
    EXPECT_FALSE(json::validate("\"raw\ncontrol\""));

    json::ValidationResult res = json::validate("[1, x]");
    EXPECT_FALSE(res);
    EXPECT_EQ(res.offset, 4u);
    EXPECT_FALSE(res.error.empty());
}

// --- stats::Histogram bucket edges ----------------------------------------

TEST(HistogramTest, Log2BucketEdges)
{
    auto h = stats::Histogram::makeLog2("lat", 8);
    // Bucket 0 holds exactly the value 0; bucket i holds
    // [2^(i-1), 2^i - 1].
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(1), 1u);
    EXPECT_EQ(h.bucketOf(2), 2u);
    EXPECT_EQ(h.bucketOf(3), 2u);
    EXPECT_EQ(h.bucketOf(4), 3u);
    EXPECT_EQ(h.bucketOf(7), 3u);
    EXPECT_EQ(h.bucketOf(8), 4u);
    EXPECT_EQ(h.bucketOf(63), 6u);
    EXPECT_EQ(h.bucketOf(64), 7u);
    // Past the top everything clamps into the last (unbounded) bucket.
    EXPECT_EQ(h.bucketOf(1u << 20), 7u);
    EXPECT_EQ(h.bucketOf(~uint64_t(0)), 7u);

    EXPECT_EQ(h.bucketLo(0), 0u);
    EXPECT_EQ(h.bucketLo(1), 1u);
    EXPECT_EQ(h.bucketLo(2), 2u);
    EXPECT_EQ(h.bucketLo(3), 4u);
    EXPECT_EQ(h.bucketLo(7), 64u);
}

TEST(HistogramTest, LinearBucketEdges)
{
    auto h = stats::Histogram::makeLinear("q", 10, 4);
    EXPECT_EQ(h.bucketOf(0), 0u);
    EXPECT_EQ(h.bucketOf(9), 0u);
    EXPECT_EQ(h.bucketOf(10), 1u);
    EXPECT_EQ(h.bucketOf(29), 2u);
    EXPECT_EQ(h.bucketOf(30), 3u);
    EXPECT_EQ(h.bucketOf(1000), 3u); // clamp
    EXPECT_EQ(h.bucketLo(2), 20u);
}

TEST(HistogramTest, MomentsAndReset)
{
    auto h = stats::Histogram::makeLog2("lat", 8);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minValue(), 0u); // empty histogram reports 0, not 2^64
    h.record(4);
    h.record(6, 2);
    h.record(100);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 4u + 12u + 100u);
    EXPECT_EQ(h.minValue(), 4u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 116.0 / 4.0);
    EXPECT_EQ(h.buckets()[3], 3u);  // 4 and 6 (x2) in [4, 7]
    EXPECT_EQ(h.buckets()[7], 1u);  // 100 clamps into the last bucket
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(HistogramTest, JsonSerializationIsWellFormed)
{
    auto h = stats::Histogram::makeLog2("lat", 4, "a \"hostile\" desc");
    h.record(3);
    std::ostringstream os;
    obs::Recorder::histogramJson(os, h);
    json::ValidationResult res = json::validate(os.str());
    EXPECT_TRUE(res) << res.error << " at " << res.offset << "\n"
                     << os.str();
    EXPECT_NE(os.str().find("\\\"hostile\\\""), std::string::npos);
}

// --- Sampler window arithmetic --------------------------------------------

TEST(SamplerTest, WindowsFireOncePerBoundaryViaEventQueue)
{
    EventQueue eq;
    obs::Sampler sampler(100);
    uint64_t counter = 0;
    sampler.addCounter("c", [&] { return double(counter); });
    sampler.addGauge("g", [&] { return double(counter * 10); });
    eq.setSampleHook(sampler.period(),
                     [&](Cycle c) { sampler.sample(c); });

    // Events at 10/150/250/420 bump the counter by 1 each.
    for (Cycle t : {Cycle(10), Cycle(150), Cycle(250), Cycle(420)})
        eq.schedule(t, [&] { ++counter; });
    eq.run();

    // Boundaries 100..400 each fired exactly once; the hook saw the
    // machine state as of just before the first event at/past each
    // boundary.
    ASSERT_EQ(sampler.numWindows(), 4u);
    EXPECT_EQ(sampler.windowEnds(),
              (std::vector<Cycle>{100, 200, 300, 400}));

    const auto *c = sampler.seriesPoints("c");
    ASSERT_NE(c, nullptr);
    // counter was 1 at boundary 100 (event@10 ran), 2 at 200
    // (event@150), 3 at 300 and unchanged at 400 -> deltas 1,1,1,0.
    EXPECT_EQ(*c, (std::vector<double>{1, 1, 1, 0}));

    const auto *g = sampler.seriesPoints("g");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(*g, (std::vector<double>{10, 20, 30, 30}));
}

TEST(SamplerTest, FinalizeClosesTruncatedTrailingWindow)
{
    obs::Sampler sampler(100);
    uint64_t v = 0;
    sampler.addCounter("c", [&] { return double(v); });
    v = 5;
    sampler.sample(100);
    v = 9;
    // A cycle limit stopped the run at 137 — mid-window. The partial
    // window [100, 137] must still be recorded.
    sampler.finalize(137);
    ASSERT_EQ(sampler.numWindows(), 2u);
    EXPECT_EQ(sampler.windowEnds(), (std::vector<Cycle>{100, 137}));
    EXPECT_EQ(*sampler.seriesPoints("c"), (std::vector<double>{5, 4}));

    // finalize() at/behind the last boundary is a no-op.
    sampler.finalize(137);
    EXPECT_EQ(sampler.numWindows(), 2u);
}

TEST(SamplerTest, RatioEmitsNullForQuietWindows)
{
    obs::Sampler sampler(10);
    uint64_t hits = 0, accesses = 0;
    sampler.addRatio("hit_rate", [&] { return double(hits); },
                     [&] { return double(accesses); });
    hits = 3;
    accesses = 4;
    sampler.sample(10);
    sampler.sample(20); // no traffic in this window
    const auto *p = sampler.seriesPoints("hit_rate");
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->size(), 2u);
    EXPECT_DOUBLE_EQ((*p)[0], 0.75);
    EXPECT_TRUE(std::isnan((*p)[1]));

    // NaN serializes as JSON null, never as a bare NaN token.
    std::ostringstream os;
    sampler.dumpJson(os);
    json::ValidationResult res = json::validate(os.str());
    EXPECT_TRUE(res) << res.error << " at " << res.offset;
    EXPECT_NE(os.str().find("null"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
    EXPECT_NE(os.str().find("\"mcmgpu-timeline/1\""), std::string::npos);
}

TEST(SamplerTest, SampleHookNeverPerturbsSimulatedTime)
{
    // The same event set runs with and without a hook armed; time,
    // event count, and order-sensitive state must match exactly.
    auto drive = [](EventQueue &eq) {
        std::vector<Cycle> fired;
        for (Cycle t : {Cycle(5), Cycle(64), Cycle(64), Cycle(300)})
            eq.schedule(t, [&fired, &eq] { fired.push_back(eq.now()); });
        eq.run();
        return std::make_pair(eq.now(), fired);
    };

    EventQueue plain;
    auto expected = drive(plain);

    EventQueue sampled;
    size_t samples = 0;
    sampled.setSampleHook(64, [&](Cycle) { ++samples; });
    auto got = drive(sampled);

    EXPECT_EQ(got.first, expected.first);
    EXPECT_EQ(got.second, expected.second);
    EXPECT_EQ(plain.executed(), sampled.executed());
    EXPECT_GT(samples, 0u);
}

// --- TraceEmitter ---------------------------------------------------------

TEST(TraceTest, DocumentIsWellFormedAndCarriesMetadata)
{
    obs::TraceEmitter t;
    uint32_t pid = t.addProcess("gpm0");
    uint32_t tid = t.addThread(pid, "cta \"batches\"");
    t.span(pid, tid, "batch #1", 100, 250);
    t.span(pid, tid, "zero-len", 300, 300); // widened to 1 cycle
    EXPECT_EQ(t.numSpans(), 2u);

    std::ostringstream os;
    t.dumpJson(os);
    const std::string doc = os.str();
    json::ValidationResult res = json::validate(doc);
    EXPECT_TRUE(res) << res.error << " at " << res.offset << "\n" << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("process_name"), std::string::npos);
    EXPECT_NE(doc.find("thread_name"), std::string::npos);
    EXPECT_NE(doc.find("\"batch #1\""), std::string::npos);
    // The zero-length span keeps a nonzero duration.
    EXPECT_NE(doc.find("\"dur\": 1"), std::string::npos);
}

// --- Recorder -------------------------------------------------------------

class ObsRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuietLogging(true); }
};

TEST_F(ObsRecorderTest, HostileNamesAreSanitizedInPaths)
{
    obs::Options opt;
    opt.stats_json = true;
    opt.out_dir = "dir";
    obs::Recorder rec(opt, "cfg \"x\"/../../etc", "w l\n", 2);
    const std::string p = rec.outputPath("stats");
    EXPECT_EQ(p, "dir/cfg__x__.._.._etc__w_l_.stats.json");
}

TEST_F(ObsRecorderTest, WritesValidArtifactsAndClosesTruncatedSpans)
{
    TempDir dir("recorder");
    obs::Options opt;
    opt.sample_period = 50;
    opt.stats_json = true;
    opt.trace_json = true;
    opt.out_dir = dir.str();

    obs::Recorder rec(opt, "cfg", "WL", 2);
    rec.kernelBegin("k0", 0);
    rec.ctaLaunched(0, 10);
    rec.ctaLaunched(0, 12);
    rec.ctaFinished(0, 90);
    rec.ctaFinished(0, 120);
    rec.ctaLaunched(1, 30);
    rec.localLoadLatency().record(40);
    rec.remoteLoadLatency().record(200);
    rec.linkQueueDelay().record(7);
    rec.linkBusySpans("ring.cw0", {{10, 60}, {100, 130}});
    // The run hits its cycle limit with kernel k0 and module 1's batch
    // still open; finalize() must close both.
    rec.finalize(150);

    ASSERT_TRUE(rec.writeOutputs([](std::ostream &os) {
        os << "{\"schema\": \"mcmgpu-stats/1\"}";
    }));

    for (const char *artifact : {"stats", "timeline", "trace"}) {
        const std::string path = rec.outputPath(artifact);
        ASSERT_TRUE(fs::exists(path)) << path;
        json::ValidationResult res = json::validate(slurp(path));
        EXPECT_TRUE(res) << path << ": " << res.error;
    }

    const std::string trace = slurp(rec.outputPath("trace"));
    EXPECT_NE(trace.find("k0 #1"), std::string::npos);
    EXPECT_NE(trace.find("(truncated)"), std::string::npos);
    EXPECT_NE(trace.find("ring.cw0"), std::string::npos);
    EXPECT_EQ(rec.histograms().size(), 7u);
    EXPECT_EQ(rec.localLoadLatency().count(), 1u);
    EXPECT_EQ(rec.remoteLoadLatency().count(), 1u);
}

// --- warn()/inform() sink routing -----------------------------------------

TEST(LogSinkTest, WarnOnceFiresOncePerCallSite)
{
    std::vector<std::string> lines;
    setQuietLogging(false);
    setLogSink([&](const std::string &l) { lines.push_back(l); });
    for (int i = 0; i < 3; ++i)
        warn_once("only once, i=", i);
    warn("every time");
    warn("every time");
    setLogSink(nullptr);
    setQuietLogging(true);

    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("only once, i=0"), std::string::npos);
    EXPECT_NE(lines[1].find("every time"), std::string::npos);
    EXPECT_NE(lines[2].find("every time"), std::string::npos);
}

// --- sweep footer hit-ratio guard -----------------------------------------

TEST(SweepStatsTest, HitRatioLabelOnZeroJobsIsNotNan)
{
    exec::SweepStats empty;
    EXPECT_EQ(empty.jobs, 0u);
    EXPECT_EQ(empty.hitRatioLabel(), "n/a");

    exec::SweepStats some;
    some.jobs = 4;
    some.cache_hits = 1;
    EXPECT_EQ(some.hitRatioLabel(), "25.0%");
}

// --- end-to-end byte identity ---------------------------------------------

class ObsExperimentTest : public ::testing::Test
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
        obs::setOptions(obs::Options{}); // everything back OFF
        experiment::setJobs(1);
        experiment::setCacheDir("");
        experiment::clearMemo();
    }
};

const workloads::Workload &
tinyWorkload(const char *abbr)
{
    const workloads::Workload *w = workloads::findByAbbr(abbr);
    EXPECT_NE(w, nullptr) << abbr;
    return *w;
}

TEST_F(ObsExperimentTest, StatsJsonByteIdenticalAcrossJobCounts)
{
    const GpuConfig cfgs[] = {configs::monolithic(32),
                              configs::mcmBasic()};
    const char *abbrs[] = {"TSP", "NN", "BTree", "QSort"};
    std::vector<const workloads::Workload *> ws;
    for (const char *a : abbrs)
        ws.push_back(&tinyWorkload(a));

    auto sweep = [&](unsigned jobs, const std::string &out_dir) {
        obs::Options opt;
        opt.stats_json = true;
        opt.sample_period = 2000;
        opt.trace_json = true;
        opt.out_dir = out_dir;
        obs::setOptions(opt);
        experiment::clearMemo(); // force real simulations
        experiment::setJobs(jobs);
        experiment::runMatrix(cfgs, ws);
    };

    TempDir serial("serial"), parallel("parallel");
    sweep(1, serial.str());
    sweep(8, parallel.str());

    // Every (config, workload) pair produced the four artifacts, and
    // each file is byte-for-byte identical between job counts.
    size_t files = 0;
    for (const GpuConfig &c : cfgs) {
        for (const char *a : abbrs) {
            obs::Options opt = obs::options();
            obs::Recorder namer(opt, c.name, a, c.num_modules);
            for (const char *artifact :
                 {"stats", "timeline", "trace", "fabric"}) {
                const std::string rel =
                    fs::path(namer.outputPath(artifact))
                        .filename()
                        .string();
                const std::string sp = serial.str() + "/" + rel;
                const std::string pp = parallel.str() + "/" + rel;
                ASSERT_TRUE(fs::exists(sp)) << sp;
                ASSERT_TRUE(fs::exists(pp)) << pp;
                const std::string sbytes = slurp(sp);
                EXPECT_EQ(sbytes, slurp(pp)) << rel;
                json::ValidationResult res = json::validate(sbytes);
                EXPECT_TRUE(res) << rel << ": " << res.error;
                ++files;
            }
        }
    }
    EXPECT_EQ(files, 2u * 4u * 4u);

    // And the stats documents carry the schema marker.
    obs::Options opt = obs::options();
    obs::Recorder namer(opt, cfgs[0].name, abbrs[0], cfgs[0].num_modules);
    const std::string stats =
        slurp(serial.str() + "/" +
              fs::path(namer.outputPath("stats")).filename().string());
    EXPECT_NE(stats.find("\"mcmgpu-stats/1\""), std::string::npos);
    EXPECT_NE(stats.find("\"histograms\""), std::string::npos);

    // The fabric document of a linked machine (mcm-basic, not the
    // linkless monolithic) names links and the hottest one.
    obs::Recorder fnamer(opt, cfgs[1].name, abbrs[0],
                         cfgs[1].num_modules);
    const std::string fabric =
        slurp(serial.str() + "/" +
              fs::path(fnamer.outputPath("fabric")).filename().string());
    EXPECT_NE(fabric.find("\"mcmgpu-fabric/1\""), std::string::npos);
    EXPECT_NE(fabric.find("\"links\""), std::string::npos);
    EXPECT_NE(fabric.find("\"hottest_link\""), std::string::npos);
    EXPECT_NE(fabric.find("\"utilization\""), std::string::npos);
}

TEST_F(ObsExperimentTest, AdaptiveRoutingByteIdenticalAcrossJobCounts)
{
    // The adaptive policy steers on link backlog sampled mid-run; the
    // whole point of scoring inside send() (and nowhere else) is that
    // worker count cannot perturb it. Every artifact — route counters
    // and chosen-candidate distribution included — must come out
    // byte-for-byte identical at --jobs 1 and --jobs 8.
    const GpuConfig cfgs[] = {configs::mcmMeshAdaptive()};
    const char *abbrs[] = {"TSP", "NN", "Hotspot"};
    std::vector<const workloads::Workload *> ws;
    for (const char *a : abbrs)
        ws.push_back(&tinyWorkload(a));

    auto sweep = [&](unsigned jobs, const std::string &out_dir) {
        obs::Options opt;
        opt.stats_json = true;
        opt.sample_period = 2000;
        opt.out_dir = out_dir;
        obs::setOptions(opt);
        experiment::clearMemo(); // force real simulations
        experiment::setJobs(jobs);
        experiment::runMatrix(cfgs, ws);
    };

    TempDir serial("adaptive-serial"), parallel("adaptive-parallel");
    sweep(1, serial.str());
    sweep(8, parallel.str());

    for (const char *a : abbrs) {
        obs::Options opt = obs::options();
        obs::Recorder namer(opt, cfgs[0].name, a, cfgs[0].num_modules);
        for (const char *artifact : {"stats", "fabric"}) {
            const std::string rel = fs::path(namer.outputPath(artifact))
                                        .filename()
                                        .string();
            const std::string sbytes = slurp(serial.str() + "/" + rel);
            EXPECT_EQ(sbytes, slurp(parallel.str() + "/" + rel)) << rel;
            json::ValidationResult res = json::validate(sbytes);
            EXPECT_TRUE(res) << rel << ": " << res.error;
        }
        // The fabric document carries the adaptive route telemetry.
        const std::string fabric =
            slurp(serial.str() + "/" +
                  fs::path(namer.outputPath("fabric")).filename().string());
        EXPECT_NE(fabric.find("\"route_policy\": \"adaptive\""),
                  std::string::npos) << a;
        EXPECT_NE(fabric.find("\"route_adaptive_picks\""),
                  std::string::npos) << a;
        EXPECT_NE(fabric.find("\"route_diverted\""), std::string::npos)
            << a;
        EXPECT_NE(fabric.find("\"route_candidate_picks\""),
                  std::string::npos) << a;
    }
}

TEST_F(ObsExperimentTest, RunsJsonCarriesSweepSummary)
{
    TempDir dir("sweep");
    obs::Options opt;
    opt.stats_json = true;
    opt.out_dir = dir.str();
    obs::setOptions(opt);
    experiment::setRunsJsonPath(dir.str() + "/runs.json");
    experiment::clearMemo();

    const GpuConfig cfgs[] = {configs::mcmBasic()};
    std::vector<const workloads::Workload *> ws = {&tinyWorkload("TSP"),
                                                   &tinyWorkload("NN")};
    experiment::runMatrix(cfgs, ws);
    experiment::setRunsJsonPath("");

    const std::string doc = slurp(dir.str() + "/runs.json");
    json::ValidationResult res = json::validate(doc);
    ASSERT_TRUE(res) << res.error << " at " << res.offset;
    EXPECT_NE(doc.find("\"sweep_summary\""), std::string::npos);
    EXPECT_NE(doc.find("\"hottest_links\""), std::string::npos);
    EXPECT_NE(doc.find("\"remote_load_latency\""), std::string::npos);
    EXPECT_NE(doc.find("\"p95\""), std::string::npos);
    EXPECT_NE(doc.find("\"links_total\""), std::string::npos);
    EXPECT_NE(doc.find("\"utilization\""), std::string::npos);
}

TEST_F(ObsExperimentTest, CliFlagsPopulateObsOptions)
{
    cli::parse({"--sample-period", "4096", "--stats-json", "--trace-json",
                "--obs-dir", "/tmp/obs-x", "--obs-flight-recorder", "256"},
               {cli::sweepFlags()});

    obs::Options opt = obs::options();
    EXPECT_EQ(opt.sample_period, 4096u);
    EXPECT_TRUE(opt.stats_json);
    EXPECT_TRUE(opt.trace_json);
    EXPECT_EQ(opt.out_dir, "/tmp/obs-x");
    EXPECT_EQ(opt.flight_recorder, 256u);
    EXPECT_TRUE(opt.anyEnabled());
}

TEST_F(ObsExperimentTest, DefaultOptionsDisableEverything)
{
    obs::Options opt;
    EXPECT_FALSE(opt.anyEnabled());
    EXPECT_EQ(opt.sample_period, 0u);
    EXPECT_FALSE(opt.stats_json);
    EXPECT_FALSE(opt.trace_json);
    EXPECT_EQ(opt.flight_recorder, 0u);
}

} // namespace
} // namespace mcmgpu
