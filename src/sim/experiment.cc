#include "sim/experiment.hh"

#include <charconv>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ranges>
#include <sstream>
#include <thread>
#include <type_traits>

#include "common/log.hh"
#include "common/summary.hh"
#include "exec/job_graph.hh"
#include "exec/progress.hh"
#include "exec/result_cache.hh"

namespace mcmgpu {
namespace experiment {

namespace {

/** Bump when the timing model changes to invalidate stale caches. */
constexpr int kModelVersion = 5;

/**
 * Process-wide harness state. One mutex guards all of it: the memo is
 * only touched from admission/commit paths on caller threads (never
 * from pool workers), so contention is a non-issue.
 */
struct HarnessState
{
    std::mutex mu;
    std::map<std::string, RunResult> memo;
    uint64_t memo_hits = 0;
    std::shared_ptr<exec::ResultCache> cache;
    exec::TelemetrySink sink;
    unsigned jobs_setting = 1; //!< 0 = one per hardware thread
    std::string runs_json;
    double job_timeout_s = 0.0; //!< per-job wall budget; 0 disables

    // The MCMGPU_* environment reaches these through the sweep flags
    // (cli::applyEnv), never directly.
    HarnessState()
        : cache(std::make_shared<exec::ResultCache>(".mcmgpu_cache",
                                                    kModelVersion))
    {
        // Funnel warn()/inform() through the single progress writer so
        // pool-worker diagnostics never interleave mid-line on stderr.
        exec::Progress::instance().installLogSink();
    }
};

HarnessState &
state()
{
    static HarnessState s;
    return s;
}

unsigned
resolveJobs(unsigned setting)
{
    if (setting != 0)
        return setting;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
cacheableKey(const std::string &key)
{
    return key.find("<uncacheable>") == std::string::npos;
}

/** Writes @p v so that distinct values print distinctly: integers,
 *  bools and enums in decimal, doubles in their shortest round-trip
 *  form, strings quoted, lists in order, list items field by field. */
template <typename T>
void
put(std::ostream &os, const T &v)
{
    if constexpr (std::is_enum_v<T>) {
        put(os, static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
        os << +v;
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        os.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
    } else if constexpr (std::is_same_v<T, std::string>) {
        os << std::quoted(v);
    } else if constexpr (std::ranges::range<T>) {
        os << '[';
        for (const char *sep = ""; const auto &item : v) {
            os << sep;
            put(os, item);
            sep = ",";
        }
        os << ']';
    } else {
        const char *sep = "";
        forEachField(v, [&](const std::string &, const auto &field) {
            os << sep;
            put(os, field);
            sep = ":";
        });
    }
}

/** Snapshot the bits of state a sweep needs, under the lock once. */
struct SweepContext
{
    std::shared_ptr<exec::ResultCache> cache;
    unsigned jobs;
    std::string runs_json;
    double job_timeout_s;
};

SweepContext
sweepContext()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return {s.cache, resolveJobs(s.jobs_setting), s.runs_json,
            s.job_timeout_s};
}

void
maybeWriteRunsJson(const SweepContext &ctx)
{
    if (!ctx.runs_json.empty())
        state().sink.writeJson(ctx.runs_json, ctx.jobs);
}

} // namespace

void
setProgress(bool enabled)
{
    exec::Progress::instance().setEnabled(enabled);
}

void
setCacheDir(std::string dir)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.cache = std::make_shared<exec::ResultCache>(std::move(dir),
                                                  kModelVersion);
}

void
setJobs(unsigned n)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.jobs_setting = n;
}

unsigned
jobs()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return resolveJobs(s.jobs_setting);
}

void
setRunsJsonPath(std::string path)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.runs_json = std::move(path);
}

void
setJobTimeout(double seconds)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.job_timeout_s = seconds > 0.0 ? seconds : 0.0;
}

std::string
workloadKey(const workloads::Workload &w)
{
    std::ostringstream os;
    os << w.abbr << '/' << w.footprint_bytes << '/' << w.launches.size();
    bool cacheable = true;
    for (const KernelLaunch &l : w.launches) {
        os << '/' << l.kernel.signature << '@' << l.iterations;
        if (l.kernel.signature.empty())
            cacheable = false;
    }
    // Kernels without a signature (hand-written traces) cannot be
    // fingerprinted; poison the key so the disk cache is bypassed.
    if (!cacheable)
        os << "/<uncacheable>";
    return os.str();
}

std::string
configKey(const GpuConfig &cfg)
{
    // Every N >= 2 threads runs the one parallel schedule (docs/PDES.md).
    GpuConfig keyed = cfg;
    keyed.sim_threads = cfg.sim_threads > 1 ? 2 : 1;
    std::ostringstream os;
    const char *sep = "";
    forEachField(keyed, [&](const std::string &field, const auto &v) {
        if (field == "name")
            return; // display only
        os << sep << field << '=';
        put(os, v);
        sep = " ";
    });
    return os.str();
}

const RunResult &
run(const GpuConfig &cfg, const workloads::Workload &w)
{
    HarnessState &s = state();
    const std::string key = configKey(cfg) + "##" + workloadKey(w);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = s.memo.find(key);
        if (it != s.memo.end()) {
            ++s.memo_hits;
            return it->second;
        }
    }

    const SweepContext ctx = sweepContext();
    exec::JobGraph graph(ctx.cache.get(), &s.sink);
    graph.setJobTimeout(ctx.job_timeout_s);
    if (exec::Progress::instance().enabled())
        graph.setProgressLabel("sim");
    const size_t slot = graph.add(cfg, w, key, cacheableKey(key));
    graph.execute(1); // one job: always inline on the caller
    maybeWriteRunsJson(ctx);
    // Single runs keep the serial harness contract: panics propagate.
    if (std::exception_ptr err = graph.error(slot))
        std::rethrow_exception(err);

    std::lock_guard<std::mutex> lk(s.mu);
    return s.memo.emplace(key, graph.result(slot)).first->second;
}

namespace {

/**
 * Shared sweep body: admit every memo-missing (config, workload) pair
 * to one dedup'd graph, execute on the pool, commit to the memo in
 * admission order, then copy results out in input order.
 */
std::vector<std::vector<RunResult>>
runGrid(std::span<const GpuConfig> cfgs,
        std::span<const workloads::Workload *const> ws)
{
    HarnessState &s = state();
    const SweepContext ctx = sweepContext();
    exec::JobGraph graph(ctx.cache.get(), &s.sink);
    graph.setJobTimeout(ctx.job_timeout_s);
    if (exec::Progress::instance().enabled())
        graph.setProgressLabel("sweep");

    std::vector<std::string> cfg_keys;
    cfg_keys.reserve(cfgs.size());
    for (const GpuConfig &cfg : cfgs)
        cfg_keys.push_back(configKey(cfg));
    std::vector<std::string> w_keys;
    w_keys.reserve(ws.size());
    for (const workloads::Workload *w : ws)
        w_keys.push_back(workloadKey(*w));

    // Admission: memo probe, then graph (which dedups shared keys).
    struct Pending { std::string key; size_t slot; };
    std::map<std::string, size_t> admitted;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        for (size_t c = 0; c < cfgs.size(); ++c) {
            for (size_t i = 0; i < ws.size(); ++i) {
                std::string key = cfg_keys[c] + "##" + w_keys[i];
                if (s.memo.count(key)) {
                    ++s.memo_hits;
                    continue;
                }
                if (admitted.count(key))
                    continue;
                const size_t slot = graph.add(cfgs[c], *ws[i], key,
                                              cacheableKey(key));
                admitted.emplace(std::move(key), slot);
            }
        }
    }

    graph.execute(ctx.jobs);

    // Deterministic commit: admission order, caller thread. emplace
    // keeps an existing entry, so a key that raced in via run() on
    // another caller thread stays put.
    std::vector<std::vector<RunResult>> out(
        cfgs.size(), std::vector<RunResult>(ws.size()));
    {
        std::lock_guard<std::mutex> lk(s.mu);
        for (const auto &[key, slot] : admitted)
            s.memo.emplace(key, graph.result(slot));
        for (size_t c = 0; c < cfgs.size(); ++c) {
            for (size_t i = 0; i < ws.size(); ++i) {
                const std::string key = cfg_keys[c] + "##" + w_keys[i];
                auto it = s.memo.find(key);
                panic_if(it == s.memo.end(),
                         "runMatrix(): missing result for ", key);
                out[c][i] = it->second;
            }
        }
    }
    maybeWriteRunsJson(ctx);
    return out;
}

} // namespace

std::vector<RunResult>
runMany(const GpuConfig &cfg,
        std::span<const workloads::Workload *const> ws)
{
    std::vector<std::vector<RunResult>> grid =
        runGrid(std::span<const GpuConfig>(&cfg, 1), ws);
    return std::move(grid.front());
}

std::vector<std::vector<RunResult>>
runMatrix(std::span<const GpuConfig> cfgs,
          std::span<const workloads::Workload *const> ws)
{
    return runGrid(cfgs, ws);
}

void
prefetch(std::span<const GpuConfig> cfgs,
         std::span<const workloads::Workload *const> ws)
{
    runGrid(cfgs, ws);
}

void
clearMemo()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.memo.clear();
    s.memo_hits = 0;
}

SweepSummary
sweepSummary()
{
    HarnessState &s = state();
    SweepSummary out;
    out.graph = s.sink.stats();
    std::lock_guard<std::mutex> lk(s.mu);
    out.memo_hits = s.memo_hits;
    return out;
}

std::vector<double>
speedups(std::span<const RunResult> test, std::span<const RunResult> base)
{
    panic_if(test.size() != base.size(),
             "speedups(): mismatched result sets");
    std::vector<double> out;
    out.reserve(test.size());
    for (size_t i = 0; i < test.size(); ++i) {
        panic_if(test[i].workload != base[i].workload,
                 "speedups(): pairing mismatch at index ", i);
        out.push_back(test[i].speedupOver(base[i]));
    }
    return out;
}

double
geomeanSpeedup(const GpuConfig &cfg, const GpuConfig &base,
               std::span<const workloads::Workload *const> ws)
{
    std::vector<RunResult> t = runMany(cfg, ws);
    std::vector<RunResult> b = runMany(base, ws);
    std::vector<double> s = speedups(t, b);
    return geomean(s);
}

std::vector<const workloads::Workload *>
everyWorkload()
{
    std::vector<const workloads::Workload *> out;
    for (const workloads::Workload &w : workloads::allWorkloads())
        out.push_back(&w);
    return out;
}

std::vector<const workloads::Workload *>
highParallelismWorkloads()
{
    std::vector<const workloads::Workload *> out;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        if (w.category != workloads::Category::LimitedParallelism)
            out.push_back(&w);
    }
    return out;
}

} // namespace experiment
} // namespace mcmgpu
