/**
 * @file
 * Experiment harness shared by the benchmark binaries: memoized runs
 * (a baseline is reused across every column of a figure), parallel
 * sweep execution through exec::JobGraph, category aggregation, and
 * speedup reporting in the paper's style.
 *
 * Threading model: one simulation is always single-threaded (see
 * docs/MODEL.md); parallelism lives purely at the experiment layer,
 * which fans independent (config, workload) jobs out over a
 * work-stealing pool. Results are bit-for-bit identical at any job
 * count. The setters here (setJobs, setCacheDir, ...) configure
 * process-wide state and belong in main() before the first run — they
 * are not meant to be raced against in-flight sweeps.
 */

#ifndef MCMGPU_SIM_EXPERIMENT_HH
#define MCMGPU_SIM_EXPERIMENT_HH

#include <span>
#include <string>
#include <vector>

#include "common/config.hh"
#include "exec/telemetry.hh"
#include "sim/results.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace experiment {

/**
 * Every field forEachField() lists, as exact `field=value` pairs, except
 * the display name; sim_threads reads 1 (serial) or 2 (parallel). Two
 * configs with equal keys simulate identically.
 */
std::string configKey(const GpuConfig &cfg);

/** Toggle per-run progress lines on stderr (off in unit tests). */
void setProgress(bool enabled);

/**
 * A fingerprint of a workload's launch structure; combined with
 * configKey() it identifies a simulation outcome for caching.
 */
std::string workloadKey(const workloads::Workload &w);

/**
 * Directory for the cross-process result cache. Defaults to
 * ".mcmgpu_cache" under the current directory; set to "" to disable.
 * Also honours the MCMGPU_CACHE_DIR environment variable.
 */
void setCacheDir(std::string dir);

/**
 * Worker threads for runMany()/runMatrix()/prefetch(). 1 (the
 * default) is strictly serial; 0 means one per hardware thread.
 * Initialized from the MCMGPU_JOBS environment variable.
 */
void setJobs(unsigned n);

/** Resolved worker count (never 0). */
unsigned jobs();

/**
 * Where to write runs.json telemetry after every sweep; "" (the
 * default) disables. Initialized from MCMGPU_RUNS_JSON.
 */
void setRunsJsonPath(std::string path);

/**
 * Per-job wall-clock budget in seconds; a simulation that exceeds it
 * ends as RunStatus::Timeout and takes the same retry-with-backoff
 * path as a stall. <= 0 (the default) disables. Initialized from
 * MCMGPU_JOB_TIMEOUT_S.
 */
void setJobTimeout(double seconds);

/**
 * Run @p w on @p cfg, memoized per process. Simulation exceptions
 * (panics) propagate to the caller, exactly like the serial harness.
 */
const RunResult &run(const GpuConfig &cfg, const workloads::Workload &w);

/**
 * Run a set of workloads on one config; results in input order.
 * Executes cache misses on the worker pool (jobs() wide). Failed jobs
 * — stalled, over the cycle limit, or thrown — come back as per-job
 * RunResult statuses instead of aborting the sweep.
 */
std::vector<RunResult> runMany(
    const GpuConfig &cfg,
    std::span<const workloads::Workload *const> ws);

/**
 * Run the full configs × workloads matrix through the pool with
 * admission dedup (a config shared between figure columns simulates
 * once). @return results[c][w], indexed as the inputs.
 */
std::vector<std::vector<RunResult>> runMatrix(
    std::span<const GpuConfig> cfgs,
    std::span<const workloads::Workload *const> ws);

/**
 * Warm the memo (and disk cache) for configs × workloads using the
 * pool; subsequent run() calls on those pairs are lookups. The idiom
 * for figure binaries: declare the matrix, prefetch, then format with
 * the serial-looking code.
 */
void prefetch(std::span<const GpuConfig> cfgs,
              std::span<const workloads::Workload *const> ws);

/** Drop every memoized result (tests; the disk cache is untouched). */
void clearMemo();

/**
 * Cumulative telemetry over every job this process admitted to a
 * graph, plus process-level memo hits. Feeds suite_overview's footer
 * and the runs.json aggregate header.
 */
struct SweepSummary
{
    exec::SweepStats graph;   //!< jobs that reached a JobGraph
    uint64_t memo_hits = 0;   //!< run()/runMany() served from the memo
};
SweepSummary sweepSummary();

/** Per-workload speedups of @p test over @p base (paired by order). */
std::vector<double> speedups(std::span<const RunResult> test,
                             std::span<const RunResult> base);

/** Geometric-mean speedup of @p cfg over @p base across @p ws. */
double geomeanSpeedup(const GpuConfig &cfg, const GpuConfig &base,
                      std::span<const workloads::Workload *const> ws);

/** Pointers to every registered workload (all 48). */
std::vector<const workloads::Workload *> everyWorkload();

/** Pointers to the high-parallelism workloads (M- plus C-intensive). */
std::vector<const workloads::Workload *> highParallelismWorkloads();

} // namespace experiment
} // namespace mcmgpu

#endif // MCMGPU_SIM_EXPERIMENT_HH
