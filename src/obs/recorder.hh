/**
 * @file
 * Per-run observability recorder: owns the sampler, the latency and
 * queueing histograms, and the trace emitter for ONE simulation.
 *
 * A Recorder exists only when obs::Options enables something; every
 * hook in the simulator is `if (rec_) rec_->...`, so a disabled run
 * allocates nothing and pays one predictable branch per site. Each
 * simulation owns its recorder outright (same threading contract as
 * stats::Group), so parallel sweeps need no locking and per-run output
 * files are byte-identical at any --jobs level.
 *
 * Output files land in Options::out_dir, named
 * `<config>__<workload>.{stats,timeline,trace}.json` with hostile
 * characters in either name replaced by '_'. Writes are temp-file +
 * rename, so a crashed run never leaves a truncated document behind.
 */

#ifndef MCMGPU_OBS_RECORDER_HH
#define MCMGPU_OBS_RECORDER_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/flight.hh"
#include "obs/options.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace mcmgpu {
namespace obs {

/** One simulation's recording state and output writers. */
class Recorder
{
  public:
    /**
     * @param opt          snapshot of the observability options
     * @param config_name  machine configuration name (file naming)
     * @param workload     workload abbreviation (file naming)
     * @param num_modules  GPM count (per-module trace tracks)
     */
    Recorder(const Options &opt, std::string config_name,
             std::string workload, uint32_t num_modules);

    const Options &options() const { return opt_; }

    // --- Sampler -----------------------------------------------------------
    /** Non-null when --sample-period is set. */
    Sampler *sampler() { return sampler_.get(); }

    // --- Histograms --------------------------------------------------------
    /** End-to-end post-L1 load latency, home partition on this GPM. */
    stats::Histogram &localLoadLatency() { return local_load_; }
    /** Same, home partition on a remote GPM (crossed the fabric). */
    stats::Histogram &remoteLoadLatency() { return remote_load_; }
    /** Posted-store acceptance latency, home partition on this GPM. */
    stats::Histogram &localStoreLatency() { return local_store_; }
    /** Same, home partition on a remote GPM. */
    stats::Histogram &remoteStoreLatency() { return remote_store_; }
    /** Queueing delay at inter-module link bandwidth servers. */
    stats::Histogram &linkQueueDelay() { return link_queue_; }
    /** Queueing delay at DRAM channel bandwidth servers. */
    stats::Histogram &dramQueueDelay() { return dram_queue_; }
    /** Per-hop fabric traversal latency (service + queueing, cycles). */
    stats::Histogram &fabricHopLatency() { return fabric_hop_; }

    // --- Flight recorder ---------------------------------------------------
    /** Non-null when --obs-flight-recorder is set. */
    FlightRecorder *flight() { return flight_.get(); }

    // --- Trace hooks -------------------------------------------------------
    bool traceEnabled() const { return opt_.trace_json; }

    /** Link busy-interval merge gap (cycles) when tracing. */
    static constexpr Cycle kLinkBusyMergeGap = 32;

    void kernelBegin(const std::string &name, Cycle now);
    void kernelEnd(Cycle now);

    /** CTA occupancy edge per GPM: a batch span opens when a module
     *  goes from idle to occupied and closes when it drains. */
    void ctaLaunched(ModuleId m, Cycle now);
    void ctaFinished(ModuleId m, Cycle now);

    /** Harvested link busy intervals -> one trace track per link. */
    void linkBusySpans(const std::string &link_name,
                       const std::vector<std::pair<Cycle, Cycle>> &spans);

    // --- End of run --------------------------------------------------------
    /** Close open windows and spans at final time @p end. */
    void finalize(Cycle end);

    /**
     * Write every enabled artifact. @p stats_writer streams the body of
     * stats.json (the caller knows the machine's stat groups; see
     * GpuSystem::statsJson) and is only invoked when --stats-json is
     * on; @p fabric_writer streams fabric.json (see
     * GpuSystem::fabricJson) under the same gate. A failed write of
     * any artifact routes one warning through warn_once (and thus the
     * Progress single writer) and leaves no partial non-temp file.
     * @return false if any file could not be written.
     */
    bool writeOutputs(
        const std::function<void(std::ostream &)> &stats_writer,
        const std::function<void(std::ostream &)> &fabric_writer = {});

    /**
     * Dump the flight-recorder ring as flight.json. The Simulator
     * calls this only when the run ended in a failure status; no-op
     * when the flight recorder is disabled.
     * @return false if the file could not be written.
     */
    bool writeFlight(const std::string &status,
                     const std::string &reason);

    /** Serialize one histogram as a JSON object (shared by stats.json
     *  and tests). */
    static void histogramJson(std::ostream &os,
                              const stats::Histogram &h);

    /** Every latency/queueing histogram, in emission order. */
    std::vector<const stats::Histogram *> histograms() const;

    /** Output path for @p artifact ("stats", "timeline", "trace"). */
    std::string outputPath(const std::string &artifact) const;

    TraceEmitter &trace() { return trace_; }

  private:
    Options opt_;
    std::string config_name_;
    std::string workload_;

    std::unique_ptr<Sampler> sampler_;

    stats::Histogram local_load_;
    stats::Histogram remote_load_;
    stats::Histogram local_store_;
    stats::Histogram remote_store_;
    stats::Histogram link_queue_;
    stats::Histogram dram_queue_;
    stats::Histogram fabric_hop_;

    std::unique_ptr<FlightRecorder> flight_;

    TraceEmitter trace_;
    uint32_t runtime_pid_ = 0;
    uint32_t kernel_tid_ = 0;
    std::string open_kernel_;
    Cycle kernel_start_ = 0;
    bool kernel_open_ = false;
    uint64_t kernel_seq_ = 0;

    struct ModuleTrack
    {
        uint32_t pid = 0;
        uint32_t tid = 0;
        uint32_t resident = 0;
        Cycle batch_start = 0;
        uint64_t batch_seq = 0;
    };
    std::vector<ModuleTrack> modules_;

    uint32_t fabric_pid_ = 0;
};

} // namespace obs
} // namespace mcmgpu

#endif // MCMGPU_OBS_RECORDER_HH
