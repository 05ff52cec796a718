/**
 * @file
 * The logical GPU: modules (GPMs or discrete GPUs) made of SMs with
 * private L1s, an optional module-side L1.5, module crossbars joined by
 * an inter-module fabric, memory-side L2 slices and DRAM partitions
 * (Figures 3 and 5). One GpuSystem instance is one machine; the same
 * class instantiates monolithic GPUs (one module, ideal fabric),
 * MCM-GPUs (four modules on a ring) and multi-GPUs (two modules over a
 * board link) purely from the GpuConfig.
 */

#ifndef MCMGPU_GPU_GPU_SYSTEM_HH
#define MCMGPU_GPU_GPU_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/sim_domain.hh"
#include "core/sm.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "mem/stages.hh"
#include "noc/energy.hh"
#include "obs/recorder.hh"
#include "topo/fabric.hh"

namespace mcmgpu {

/** Receiver of CTA-retirement notifications (the active kernel run). */
class CtaSink
{
  public:
    virtual ~CtaSink() = default;
    virtual void onCtaFinished(SmId sm) = 0;
};

/** A complete logical GPU instance. */
class GpuSystem : public SmContext
{
  public:
    /**
     * Build the machine @p cfg describes. The engine mode is decided
     * here, once: with --sim-threads > 1 and no serialReason() the
     * engine is split into one domain per module before any component
     * is built. @p rec, when given, is wired into every probe and
     * sample hook (see obs::Recorder); it must outlive this system.
     * Every probe only reads state, so a recorder never changes a
     * simulated cycle.
     */
    explicit GpuSystem(const GpuConfig &cfg, obs::Recorder *rec = nullptr);

    /**
     * Why @p cfg must run on the serial engine even when --sim-threads
     * asks for more, or nullptr when the parallel engine may split it
     * (docs/PDES.md, "Eligibility"). @p fabric is the machine's fabric
     * (its minimum route latency is the lookahead); @p rec the recorder
     * the machine will carry, or null.
     */
    static const char *serialReason(const GpuConfig &cfg,
                                    const Fabric &fabric,
                                    obs::Recorder *rec);

    // --- SmContext ---------------------------------------------------------
    void memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                   Cycle now, TxnDoneFn done) override;
    void ctaFinished(SmId sm) override;

    /**
     * The simulation engine driving this machine: serial, or one domain
     * per module (see the constructor). Runs and time/event queries go
     * through the engine so they hold in both modes.
     */
    SimEngine &simEngine() { return engine_; }
    const SimEngine &simEngine() const { return engine_; }

    /** The queue module @p m's components schedule into: its home
     *  domain's in parallel mode, the one serial queue otherwise. */
    EventQueue &moduleQueue(ModuleId m)
    { return engine_.queue(engine_.domainOf(m)); }

    /** Events executed across all domains, net of the pipeline's
     *  accounting corrections (inline-ack deliveries the serial engine
     *  folds into the emitting event) — the figure the stats dumps
     *  report and benchmarks use as the throughput numerator. */
    uint64_t eventsExecuted() const
    { return engine_.executed() - pipeline_->executedAdjust(); }

    /**
     * Synchronous convenience overload (tests, probes): launches the
     * transaction and returns its completion cycle. Valid only under
     * MemModel::Chain, where completion is delivered before launch()
     * returns; panics under MemModel::Staged.
     */
    Cycle memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                    Cycle now);

    // --- Topology access -----------------------------------------------------
    const GpuConfig &config() const { return cfg_; }
    uint32_t numSms() const { return static_cast<uint32_t>(sms_.size()); }
    Sm &sm(SmId id) { return *sms_.at(id); }
    ModuleId moduleOfSm(SmId id) const
    { return id / cfg_.sms_per_module; }

    /** False when the fault plan floorswept this SM: it exists (ids
     *  stay dense) but must never receive work. */
    bool smEnabled(SmId id) const { return sm_enabled_[id]; }

    /** Enabled SMs across the machine (totalSms() minus floorswept). */
    uint32_t enabledSms() const { return enabled_sms_; }

    /** Enabled-SM count of each module: the CTA batch weights. */
    const std::vector<uint32_t> &enabledSmsPerModule() const
    { return enabled_per_module_; }

    Cache &l15(ModuleId m) { return *l15_.at(m); }
    Cache &l2(PartitionId p) { return *l2_.at(p); }
    DramPartition &dram(PartitionId p) { return *dram_.at(p); }
    PageTable &pageTable() { return page_table_; }
    Fabric &fabric() { return *fabric_; }
    EnergyModel &energy() { return energy_; }
    MemPipeline &memPipeline() { return *pipeline_; }
    const MemPipeline &memPipeline() const { return *pipeline_; }

    /** Register/unregister the active kernel run. */
    void setCtaSink(CtaSink *sink) { sink_ = sink; }

    /**
     * Software-coherence flush at a kernel boundary: every L1 and every
     * L1.5 is invalidated exactly once (section 5.1.1).
     */
    void flushKernelCaches();

    // --- Aggregate metrics --------------------------------------------------------
    /** Payload bytes that crossed inter-module links. */
    uint64_t interModuleBytes() const { return fabric_->injectedBytes(); }

    uint64_t dramReadBytes() const;
    uint64_t dramWriteBytes() const;
    uint64_t totalWarpInstructions() const;
    double l1HitRate() const;
    double l15HitRate() const;
    double l2HitRate() const;

    /**
     * Dump every component's statistics in gem5's "group.stat value"
     * format. Per-SM groups are summarized (256 SMs of counters are
     * rarely what you want) unless @p per_sm is set.
     */
    void dumpStats(std::ostream &os, bool per_sm = false) const;

    /**
     * Machine-occupancy snapshot fed to the event-queue watchdog: per
     * module resident CTAs/warps, per-link service state, DRAM busy
     * time and page-table health. This is what a SimStall carries.
     */
    std::string occupancyDiagnostic() const;

    // --- Observability ------------------------------------------------------
    /** The recorder given at construction, or nullptr (the common
     *  case). */
    obs::Recorder *recorder() { return rec_; }

    /** End-of-run: close sampler windows and harvest link busy spans
     *  into the trace. No-op without a recorder. */
    void finishObservability();

    /**
     * Emit the machine's statistics as one "mcmgpu-stats/1" JSON
     * document: system scalars, every stats::Group (fixed
     * construction order), and — when a recorder is attached — the
     * latency/queueing histograms. Key order is deterministic, all
     * numbers print via json::number, so the document is byte-identical
     * for identical runs regardless of sweep parallelism.
     */
    void statsJson(std::ostream &os, const std::string &workload) const;

    /**
     * Emit the fabric congestion picture as one "mcmgpu-fabric/1" JSON
     * document: one entry per named topology link in the deterministic
     * visitLinks order (utilization = busy cycles / run cycles — the
     * congestion heatmap), the hottest link, and — when a recorder is
     * attached — the per-hop latency histogram. Same determinism
     * guarantees as statsJson.
     */
    void fabricJson(std::ostream &os, const std::string &workload);

  private:
    /** Constructor tail with a recorder: queue-delay histograms at
     *  every bandwidth server, sampler probes (SM occupancy, per-link
     *  bytes, DRAM bandwidth, cache hit rates), the engine's passive
     *  sample hook, and link busy-interval tracking when tracing. */
    void wireRecorder();

    /** Fold the pipeline's shards and the DRAM queue-delay shards into
     *  the primary accumulators; every report calls it first. */
    void foldStats();

    GpuConfig cfg_;
    SimEngine engine_;
    PageTable page_table_;
    std::unique_ptr<Fabric> fabric_;
    EnergyModel energy_;
    /** Energy domain of inter-module traffic; fixed by the config, so
     *  hoisted out of the per-access path. */
    Domain link_domain_ = Domain::Package;

    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<std::unique_ptr<Cache>> l15_;  //!< one per module
    std::vector<std::unique_ptr<Cache>> l2_;   //!< one per partition
    std::vector<std::unique_ptr<DramPartition>> dram_;

    /** The split-transaction memory path; constructed after the caches
     *  and DRAM partitions it stages requests through. */
    std::unique_ptr<MemPipeline> pipeline_;

    std::vector<bool> sm_enabled_;             //!< floorsweeping mask
    std::vector<uint32_t> enabled_per_module_;
    uint32_t enabled_sms_ = 0;

    CtaSink *sink_ = nullptr;
    obs::Recorder *rec_; //!< optional per-run recorder

    /** With a recorder: per-partition DRAM queue-delay histograms (each
     *  written only by the partition's home domain), folded into the
     *  recorder's at foldStats(). */
    std::vector<std::unique_ptr<stats::Histogram>> dram_queue_shards_;
};

} // namespace mcmgpu

#endif // MCMGPU_GPU_GPU_SYSTEM_HH
