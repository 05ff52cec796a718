/**
 * @file
 * The split-transaction memory pipeline: composable stages and the
 * MemPipeline orchestrator that drives MemTxns through them.
 *
 * Stage order (loads): L15 → FabReq → L2Lookup → [DramRead] → L2Fill →
 * FabResp → Complete. Stores stop at the home partition (posted, the
 * paper's write-through L1.5 / memory-side L2 model): L15 → FabReq →
 * L2Lookup → [DramRead → L2Fill] → Complete. Local transactions skip
 * the fabric hops inside FabricStage rather than by a different phase
 * sequence, so the phase machine is uniform.
 *
 * Two drivers share the stages:
 *  - Chain (default): launch() walks every phase synchronously. The
 *    call sequence on caches, bandwidth servers and the energy model
 *    is exactly the historical GpuSystem::memAccess inline chain, and
 *    no events are scheduled — simulated cycles, event counts and
 *    stats are bit-identical to it.
 *  - Staged: each time-advancing phase transition becomes a calendar
 *    event. Finite per-module remote MSHRs (GpuConfig::remote_mshrs)
 *    gate entry to the fabric with a FIFO wait queue; the stall is
 *    back-pressure the SM scoreboard observes as delayed completions.
 *    A "mem" stats group (txn_* scalars) records launches, in-flight
 *    occupancy, MSHR stalls and per-stage latency.
 */

#ifndef MCMGPU_MEM_STAGES_HH
#define MCMGPU_MEM_STAGES_HH

#include <array>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "mem/txn.hh"
#include "noc/energy.hh"
#include "topo/fabric.hh"

namespace mcmgpu {

class SimEngine;
class WaitGraph;

namespace obs { class Recorder; }

/** GPM-side L1.5 probe (paper section 5.1): filters remote traffic,
 *  charges the serial tag-check penalty on misses, and keeps present
 *  lines coherent under write-through stores. */
class L15Stage : public MemStage
{
  public:
    L15Stage(const GpuConfig &cfg,
             const std::vector<std::unique_ptr<Cache>> &l15)
        : cfg_(cfg), l15_(l15) {}

    const char *name() const override { return "l15"; }
    TxnPhase service(MemTxn &txn) override;

    /** Install the returning line (loads that missed a caching L1.5). */
    void
    fill(MemTxn &txn)
    {
        l15_[txn.src]->fill(txn.addr, false, txn.t);
    }

  private:
    const GpuConfig &cfg_;
    const std::vector<std::unique_ptr<Cache>> &l15_;
};

/** Inter-module traversal: request on the way out, response on the way
 *  back. Local transactions pass through with no cost.
 *
 *  With virtual channels configured (staged mode, fabric_vcs > 0) the
 *  stage also owns the credit state: one pool of `credits` buffer
 *  slots per directed GPM pair per VC. fabric_vcs == 2 puts requests
 *  on VC 0 and responses on VC 1 (deadlock-free by construction:
 *  responses never wait on request progress); fabric_vcs == 1 shares
 *  one pool between both classes — a deliberately deadlock-prone
 *  protocol kept for diagnosis tests. The pipeline acquires a credit
 *  before injecting a packet and parks the transaction in the pool's
 *  FIFO when none is free; releases hand the credit straight to the
 *  parked head. See docs/FABRIC.md. */
class FabricStage : public MemStage
{
  public:
    /** Request/response packet header size on the fabric, bytes. */
    static constexpr uint32_t kHeaderBytes = 16;

    FabricStage(Fabric &fabric, EnergyModel &energy, Domain link_domain)
        : fabric_(fabric), energy_(energy), link_domain_(link_domain) {}

    const char *name() const override { return "fabric"; }
    TxnPhase service(MemTxn &txn) override;

    /** Request packet size: header plus the payload of a store. */
    static uint32_t
    requestBytes(const MemTxn &txn)
    {
        return kHeaderBytes + (txn.is_store ? txn.bytes : 0u);
    }

    /** Response packet size (loads only): header plus the payload. */
    static uint32_t
    responseBytes(const MemTxn &txn)
    {
        return kHeaderBytes + txn.bytes;
    }

    /** Price one @p bytes packet from @p from to @p to sent at @p t
     *  (link calendars plus link energy); returns its arrival cycle. */
    Cycle hop(ModuleId from, ModuleId to, uint32_t bytes, Cycle t);

    // --- Credit flow control --------------------------------------------
    /** Size the per-pair credit pools; vcs == 0 leaves them off. */
    void configureVcs(uint32_t modules, uint32_t vcs, uint32_t credits);

    bool vcsEnabled() const { return vcs_ > 0; }
    uint32_t numVcs() const { return vcs_; }

    /** Take one credit on src->dst for the class; false if exhausted. */
    bool tryAcquire(ModuleId src, ModuleId dst, bool response);

    /** FIFO-park @p txn until a credit on (src->dst, class) frees. */
    void park(ModuleId src, ModuleId dst, bool response, MemTxn &txn);

    /**
     * Return one credit on (src->dst, class). When waiters are parked
     * the credit passes directly to the FIFO holds (the waiter's
     * holds_*_credit flag is set from its phase) and the waiter is
     * returned for the pipeline to reschedule; nullptr otherwise.
     */
    MemTxn *release(ModuleId src, ModuleId dst, bool response);

    /** Transactions currently parked waiting for a credit on @p vc. */
    uint32_t parkedNow(uint32_t vc) const { return parked_now_[vc]; }
    /** Credits currently held across all pools of @p vc. */
    uint32_t creditsInUse(uint32_t vc) const { return in_use_now_[vc]; }

    /** Diagnosis name of one pool, e.g. "vc0:gpm1->gpm3". */
    std::string poolName(ModuleId src, ModuleId dst, bool response) const;

    /** Emit hold->wait edges + occupancy notes for every parked txn. */
    void reportWaits(WaitGraph &wg) const;

    /** Human-readable per-pool occupancy (stall diagnostics). */
    void dumpOccupancy(std::ostream &os) const;

  private:
    /** Per-(directed pair, VC) credit pool with its parked FIFO. */
    struct VcPool
    {
        uint32_t in_use = 0;
        uint32_t parked = 0;
        MemTxn *head = nullptr;
        MemTxn *tail = nullptr;
    };

    /** Response traffic only gets its own lane with >= 2 VCs. */
    uint32_t vcSlot(bool response) const
    { return (response && vcs_ >= 2) ? 1 : 0; }

    size_t
    poolIndex(ModuleId src, ModuleId dst, bool response) const
    {
        return (static_cast<size_t>(src) * modules_ + dst) * num_slots_ +
               vcSlot(response);
    }

    Fabric &fabric_;
    EnergyModel &energy_;
    Domain link_domain_;

    uint32_t modules_ = 0;
    uint32_t vcs_ = 0;
    uint32_t credits_ = 0;
    uint32_t num_slots_ = 1;
    std::vector<VcPool> pools_;
    uint32_t parked_now_[2] = {0, 0};
    uint32_t in_use_now_[2] = {0, 0};
};

/** Home L2 slice: probe on L2Lookup, install + dirty-victim writeback
 *  on L2Fill (memory-side MSHR merging happens inside the Cache). */
class L2HomeStage : public MemStage
{
  public:
    L2HomeStage(const std::vector<std::unique_ptr<Cache>> &l2,
                const std::vector<std::unique_ptr<DramPartition>> &dram,
                EnergyModel &energy)
        : l2_(l2), dram_(dram), energy_(energy) {}

    const char *name() const override { return "l2_home"; }
    TxnPhase service(MemTxn &txn) override;

  private:
    const std::vector<std::unique_ptr<Cache>> &l2_;
    const std::vector<std::unique_ptr<DramPartition>> &dram_;
    EnergyModel &energy_;
};

/** Home DRAM partition: the line fetch an L2 miss pays. Posted writes
 *  (stores without an L2, dirty victims) are issued by L2HomeStage
 *  directly — they never delay the transaction. */
class DramStage : public MemStage
{
  public:
    DramStage(const std::vector<std::unique_ptr<DramPartition>> &dram,
              EnergyModel &energy, uint32_t line_bytes)
        : dram_(dram), energy_(energy), line_bytes_(line_bytes) {}

    const char *name() const override { return "dram"; }
    TxnPhase service(MemTxn &txn) override;

  private:
    const std::vector<std::unique_ptr<DramPartition>> &dram_;
    EnergyModel &energy_;
    uint32_t line_bytes_;
};

/**
 * Owns the stages, the transaction arena and (staged mode) the MSHR
 * state; GpuSystem::memAccess delegates here. One pipeline per
 * GpuSystem, same single-owner threading contract as everything else.
 */
class MemPipeline
{
  public:
    MemPipeline(const GpuConfig &cfg, EventQueue &eq, PageTable &pt,
                Fabric &fabric, EnergyModel &energy, Domain link_domain,
                const std::vector<std::unique_ptr<Cache>> &l15,
                const std::vector<std::unique_ptr<Cache>> &l2,
                const std::vector<std::unique_ptr<DramPartition>> &dram);

    /**
     * Start one post-L1 access. Under Chain the transaction completes
     * (and @p done fires) before launch() returns; under Staged it
     * completes at a later event unless it hits in the L1.5.
     */
    void launch(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                Cycle now, TxnDoneFn &&done);

    bool staged() const { return staged_; }

    /** Observability sink for load/store latencies and (when tracing)
     *  per-stage transaction spans. May be null. */
    void setRecorder(obs::Recorder *rec);

    // --- Per-GPM simulation domains (parallel engine; docs/PDES.md) ------
    /**
     * Partition the pipeline across the engine's per-GPM domains: one
     * shard (arena, txn ids, stats mirrors, latency histograms, message
     * outbox) per module, events scheduled into the owning module's
     * queue, and remote traffic carried as cross-domain messages the
     * barrier sequencer delivers. Must be called before any launch;
     * requires staged mode with VCs off.
     */
    void enableDomains(SimEngine &engine);

    /** Undo enableDomains (no launches yet): the owner downgraded to
     *  serial execution after a serial-only feature was attached. */
    void disableDomains();

    bool domainMode() const { return engine_ != nullptr; }

    /**
     * Barrier sequencer: merge every domain's outbox in (emit cycle,
     * emitting event's schedule cycle, domain, sequence) order — the
     * serial execution order up to schedule-cycle ties. Requests and
     * responses take their fabric hop here (link bandwidth calendars
     * are order-insensitive within a cycle) and are delivered to the
     * target domain; store acks are delivered to the source. Runs
     * single-threaded between windows and reads only the outbox
     * records, never a transaction; the target domain's worker inserts
     * the deliveries (SimEngine::deliver).
     */
    void processMessages();

    /** Delivery events the serial engine folds into the emitting event
     *  (zero-latency store acks); subtract from the engine's executed
     *  count to report serial-comparable event totals. */
    uint64_t executedAdjust() const { return exec_inline_acks_; }

    /** Fold the per-domain shards into the primary stats scalars and
     *  the recorder's histograms, in domain order (exact: integer
     *  counts and cycle sums). Idempotent; call once the run ends. */
    void mergeShards();

    /** Transactions currently between launch and completion (staged). */
    uint64_t
    inflight() const
    {
        if (shards_.empty())
            return inflight_;
        uint64_t n = 0;
        for (const DomainShard &s : shards_)
            n += s.inflight;
        return n;
    }

    /** Virtual channels in play (0 = credit flow control off). */
    uint32_t numVcs() const { return vcs_; }

    /** Transactions parked for a credit on @p vc right now (gauges). */
    uint32_t vcParkedNow(uint32_t vc) const
    { return fabric_stage_.parkedNow(vc); }

    /** Credits held across all pools of @p vc right now (gauges). */
    uint32_t vcCreditsInUse(uint32_t vc) const
    { return fabric_stage_.creditsInUse(vc); }

    /** Remote MSHRs held across all modules right now (gauge). */
    uint32_t
    mshrsInUse() const
    {
        uint32_t sum = 0;
        for (const MshrState &m : mshrs_)
            sum += m.in_use;
        return sum;
    }

    /** Transactions queued for a remote MSHR right now (gauge). */
    uint32_t
    mshrsWaiting() const
    {
        uint32_t sum = 0;
        for (const MshrState &m : mshrs_)
            for (const MemTxn *w = m.waitq_head; w != nullptr; w = w->next)
                ++sum;
        return sum;
    }

    /** Per-pool VC occupancy dump for stall diagnostics; no-op with
     *  credit flow control off. */
    void dumpVcOccupancy(std::ostream &os) const;

    /** The "mem" stats group (txn_* scalars; staged mode only fills
     *  them, chain mode leaves the group at zero). */
    const stats::Group &statsGroup() const { return stats_; }

  private:
    struct MshrState
    {
        uint32_t in_use = 0;
        MemTxn *waitq_head = nullptr;
        MemTxn *waitq_tail = nullptr;
    };

    /** One cross-domain message: a transaction handed to the barrier
     *  sequencer at a phase seam (request/response fabric hop, store
     *  ack). Ordering fields mirror the emitting event's position so
     *  the sequencer can replay the serial service order; the rest is
     *  copied from the transaction at emit time, so the sequencer never
     *  dereferences it. */
    struct CrossMsg
    {
        enum Kind : uint8_t { Req, Resp, Ack };

        Cycle emit_t;            //!< emitting event's cycle
        Cycle emit_sched;        //!< emitting event's schedule cycle
        Cycle t;                 //!< hop send cycle / ack acceptance
        MemTxn *txn;             //!< opaque here: the delivery's payload
        ModuleId from;           //!< hop source (Req/Resp)
        ModuleId to;             //!< hop destination = target domain
        uint32_t bytes;          //!< packet bytes (Req/Resp)
        Kind kind;
        /** Serial completes this store inline in the emitting event;
         *  the delivery event is an accounting artifact. */
        bool inline_ack;
    };

    /** In-flight transaction count transition (+1 launch, -1 complete)
     *  for the barrier-merged global peak. */
    struct PeakEntry
    {
        Cycle when;
        Cycle sched;
        int8_t delta;
    };

    /**
     * Per-domain state: everything one domain's events touch without
     * synchronization. Source-side counters (launches, occupancy, MSHR
     * stalls, latency histograms) shard by txn.src; home-side counters
     * (L2/DRAM stage cycles) by txn.home_module; the outbox belongs to
     * the domain whose events fill it. Remote fabric stage cycles are
     * the sequencer's (seq_fab_cycles_).
     */
    struct DomainShard
    {
        TxnArena arena;
        uint64_t next_id = 0;

        uint64_t inflight = 0;
        Cycle occ_last = 0;

        // Mirrors of the mem stats scalars (merged in domain order;
        // integer-valued, so double sums are exact).
        double launched = 0;
        double completed = 0;
        double l15_hits = 0;
        double mshr_stalls = 0;
        double mshr_stall_cycles = 0;
        double occupancy_cycles = 0;
        double stage_cycles[5] = {};  // l15, fab_req, l2, dram, fab_resp

        std::vector<PeakEntry> peak_log;
        std::vector<CrossMsg> outbox;

        /** Latency histogram shards: local/remote load, local/remote
         *  store (recorder recipes; merged at end of run). */
        std::unique_ptr<stats::Histogram> lat[4];
    };

    /** Service the transaction's current phase; updates txn.phase. */
    void serviceOne(MemTxn &txn);

    /** Initialize a transaction's request fields for a fresh launch. */
    void initTxn(MemTxn &txn, ModuleId src, Addr addr, uint32_t bytes,
                 bool is_store, PartitionId part, ModuleId home,
                 Cycle now);

    /** L1.5 fill + latency recording shared by both drivers. */
    void finishCommon(MemTxn &txn);

    /** Staged driver: service phases at the current event, schedule
     *  the next event when simulated time must advance. */
    void stagedAdvance(MemTxn &txn);
    void scheduleAdvance(MemTxn &txn);

    /** Staged admission: acquire a remote MSHR or join the wait queue. */
    void admit(MemTxn &txn);
    void releaseMshr(MemTxn &txn);

    void completeTxn(MemTxn &txn);

    // --- Domain-mode internals (docs/PDES.md) ----------------------------
    /** The queue a transaction's next event belongs to: src domain for
     *  L15/FabReq/Complete, home domain for the home-side phases. */
    EventQueue &queueFor(const MemTxn &txn);
    /** The queue whose event is executing a source-side step. */
    EventQueue &srcQueue(const MemTxn &txn);
    /** Hand a request/response fabric hop to the barrier sequencer. */
    void emitCross(MemTxn &txn);
    /** Hand a completed remote store's ack to the barrier sequencer. */
    void emitStoreAck(MemTxn &txn, bool inline_ack);
    /** Price (requests, responses) and deliver one merged message. */
    void sequence(const CrossMsg &m);
    /** Merge the per-domain inflight transition logs into the global
     *  peak (runs at barriers, single-threaded). */
    void mergePeakLog();
    /** Clone the recorder's latency histogram recipes into the shards. */
    void buildShardHistograms();
    void occTickShard(DomainShard &s, Cycle now);

    // --- Credit flow control (staged with fabric_vcs > 0) ---------------
    /** Gate a remote FabReq/FabResp on its VC credit; true = parked. */
    bool vcGate(MemTxn &txn);
    /** Park @p txn until a credit on (src->dst, class) frees. */
    void parkForCredit(MemTxn &txn, ModuleId src, ModuleId dst,
                       bool response);
    /** Return a credit; wakes and reschedules the parked head. */
    void releaseVcCredit(ModuleId src, ModuleId dst, bool response);

    /** Wait-for-graph reporter (MSHR queues + VC pools). */
    void reportWaits(WaitGraph &wg) const;

    void occTick();
    void noteStage(TxnPhase ph, Cycle before, MemTxn &txn);
    /** Flight-recorder entries (passive; only when rec_->flight()). */
    bool flightOn() const;
    void flightPhase(TxnPhase from, const MemTxn &txn);
    void flightNote(Cycle when, std::string what);
    void traceStage(TxnPhase ph, Cycle start, MemTxn &txn);
    void ensureTraceTracks();
    void traceVcWait(const MemTxn &txn);

    const GpuConfig &cfg_;
    EventQueue &eq_;
    PageTable &page_table_;
    TxnArena arena_;

    L15Stage l15_stage_;
    FabricStage fabric_stage_;
    L2HomeStage l2_stage_;
    DramStage dram_stage_;

    const std::vector<std::unique_ptr<Cache>> &l15_;

    bool staged_;
    uint32_t remote_mshrs_;
    uint32_t vcs_;
    std::vector<MshrState> mshrs_;

    obs::Recorder *rec_ = nullptr;

    uint64_t next_id_ = 0;
    uint64_t inflight_ = 0;
    Cycle occ_last_ = 0;

    // --- Domain mode (parallel engine) -----------------------------------
    SimEngine *engine_ = nullptr;
    std::vector<DomainShard> shards_;
    std::vector<size_t> merge_pos_;       //!< outbox / peak-log cursors
    /** Fabric request / response stage cycles priced by the sequencer
     *  (folded into the stats scalars by mergeShards). */
    Cycle seq_fab_cycles_[2] = {0, 0};
    int64_t merged_inflight_ = 0;
    double merged_peak_ = 0;
    uint64_t exec_inline_acks_ = 0;
    bool shards_merged_ = false;

    /** Per-transaction-stage trace spans are capped so tracing a long
     *  run cannot balloon the trace file. */
    static constexpr uint64_t kMaxTraceTxns = 512;
    uint32_t trace_pid_ = 0;
    std::array<uint32_t, 7> trace_tids_{};
    uint32_t trace_vc_tid_ = 0;
    bool trace_ready_ = false;

    stats::Group stats_;
    stats::Scalar &txn_launched_;
    stats::Scalar &txn_completed_;
    stats::Scalar &txn_l15_hits_;
    stats::Scalar &txn_inflight_peak_;
    stats::Scalar &txn_occupancy_cycles_;
    stats::Scalar &txn_mshr_stalls_;
    stats::Scalar &txn_mshr_stall_cycles_;
    stats::Scalar &stage_l15_cycles_;
    stats::Scalar &stage_fab_req_cycles_;
    stats::Scalar &stage_l2_cycles_;
    stats::Scalar &stage_dram_cycles_;
    stats::Scalar &stage_fab_resp_cycles_;

    // Registered only when credit flow control is on, so the default
    // staged stats.json stays byte-identical with VCs off.
    stats::Scalar *txn_vc_parked_ = nullptr;
    stats::Scalar *txn_vc_park_cycles_ = nullptr;
    stats::Scalar *txn_vc_parked_peak_ = nullptr;
};

} // namespace mcmgpu

#endif // MCMGPU_MEM_STAGES_HH
