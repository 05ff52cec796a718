/**
 * @file
 * Streaming Multiprocessor model.
 *
 * SMs are in-order processors exposing warp-level parallelism (section
 * 4): up to 64 resident warps share a single issue pipeline modelled as
 * a FIFO server, so memory latency of one warp overlaps with compute of
 * the others exactly as on real hardware. Each SM has a private L1
 * (write-through, no write-allocate, flushed at kernel boundaries under
 * software coherence).
 *
 * Memory completions arrive through a continuation (TxnDoneFn): under
 * the default chain model the continuation fires inside memAccess()
 * itself, reproducing the historical synchronous timing event for
 * event; under the staged model it fires at a later calendar event, and
 * a warp whose scoreboard slot is still in flight parks until the
 * completion wakes it — that is how finite remote MSHRs back-pressure
 * the SM.
 *
 * Each resident warp lives in a slot of the SM's own warp array: its
 * trace cursor (a PatternTrace held by value for pattern kernels), its
 * scoreboard and its parked state. Warp events and memory
 * continuations capture (Sm, slot), never a pointer into the array, so
 * launching a CTA may grow it. A retired warp's slot is reused by the
 * next warp launched on the SM.
 */

#ifndef MCMGPU_CORE_SM_HH
#define MCMGPU_CORE_SM_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/pattern_trace.hh"
#include "gpu/kernel.hh"
#include "mem/cache.hh"
#include "mem/txn.hh"

namespace mcmgpu {

/**
 * Services an SM needs from the surrounding system. Implemented by
 * GpuSystem; kept abstract so SMs are unit-testable in isolation.
 */
class SmContext
{
  public:
    virtual ~SmContext() = default;

    /**
     * Resolve an L1 miss (load) or a write-through store issued by a SM
     * on module @p src at time @p now. @p done fires exactly once with
     * the finished transaction and its completion cycle (loads: data
     * arrival; stores: home acceptance). Chain-model implementations
     * invoke it before returning; staged ones at a later event.
     */
    virtual void memAccess(ModuleId src, Addr addr, uint32_t bytes,
                           bool is_store, Cycle now, TxnDoneFn done) = 0;

    /** A CTA retired on @p sm; the scheduler may refill the slot. */
    virtual void ctaFinished(SmId sm) = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** @p eq is the queue of the SM's home module: the one serial
     *  queue, or the module's domain under the parallel engine
     *  (docs/PDES.md). Every warp event of this SM schedules there. */
    Sm(SmId id, ModuleId module, const GpuConfig &cfg, SmContext &ctx,
       EventQueue &eq);

    SmId id() const { return id_; }
    ModuleId module() const { return module_; }

    /** Can a CTA of @p kernel be launched right now? */
    bool canAccept(const KernelDesc &kernel) const;

    /** Launch CTA @p cta of @p kernel; its warps start at @p now. */
    void launchCta(const KernelDesc &kernel, CtaId cta, Cycle now);

    uint32_t residentCtas() const { return resident_ctas_; }
    uint32_t residentWarps() const { return resident_warps_; }
    bool idle() const { return resident_warps_ == 0; }

    /** Software-coherence flush of the private L1. */
    void flushL1() { l1_.invalidateAll(); }

    Cache &l1() { return l1_; }
    const Cache &l1() const { return l1_; }

    uint64_t warpInstructions() const
    { return static_cast<uint64_t>(warp_insts_.value()); }

    stats::Group &statsGroup() { return stats_; }
    const stats::Group &statsGroup() const { return stats_; }

  private:
    /** Scoreboard-slot sentinel: the op owning the slot is still in
     *  flight (only ever observed under the staged memory model). */
    static constexpr Cycle kOpPending = kCycleMax;

    /** One resident warp, 192 bytes on a 64-byte boundary. A step
     *  reads the first two host lines: the trace cursor, then the
     *  scoreboard index, the replay flag and the ring's first five
     *  entries (a default scoreboard of four stays in them). */
    struct alignas(64) WarpRun
    {
        /** The warp's instruction stream: a pattern kernel's cursor in
         *  place, or a make_trace trace on the heap; empty while the
         *  slot is free. */
        std::variant<std::monostate, workloads::PatternTrace,
                     std::unique_ptr<WarpTrace>>
            trace;
        /** The scoreboard entry the next memory op takes. */
        uint32_t inflight_idx = 0;
        CtaId cta = 0;
        /** Parked-warp state (staged model): the memory op that could
         *  not issue because its scoreboard slot was still in flight,
         *  replayed when the completion wakes the warp. */
        bool has_replay = false;
        /** Parked at retirement waiting for outstanding completions. */
        bool drain_parked = false;
        uint32_t park_slot = 0;
        /** Completion times of the most recent memory ops, a circular
         *  buffer of max_outstanding_per_warp entries: the warp stalls
         *  only when it would exceed its scoreboard depth. */
        std::array<Cycle, 8> inflight{};
        Cycle replay_issued = 0;
        WarpOp replay_op{};

        /** Produce the warp's next operation; false once it retired
         *  its last instruction. */
        bool
        next(WarpOp &op)
        {
            if (auto *p = std::get_if<workloads::PatternTrace>(&trace))
                return p->next(op);
            return std::get<std::unique_ptr<WarpTrace>>(trace)->next(op);
        }
    };

    /** Advance the warp in slot @p w by one operation; self-reschedules.
     *  Warp events capture (this, w): no heap record, no refcount. */
    void stepWarp(uint32_t w);

    /** Memory completion of scoreboard entry @p slot of the warp in
     *  slot @p w: install the L1 line (loads), publish the completion
     *  cycle into the scoreboard, and wake the warp if it parked on
     *  this entry (issue or drain). */
    void memDone(uint32_t w, uint32_t slot, const MemTxn &txn, Cycle done);

    void warpRetired(CtaId cta);

    SmId id_;
    ModuleId module_;
    SmContext &ctx_;
    EventQueue &eq_;
    Cache l1_;
    uint32_t max_warps_;
    uint32_t max_ctas_;
    uint32_t issue_width_;
    uint32_t max_outstanding_ = 4;

    /** Next cycle the shared issue pipeline is free. */
    Cycle issue_free_ = 0;

    /** Warp slots, grown on demand up to the resident-warp peak;
     *  free_slots_ is a LIFO of retired slots. Nothing is allocated at
     *  construction: the first launch reserves room for
     *  max_warps_per_sm slots, so growth never leaves freed buffers
     *  behind. Never hold a WarpRun reference across warpRetired(): the
     *  CTA it finishes may refill this SM and add a slot. */
    std::vector<WarpRun> warps_;
    std::vector<uint32_t> free_slots_;

    uint32_t resident_ctas_ = 0;
    uint32_t resident_warps_ = 0;
    std::unordered_map<CtaId, uint32_t> warps_left_; //!< per resident CTA

    stats::Group stats_;
    stats::Scalar &warp_insts_;
    stats::Scalar &mem_ops_;
    stats::Scalar &store_ops_;
    stats::Scalar &ctas_run_;
    stats::Scalar &mem_stall_cycles_;
};

} // namespace mcmgpu

#endif // MCMGPU_CORE_SM_HH
