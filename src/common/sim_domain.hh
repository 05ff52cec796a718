/**
 * @file
 * Conservative parallel-discrete-event engine: per-GPM simulation
 * domains synchronized at lookahead-bounded window barriers.
 *
 * A SimDomain owns one slab-calendar EventQueue plus a private RNG
 * stream; every component of one GPM (its SMs, L1.5, home L2/DRAM
 * partitions, and MemPipeline stages) schedules exclusively into its
 * home domain's queue. The SimEngine runs rounds: pick the global
 * minimum next-event time `next`, bound a window end
 * W = min(next + lookahead, limit + 1),
 * execute every domain's events with when < W in parallel, then — at
 * the barrier, single-threaded — let the registered sequencer hook
 * merge the cross-domain message outboxes in (emit cycle, source
 * domain, sequence) order. The hook hands each message's continuation
 * to deliver(); the worker that owns the target domain inserts it at
 * the start of the next window. The lookahead is the compiled
 * topology's minimum inter-GPM route latency, so no request or
 * response message can ever target a cycle inside the window that
 * produced it; messages whose natural arrival lies in the past
 * (remote-store acks, which carry zero residual latency) are delivered
 * at the target domain's current time instead — a bounded,
 * worker-count-independent slip (docs/PDES.md).
 *
 * With one domain the engine is a pass-through to the serial
 * EventQueue — same code path, bit-identical behaviour (docs/PDES.md).
 */

#ifndef MCMGPU_COMMON_SIM_DOMAIN_HH
#define MCMGPU_COMMON_SIM_DOMAIN_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/event_queue.hh"
#include "common/types.hh"

namespace mcmgpu {

/** One GPM's simulation context: an event queue, an RNG stream, and
 *  the inbox of barrier deliveries bound for the queue. */
class SimDomain
{
  public:
    explicit SimDomain(uint32_t id);

    uint32_t id() const { return id_; }
    EventQueue &queue() { return eq_; }
    const EventQueue &queue() const { return eq_; }

    /** Next value of this domain's private RNG stream (seeded by the
     *  domain id, so streams are decorrelated and a domain's draws do
     *  not depend on other domains' activity). */
    uint64_t rngNext();

  private:
    friend class SimEngine;

    /** A sequencer delivery waiting for the next window. */
    struct Delivery
    {
        Cycle when;
        Cycle sched;
        EventFn fn;
    };

    /** Insert the inbox into the queue with scheduleDelivered, in
     *  arrival order, and empty it. */
    void drainInbox();

    uint32_t id_;
    EventQueue eq_;
    uint64_t rng_state_;

    std::vector<Delivery> inbox_;
};

/**
 * The window-barrier coordinator. Construction yields a serial engine
 * with exactly one domain; activateParallel() splits it into N domains
 * executed by a persistent worker pool.
 */
class SimEngine
{
  public:
    using Outcome = EventQueue::Outcome;

    SimEngine();
    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;
    ~SimEngine();

    /**
     * Switch to parallel mode with @p num_domains domains driven by
     * @p threads workers (clamped to the domain count; the calling
     * thread is worker 0) and a conservative lookahead of @p lookahead
     * cycles. Must be called before any event is scheduled. Domain 0
     * is the one created at construction, so references to queue(0)
     * taken earlier stay valid.
     */
    void activateParallel(uint32_t num_domains, uint32_t threads,
                          Cycle lookahead);

    /**
     * Collapse back to the serial single-domain engine. Legal only
     * while no events have been scheduled — it exists so an owner that
     * activated parallel mode at construction can still honour a
     * later-arriving serial-only requirement (e.g. an event-trace or
     * flight-recorder attachment, docs/PDES.md). Queue 0 references
     * stay valid; workers are joined and the extra domains destroyed.
     */
    void deactivateParallel();

    bool parallel() const { return domains_.size() > 1; }
    uint32_t numDomains() const
    { return static_cast<uint32_t>(domains_.size()); }
    Cycle lookahead() const { return lookahead_; }

    SimDomain &domain(uint32_t d) { return *domains_[d]; }
    EventQueue &queue(uint32_t d) { return domains_[d]->queue(); }
    const EventQueue &queue(uint32_t d) const
    { return domains_[d]->queue(); }

    /** Simulated time: the serial queue's now(), or in parallel mode
     *  the maximum domain time — which at any barrier equals the time
     *  of the globally last executed event, i.e. the serial now(). */
    Cycle now() const;

    /** Events executed across all domains. The owner subtracts its own
     *  accounting corrections (e.g. message-delivery events that the
     *  serial engine would have folded into the emitting event). */
    uint64_t executed() const;

    /** Pending events across all domains, undelivered inbox entries
     *  included. */
    size_t pending() const;

    /** Progress marks across all domains (see EventQueue). */
    uint64_t progressMarks() const;

    /**
     * Drain every domain until empty or until the next event lies past
     * @p limit. Serial mode delegates to EventQueue::run(). Parallel
     * mode runs barrier-synchronized windows; watchdog, wall deadline,
     * and sample boundaries are evaluated at barriers with the same
     * observable semantics as the serial loop.
     */
    Outcome run(Cycle limit = kCycleMax);

    // --- Parallel-mode hooks (no-ops in serial mode) -----------------------
    /** Single-threaded barrier hook: drain cross-domain outboxes. Runs
     *  after every window. */
    void setSequencerHook(std::function<void()> hook)
    { sequencer_hook_ = std::move(hook); }

    /**
     * Hand @p fn to domain @p dom as a delivered event (sequencer hook
     * only). The worker that owns the domain inserts it with
     * EventQueue::scheduleDelivered(@p when, @p sched, fn) at the start
     * of the next window; deliveries to one domain are inserted in call
     * order, so the queue sees the insert sequence an immediate
     * scheduleDelivered would have produced. A run() that returns
     * LimitHit inserts every undelivered entry before it returns.
     */
    void deliver(uint32_t dom, Cycle when, Cycle sched, EventFn fn);

    // --- Forwarded queue services ------------------------------------------
    /** Serial: arms queue 0's watchdog. Parallel: engine-level check at
     *  each barrier over summed progress/executed counters, raising the
     *  stall through queue 0 (where wait reporters register). */
    void setWatchdog(Cycle window_cycles,
                     std::function<std::string()> dump_machine_state);

    void setWallDeadline(double seconds);

    /** Passive sampling hook; parallel mode fires boundaries at
     *  barriers, matching the serial engine's boundary semantics. */
    void setSampleHook(Cycle period, std::function<void(Cycle)> hook);

    /** Diagnose an outside-the-loop wedge via queue 0 (reporters live
     *  there). */
    [[noreturn]] void diagnoseWedge(const std::string &why);

  private:
    Outcome runParallel(Cycle limit);

    /** Minimum (when, sched_when) over all domains' queues and inboxes;
     *  returns false when nothing is pending. */
    bool globalNext(Cycle &when, Cycle &sched) const;

    /** Insert every domain's undelivered inbox (a run is returning or
     *  aborting between windows). */
    void drainInboxes();

    /** Fire every unfired sample boundary at or before @p when. */
    void fireBoundariesUpTo(Cycle when);

    void startWorkers();
    void stopWorkers();
    void workerLoop(uint32_t slot);
    /** Run one barrier round: every domain inserts its inbox, then
     *  executes events < @p end. */
    void executeWindow(Cycle end);
    void runShare(uint32_t slot, Cycle end);

    std::vector<std::unique_ptr<SimDomain>> domains_;
    Cycle lookahead_ = 0;
    uint32_t threads_ = 1;

    std::function<void()> sequencer_hook_;

    // Parallel-mode watchdog / deadline / sampling state (mirrors the
    // EventQueue fields; serial mode leaves these untouched and uses
    // the queue's own).
    Cycle watchdog_window_ = 0;
    uint64_t watch_progress_ = 0;
    Cycle watch_cycle_ = 0;
    uint64_t watch_executed_ = 0;
    bool deadline_armed_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    double wall_timeout_s_ = 0.0;
    Cycle sample_period_ = 0;
    Cycle next_sample_ = 0;
    std::function<void(Cycle)> sample_hook_;

    // Worker pool: round-numbered dispatch, atomic completion count.
    std::vector<std::thread> workers_;
    std::mutex pool_mutex_;
    std::condition_variable pool_start_;
    std::condition_variable pool_done_;
    uint64_t round_ = 0;
    Cycle round_end_ = 0;
    uint32_t round_remaining_ = 0;
    bool shutdown_ = false;
    std::vector<std::exception_ptr> worker_errors_;
};

} // namespace mcmgpu

#endif // MCMGPU_COMMON_SIM_DOMAIN_HH
