/**
 * @file
 * Discrete-event engine driving the performance model.
 *
 * Events are (cycle, sequence, callback) tuples; ties on cycle break by
 * insertion order so execution is deterministic. Components schedule
 * continuations (e.g. "warp 17 becomes ready at cycle t") and the
 * simulator drains the queue until empty or until a cycle limit.
 *
 * The store is built for the drain loop's actual traffic. Almost every
 * event lands within a few thousand cycles of now (cache hits, link
 * hops, DRAM round trips), so events live in a calendar: a
 * power-of-two window of per-cycle buckets, each an intrusive FIFO of
 * slab-allocated nodes, with a 64-bit occupancy bitmap making
 * "next non-empty cycle" a couple of word scans. Scheduling is O(1)
 * (bump a freelist, append to a tail), popping is O(1) amortized, and
 * the callback itself is a SmallFn stored inside the node — no heap
 * allocation, no binary-heap sifting, no std::function boxing on the
 * hot path. The rare event beyond the window waits in a (when, seq)
 * binary heap of nodes and is migrated into the calendar when the
 * window advances past it; migration pops in (when, seq) order, so the
 * execution order is exactly the order the old pure-heap engine
 * produced, event for event.
 *
 * A guard runs beside the drain: a no-progress watchdog, a wall-clock
 * deadline and passive sample boundaries. Components mark real work
 * via noteProgress(), and if events keep executing for a whole window
 * without a single mark the queue raises a typed SimStall carrying a
 * machine-state diagnostic — a misconfigured machine fails loudly
 * instead of livelocking to the cycle limit. The guard's state lives
 * here alone: run() evaluates it before every event, and the parallel
 * engine (SimEngine) evaluates the same guard() on its queue 0 at
 * every window barrier, over engine-wide totals.
 */

#ifndef MCMGPU_COMMON_EVENT_QUEUE_HH
#define MCMGPU_COMMON_EVENT_QUEUE_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/smallfn.hh"
#include "common/types.hh"

namespace mcmgpu {

class WaitGraph;

/** Callback type executed when an event fires. */
using EventFn = SmallFn;

/**
 * Raised by the event-queue watchdog when events keep firing but the
 * machine retires no work: a livelocked simulation. Carries a
 * structured diagnostic (queue depth, time, plus whatever occupancy
 * dump the owning system registered) so a stall is debuggable instead
 * of a silent crawl to the cycle limit.
 */
class SimStall : public std::runtime_error
{
  public:
    SimStall(std::string what, std::string diagnostic)
        : std::runtime_error(std::move(what)),
          diagnostic_(std::move(diagnostic))
    {
    }

    /** The full multi-line machine-state dump taken at stall time. */
    const std::string &diagnostic() const { return diagnostic_; }

  private:
    std::string diagnostic_;
};

/**
 * A SimStall whose wait-for graph closed a hold-and-wait cycle: a true
 * protocol deadlock, not congestion. Deterministic for a given config
 * and workload — retrying cannot help — so runners surface it as
 * RunStatus::Deadlock and never retry. cycle() names the resource
 * cycle ("vc0:gpm0->gpm1 -> mshr:gpm1 -> ..."); the diagnostic carries
 * the full graph with per-pool occupancy.
 */
class FabricDeadlock : public SimStall
{
  public:
    FabricDeadlock(std::string what, std::string diagnostic,
                   std::string cycle)
        : SimStall(std::move(what), std::move(diagnostic)),
          cycle_(std::move(cycle))
    {
    }

    /** The resource cycle, " -> "-joined, first node repeated last. */
    const std::string &cycle() const { return cycle_; }

  private:
    std::string cycle_;
};

/**
 * Raised when a run() exceeds its wall-clock deadline (see
 * setWallDeadline()). Deliberately NOT a SimStall: the simulation made
 * progress, the host just ran out of patience, so runners map it to a
 * retryable RunStatus::Timeout rather than a stall diagnosis.
 */
class SimTimeout : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Deterministic priority queue of timed callbacks. */
class EventQueue
{
  public:
    /** How a run() call ended (a watchdog stall throws instead). */
    enum class Outcome
    {
        Drained,  //!< no events remain
        LimitHit, //!< next event lies beyond the cycle limit
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Schedule @p fn to run at absolute cycle @p when (>= now()). */
    void schedule(Cycle when, EventFn fn);

    /**
     * Cross-domain delivery (PDES engine only): insert @p fn at cycle
     * @p when as if it had been scheduled when simulated time was
     * @p sched_when. Buckets stay sorted by (sched_when, seq) — the
     * order a single global queue would have executed the same event
     * population in — so deliveries interleave with domain-local events
     * exactly where the serial engine would have run them. @p sched_when
     * must not exceed @p when, and @p when must be >= now().
     */
    void scheduleDelivered(Cycle when, Cycle sched_when, EventFn fn);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    size_t size() const { return size_; }

    /** Current simulated time (time of the last event executed). */
    Cycle now() const { return now_; }

    /**
     * Run events until the queue drains or @p limit cycles have been
     * simulated. With a watchdog armed, throws SimStall when a window
     * passes without progress (see setWatchdog()).
     */
    Outcome run(Cycle limit = kCycleMax);

    /**
     * Execute exactly one event if available; returns false when empty.
     * Crosses the same sample-hook boundaries run() would, so mixing
     * step() and run() never skips or double-fires a sample window.
     */
    bool step();

    /** Drop all pending events and rewind time to zero. */
    void reset();

    /** Total events executed since construction/reset (for stats). */
    uint64_t executed() const { return executed_; }

    // --- PDES window interface (see docs/PDES.md) ---------------------------
    /**
     * Execute every pending event with when < @p end_exclusive, in
     * (when, sched_when, seq) order. The guard does not run here — the
     * owning SimEngine evaluates it at window barriers so its semantics
     * stay global. Returns the number of events executed.
     */
    uint64_t runWindow(Cycle end_exclusive);

    /**
     * Execute exactly the next pending event with no boundary or
     * watchdog bookkeeping. Returns false when the queue is empty.
     */
    bool execOne();

    /**
     * Timestamps of the next pending event without executing it.
     * Returns false when the queue is empty.
     */
    bool peekTimes(Cycle &when, Cycle &sched_when);

    /**
     * Schedule-time stamp of the event currently executing (only
     * meaningful inside an event callback). Cross-domain messages
     * emitted mid-event inherit this so a zero-latency completion lands
     * at the serial engine's exact intra-cycle position.
     */
    Cycle currentSchedWhen() const { return cur_sched_when_; }

    // --- Guard: watchdog, wall deadline, sample boundaries -------------------
    /**
     * The counters the guard and a stall diagnostic read: this queue's
     * own in run(), the sums over every domain in the parallel engine
     * (SimEngine::totals()).
     */
    struct Totals
    {
        Cycle now;         //!< time of the last executed event
        uint64_t executed; //!< events executed
        uint64_t progress; //!< noteProgress() marks
        size_t pending;    //!< events not yet executed
    };

    /** Start a run: time that passed between runs (or before the
     *  first) is not a stall. */
    void
    guardRebase(const Totals &t)
    {
        watch_progress_ = t.progress;
        watch_cycle_ = t.now;
        watch_executed_ = t.executed;
    }

    /**
     * Evaluate the guard before executing work that starts at @p next:
     * fire every sample boundary at or before @p next, throw SimTimeout
     * once the wall deadline has passed (tested only when
     * @p check_deadline), and throw SimStall once @p t shows a whole
     * watchdog window since the last progress mark. The watchdog
     * measures from the last event that ran (@p t.now), never from
     * @p next. run() calls this before every event, testing the
     * deadline every 4096 events; the parallel engine calls it at every
     * barrier.
     */
    void
    guard(Cycle next, Cycle limit, const Totals &t, bool check_deadline)
    {
        fireSamples(next);
        if (deadline_armed_ && check_deadline &&
            std::chrono::steady_clock::now() >= deadline_)
            throwTimeout(t);
        if (watchdog_window_ != 0) {
            if (t.progress != watch_progress_) {
                guardRebase(t);
            } else if (t.now - watch_cycle_ > watchdog_window_ ||
                       t.executed - watch_executed_ > watchdog_window_) {
                // Events fired across (or piled up within) a whole
                // window without one retired unit of work: livelock.
                throwStall(limit, t);
            }
        }
    }

    /** Fire every unfired sample boundary at or before @p when. */
    void
    fireSamples(Cycle when)
    {
        if (sample_period_ != 0)
            fireBoundaries(when);
    }

    /**
     * Arm the livelock watchdog: if the guard sees events execute
     * across a window of @p window_cycles cycles — or @p window_cycles
     * events at one cycle — without noteProgress() being called, it
     * dumps the queue state plus @p dump_machine_state (may be null)
     * and throws SimStall. @p window_cycles == 0 disarms.
     */
    void setWatchdog(Cycle window_cycles,
                     std::function<std::string()> dump_machine_state = {});

    /** Record forward progress (a warp instruction retired). */
    void noteProgress() { ++progress_; }

    /** Progress marks recorded so far (for tests). */
    uint64_t progressMarks() const { return progress_; }

    // --- Deadlock diagnosis --------------------------------------------------
    /**
     * Register a wait-for-graph reporter: a component that parks
     * waiters on finite resources (MSHR pools, VC credit pools) adds a
     * callback that, given a WaitGraph, emits one hold->wait edge per
     * parked waiter plus occupancy notes. Reporters run only when a
     * stall is being declared — never on the hot path.
     */
    void addWaitReporter(std::function<void(WaitGraph &)> reporter);

    /**
     * Declare a wedge from outside the drain loop: the queue drained
     * but the machine still holds unfinished work (every remaining
     * transaction is parked, so no event will ever fire). Builds the
     * wait-for graph and throws FabricDeadlock when it closes a cycle,
     * SimStall otherwise. @p why describes what the caller observed.
     */
    [[noreturn]] void diagnoseWedge(const std::string &why)
    { diagnoseWedge(why, ownTotals()); }

    /** The same, reporting @p t (the parallel engine's totals). */
    [[noreturn]] void diagnoseWedge(const std::string &why,
                                    const Totals &t);

    // --- Wall-clock deadline -------------------------------------------------
    /**
     * Abort run() with SimTimeout once @p seconds of host wall-clock
     * have elapsed from this call. Checked every 4096 executed events,
     * so the overhead with a deadline armed is one flag test per event
     * (the parallel engine checks at every barrier). @p seconds <= 0
     * disarms; a budget past the clock's range from now (about 292
     * years, or infinity) never fires.
     */
    void setWallDeadline(double seconds);

    // --- Passive sampling hook -----------------------------------------------
    /**
     * Fire @p hook once per @p period cycles while the queue drains.
     * The hook is purely passive: it is invoked just before executing
     * the first event at-or-past each window boundary (the parallel
     * engine: at the barrier before the window that holds it, or at the
     * end of the run), with the boundary cycle as argument. It never
     * schedules events, so arming it cannot perturb event order,
     * simulated time, or the executed() count. @p period == 0 disarms
     * (the per-event cost collapses to one integer compare).
     *
     * Boundaries land at period, 2*period, ... — a boundary fires only
     * once simulated time is known to have reached it; trailing
     * boundaries beyond the last event never fire.
     */
    void setSampleHook(Cycle period, std::function<void(Cycle)> hook);

  private:
    /** Calendar window: per-cycle buckets covering [base_, base_+kWindow). */
    static constexpr size_t kWindowBits = 12;
    static constexpr size_t kWindow = size_t(1) << kWindowBits;
    static constexpr size_t kOccWords = kWindow / 64;
    /** Nodes per slab chunk. */
    static constexpr size_t kSlabNodes = 256;

    struct Node
    {
        Cycle when;
        Cycle sched_when; //!< simulated time at the schedule() call
        uint64_t seq;
        Node *next; //!< FIFO link within a calendar bucket
        EventFn fn;
    };

    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Far-heap ordering: min (when, sched_when, seq) at the top.
     *  Serially sched_when is monotone in seq, so this is the same
     *  order the historical (when, seq) comparator produced. */
    struct FarLater
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            if (a->sched_when != b->sched_when)
                return a->sched_when > b->sched_when;
            return a->seq > b->seq;
        }
    };

    Node *allocNode();
    void freeNode(Node *n);
    void growSlab();
    void destroyAllNodes();

    /** Append to the calendar bucket for @p n->when (must be in window). */
    void bucketAppend(Node *n);

    /** Sorted-insert @p n into its bucket by (sched_when, seq); used by
     *  scheduleDelivered, whose stamps predate the bucket tail's. */
    void bucketInsertSorted(Node *n);

    /** Place a freshly built node into the calendar or the far heap. */
    void placeNode(Node *n, bool sorted);

    /**
     * Next event in (when, seq) order, or nullptr. Does not advance the
     * window; a far-heap node is returned in place and migrated only
     * when actually executed, so a peek that ends in LimitHit leaves
     * the calendar able to accept events at any cycle >= now().
     */
    Node *peekNext();

    /** Unlink @p n (the current peekNext()), advance time, fire it. */
    void execNode(Node *n);

    /** fireSamples() with a sampler armed. */
    void fireBoundaries(Cycle when);

    Totals ownTotals() const { return {now_, executed_, progress_, size_}; }

    [[noreturn]] void throwTimeout(const Totals &t) const;
    [[noreturn]] void throwStall(Cycle limit, const Totals &t);

    /**
     * Shared stall-raising tail: append the totals @p t and the machine
     * dump to @p why, build the wait-for graph from the registered
     * reporters, and throw FabricDeadlock (cycle found) or SimStall.
     */
    [[noreturn]] void raiseStall(std::string why, const Totals &t);

    // Calendar state.
    std::vector<Bucket> buckets_;  //!< lazily sized to kWindow
    uint64_t occ_[kOccWords] = {}; //!< bucket-occupancy bitmap
    Cycle base_ = 0;               //!< window start, multiple of kWindow
    size_t scan_pos_ = 0;          //!< window-relative drain cursor
    size_t in_window_ = 0;         //!< events resident in buckets
    std::vector<Node *> far_;      //!< binary heap of far-future events
    size_t size_ = 0;              //!< total pending events

    // Slab allocator: raw chunks threaded into a freelist.
    std::vector<std::unique_ptr<std::byte[]>> slabs_;
    std::byte *free_ = nullptr;

    Cycle now_ = 0;
    Cycle cur_sched_when_ = 0; //!< sched_when of the executing node
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;

    // Watchdog state: a stall is declared when the guard sees the window
    // crossed (in cycles, or in events for same-cycle livelocks) with
    // progress unchanged since the last watermark.
    Cycle watchdog_window_ = 0;
    std::function<std::string()> dump_machine_state_;
    uint64_t progress_ = 0;
    uint64_t watch_progress_ = 0;
    Cycle watch_cycle_ = 0;
    uint64_t watch_executed_ = 0;

    // Sampling state: next_sample_ is the next unfired window boundary.
    Cycle sample_period_ = 0;
    Cycle next_sample_ = 0;
    std::function<void(Cycle)> sample_hook_;

    // Deadlock-diagnosis reporters (cold path only).
    std::vector<std::function<void(WaitGraph &)>> wait_reporters_;

    // Wall-clock deadline state.
    bool deadline_armed_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    double wall_timeout_s_ = 0.0;
};

} // namespace mcmgpu

#endif // MCMGPU_COMMON_EVENT_QUEUE_HH
