#include "common/event_queue.hh"

#include <algorithm>
#include <bit>
#include <new>
#include <sstream>

#include "common/log.hh"
#include "common/wait_graph.hh"

namespace mcmgpu {

EventQueue::~EventQueue()
{
    destroyAllNodes();
}

void
EventQueue::growSlab()
{
    auto chunk = std::make_unique<std::byte[]>(kSlabNodes * sizeof(Node));
    std::byte *base = chunk.get();
    // Thread every slot onto the freelist; slots store the next-free
    // pointer in their first bytes while unused.
    for (size_t i = 0; i < kSlabNodes; ++i) {
        std::byte *slot = base + i * sizeof(Node);
        *reinterpret_cast<std::byte **>(slot) = free_;
        free_ = slot;
    }
    slabs_.push_back(std::move(chunk));
}

EventQueue::Node *
EventQueue::allocNode()
{
    if (free_ == nullptr)
        growSlab();
    std::byte *slot = free_;
    free_ = *reinterpret_cast<std::byte **>(slot);
    return reinterpret_cast<Node *>(slot);
}

void
EventQueue::freeNode(Node *n)
{
    n->~Node();
    std::byte *slot = reinterpret_cast<std::byte *>(n);
    *reinterpret_cast<std::byte **>(slot) = free_;
    free_ = slot;
}

void
EventQueue::bucketAppend(Node *n)
{
    const size_t pos = static_cast<size_t>(n->when - base_);
    Bucket &b = buckets_[pos];
    n->next = nullptr;
    if (b.tail)
        b.tail->next = n;
    else
        b.head = n;
    b.tail = n;
    occ_[pos >> 6] |= uint64_t(1) << (pos & 63);
    ++in_window_;
}

void
EventQueue::bucketInsertSorted(Node *n)
{
    const size_t pos = static_cast<size_t>(n->when - base_);
    Bucket &b = buckets_[pos];
    // Find the first entry that must run after n. Appends keep buckets
    // sorted by (sched_when, seq) because schedule() stamps sched_when
    // = now_, which is monotone over a drain; deliveries insert here.
    Node *prev = nullptr;
    Node *cur = b.head;
    while (cur != nullptr &&
           (cur->sched_when < n->sched_when ||
            (cur->sched_when == n->sched_when && cur->seq < n->seq))) {
        prev = cur;
        cur = cur->next;
    }
    n->next = cur;
    if (prev)
        prev->next = n;
    else
        b.head = n;
    if (cur == nullptr)
        b.tail = n;
    occ_[pos >> 6] |= uint64_t(1) << (pos & 63);
    ++in_window_;
}

void
EventQueue::placeNode(Node *n, bool sorted)
{
    ++size_;
    // base_ tracks executed time (it only advances in execNode), so
    // when >= now_ >= base_ always holds and the window test is a
    // single compare.
    if (n->when - base_ < kWindow) {
        // A barrier delivery may target a cycle past now_ but below the
        // drain cursor (the cursor advanced to this queue's next local
        // event when the window drained); rewind it so the insert stays
        // visible. Events of a drain schedule at when >= now_, whose
        // bucket is never below the cursor, so this is serially inert.
        const size_t pos = static_cast<size_t>(n->when - base_);
        if (pos < scan_pos_)
            scan_pos_ = pos;
        if (sorted)
            bucketInsertSorted(n);
        else
            bucketAppend(n);
    } else {
        far_.push_back(n);
        std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
}

void
EventQueue::schedule(Cycle when, EventFn fn)
{
    panic_if(when < now_, "scheduling event in the past: when=", when,
             " now=", now_);
    if (buckets_.empty())
        buckets_.resize(kWindow);

    Node *n = allocNode();
    ::new (n) Node{when, now_, next_seq_++, nullptr, std::move(fn)};
    placeNode(n, false);
}

void
EventQueue::scheduleDelivered(Cycle when, Cycle sched_when, EventFn fn)
{
    panic_if(when < now_, "delivering event in the past: when=", when,
             " now=", now_);
    panic_if(sched_when > when, "delivery sched_when=", sched_when,
             " past when=", when);
    if (buckets_.empty())
        buckets_.resize(kWindow);

    Node *n = allocNode();
    ::new (n) Node{when, sched_when, next_seq_++, nullptr, std::move(fn)};
    placeNode(n, true);
}

EventQueue::Node *
EventQueue::peekNext()
{
    if (in_window_ != 0) {
        // First occupied bucket at or past the drain cursor. Events
        // execute in time order and schedule() cannot target the past,
        // so no bucket below scan_pos_ is ever occupied.
        size_t w = scan_pos_ >> 6;
        uint64_t word = occ_[w] & (~uint64_t(0) << (scan_pos_ & 63));
        while (word == 0)
            word = occ_[++w];
        const size_t pos = (w << 6) + std::countr_zero(word);
        scan_pos_ = pos;
        return buckets_[pos].head;
    }
    // Calendar drained: the far heap's top is globally next (every far
    // event lies beyond every calendar event by construction).
    return far_.empty() ? nullptr : far_.front();
}

void
EventQueue::execNode(Node *n)
{
    const Cycle when = n->when;
    if (in_window_ != 0) {
        // n is the head of the bucket scan_pos_ points at.
        Bucket &b = buckets_[scan_pos_];
        b.head = n->next;
        if (b.head == nullptr) {
            b.tail = nullptr;
            occ_[scan_pos_ >> 6] &= ~(uint64_t(1) << (scan_pos_ & 63));
        }
        --in_window_;
    } else {
        // n is the far-heap top: advance the window to its cycle and
        // migrate everything that now fits. Popping migrates in
        // (when, seq) order, so per-bucket FIFOs stay seq-sorted.
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        far_.pop_back();
        base_ = when & ~Cycle(kWindow - 1);
        scan_pos_ = static_cast<size_t>(when - base_);
        while (!far_.empty() && far_.front()->when - base_ < kWindow) {
            std::pop_heap(far_.begin(), far_.end(), FarLater{});
            Node *m = far_.back();
            far_.pop_back();
            bucketAppend(m);
        }
    }
    --size_;
    now_ = when;
    cur_sched_when_ = n->sched_when;
    ++executed_;
    EventFn fn = std::move(n->fn);
    freeNode(n);
    fn();
}

uint64_t
EventQueue::runWindow(Cycle end_exclusive)
{
    uint64_t ran = 0;
    while (Node *n = peekNext()) {
        if (n->when >= end_exclusive)
            break;
        execNode(n);
        ++ran;
    }
    return ran;
}

bool
EventQueue::execOne()
{
    Node *n = peekNext();
    if (n == nullptr)
        return false;
    execNode(n);
    return true;
}

bool
EventQueue::peekTimes(Cycle &when, Cycle &sched_when)
{
    Node *n = peekNext();
    if (n == nullptr)
        return false;
    when = n->when;
    sched_when = n->sched_when;
    return true;
}

void
EventQueue::fireBoundaries(Cycle when)
{
    // The event about to execute advances time to `when`; every window
    // boundary at or before that point is crossed, so snapshot each one
    // before the event mutates any state.
    while (next_sample_ <= when) {
        sample_hook_(next_sample_);
        next_sample_ += sample_period_;
    }
}

bool
EventQueue::step()
{
    Node *n = peekNext();
    if (n == nullptr)
        return false;
    fireSamples(n->when);
    execNode(n);
    return true;
}

EventQueue::Outcome
EventQueue::run(Cycle limit)
{
    guardRebase(ownTotals());
    while (Node *n = peekNext()) {
        if (n->when > limit)
            return Outcome::LimitHit;
        guard(n->when, limit, ownTotals(), (executed_ & 0xFFF) == 0);
        execNode(n);
    }
    return Outcome::Drained;
}

void
EventQueue::throwTimeout(const Totals &t) const
{
    throw SimTimeout(log_detail::concat(
        "SimTimeout: wall-clock budget of ", wall_timeout_s_,
        " s exhausted at cycle ", t.now, " (", t.executed,
        " events executed, queue depth ", t.pending, ")"));
}

void
EventQueue::throwStall(Cycle limit, const Totals &t)
{
    std::ostringstream why;
    why << "watchdog: no progress for " << (t.now - watch_cycle_)
        << " cycles / " << (t.executed - watch_executed_) << " events"
        << " (limit " << limit << ")";
    raiseStall(why.str(), t);
}

void
EventQueue::raiseStall(std::string why, const Totals &t)
{
    std::ostringstream diag;
    diag << why << '\n'
         << "  now " << t.now << ", queue depth " << t.pending
         << ", events executed " << t.executed << ", progress marks "
         << t.progress << '\n';
    if (dump_machine_state_)
        diag << dump_machine_state_();

    // Assemble the wait-for graph from every registered reporter. A
    // closed hold-and-wait cycle upgrades the generic stall to a typed
    // FabricDeadlock naming the resources involved.
    WaitGraph wg;
    for (const auto &reporter : wait_reporters_)
        reporter(wg);
    std::string cycle_names;
    if (!wg.empty()) {
        diag << wg.render();
        const std::vector<std::string> cycle = wg.findCycle();
        for (size_t i = 0; i < cycle.size(); ++i) {
            if (i)
                cycle_names += " -> ";
            cycle_names += cycle[i];
        }
    }

    std::string d = diag.str();
    if (!cycle_names.empty()) {
        warn("fabric deadlock:\n", d);
        throw FabricDeadlock(
            log_detail::concat("FabricDeadlock: resource cycle ",
                               cycle_names, " (queue depth ", t.pending,
                               " at cycle ", t.now, ")"),
            std::move(d), std::move(cycle_names));
    }
    warn("simulation stalled:\n", d);
    throw SimStall(
        log_detail::concat("SimStall: ", why, " (queue depth ", t.pending,
                           " at cycle ", t.now, ")"),
        std::move(d));
}

void
EventQueue::diagnoseWedge(const std::string &why, const Totals &t)
{
    raiseStall(log_detail::concat("wedged: ", why), t);
}

void
EventQueue::addWaitReporter(std::function<void(WaitGraph &)> reporter)
{
    wait_reporters_.push_back(std::move(reporter));
}

void
EventQueue::setWallDeadline(double seconds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double> budget(seconds);
    // Arm only a budget the clock can represent from now: a longer one
    // (about 292 years of nanoseconds, or infinity) never fires, and
    // casting it would wrap to a deadline in the past. The first bound
    // keeps the cast in range.
    deadline_armed_ = seconds > 0.0 && budget < Clock::duration::max() &&
                      std::chrono::duration_cast<Clock::duration>(budget) <
                          Clock::time_point::max() - now;
    wall_timeout_s_ = deadline_armed_ ? seconds : 0.0;
    if (deadline_armed_)
        deadline_ = now + std::chrono::duration_cast<Clock::duration>(budget);
}

void
EventQueue::setWatchdog(Cycle window_cycles,
                        std::function<std::string()> dump_machine_state)
{
    watchdog_window_ = window_cycles;
    dump_machine_state_ = std::move(dump_machine_state);
}

void
EventQueue::setSampleHook(Cycle period, std::function<void(Cycle)> hook)
{
    sample_period_ = hook ? period : 0;
    sample_hook_ = std::move(hook);
    // First boundary: the lowest multiple of the period strictly ahead
    // of current simulated time.
    next_sample_ = sample_period_ ? (now_ / sample_period_ + 1) * sample_period_
                                  : 0;
}

void
EventQueue::destroyAllNodes()
{
    if (in_window_ != 0) {
        for (size_t w = 0; w < kOccWords; ++w) {
            uint64_t word = occ_[w];
            while (word != 0) {
                const size_t pos =
                    (w << 6) + static_cast<size_t>(std::countr_zero(word));
                word &= word - 1;
                Node *n = buckets_[pos].head;
                while (n != nullptr) {
                    Node *next = n->next;
                    freeNode(n);
                    n = next;
                }
                buckets_[pos] = Bucket{};
            }
            occ_[w] = 0;
        }
        in_window_ = 0;
    }
    for (Node *n : far_)
        freeNode(n);
    far_.clear();
    size_ = 0;
}

void
EventQueue::reset()
{
    destroyAllNodes();
    base_ = 0;
    scan_pos_ = 0;
    now_ = 0;
    cur_sched_when_ = 0;
    next_seq_ = 0;
    executed_ = 0;
    progress_ = 0;
    watch_progress_ = 0;
    watch_cycle_ = 0;
    watch_executed_ = 0;
    next_sample_ = sample_period_;
}

} // namespace mcmgpu
