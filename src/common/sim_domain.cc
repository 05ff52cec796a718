#include "common/sim_domain.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/rng.hh"

namespace mcmgpu {

SimDomain::SimDomain(uint32_t id)
    : id_(id), rng_state_(splitmix64(0x9e3779b97f4a7c15ull ^ (id + 1)))
{
}

uint64_t
SimDomain::rngNext()
{
    rng_state_ = splitmix64(rng_state_);
    return rng_state_;
}

void
SimDomain::drainInbox()
{
    for (Delivery &d : inbox_)
        eq_.scheduleDelivered(d.when, d.sched, std::move(d.fn));
    inbox_.clear();
}

SimEngine::SimEngine()
{
    domains_.push_back(std::make_unique<SimDomain>(0));
}

SimEngine::~SimEngine()
{
    stopWorkers();
}

void
SimEngine::activateParallel(uint32_t num_domains, uint32_t threads,
                            Cycle lookahead)
{
    panic_if(parallel(), "SimEngine already parallel");
    panic_if(num_domains < 2, "parallel engine needs >= 2 domains");
    panic_if(lookahead < 2, "parallel engine needs lookahead >= 2");
    panic_if(!queue(0).empty() || queue(0).now() != 0,
             "activateParallel after events were scheduled");
    for (uint32_t d = 1; d < num_domains; ++d)
        domains_.push_back(std::make_unique<SimDomain>(d));
    lookahead_ = lookahead;
    threads_ = std::max<uint32_t>(1, std::min(threads, num_domains));
    startWorkers();
}

void
SimEngine::deactivateParallel()
{
    if (!parallel())
        return;
    for (auto &d : domains_) {
        panic_if(!d->queue().empty() || d->queue().now() != 0 ||
                     !d->inbox_.empty(),
                 "deactivateParallel after events were scheduled");
    }
    stopWorkers();
    shutdown_ = false;
    domains_.resize(1);
    lookahead_ = 0;
    threads_ = 1;
    // Hand engine-held services back to the serial queue so anything
    // armed before the downgrade keeps its effect.
    if (deadline_armed_) {
        deadline_armed_ = false;
        queue(0).setWallDeadline(wall_timeout_s_);
    }
    if (sample_period_ != 0) {
        queue(0).setSampleHook(sample_period_, std::move(sample_hook_));
        sample_period_ = 0;
        sample_hook_ = nullptr;
    }
    watchdog_window_ = 0;
    sequencer_hook_ = nullptr;
}

Cycle
SimEngine::now() const
{
    if (!parallel())
        return queue(0).now();
    Cycle t = 0;
    for (const auto &d : domains_)
        t = std::max(t, d->queue().now());
    return t;
}

uint64_t
SimEngine::executed() const
{
    uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->queue().executed();
    return n;
}

size_t
SimEngine::pending() const
{
    size_t n = 0;
    for (const auto &d : domains_)
        n += d->queue().size() + d->inbox_.size();
    return n;
}

uint64_t
SimEngine::progressMarks() const
{
    uint64_t n = 0;
    for (const auto &d : domains_)
        n += d->queue().progressMarks();
    return n;
}

void
SimEngine::setWatchdog(Cycle window_cycles,
                       std::function<std::string()> dump_machine_state)
{
    if (!parallel()) {
        queue(0).setWatchdog(window_cycles, std::move(dump_machine_state));
        return;
    }
    watchdog_window_ = window_cycles;
    // Queue 0 keeps the machine dump (raiseStallExternal routes through
    // it) but its own per-event watchdog stays disarmed.
    queue(0).setWatchdog(0, std::move(dump_machine_state));
}

void
SimEngine::setWallDeadline(double seconds)
{
    if (!parallel()) {
        queue(0).setWallDeadline(seconds);
        return;
    }
    deadline_armed_ = seconds > 0.0;
    wall_timeout_s_ = deadline_armed_ ? seconds : 0.0;
    if (deadline_armed_) {
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
    }
}

void
SimEngine::setSampleHook(Cycle period, std::function<void(Cycle)> hook)
{
    if (!parallel()) {
        queue(0).setSampleHook(period, std::move(hook));
        return;
    }
    sample_period_ = hook ? period : 0;
    sample_hook_ = std::move(hook);
    next_sample_ =
        sample_period_ ? (now() / sample_period_ + 1) * sample_period_ : 0;
}

void
SimEngine::deliver(uint32_t dom, Cycle when, Cycle sched, EventFn fn)
{
    domains_[dom]->inbox_.push_back({when, sched, std::move(fn)});
}

void
SimEngine::drainInboxes()
{
    for (auto &d : domains_)
        d->drainInbox();
}

void
SimEngine::diagnoseWedge(const std::string &why)
{
    queue(0).diagnoseWedge(why);
}

SimEngine::Outcome
SimEngine::run(Cycle limit)
{
    if (!parallel())
        return queue(0).run(limit);
    return runParallel(limit);
}

void
SimEngine::fireBoundariesUpTo(Cycle when)
{
    if (sample_period_ == 0)
        return;
    while (next_sample_ <= when) {
        sample_hook_(next_sample_);
        next_sample_ += sample_period_;
    }
}

bool
SimEngine::globalNext(Cycle &when, Cycle &sched) const
{
    bool found = false;
    auto consider = [&](Cycle w, Cycle s) {
        if (!found || w < when || (w == when && s < sched)) {
            when = w;
            sched = s;
            found = true;
        }
    };
    for (const auto &d : domains_) {
        Cycle w, s;
        // peekTimes only moves the queue's internal drain cursor.
        if (d->queue().peekTimes(w, s))
            consider(w, s);
        for (const SimDomain::Delivery &e : d->inbox_)
            consider(e.when, e.sched);
    }
    return found;
}

SimEngine::Outcome
SimEngine::runParallel(Cycle limit)
{
    // Rebase the watchdog watermark exactly like EventQueue::run().
    watch_progress_ = progressMarks();
    watch_cycle_ = now();
    watch_executed_ = executed();

    const Cycle cap = limit == kCycleMax ? kCycleMax : limit + 1;
    for (;;) {
        Cycle next, next_sched;
        if (!globalNext(next, next_sched)) {
            fireBoundariesUpTo(now());
            return Outcome::Drained;
        }
        if (next > limit) {
            // Leave the queues as an immediate delivery would have: the
            // caller may schedule more work before it resumes.
            drainInboxes();
            fireBoundariesUpTo(now());
            return Outcome::LimitHit;
        }

        // A boundary fires exactly when some executed event lies at or
        // past it — the same set the serial loop fires. Boundaries at
        // or before the next event fire here; ones a window runs across
        // fire at the following barrier (the engine never narrows a
        // window for sampling: observability stays passive, so the
        // observed run matches the unobserved one cycle for cycle).
        fireBoundariesUpTo(next);

        if (deadline_armed_ &&
            std::chrono::steady_clock::now() >= deadline_) {
            drainInboxes();
            throw SimTimeout(log_detail::concat(
                "SimTimeout: wall-clock budget of ", wall_timeout_s_,
                " s exhausted at cycle ", now(), " (", executed(),
                " events executed, queue depth ", pending(), ")"));
        }

        if (watchdog_window_ != 0) {
            const uint64_t progress = progressMarks();
            const uint64_t execed = executed();
            if (progress != watch_progress_) {
                watch_progress_ = progress;
                watch_cycle_ = next;
                watch_executed_ = execed;
            } else if (next - watch_cycle_ > watchdog_window_ ||
                       execed - watch_executed_ > watchdog_window_) {
                drainInboxes();
                queue(0).raiseStallExternal(log_detail::concat(
                    "watchdog: no progress for ", next - watch_cycle_,
                    " cycles / ", execed - watch_executed_,
                    " events (limit ", limit, ")"));
            }
        }

        // The cap exceeds `next` here, so the window always admits at
        // least the next event.
        const Cycle end =
            std::min(next > kCycleMax - lookahead_ ? kCycleMax
                                                   : next + lookahead_,
                     cap);
        executeWindow(end);
        if (sequencer_hook_)
            sequencer_hook_();
    }
}

void
SimEngine::executeWindow(Cycle end)
{
    if (workers_.empty()) {
        runShare(0, end);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(pool_mutex_);
        round_end_ = end;
        round_remaining_ = threads_;
        ++round_;
    }
    pool_start_.notify_all();

    try {
        runShare(0, end);
    } catch (...) {
        worker_errors_[0] = std::current_exception();
    }

    {
        std::unique_lock<std::mutex> lk(pool_mutex_);
        if (--round_remaining_ != 0)
            pool_done_.wait(lk, [&] { return round_remaining_ == 0; });
    }

    for (std::exception_ptr &err : worker_errors_) {
        if (err) {
            std::exception_ptr e = err;
            for (std::exception_ptr &other : worker_errors_)
                other = nullptr;
            std::rethrow_exception(e);
        }
    }
}

void
SimEngine::runShare(uint32_t slot, Cycle end)
{
    for (uint32_t d = slot; d < domains_.size(); d += threads_) {
        domains_[d]->drainInbox();
        domains_[d]->queue().runWindow(end);
    }
}

void
SimEngine::workerLoop(uint32_t slot)
{
    uint64_t seen = 0;
    for (;;) {
        Cycle end;
        {
            std::unique_lock<std::mutex> lk(pool_mutex_);
            pool_start_.wait(lk,
                             [&] { return shutdown_ || round_ != seen; });
            if (shutdown_)
                return;
            seen = round_;
            end = round_end_;
        }
        try {
            runShare(slot, end);
        } catch (...) {
            worker_errors_[slot] = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lk(pool_mutex_);
            if (--round_remaining_ == 0)
                pool_done_.notify_all();
        }
    }
}

void
SimEngine::startWorkers()
{
    if (threads_ < 2)
        return;
    worker_errors_.assign(threads_, nullptr);
    workers_.reserve(threads_ - 1);
    for (uint32_t slot = 1; slot < threads_; ++slot)
        workers_.emplace_back([this, slot] { workerLoop(slot); });
}

void
SimEngine::stopWorkers()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lk(pool_mutex_);
        shutdown_ = true;
    }
    pool_start_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

} // namespace mcmgpu
