#include "common/sim_domain.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcmgpu {

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

EventQueue::Totals
SimEngine::totals() const
{
    EventQueue::Totals t{0, 0, 0, 0};
    for (const auto &d : domains_) {
        const EventQueue &q = d->queue();
        t.now = std::max(t.now, q.now());
        t.executed += q.executed();
        t.progress += q.progressMarks();
        t.pending += q.size() + d->inbox_.size();
    }
    return t;
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

SimEngine::Outcome
SimEngine::run(Cycle limit)
{
    if (!parallel())
        return queue(0).run(limit);
    return runParallel(limit);
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
    EventQueue &q0 = queue(0); // holds the guard
    q0.guardRebase(totals());

    const Cycle cap = limit == kCycleMax ? kCycleMax : limit + 1;
    for (;;) {
        Cycle next, next_sched;
        if (!globalNext(next, next_sched)) {
            q0.fireSamples(now());
            return Outcome::Drained;
        }
        if (next > limit) {
            // Leave the queues as an immediate delivery would have: the
            // caller may schedule more work before it resumes.
            drainInboxes();
            q0.fireSamples(now());
            return Outcome::LimitHit;
        }

        // A boundary fires exactly when some executed event lies at or
        // past it — the same set the serial loop fires. Boundaries at
        // or before the next event fire here; ones a window runs across
        // fire at the following barrier (the engine never narrows a
        // window for sampling: observability stays passive, so the
        // observed run matches the unobserved one cycle for cycle).
        try {
            q0.guard(next, limit, totals(), true);
        } catch (...) {
            drainInboxes(); // an aborted run leaves no entry undelivered
            throw;
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
