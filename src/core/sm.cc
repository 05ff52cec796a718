#include "core/sm.hh"

#include <utility>

#include "common/log.hh"

namespace mcmgpu {

Sm::Sm(SmId id, ModuleId module, const GpuConfig &cfg, SmContext &ctx,
       EventQueue &eq)
    : id_(id),
      module_(module),
      ctx_(ctx),
      eq_(eq),
      l1_(cfg.l1, "sm" + std::to_string(id) + ".l1", /*write_back=*/false),
      max_warps_(cfg.max_warps_per_sm),
      max_ctas_(cfg.max_ctas_per_sm),
      issue_width_(cfg.sm_issue_width),
      stats_("sm" + std::to_string(id)),
      warp_insts_(stats_.add("warp_insts", "warp instructions executed")),
      mem_ops_(stats_.add("mem_ops", "memory operations issued")),
      store_ops_(stats_.add("store_ops", "store operations issued")),
      ctas_run_(stats_.add("ctas_run", "CTAs executed to completion")),
      mem_stall_cycles_(stats_.add("mem_stall_cycles",
                                   "cycles warps waited on a full "
                                   "memory scoreboard"))
{
    panic_if(issue_width_ == 0, "SM issue width must be positive");
    max_outstanding_ = cfg.max_outstanding_per_warp;
    if (max_outstanding_ == 0)
        max_outstanding_ = 1;
    fatal_if(max_outstanding_ > 8,
             "max_outstanding_per_warp is capped at 8 (scoreboard "
             "ring-buffer size)");
}

bool
Sm::canAccept(const KernelDesc &kernel) const
{
    return resident_ctas_ < max_ctas_ &&
           resident_warps_ + kernel.warps_per_cta <= max_warps_;
}

void
Sm::launchCta(const KernelDesc &kernel, CtaId cta, Cycle now)
{
    panic_if(!canAccept(kernel), "sm", id_, ": CTA launched without a slot");
    panic_if(!kernel.spec && !kernel.make_trace, "kernel '", kernel.name,
             "' has neither a pattern spec nor a trace factory");

    ++resident_ctas_;
    resident_warps_ += kernel.warps_per_cta;
    warps_left_[cta] = kernel.warps_per_cta;

    for (WarpId wid = 0; wid < kernel.warps_per_cta; ++wid) {
        uint32_t w;
        if (free_slots_.empty()) {
            if (warps_.empty())
                warps_.reserve(max_warps_);
            w = static_cast<uint32_t>(warps_.size());
            warps_.emplace_back();
        } else {
            w = free_slots_.back();
            free_slots_.pop_back();
        }
        WarpRun &warp = warps_[w];
        if (kernel.spec)
            warp.trace.emplace<workloads::PatternTrace>(kernel.spec, cta, wid);
        else
            warp.trace = kernel.make_trace(cta, wid);
        warp.cta = cta;
        eq_.schedule(now, [this, w] { stepWarp(w); });
    }
}

void
Sm::stepWarp(uint32_t w)
{
    const Cycle now = eq_.now();
    WarpRun &warp = warps_[w];

    WarpOp op;
    Cycle issued;
    if (warp.has_replay) {
        // Resuming from a park: the instruction already went through
        // fetch/issue accounting, only its memory access replays. The
        // cycles between the original issue and the wake-up are the
        // back-pressure stall.
        warp.has_replay = false;
        op = warp.replay_op;
        issued = std::max(warp.replay_issued, now);
        if (issued > warp.replay_issued)
            mem_stall_cycles_ += issued - warp.replay_issued;
    } else {
        if (!warp.next(op)) {
            // Drain the scoreboard before retiring: outstanding loads
            // and posted stores must land inside the kernel's lifetime.
            Cycle drain = now;
            bool pending = false;
            for (Cycle c : warp.inflight) {
                if (c == kOpPending)
                    pending = true;
                else
                    drain = std::max(drain, c);
            }
            if (pending) {
                // Staged model: some completion times are not known
                // yet. Park; memDone() re-runs this drain check.
                warp.drain_parked = true;
            } else if (drain > now) {
                warp.inflight.fill(0);
                eq_.schedule(drain, [this, w] { stepWarp(w); });
            } else {
                // Free the slot before the CTA can finish: a refill of
                // this SM may reuse (or grow past) it.
                const CtaId cta = warp.cta;
                warp = WarpRun{};
                free_slots_.push_back(w);
                warpRetired(cta);
            }
            return;
        }
        ++warp_insts_;
        // Forward progress for the simulation watchdog: as long as some
        // warp keeps executing instructions, the machine is not stalled.
        eq_.noteProgress();

        // The warp's compute segment occupies the shared issue pipeline;
        // a trailing memory instruction takes one extra issue slot.
        Cycle occupancy =
            (op.compute_cycles + issue_width_ - 1) / issue_width_ +
            (op.has_mem ? 1 : 0);
        if (occupancy == 0)
            occupancy = 1;

        Cycle start = std::max(now, issue_free_);
        issued = start + occupancy;
        issue_free_ = issued;
    }

    Cycle ready = issued;
    if (op.has_mem) {
        // Scoreboarded in-order execution: the warp keeps issuing past
        // outstanding memory ops and stalls only when it would exceed
        // its scoreboard depth — i.e. it waits for the op issued
        // max_outstanding_per_warp instructions ago.
        const uint32_t slot = warp.inflight_idx;
        const Cycle prev = warp.inflight[slot];
        if (prev == kOpPending) {
            // That op has not even completed yet (staged model): park
            // until its completion wakes us, then replay this access.
            warp.replay_op = op;
            warp.replay_issued = issued;
            warp.park_slot = slot;
            warp.has_replay = true;
            return;
        }
        ++mem_ops_;
        if (++warp.inflight_idx == max_outstanding_)
            warp.inflight_idx = 0;
        ready = std::max(issued, prev);
        if (ready > issued)
            mem_stall_cycles_ += ready - issued;
        warp.inflight[slot] = kOpPending;

        // The continuation finds the warp by its slot index, not by a
        // reference: under staged it runs after later launches may
        // have grown the slot array.
        auto done = [this, w, slot](const MemTxn &txn, Cycle at) {
            memDone(w, slot, txn, at);
        };
        if (op.is_store) {
            ++store_ops_;
            // Write-through, no write-allocate: update the L1 copy if
            // present, then post the store downstream; the scoreboard
            // slot tracks its acceptance (finite store-buffer model).
            l1_.lookup(op.addr, true, issued);
            ctx_.memAccess(module_, op.addr, op.bytes, true, issued, done);
        } else {
            CacheLookup res = l1_.lookup(op.addr, false, issued);
            switch (res.outcome) {
              case CacheOutcome::Hit:
                warp.inflight[slot] = issued + l1_.hitLatency();
                break;
              case CacheOutcome::HitPending:
                warp.inflight[slot] = std::max(res.ready, issued);
                break;
              case CacheOutcome::Miss:
                ctx_.memAccess(module_, op.addr, l1_.lineBytes(), false,
                               issued, done);
                break;
            }
        }
    }

    eq_.schedule(ready, [this, w] { stepWarp(w); });
}

void
Sm::memDone(uint32_t w, uint32_t slot, const MemTxn &txn, Cycle done)
{
    // Loads install the returned line; the fill is timed at arrival so
    // accesses racing it observe the in-flight latency.
    if (!txn.is_store)
        l1_.fill(txn.addr, false, done);
    WarpRun &warp = warps_[w];
    warp.inflight[slot] = done;

    // Wake a warp parked on this completion (staged model only; under
    // chain this continuation runs inside memAccess and no park exists).
    if ((warp.has_replay && warp.park_slot == slot) || warp.drain_parked) {
        warp.drain_parked = false;
        const Cycle wake = std::max(done, eq_.now());
        eq_.schedule(wake, [this, w] { stepWarp(w); });
    }
}

void
Sm::warpRetired(CtaId cta)
{
    auto it = warps_left_.find(cta);
    panic_if(it == warps_left_.end(), "sm", id_,
             ": retired warp of unknown CTA ", cta);
    panic_if(resident_warps_ == 0, "sm", id_, ": warp underflow");
    --resident_warps_;
    if (--it->second == 0) {
        warps_left_.erase(it);
        panic_if(resident_ctas_ == 0, "sm", id_, ": CTA underflow");
        --resident_ctas_;
        ++ctas_run_;
        ctx_.ctaFinished(id_);
    }
}

} // namespace mcmgpu
