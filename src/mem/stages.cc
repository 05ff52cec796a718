#include "mem/stages.hh"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "common/log.hh"
#include "common/sim_domain.hh"
#include "common/wait_graph.hh"
#include "obs/recorder.hh"

namespace mcmgpu {

// --------------------------------------------------------------- L15Stage

TxnPhase
L15Stage::service(MemTxn &txn)
{
    Cache &l15 = *l15_[txn.src];
    const bool wants =
        l15.enabled() && (cfg_.l15_alloc == L15Alloc::All ||
                          (cfg_.l15_alloc == L15Alloc::RemoteOnly &&
                           txn.remote));

    if (wants && !txn.is_store) {
        CacheLookup res = l15.lookup(txn.addr, false, txn.t);
        if (res.outcome == CacheOutcome::Hit) {
            txn.t += l15.hitLatency();
            return TxnPhase::Complete;
        }
        if (res.outcome == CacheOutcome::HitPending) {
            txn.t = std::max(res.ready, txn.t + l15.hitLatency());
            return TxnPhase::Complete;
        }
        // Miss: the serial tag check delays the request before it can
        // head for the fabric — the added latency that makes the L1.5
        // a net loss for low-reuse, latency-bound applications (the
        // paper's DWT/NN regressions, section 5.4).
        txn.t += cfg_.l15_miss_penalty;
        txn.l15_fill = true;
        return TxnPhase::FabReq;
    }
    if (wants) {
        // Store on a caching L1.5: write-through, no write-allocate —
        // keep a present line coherent but do not wait and do not
        // allocate.
        l15.lookup(txn.addr, true, txn.t);
    }
    return TxnPhase::FabReq;
}

// ------------------------------------------------------------ FabricStage

TxnPhase
FabricStage::service(MemTxn &txn)
{
    if (txn.phase == TxnPhase::FabReq) {
        if (txn.remote)
            txn.t = hop(txn.src, txn.home_module, requestBytes(txn), txn.t);
        return TxnPhase::L2Lookup;
    }
    // FabResp: loads only — stores are posted and complete at the home.
    if (txn.remote)
        txn.t = hop(txn.home_module, txn.src, responseBytes(txn), txn.t);
    return TxnPhase::Complete;
}

Cycle
FabricStage::hop(ModuleId from, ModuleId to, uint32_t bytes, Cycle t)
{
    const FabricTransfer tr = fabric_.send(from, to, bytes, t);
    // Routes that cross an inter-package link price at board energy;
    // single-tier fabrics report board = false and the machine-wide
    // link domain applies as before.
    energy_.account(tr.board ? Domain::Board : link_domain_, bytes);
    return tr.arrival;
}

void
FabricStage::configureVcs(uint32_t modules, uint32_t vcs, uint32_t credits)
{
    modules_ = modules;
    vcs_ = vcs;
    credits_ = credits;
    num_slots_ = vcs >= 2 ? 2 : 1;
    if (vcs_ > 0)
        pools_.assign(static_cast<size_t>(modules) * modules * num_slots_,
                      VcPool{});
}

bool
FabricStage::tryAcquire(ModuleId src, ModuleId dst, bool response)
{
    VcPool &p = pools_[poolIndex(src, dst, response)];
    if (p.in_use >= credits_)
        return false;
    ++p.in_use;
    ++in_use_now_[vcSlot(response)];
    return true;
}

void
FabricStage::park(ModuleId src, ModuleId dst, bool response, MemTxn &txn)
{
    VcPool &p = pools_[poolIndex(src, dst, response)];
    txn.next = nullptr;
    if (p.tail != nullptr)
        p.tail->next = &txn;
    else
        p.head = &txn;
    p.tail = &txn;
    ++p.parked;
    ++parked_now_[vcSlot(response)];
}

MemTxn *
FabricStage::release(ModuleId src, ModuleId dst, bool response)
{
    const uint32_t slot = vcSlot(response);
    VcPool &p = pools_[poolIndex(src, dst, response)];
    --in_use_now_[slot];
    MemTxn *w = p.head;
    if (w == nullptr) {
        --p.in_use;
        return nullptr;
    }
    // Hand the credit straight to the FIFO head: p.in_use stays put,
    // the waiter now holds the slot its class was blocked on.
    p.head = w->next;
    if (p.head == nullptr)
        p.tail = nullptr;
    w->next = nullptr;
    --p.parked;
    --parked_now_[slot];
    ++in_use_now_[slot];
    if (w->phase == TxnPhase::FabReq)
        w->holds_req_credit = true;
    else
        w->holds_resp_credit = true;
    return w;
}

std::string
FabricStage::poolName(ModuleId src, ModuleId dst, bool response) const
{
    return "vc" + std::to_string(vcSlot(response)) + ":gpm" +
           std::to_string(src) + "->gpm" + std::to_string(dst);
}

void
FabricStage::reportWaits(WaitGraph &wg) const
{
    for (ModuleId s = 0; s < modules_; ++s) {
        for (ModuleId d = 0; d < modules_; ++d) {
            for (uint32_t slot = 0; slot < num_slots_; ++slot) {
                const bool response = slot == 1;
                const VcPool &p =
                    pools_[poolIndex(s, d, response)];
                if (p.parked == 0)
                    continue;
                const std::string pool = poolName(s, d, response);
                wg.note(pool, log_detail::concat(
                    p.in_use, "/", credits_, " credits in use, ",
                    p.parked, " parked, oldest txn ", p.head->id,
                    " parked since cycle ", p.head->stall_start));
                for (const MemTxn *w = p.head; w != nullptr;
                     w = w->next) {
                    std::string detail = log_detail::concat(
                        "txn ", w->id, w->is_store ? " store" : " load",
                        " gpm", w->src, "->gpm", w->home_module);
                    // Edge per resource the waiter holds; a waiter
                    // holding nothing still occupies its SM scoreboard
                    // slot, which is what the back-pressure reaches.
                    bool held = false;
                    if (w->holds_mshr) {
                        wg.edge("mshr:gpm" + std::to_string(w->src),
                                pool, detail);
                        held = true;
                    }
                    if (w->holds_req_credit) {
                        wg.edge(poolName(w->src, w->home_module, false),
                                pool, detail);
                        held = true;
                    }
                    if (!held)
                        wg.edge("sm:gpm" + std::to_string(w->src), pool,
                                std::move(detail));
                }
            }
        }
    }
}

void
FabricStage::dumpOccupancy(std::ostream &os) const
{
    os << "  fabric VCs: " << vcs_ << " (" << credits_
       << " credits per pool)\n";
    for (ModuleId s = 0; s < modules_; ++s) {
        for (ModuleId d = 0; d < modules_; ++d) {
            for (uint32_t slot = 0; slot < num_slots_; ++slot) {
                const bool response = slot == 1;
                const VcPool &p = pools_[poolIndex(s, d, response)];
                if (p.in_use == 0 && p.parked == 0)
                    continue;
                os << "    " << poolName(s, d, response) << ": "
                   << p.in_use << "/" << credits_ << " credits, "
                   << p.parked << " parked";
                if (p.head != nullptr)
                    os << " (oldest txn " << p.head->id
                       << " since cycle " << p.head->stall_start << ")";
                os << '\n';
            }
        }
    }
}

// ------------------------------------------------------------ L2HomeStage

TxnPhase
L2HomeStage::service(MemTxn &txn)
{
    Cache &l2 = *l2_[txn.home];
    const uint32_t line = l2.lineBytes();

    if (txn.phase == TxnPhase::L2Lookup) {
        // Every L2-slice access moves data on the local die.
        energy_.account(Domain::Chip, txn.bytes);

        CacheLookup res = l2.lookup(txn.addr, txn.is_store, txn.t);
        switch (res.outcome) {
          case CacheOutcome::Hit:
            txn.t += l2.hitLatency();
            return txn.is_store ? TxnPhase::Complete : TxnPhase::FabResp;

          case CacheOutcome::HitPending:
            // Merge into the in-flight fill (memory-side MSHR).
            txn.t = std::max(res.ready, txn.t + l2.hitLatency());
            return txn.is_store ? TxnPhase::Complete : TxnPhase::FabResp;

          case CacheOutcome::Miss:
            txn.t += l2.hitLatency();
            // A store covering the whole line overwrites it; nothing to
            // fetch from DRAM first.
            if (txn.is_store && txn.bytes >= line)
                return TxnPhase::L2Fill;
            return TxnPhase::DramRead;
        }
        panic("unreachable L2 outcome");
    }

    // L2Fill.
    if (l2.enabled()) {
        CacheVictim victim = l2.fill(txn.addr, txn.is_store, txn.t);
        if (victim.valid && victim.dirty) {
            // Posted writeback of the dirty victim.
            dram_[txn.home]->write(victim.line_addr, line, txn.t);
            energy_.account(Domain::Chip, line);
        }
    } else if (txn.is_store) {
        // No L2 at all: stores go straight to DRAM.
        dram_[txn.home]->write(txn.addr, txn.bytes, txn.t);
        energy_.account(Domain::Chip, txn.bytes);
    }
    return txn.is_store ? TxnPhase::Complete : TxnPhase::FabResp;
}

// -------------------------------------------------------------- DramStage

TxnPhase
DramStage::service(MemTxn &txn)
{
    // Loads and partial stores fetch the whole line.
    txn.t = dram_[txn.home]->read(txn.addr, line_bytes_, txn.t);
    energy_.account(Domain::Chip, line_bytes_);
    return TxnPhase::L2Fill;
}

// ------------------------------------------------------------ MemPipeline

MemPipeline::MemPipeline(const GpuConfig &cfg, EventQueue &eq, PageTable &pt,
                         Fabric &fabric, EnergyModel &energy,
                         Domain link_domain,
                         const std::vector<std::unique_ptr<Cache>> &l15,
                         const std::vector<std::unique_ptr<Cache>> &l2,
                         const std::vector<std::unique_ptr<DramPartition>>
                             &dram)
    : cfg_(cfg),
      eq_(eq),
      page_table_(pt),
      l15_stage_(cfg, l15),
      fabric_stage_(fabric, energy, link_domain),
      l2_stage_(l2, dram, energy),
      dram_stage_(dram, energy, cfg.l2.line_bytes),
      l15_(l15),
      staged_(cfg.mem_model == MemModel::Staged),
      remote_mshrs_(staged_ ? cfg.remote_mshrs : 0),
      vcs_(staged_ ? cfg.fabric_vcs : 0),
      stats_("mem"),
      txn_launched_(stats_.add("txn_launched",
                               "memory transactions launched")),
      txn_completed_(stats_.add("txn_completed",
                                "memory transactions completed")),
      txn_l15_hits_(stats_.add("txn_l15_hits",
                               "transactions satisfied at the L1.5")),
      txn_inflight_peak_(stats_.add("txn_inflight_peak",
                                    "peak transactions in flight")),
      txn_occupancy_cycles_(stats_.add(
          "txn_occupancy_cycles",
          "time integral of in-flight transactions (txn-cycles)")),
      txn_mshr_stalls_(stats_.add("txn_mshr_stalled",
                                  "transactions that waited for a remote "
                                  "MSHR")),
      txn_mshr_stall_cycles_(stats_.add("txn_mshr_stall_cycles",
                                        "cycles transactions spent waiting "
                                        "for a remote MSHR")),
      stage_l15_cycles_(stats_.add("txn_stage_l15_cycles",
                                   "cycles spent in the L1.5 stage")),
      stage_fab_req_cycles_(stats_.add("txn_stage_fab_req_cycles",
                                       "cycles spent in request fabric "
                                       "traversal")),
      stage_l2_cycles_(stats_.add("txn_stage_l2_cycles",
                                  "cycles spent in the home L2 slice")),
      stage_dram_cycles_(stats_.add("txn_stage_dram_cycles",
                                    "cycles spent in the home DRAM "
                                    "partition")),
      stage_fab_resp_cycles_(stats_.add("txn_stage_fab_resp_cycles",
                                        "cycles spent in response fabric "
                                        "traversal"))
{
    if (remote_mshrs_ > 0)
        mshrs_.resize(cfg_.num_modules);
    if (vcs_ > 0) {
        fabric_stage_.configureVcs(cfg_.num_modules, vcs_,
                                   cfg_.vc_credits);
        // Registered only with credit flow control on: the default
        // staged stats.json must stay byte-identical.
        txn_vc_parked_ = &stats_.add(
            "txn_vc_parked", "transactions that waited for a VC credit");
        txn_vc_park_cycles_ = &stats_.add(
            "txn_vc_park_cycles",
            "cycles transactions spent parked for a VC credit");
        txn_vc_parked_peak_ = &stats_.add(
            "txn_vc_parked_peak", "peak transactions parked across all "
            "VC pools");
    }
    if (staged_ && (vcs_ > 0 || remote_mshrs_ > 0)) {
        // Cold path only: reporters run when a stall is being declared.
        eq_.addWaitReporter([this](WaitGraph &wg) { reportWaits(wg); });
    }
}

void
MemPipeline::setRecorder(obs::Recorder *rec)
{
    rec_ = rec;
    buildShardHistograms();
}

void
MemPipeline::enableDomains(SimEngine &engine)
{
    panic_if(!staged_, "domain mode requires the staged memory model");
    panic_if(vcs_ > 0, "domain mode requires fabric_vcs == 0");
    panic_if(!engine.parallel(), "enableDomains on a serial engine");
    panic_if(engine.numDomains() != cfg_.num_modules,
             "domain mode needs one domain per module");
    engine_ = &engine;
    shards_.resize(cfg_.num_modules);
    buildShardHistograms();
}

void
MemPipeline::disableDomains()
{
    if (engine_ == nullptr)
        return;
    for (const DomainShard &s : shards_) {
        panic_if(s.inflight != 0 || s.launched != 0,
                 "disableDomains after launches");
    }
    engine_ = nullptr;
    shards_.clear();
}

void
MemPipeline::buildShardHistograms()
{
    if (rec_ == nullptr || shards_.empty() || shards_[0].lat[0])
        return;
    // Clone the recorder's (still empty) recipes so shard merges are
    // bucket-exact.
    for (DomainShard &s : shards_) {
        s.lat[0] = std::make_unique<stats::Histogram>(
            rec_->localLoadLatency());
        s.lat[1] = std::make_unique<stats::Histogram>(
            rec_->remoteLoadLatency());
        s.lat[2] = std::make_unique<stats::Histogram>(
            rec_->localStoreLatency());
        s.lat[3] = std::make_unique<stats::Histogram>(
            rec_->remoteStoreLatency());
        for (auto &h : s.lat)
            h->reset();
    }
}

EventQueue &
MemPipeline::queueFor(const MemTxn &txn)
{
    if (shards_.empty())
        return eq_;
    switch (txn.phase) {
      case TxnPhase::L15:
      case TxnPhase::FabReq:
      case TxnPhase::Complete:
        return engine_->queue(txn.src);
      default:
        return engine_->queue(txn.home_module);
    }
}

EventQueue &
MemPipeline::srcQueue(const MemTxn &txn)
{
    return shards_.empty() ? eq_ : engine_->queue(txn.src);
}

void
MemPipeline::reportWaits(WaitGraph &wg) const
{
    for (ModuleId m = 0; m < static_cast<ModuleId>(mshrs_.size()); ++m) {
        const MshrState &s = mshrs_[m];
        if (s.waitq_head == nullptr)
            continue;
        const std::string pool = "mshr:gpm" + std::to_string(m);
        uint32_t waiting = 0;
        for (const MemTxn *w = s.waitq_head; w != nullptr; w = w->next)
            ++waiting;
        wg.note(pool, log_detail::concat(
            s.in_use, "/", remote_mshrs_, " in use, ", waiting,
            " waiting, oldest txn ", s.waitq_head->id,
            " waiting since cycle ", s.waitq_head->stall_start));
        // MSHR waiters hold no pipeline resource yet — only their SM
        // scoreboard slot, the edge the back-pressure propagates over.
        for (const MemTxn *w = s.waitq_head; w != nullptr; w = w->next) {
            wg.edge("sm:gpm" + std::to_string(w->src), pool,
                    log_detail::concat("txn ", w->id,
                                       w->is_store ? " store" : " load",
                                       " gpm", w->src, "->gpm",
                                       w->home_module));
        }
    }
    if (vcs_ > 0)
        fabric_stage_.reportWaits(wg);
}

void
MemPipeline::dumpVcOccupancy(std::ostream &os) const
{
    if (vcs_ > 0)
        fabric_stage_.dumpOccupancy(os);
}

void
MemPipeline::serviceOne(MemTxn &txn)
{
    switch (txn.phase) {
      case TxnPhase::L15:
        txn.phase = l15_stage_.service(txn);
        return;
      case TxnPhase::FabReq:
      case TxnPhase::FabResp:
        txn.phase = fabric_stage_.service(txn);
        return;
      case TxnPhase::L2Lookup:
      case TxnPhase::L2Fill:
        txn.phase = l2_stage_.service(txn);
        return;
      case TxnPhase::DramRead:
        txn.phase = dram_stage_.service(txn);
        return;
      case TxnPhase::Complete:
        break;
    }
    panic("serviceOne on a completed transaction");
}

void
MemPipeline::initTxn(MemTxn &txn, ModuleId src, Addr addr, uint32_t bytes,
                     bool is_store, PartitionId part, ModuleId home,
                     Cycle now)
{
    txn.addr = addr;
    txn.bytes = bytes;
    txn.is_store = is_store;
    txn.remote = home != src;
    txn.l15_fill = false;
    txn.holds_mshr = false;
    txn.in_pipeline = false;
    txn.holds_req_credit = false;
    txn.holds_resp_credit = false;
    txn.src = src;
    txn.home_module = home;
    txn.home = part;
    // Domain mode strides ids by module so every domain allocates from
    // a private counter yet ids stay globally unique.
    txn.id = shards_.empty()
                 ? next_id_++
                 : shards_[src].next_id++ * cfg_.num_modules + src;
    txn.issued = now;
    txn.stall_start = 0;
    txn.t = now;
    txn.phase = TxnPhase::L15;
}

// Flattening folds the stage bodies back into one straight-line
// function, which is what the pre-pipeline inline implementation
// compiled to — without it the per-phase calls cost the chain hot
// path measurably (icache and branch-target pressure).
#if defined(__GNUC__)
__attribute__((flatten))
#endif
void
MemPipeline::launch(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                    Cycle now, TxnDoneFn &&done)
{
    panic_if(src >= cfg_.num_modules, "memAccess from bad module ", src);

    // Resolved first in both models: under FirstTouch the lookup itself
    // pins an unmapped page, even when the access then hits the L1.5.
    const PartitionId part = page_table_.partitionFor(addr, src);
    const ModuleId home = page_table_.moduleOf(part);

    if (!staged_) {
        // Chain: walk every phase synchronously on a stack transaction.
        // The call sequence on caches, bandwidth servers and the energy
        // model is the historical inline round trip, zero events are
        // scheduled and the arena is never touched — simulated time and
        // stats stay bit-identical to it, at its speed.
        MemTxn txn;
        initTxn(txn, src, addr, bytes, is_store, part, home, now);
        if (flightOn()) [[unlikely]] {
            while (txn.phase != TxnPhase::Complete) {
                const TxnPhase ph = txn.phase;
                serviceOne(txn);
                flightPhase(ph, txn);
            }
        } else {
            while (txn.phase != TxnPhase::Complete)
                serviceOne(txn);
        }
        finishCommon(txn);
        done(txn, txn.t);
        return;
    }

    const bool dom = !shards_.empty();
    MemTxn &txn = (dom ? shards_[src].arena : arena_).alloc();
    initTxn(txn, src, addr, bytes, is_store, part, home, now);
    txn.done = std::move(done);

    if (dom)
        shards_[src].launched += 1;
    else
        ++txn_launched_;
    // The L1.5 sits on the SM side of the fabric and is probed at issue
    // in both models; what gets staged is everything behind it.
    const Cycle before = txn.t;
    serviceOne(txn);
    noteStage(TxnPhase::L15, before, txn);
    if (txn.phase == TxnPhase::Complete) {
        if (dom)
            shards_[src].l15_hits += 1;
        else
            ++txn_l15_hits_;
        completeTxn(txn);
        return;
    }

    if (dom) {
        DomainShard &s = shards_[src];
        EventQueue &q = engine_->queue(src);
        occTickShard(s, q.now());
        ++s.inflight;
        txn.in_pipeline = true;
        s.peak_log.push_back({q.now(), q.currentSchedWhen(), +1});
    } else {
        occTick();
        ++inflight_;
        txn.in_pipeline = true;
        if (static_cast<double>(inflight_) > txn_inflight_peak_.value())
            txn_inflight_peak_.set(static_cast<double>(inflight_));
    }
    admit(txn);
}

void
MemPipeline::admit(MemTxn &txn)
{
    if (remote_mshrs_ > 0 && txn.remote) {
        MshrState &m = mshrs_[txn.src];
        if (m.in_use >= remote_mshrs_) {
            // Stall-on-full: FIFO-wait for an entry. The SM observes the
            // wait as a delayed completion in its scoreboard slot.
            txn.stall_start = txn.t;
            if (!shards_.empty())
                shards_[txn.src].mshr_stalls += 1;
            else
                ++txn_mshr_stalls_;
            if (flightOn()) [[unlikely]] {
                flightNote(txn.t, log_detail::concat(
                    "txn ", txn.id, " waiting on mshr:gpm", txn.src,
                    " (", m.in_use, "/", remote_mshrs_, " in use)"));
            }
            txn.next = nullptr;
            if (m.waitq_tail != nullptr)
                m.waitq_tail->next = &txn;
            else
                m.waitq_head = &txn;
            m.waitq_tail = &txn;
            return;
        }
        ++m.in_use;
        txn.holds_mshr = true;
    }
    scheduleAdvance(txn);
}

void
MemPipeline::scheduleAdvance(MemTxn &txn)
{
    MemTxn *tp = &txn; // arena addresses are stable for the whole flight
    queueFor(txn).schedule(txn.t, [this, tp] { stagedAdvance(*tp); });
}

#if defined(__GNUC__)
__attribute__((flatten))
#endif
void
MemPipeline::stagedAdvance(MemTxn &txn)
{
    const bool dom = !shards_.empty();
    for (;;) {
        if (txn.phase == TxnPhase::Complete) {
            // Remote stores complete at the home; in domain mode the
            // acceptance crosses back to the source as an ack message
            // (serial completes it inline — the compensation counter
            // keeps event totals comparable).
            if (dom && txn.remote && txn.is_store) {
                emitStoreAck(txn, /*inline_ack=*/true);
                return;
            }
            // Deliver at the transaction's own done time: the last hop
            // computes an arrival later than the event it ran inside.
            if (txn.t > srcQueue(txn).now()) {
                scheduleAdvance(txn);
                return;
            }
            completeTxn(txn);
            return;
        }
        // Domain mode hands fabric traversals to the barrier sequencer:
        // the hop is priced there (single-threaded) and the transaction
        // rematerializes as a delivered event in the far domain.
        if (dom && txn.remote && (txn.phase == TxnPhase::FabReq ||
                                  txn.phase == TxnPhase::FabResp)) {
            emitCross(txn);
            return;
        }
        // Credit gate: a remote packet may not enter the fabric until
        // its class holds a credit on its direction. Parked txns
        // schedule no events — a full hold-and-wait cycle therefore
        // drains the queue, which is what the deadlock diagnoser keys
        // off.
        if (vcs_ > 0 && txn.remote && vcGate(txn))
            return;
        const Cycle before = txn.t;
        const TxnPhase ph = txn.phase;
        serviceOne(txn);
        noteStage(ph, before, txn);
        // The response is on the wire: the request's buffer slot at the
        // home module is free the moment the reply is injected, not at
        // delivery — the release order that keeps VC 1 a pure sink.
        if (ph == TxnPhase::FabResp && txn.holds_req_credit) {
            txn.holds_req_credit = false;
            releaseVcCredit(txn.src, txn.home_module, false);
        }
        if (txn.t > before) {
            // A remote store that just reached Complete with a later
            // acceptance time crosses back as a scheduled-ack message
            // (serial would schedule the Complete event instead).
            if (dom && txn.remote && txn.is_store &&
                txn.phase == TxnPhase::Complete) {
                emitStoreAck(txn, /*inline_ack=*/false);
                return;
            }
            scheduleAdvance(txn);
            return;
        }
        // Zero-latency transition (e.g. the local-access fabric pass):
        // keep walking inside the current event.
    }
}

bool
MemPipeline::vcGate(MemTxn &txn)
{
    if (txn.phase == TxnPhase::FabReq && !txn.holds_req_credit) {
        if (!fabric_stage_.tryAcquire(txn.src, txn.home_module, false)) {
            parkForCredit(txn, txn.src, txn.home_module, false);
            return true;
        }
        txn.holds_req_credit = true;
    } else if (txn.phase == TxnPhase::FabResp && !txn.holds_resp_credit) {
        if (!fabric_stage_.tryAcquire(txn.home_module, txn.src, true)) {
            parkForCredit(txn, txn.home_module, txn.src, true);
            return true;
        }
        txn.holds_resp_credit = true;
    }
    return false;
}

void
MemPipeline::parkForCredit(MemTxn &txn, ModuleId src, ModuleId dst,
                           bool response)
{
    txn.stall_start = txn.t;
    ++*txn_vc_parked_;
    fabric_stage_.park(src, dst, response, txn);
    if (flightOn()) [[unlikely]] {
        flightNote(txn.t, log_detail::concat(
            "txn ", txn.id, " parked on ",
            fabric_stage_.poolName(src, dst, response),
            " (no credit free)"));
    }
    const double parked =
        static_cast<double>(fabric_stage_.parkedNow(0)) +
        static_cast<double>(fabric_stage_.parkedNow(1));
    if (parked > txn_vc_parked_peak_->value())
        txn_vc_parked_peak_->set(parked);
}

void
MemPipeline::releaseVcCredit(ModuleId src, ModuleId dst, bool response)
{
    MemTxn *w = fabric_stage_.release(src, dst, response);
    if (w == nullptr)
        return;
    // The credit passed straight to the parked head; resume it at the
    // release time (its own clock stopped when it parked).
    const Cycle now = eq_.now();
    if (w->t < now)
        w->t = now;
    *txn_vc_park_cycles_ += static_cast<double>(w->t - w->stall_start);
    if (flightOn()) [[unlikely]] {
        flightNote(w->t, log_detail::concat(
            "credit on ", fabric_stage_.poolName(src, dst, response),
            " handed to txn ", w->id));
    }
    traceVcWait(*w);
    scheduleAdvance(*w);
}

void
MemPipeline::releaseMshr(MemTxn &txn)
{
    if (!txn.holds_mshr)
        return;
    txn.holds_mshr = false;
    MshrState &m = mshrs_[txn.src];
    MemTxn *w = m.waitq_head;
    if (w == nullptr) {
        --m.in_use;
        return;
    }
    // Hand the entry straight to the queue head (FIFO).
    m.waitq_head = w->next;
    if (m.waitq_head == nullptr)
        m.waitq_tail = nullptr;
    w->next = nullptr;
    w->holds_mshr = true;
    const Cycle now = srcQueue(txn).now();
    if (w->t < now)
        w->t = now;
    if (!shards_.empty())
        shards_[w->src].mshr_stall_cycles +=
            static_cast<double>(w->t - w->stall_start);
    else
        txn_mshr_stall_cycles_ += static_cast<double>(w->t - w->stall_start);
    if (flightOn()) [[unlikely]] {
        flightNote(w->t, log_detail::concat("mshr:gpm", w->src,
                                            " handed to txn ", w->id));
    }
    scheduleAdvance(*w);
}

void
MemPipeline::finishCommon(MemTxn &txn)
{
    if (txn.l15_fill)
        l15_stage_.fill(txn);

    if (rec_) {
        if (!shards_.empty()) {
            // Source-domain histogram shard; merged at end of run.
            const size_t idx = (txn.is_store ? 2u : 0u) +
                               (txn.remote ? 1u : 0u);
            shards_[txn.src].lat[idx]->record(txn.t - txn.issued);
        } else if (txn.is_store) {
            rec_->recordStore(txn.remote, txn.t - txn.issued);
        } else {
            rec_->recordLoad(txn.remote, txn.t - txn.issued);
        }
    }
}

void
MemPipeline::completeTxn(MemTxn &txn)
{
    const bool dom = !shards_.empty();
    if (dom) {
        // Always a source-domain step: local completions and delivered
        // load responses run in src events, remote-store acks are
        // delivered to src by the sequencer.
        DomainShard &s = shards_[txn.src];
        s.completed += 1;
        if (txn.in_pipeline) {
            EventQueue &q = engine_->queue(txn.src);
            occTickShard(s, q.now());
            --s.inflight;
            s.peak_log.push_back({q.now(), q.currentSchedWhen(), -1});
        }
    } else {
        ++txn_completed_;
        if (txn.in_pipeline) {
            occTick();
            --inflight_;
        }
    }
    // Loads return their response credit at delivery; stores (which
    // never inject a response) return their request credit here.
    if (txn.holds_resp_credit) {
        txn.holds_resp_credit = false;
        releaseVcCredit(txn.home_module, txn.src, true);
    }
    if (txn.holds_req_credit) {
        txn.holds_req_credit = false;
        releaseVcCredit(txn.src, txn.home_module, false);
    }
    releaseMshr(txn);
    finishCommon(txn);

    // Invoke before release: the continuation may read the transaction
    // and may nest a new launch — the slot is not on the free list yet,
    // so neither can observe a recycled transaction.
    txn.done(txn, txn.t);
    (dom ? shards_[txn.src].arena : arena_).release(txn);
}

void
MemPipeline::occTick()
{
    const Cycle now = eq_.now();
    if (now > occ_last_) {
        txn_occupancy_cycles_ += static_cast<double>(inflight_) *
                                 static_cast<double>(now - occ_last_);
        occ_last_ = now;
    }
}

void
MemPipeline::occTickShard(DomainShard &s, Cycle now)
{
    // The global occupancy integral decomposes exactly into per-domain
    // integrals: sum over domains of inflight_d * dt.
    if (now > s.occ_last) {
        s.occupancy_cycles += static_cast<double>(s.inflight) *
                              static_cast<double>(now - s.occ_last);
        s.occ_last = now;
    }
}

void
MemPipeline::noteStage(TxnPhase ph, Cycle before, MemTxn &txn)
{
    const Cycle dt = txn.t - before;
    if (!shards_.empty()) {
        // Source-side stages shard by txn.src, home-side by the home
        // module — the domain whose event performed the step, so every
        // shard has a single writer. Remote fabric hops are summed by
        // the sequencer instead (seq_fab_cycles_).
        DomainShard &s = (ph == TxnPhase::L15 || ph == TxnPhase::FabReq)
                             ? shards_[txn.src]
                             : shards_[txn.home_module];
        switch (ph) {
          case TxnPhase::L15: s.stage_cycles[0] += dt; break;
          case TxnPhase::FabReq: s.stage_cycles[1] += dt; break;
          case TxnPhase::L2Lookup:
          case TxnPhase::L2Fill: s.stage_cycles[2] += dt; break;
          case TxnPhase::DramRead: s.stage_cycles[3] += dt; break;
          case TxnPhase::FabResp: s.stage_cycles[4] += dt; break;
          case TxnPhase::Complete: break;
        }
    } else {
        switch (ph) {
          case TxnPhase::L15: stage_l15_cycles_ += dt; break;
          case TxnPhase::FabReq: stage_fab_req_cycles_ += dt; break;
          case TxnPhase::L2Lookup:
          case TxnPhase::L2Fill: stage_l2_cycles_ += dt; break;
          case TxnPhase::DramRead: stage_dram_cycles_ += dt; break;
          case TxnPhase::FabResp: stage_fab_resp_cycles_ += dt; break;
          case TxnPhase::Complete: break;
        }
    }
    if (dt > 0)
        traceStage(ph, before, txn);
    if (flightOn()) [[unlikely]]
        flightPhase(ph, txn);
}

// ----------------------------------------------- Domain mode (docs/PDES.md)

namespace {

/**
 * K-way merge of @p n per-domain logs, each already ordered by
 * @p before: visits every entry in global order with ties going to the
 * lower domain — the order a stable sort of the concatenated logs
 * gives. @p pos holds the per-log cursors.
 */
template <typename LogOf, typename Before, typename Visit>
void
mergeLogs(size_t n, std::vector<size_t> &pos, LogOf log_of, Before before,
          Visit visit)
{
    pos.assign(n, 0);
    for (;;) {
        size_t best = n;
        for (size_t d = 0; d < n; ++d) {
            if (pos[d] < log_of(d).size() &&
                (best == n ||
                 before(log_of(d)[pos[d]], log_of(best)[pos[best]])))
                best = d;
        }
        if (best == n)
            return;
        visit(log_of(best)[pos[best]++]);
    }
}

} // namespace

void
MemPipeline::emitCross(MemTxn &txn)
{
    // The fabric hop is priced by the barrier sequencer; hand it every
    // field it needs while the transaction is hot, stamped with this
    // event's calendar position so the sequencer can replay the serial
    // service order.
    const bool resp = txn.phase == TxnPhase::FabResp;
    const ModuleId from = resp ? txn.home_module : txn.src;
    const ModuleId to = resp ? txn.src : txn.home_module;
    const EventQueue &q = engine_->queue(from);
    shards_[from].outbox.push_back(
        {q.now(), q.currentSchedWhen(), txn.t, &txn, from, to,
         resp ? FabricStage::responseBytes(txn)
              : FabricStage::requestBytes(txn),
         resp ? CrossMsg::Resp : CrossMsg::Req, false});
}

void
MemPipeline::emitStoreAck(MemTxn &txn, bool inline_ack)
{
    const EventQueue &q = engine_->queue(txn.home_module);
    shards_[txn.home_module].outbox.push_back(
        {q.now(), q.currentSchedWhen(), txn.t, &txn, txn.home_module,
         txn.src, 0, CrossMsg::Ack, inline_ack});
}

void
MemPipeline::processMessages()
{
    // Each outbox is already ordered by (emit cycle, schedule cycle) —
    // a domain executes its events in calendar order — so merging them
    // yields (emit cycle, schedule cycle, domain, sequence) order.
    mergeLogs(
        shards_.size(), merge_pos_,
        [this](size_t d) -> const std::vector<CrossMsg> & {
            return shards_[d].outbox;
        },
        [](const CrossMsg &a, const CrossMsg &b) {
            return a.emit_t < b.emit_t ||
                   (a.emit_t == b.emit_t && a.emit_sched < b.emit_sched);
        },
        [this](const CrossMsg &m) { sequence(m); });
    for (DomainShard &s : shards_)
        s.outbox.clear();
    mergePeakLog();
}

void
MemPipeline::sequence(const CrossMsg &m)
{
    MemTxn *tp = m.txn;
    if (m.kind == CrossMsg::Ack) {
        if (m.inline_ack)
            ++exec_inline_acks_;
        // Relaxed completion: the acceptance cycle txn.t is the value
        // handed to the SM, but the source domain may have run ahead of
        // it within the window that just drained — deliver at its
        // current time then. The SM side already tolerates late
        // wake-ups (memDone wakes at max(done, now)), and the slip is
        // bounded by one window, deterministic for every worker count
        // (docs/PDES.md).
        const Cycle at = std::max(m.t, engine_->queue(m.to).now());
        // Serial either completes the store inside the emitting event
        // (zero-latency tail: inherit its schedule cycle) or schedules a
        // Complete event from it (schedule cycle = its cycle); mirror
        // both so the ack sorts where the serial completion ran.
        const Cycle sched = m.inline_ack ? m.emit_sched : m.emit_t;
        engine_->deliver(m.to, at, sched, [this, tp] { completeTxn(*tp); });
        return;
    }
    // Request hop -> L2Lookup at the home, response hop -> Complete at
    // the source; the delivered event resumes the transaction there.
    const bool resp = m.kind == CrossMsg::Resp;
    const Cycle at = fabric_stage_.hop(m.from, m.to, m.bytes, m.t);
    seq_fab_cycles_[resp ? 1 : 0] += at - m.t;
    const TxnPhase next = resp ? TxnPhase::Complete : TxnPhase::L2Lookup;
    engine_->deliver(m.to, at, m.emit_t, [this, tp, at, next] {
        tp->t = at;
        tp->phase = next;
        stagedAdvance(*tp);
    });
}

void
MemPipeline::mergePeakLog()
{
    // Replay the per-domain inflight transition logs (each sorted by
    // construction: events execute in calendar order) into the running
    // global count; the peak is evaluated on launches, the same edge
    // the serial scalar updates on.
    mergeLogs(
        shards_.size(), merge_pos_,
        [this](size_t d) -> const std::vector<PeakEntry> & {
            return shards_[d].peak_log;
        },
        [](const PeakEntry &a, const PeakEntry &b) {
            return a.when < b.when || (a.when == b.when && a.sched < b.sched);
        },
        [this](const PeakEntry &e) {
            merged_inflight_ += e.delta;
            if (e.delta > 0 &&
                static_cast<double>(merged_inflight_) > merged_peak_)
                merged_peak_ = static_cast<double>(merged_inflight_);
        });
    for (DomainShard &s : shards_)
        s.peak_log.clear();
}

void
MemPipeline::mergeShards()
{
    if (shards_.empty() || shards_merged_)
        return;
    shards_merged_ = true;
    mergePeakLog();
    txn_inflight_peak_.set(merged_peak_);
    for (DomainShard &s : shards_) {
        txn_launched_ += s.launched;
        txn_completed_ += s.completed;
        txn_l15_hits_ += s.l15_hits;
        txn_mshr_stalls_ += s.mshr_stalls;
        txn_mshr_stall_cycles_ += s.mshr_stall_cycles;
        txn_occupancy_cycles_ += s.occupancy_cycles;
        stage_l15_cycles_ += s.stage_cycles[0];
        stage_fab_req_cycles_ += s.stage_cycles[1];
        stage_l2_cycles_ += s.stage_cycles[2];
        stage_dram_cycles_ += s.stage_cycles[3];
        stage_fab_resp_cycles_ += s.stage_cycles[4];
        if (rec_ != nullptr && s.lat[0]) {
            rec_->localLoadLatency().merge(*s.lat[0]);
            rec_->remoteLoadLatency().merge(*s.lat[1]);
            rec_->localStoreLatency().merge(*s.lat[2]);
            rec_->remoteStoreLatency().merge(*s.lat[3]);
        }
    }
    stage_fab_req_cycles_ += static_cast<double>(seq_fab_cycles_[0]);
    stage_fab_resp_cycles_ += static_cast<double>(seq_fab_cycles_[1]);
}

bool
MemPipeline::flightOn() const
{
    return rec_ != nullptr && rec_->flight() != nullptr;
}

void
MemPipeline::flightPhase(TxnPhase from, const MemTxn &txn)
{
    rec_->flight()->record(
        txn.t,
        log_detail::concat("txn ", txn.id,
                           txn.is_store ? " store" : " load", " gpm",
                           txn.src, "->gpm", txn.home_module, ": ",
                           txnPhaseName(from), " -> ",
                           txnPhaseName(txn.phase)));
}

void
MemPipeline::flightNote(Cycle when, std::string what)
{
    rec_->flight()->record(when, std::move(what));
}

void
MemPipeline::ensureTraceTracks()
{
    if (trace_ready_)
        return;
    obs::TraceEmitter &tr = rec_->trace();
    trace_pid_ = tr.addProcess("mem.txn");
    for (size_t i = 0; i < static_cast<size_t>(TxnPhase::Complete); ++i) {
        trace_tids_[i] = tr.addThread(
            trace_pid_, txnPhaseName(static_cast<TxnPhase>(i)));
    }
    // Credit-stall track only when flow control can produce spans, so
    // traces of VC-less runs keep their exact track set.
    if (vcs_ > 0)
        trace_vc_tid_ = tr.addThread(trace_pid_, "vc_wait");
    trace_ready_ = true;
}

void
MemPipeline::traceStage(TxnPhase ph, Cycle start, MemTxn &txn)
{
    // One track per stage, capped to the first transactions so tracing
    // a long run cannot balloon the file.
    if (rec_ == nullptr || !rec_->traceEnabled() || txn.id >= kMaxTraceTxns)
        return;
    ensureTraceTracks();
    rec_->trace().span(trace_pid_, trace_tids_[static_cast<size_t>(ph)],
                       "txn" + std::to_string(txn.id), start, txn.t);
}

void
MemPipeline::traceVcWait(const MemTxn &txn)
{
    if (rec_ == nullptr || !rec_->traceEnabled() ||
        txn.id >= kMaxTraceTxns || txn.t <= txn.stall_start)
        return;
    ensureTraceTracks();
    rec_->trace().span(trace_pid_, trace_vc_tid_,
                       "txn" + std::to_string(txn.id), txn.stall_start,
                       txn.t);
}

} // namespace mcmgpu
