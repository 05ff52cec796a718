#include "gpu/gpu_system.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"

namespace mcmgpu {

GpuSystem::GpuSystem(const GpuConfig &cfg, obs::Recorder *rec)
    : cfg_(cfg), page_table_(cfg), rec_(rec)
{
    cfg_.validate();
    link_domain_ =
        cfg_.board_level_links ? Domain::Board : Domain::Package;

    fabric_ = Fabric::create(cfg_);

    // The engine mode is final before any component takes its queue.
    if (cfg_.sim_threads > 1) {
        if (const char *why = serialReason(cfg_, *fabric_, rec_)) {
            warn_once("--sim-threads ", cfg_.sim_threads,
                      " requested but ", why, "; running serial");
        } else {
            engine_.activateParallel(
                cfg_.num_modules,
                std::min<uint32_t>(cfg_.sim_threads, cfg_.num_modules),
                fabric_->minRouteCycles());
        }
    }

    const uint32_t total_sms = cfg_.totalSms();
    sms_.reserve(total_sms);
    sm_enabled_.reserve(total_sms);
    enabled_per_module_.assign(cfg_.num_modules, 0);
    for (SmId s = 0; s < total_sms; ++s) {
        const ModuleId m = s / cfg_.sms_per_module;
        sms_.push_back(
            std::make_unique<Sm>(s, m, cfg_, *this, moduleQueue(m)));
        const bool on = !cfg_.fault.smDisabled(m, s % cfg_.sms_per_module);
        sm_enabled_.push_back(on);
        if (on) {
            ++enabled_per_module_[m];
            ++enabled_sms_;
        }
    }

    CacheGeometry l15_geo = cfg_.l15;
    l15_geo.size_bytes = cfg_.l15BytesPerModule();
    for (ModuleId m = 0; m < cfg_.num_modules; ++m) {
        l15_.push_back(std::make_unique<Cache>(
            l15_geo, "gpm" + std::to_string(m) + ".l15",
            /*write_back=*/false));
    }

    CacheGeometry l2_geo = cfg_.l2;
    l2_geo.size_bytes = cfg_.l2BytesPerPartition();
    const uint32_t total_parts = cfg_.totalPartitions();
    for (PartitionId p = 0; p < total_parts; ++p) {
        l2_.push_back(std::make_unique<Cache>(
            l2_geo, "l2.part" + std::to_string(p), /*write_back=*/true));
        dram_.push_back(std::make_unique<DramPartition>(
            p, cfg_.channels_per_partition, cfg_.dramGbpsPerPartition(),
            nsToCycles(cfg_.dram_latency_ns), cfg_.interleave_bytes,
            cfg_.dram_turnaround_cycles, cfg_.dram_write_drain));
    }

    pipeline_ = std::make_unique<MemPipeline>(cfg_, engine_, page_table_,
                                              *fabric_, energy_,
                                              link_domain_, l15_, l2_, dram_,
                                              rec_);

    if (cfg_.watchdog_cycles > 0) {
        engine_.setWatchdog(cfg_.watchdog_cycles,
                            [this] { return occupancyDiagnostic(); });
    }
    if (rec_)
        wireRecorder();
}

const char *
GpuSystem::serialReason(const GpuConfig &cfg, const Fabric &fabric,
                        obs::Recorder *rec)
{
    // Every row protects an invariant of the conservative window engine
    // (docs/PDES.md): events of one module touch only that module's
    // state, cross-module effects travel as sequencer messages, and
    // nothing outside the sequencer observes more than one domain.
    // Anything else runs the serial engine — same results, one thread.
    if (cfg.num_modules < 2)
        return "a single module leaves nothing to parallelize";
    if (cfg.mem_model != MemModel::Staged)
        return "the chain memory model walks remote phases synchronously "
               "(need --mem-model staged)";
    if (cfg.fabric_vcs > 0)
        return "virtual-channel credits are shared cross-module state "
               "(need fabric_vcs = 0)";
    if (cfg.cta_sched != CtaSchedPolicy::DistributedBatch)
        return "only the distributed CTA scheduler partitions its state "
               "per module (need --sched distributed)";
    if (cfg.page_policy == PagePolicy::FirstTouch)
        return "first-touch page placement mutates the page table on "
               "access order";
    if (!cfg.fault.empty())
        return "fault plans inject global retry/rehoming state";
    // A one-cycle (or unrouted) fabric gives the window engine no
    // usable lookahead — every window would degenerate to single-event
    // serial catch-up.
    if (fabric.minRouteCycles() <= 1)
        return "minimum inter-module route latency <= 1 cycle leaves no "
               "conservative lookahead";
    // Trace spans and flight-recorder rings are emitted from inside
    // event execution into one shared sink.
    if (rec && rec->traceEnabled())
        return "the event trace records spans into one shared sink";
    if (rec && rec->flight() != nullptr)
        return "the flight-recorder ring is single-threaded";
    return nullptr;
}

void
GpuSystem::ctaFinished(SmId sm)
{
    if (rec_) {
        const ModuleId m = moduleOfSm(sm);
        rec_->ctaFinished(m, moduleQueue(m).now());
    }
    if (sink_)
        sink_->onCtaFinished(sm);
}

void
GpuSystem::flushKernelCaches()
{
    for (auto &sm : sms_)
        sm->flushL1();
    for (auto &c : l15_)
        c->invalidateAll();
}

void
GpuSystem::memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                     Cycle now, TxnDoneFn done)
{
    pipeline_->launch(src, addr, bytes, is_store, now, std::move(done));
}

Cycle
GpuSystem::memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
                     Cycle now)
{
    panic_if(pipeline_->staged(),
             "synchronous memAccess helper requires MemModel::Chain");
    Cycle done = kCycleMax;
    pipeline_->launch(src, addr, bytes, is_store, now,
                      [&done](const MemTxn &, Cycle d) { done = d; });
    return done;
}

uint64_t
GpuSystem::dramReadBytes() const
{
    uint64_t sum = 0;
    for (const auto &d : dram_)
        sum += d->bytesRead();
    return sum;
}

uint64_t
GpuSystem::dramWriteBytes() const
{
    uint64_t sum = 0;
    for (const auto &d : dram_)
        sum += d->bytesWritten();
    return sum;
}

uint64_t
GpuSystem::totalWarpInstructions() const
{
    uint64_t sum = 0;
    for (const auto &sm : sms_)
        sum += sm->warpInstructions();
    return sum;
}

namespace {

double
aggregateHitRate(double hits, double misses)
{
    double total = hits + misses;
    return total > 0.0 ? hits / total : 0.0;
}

} // namespace

void
GpuSystem::foldStats()
{
    pipeline_->foldShards();
    for (const auto &h : dram_queue_shards_) {
        rec_->dramQueueDelay().merge(*h);
        h->reset();
    }
}

void
GpuSystem::dumpStats(std::ostream &os, bool per_sm) const
{
    // Reporting is logically const; it folds the per-domain shards into
    // the primary accumulators first.
    const_cast<GpuSystem *>(this)->foldStats();
    os << "system.cycles " << engine_.now() << '\n';
    os << "system.warp_insts " << totalWarpInstructions() << '\n';
    os << "system.events " << eventsExecuted() << '\n';
    os << "fabric.injected_bytes " << fabric_->injectedBytes() << '\n';
    os << "fabric.link_bytes " << fabric_->linkBytes() << '\n';
    // Route-policy counters only exist under adaptive selection; the
    // static default keeps the historical dump shape byte for byte.
    if (cfg_.route_policy == RoutePolicy::Adaptive) {
        os << "fabric.route_adaptive_picks "
           << fabric_->routeAdaptivePicks() << '\n';
        os << "fabric.route_diverted " << fabric_->routeDiverted() << '\n';
    }

    // Aggregate the per-SM groups into one summary line per stat.
    if (per_sm) {
        for (const auto &sm : sms_) {
            sm->statsGroup().dump(os);
            sm->l1().statsGroup().dump(os);
        }
    } else {
        stats::Group agg("sm.total");
        for (const auto &sm : sms_) {
            for (const auto &s : sm->statsGroup().scalars()) {
                if (!agg.find(s.name()))
                    agg.add(s.name(), s.desc());
            }
        }
        for (const auto &s : agg.scalars()) {
            double sum = 0.0;
            for (const auto &sm : sms_)
                sum += sm->statsGroup().get(s.name());
            os << agg.name() << '.' << s.name() << ' ' << sum << '\n';
        }
        os << "sm.l1.hit_rate " << l1HitRate() << '\n';
    }

    for (const auto &c : l15_)
        c->statsGroup().dump(os);
    for (const auto &c : l2_)
        c->statsGroup().dump(os);
    for (const auto &d : dram_)
        d->statsGroup().dump(os);
    // The txn group only accumulates under the staged model; chain-mode
    // dumps keep their historical shape.
    if (pipeline_->staged())
        pipeline_->statsGroup().dump(os);

    os << "energy.chip_joules " << energy_.joulesIn(Domain::Chip) << '\n';
    os << "energy.package_joules " << energy_.joulesIn(Domain::Package)
       << '\n';
    os << "energy.board_joules " << energy_.joulesIn(Domain::Board)
       << '\n';

    if (!cfg_.fault.empty()) {
        os << "fault.enabled_sms " << enabled_sms_ << '\n';
        os << "fault.alive_partitions " << page_table_.alivePartitions()
           << '\n';
        os << "fault.rehomed_pages " << page_table_.rehomedPages() << '\n';
        os << "fault.link_transient_errors " << fabric_->transientErrors()
           << '\n';
    }
}

std::string
GpuSystem::occupancyDiagnostic() const
{
    std::ostringstream os;
    os << "machine occupancy:\n";
    for (ModuleId m = 0; m < cfg_.num_modules; ++m) {
        uint32_t ctas = 0, warps = 0;
        for (uint32_t s = 0; s < cfg_.sms_per_module; ++s) {
            const Sm &sm = *sms_[m * cfg_.sms_per_module + s];
            ctas += sm.residentCtas();
            warps += sm.residentWarps();
        }
        os << "  gpm" << m << ": resident_ctas=" << ctas
           << " resident_warps=" << warps
           << " enabled_sms=" << enabled_per_module_[m] << '/'
           << cfg_.sms_per_module << '\n';
    }
    fabric_->dumpOccupancy(os);
    if (pipeline_->numVcs() > 0)
        pipeline_->dumpVcOccupancy(os);
    for (PartitionId p = 0; p < cfg_.totalPartitions(); ++p) {
        os << "  dram.part" << p
           << (cfg_.fault.partitionDead(p) ? " DEAD" : "")
           << ": busy_cycles=" << dram_[p]->busyCycles()
           << " pages=" << page_table_.pagesOn(p) << '\n';
    }
    os << "  page_table: mapped=" << page_table_.pagesMapped()
       << " rehomed=" << page_table_.rehomedPages() << '\n';
    return os.str();
}

void
GpuSystem::wireRecorder()
{
    obs::Recorder &rec = *rec_;
    // Queue-delay histograms at every bandwidth server. Recording is
    // observational: acquire() results are untouched. Each DRAM
    // partition records into a private shard (written only by its home
    // domain), folded into the recorder's at every read.
    for (auto &d : dram_) {
        auto h = std::make_unique<stats::Histogram>(rec.dramQueueDelay());
        h->reset();
        d->attachQueueHistogram(h.get());
        dram_queue_shards_.push_back(std::move(h));
    }
    fabric_->visitLinks([&rec](const std::string &, Link &l) {
        l.setQueueHistogram(&rec.linkQueueDelay());
        if (rec.traceEnabled())
            l.trackBusyIntervals(obs::Recorder::kLinkBusyMergeGap);
    });
    // Per-hop traversal latency (stays empty on a single module).
    fabric_->setHopHistogram(&rec.fabricHopLatency());

    obs::Sampler *sampler = rec.sampler();
    if (!sampler)
        return;

    sampler->addGauge("sm.resident_warps", [this] {
        double sum = 0.0;
        for (const auto &sm : sms_)
            sum += sm->residentWarps();
        return sum;
    });
    sampler->addGauge("sm.resident_ctas", [this] {
        double sum = 0.0;
        for (const auto &sm : sms_)
            sum += sm->residentCtas();
        return sum;
    });
    sampler->addCounter("sm.warp_insts", [this] {
        return static_cast<double>(totalWarpInstructions());
    });
    sampler->addCounter("sm.store_ops", [this] {
        double sum = 0.0;
        for (const auto &sm : sms_)
            sum += sm->statsGroup().get("store_ops");
        return sum;
    });
    if (pipeline_->staged()) {
        sampler->addGauge("mem.txn_inflight", [this] {
            return static_cast<double>(pipeline_->inflight());
        });
        sampler->addGauge("mem.mshr_in_use", [this] {
            return static_cast<double>(pipeline_->mshrsInUse());
        });
        sampler->addGauge("mem.mshr_waiting", [this] {
            return static_cast<double>(pipeline_->mshrsWaiting());
        });
    }
    // Per-VC occupancy series only when credit flow control exists, so
    // default staged runs keep their exact sample-series set.
    for (uint32_t vc = 0; vc < pipeline_->numVcs() && vc < 2; ++vc) {
        sampler->addGauge("mem.vc" + std::to_string(vc) + "_parked",
                          [this, vc] {
            return static_cast<double>(pipeline_->vcParkedNow(vc));
        });
        sampler->addGauge("mem.vc" + std::to_string(vc) + "_credits",
                          [this, vc] {
            return static_cast<double>(pipeline_->vcCreditsInUse(vc));
        });
    }

    auto cache_hits = [](const Cache &c) {
        return static_cast<double>(c.hitsTotal());
    };
    auto cache_accesses = [](const Cache &c) {
        return static_cast<double>(c.hitsTotal() + c.missesTotal());
    };
    sampler->addRatio(
        "l1.hit_rate",
        [this, cache_hits] {
            double h = 0.0;
            for (const auto &sm : sms_)
                h += cache_hits(sm->l1());
            return h;
        },
        [this, cache_accesses] {
            double a = 0.0;
            for (const auto &sm : sms_)
                a += cache_accesses(sm->l1());
            return a;
        });
    sampler->addRatio(
        "l15.hit_rate",
        [this, cache_hits] {
            double h = 0.0;
            for (const auto &c : l15_)
                h += cache_hits(*c);
            return h;
        },
        [this, cache_accesses] {
            double a = 0.0;
            for (const auto &c : l15_)
                a += cache_accesses(*c);
            return a;
        });
    sampler->addRatio(
        "l2.hit_rate",
        [this, cache_hits] {
            double h = 0.0;
            for (const auto &c : l2_)
                h += cache_hits(*c);
            return h;
        },
        [this, cache_accesses] {
            double a = 0.0;
            for (const auto &c : l2_)
                a += cache_accesses(*c);
            return a;
        });

    // Per-link congestion: carried bytes (delta / sample_period =
    // bytes/cycle), busy-cycle delta (utilization per window), and the
    // instantaneous backlog a newly arriving byte would queue behind.
    fabric_->visitLinks([this, sampler](const std::string &name,
                                        Link &l) {
        const Link *lp = &l;
        sampler->addCounter("link." + name + ".bytes", [lp] {
            return static_cast<double>(lp->bytesCarried());
        });
        sampler->addCounter("link." + name + ".busy_cycles", [lp] {
            return lp->busyCycles();
        });
        sampler->addGauge("link." + name + ".backlog_cycles",
                          [this, lp] {
            return static_cast<double>(lp->backlogCycles(engine_.now()));
        });
    });

    // Per-partition DRAM traffic (read + write bytes).
    for (PartitionId p = 0; p < dram_.size(); ++p) {
        const DramPartition *dp = dram_[p].get();
        sampler->addCounter("dram.part" + std::to_string(p) + ".bytes",
                            [dp] {
                                return static_cast<double>(
                                    dp->totalBytes());
                            });
    }

    // Passive hook: fires between events inside EventQueue::run() —
    // or, in parallel mode, at window barriers with the same boundary
    // semantics — so sampling perturbs neither event order nor
    // simulated time.
    engine_.setSampleHook(sampler->period(),
                          [sampler](Cycle c) { sampler->sample(c); });
}

void
GpuSystem::finishObservability()
{
    if (!rec_)
        return;
    foldStats();
    rec_->finalize(engine_.now());
    if (rec_->traceEnabled()) {
        fabric_->visitLinks([this](const std::string &name, Link &l) {
            rec_->linkBusySpans(name, l.busyIntervals());
        });
    }
}

void
GpuSystem::statsJson(std::ostream &os, const std::string &workload) const
{
    const_cast<GpuSystem *>(this)->foldStats();
    os << "{\n"
       << "  \"schema\": \"mcmgpu-stats/1\",\n"
       << "  \"config\": " << json::quoted(cfg_.name) << ",\n"
       << "  \"workload\": " << json::quoted(workload) << ",\n";

    const Domain link_domain =
        cfg_.board_level_links ? Domain::Board : Domain::Package;
    os << "  \"system\": {"
       << "\"cycles\": " << engine_.now()
       << ", \"events\": " << eventsExecuted()
       << ", \"warp_insts\": " << totalWarpInstructions()
       << ", \"enabled_sms\": " << enabled_sms_
       << ", \"fabric_injected_bytes\": " << fabric_->injectedBytes()
       << ", \"fabric_link_bytes\": " << fabric_->linkBytes()
       << ", \"fabric_transient_errors\": " << fabric_->transientErrors();
    // Conditional like the dump above: absent under the static default
    // so pre-adaptive documents stay byte-identical.
    if (cfg_.route_policy == RoutePolicy::Adaptive) {
        os << ", \"fabric_route_adaptive_picks\": "
           << fabric_->routeAdaptivePicks()
           << ", \"fabric_route_diverted\": " << fabric_->routeDiverted();
    }
    os << ", \"dram_read_bytes\": " << dramReadBytes()
       << ", \"dram_write_bytes\": " << dramWriteBytes()
       << ", \"energy_chip_j\": " << json::number(
              energy_.joulesIn(Domain::Chip))
       << ", \"energy_link_j\": " << json::number(
              energy_.joulesIn(link_domain))
       << "},\n";

    // Every stats::Group in construction order; scalar keys in
    // registration order. Both orders are fixed by the config alone,
    // which is what makes the document reproducible byte for byte.
    os << "  \"groups\": {";
    bool first_group = true;
    auto emitGroup = [&os, &first_group](const stats::Group &g) {
        os << (first_group ? "\n    " : ",\n    ")
           << json::quoted(g.name()) << ": {";
        first_group = false;
        bool first_stat = true;
        for (const auto &s : g.scalars()) {
            os << (first_stat ? "" : ", ") << json::quoted(s.name())
               << ": " << json::number(s.value());
            first_stat = false;
        }
        os << "}";
    };
    for (const auto &sm : sms_) {
        emitGroup(sm->statsGroup());
        emitGroup(sm->l1().statsGroup());
    }
    for (const auto &c : l15_)
        emitGroup(c->statsGroup());
    for (const auto &c : l2_)
        emitGroup(c->statsGroup());
    for (const auto &d : dram_)
        emitGroup(d->statsGroup());
    if (pipeline_->staged())
        emitGroup(pipeline_->statsGroup());
    os << (first_group ? "},\n" : "\n  },\n");

    os << "  \"histograms\": [";
    if (rec_) {
        bool first_hist = true;
        for (const stats::Histogram *h : rec_->histograms()) {
            os << (first_hist ? "\n    " : ",\n    ");
            first_hist = false;
            obs::Recorder::histogramJson(os, *h);
        }
        os << (first_hist ? "]\n" : "\n  ]\n");
    } else {
        os << "]\n";
    }
    os << "}\n";
}

void
GpuSystem::fabricJson(std::ostream &os, const std::string &workload)
{
    foldStats();
    const Cycle cycles = engine_.now();

    os << "{\n"
       << "  \"schema\": \"mcmgpu-fabric/1\",\n"
       << "  \"config\": " << json::quoted(cfg_.name) << ",\n"
       << "  \"workload\": " << json::quoted(workload) << ",\n"
       << "  \"cycles\": " << cycles << ",\n"
       << "  \"injected_bytes\": " << fabric_->injectedBytes() << ",\n"
       << "  \"link_bytes\": " << fabric_->linkBytes() << ",\n";

    // Route-policy block: only under adaptive selection, so static
    // documents keep the exact PR 8 shape. The candidate-pick
    // distribution shows how often each equal-cost alternate won
    // (index 0 is always the legacy XY/clockwise-first route).
    if (cfg_.route_policy == RoutePolicy::Adaptive) {
        os << "  \"route_policy\": \"adaptive\",\n"
           << "  \"route_adaptive_picks\": "
           << fabric_->routeAdaptivePicks() << ",\n"
           << "  \"route_diverted\": " << fabric_->routeDiverted() << ",\n"
           << "  \"route_candidate_picks\": [";
        bool first_pick = true;
        for (uint64_t n : fabric_->routeCandidatePicks()) {
            os << (first_pick ? "" : ", ") << n;
            first_pick = false;
        }
        os << "],\n";
    }

    // One object per named topology link, in the deterministic
    // visitLinks order. utilization = busy / cycles is the congestion
    // heatmap value (0 on a zero-cycle run).
    std::string hottest_name;
    double hottest_util = -1.0;
    os << "  \"links\": [";
    bool first = true;
    fabric_->visitLinks([&](const std::string &name, Link &l) {
        const double util =
            cycles ? l.busyCycles() / static_cast<double>(cycles) : 0.0;
        if (util > hottest_util) {
            hottest_util = util;
            hottest_name = name;
        }
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << "{\"name\": " << json::quoted(name)
           << ", \"bytes\": " << l.bytesCarried()
           << ", \"busy_cycles\": " << json::number(l.busyCycles())
           << ", \"utilization\": " << json::number(util)
           << ", \"rate_bytes_per_cycle\": "
           << json::number(l.rateBytesPerCycle())
           << ", \"hop_cycles\": " << l.hopCycles()
           << ", \"transient_errors\": " << l.transientErrors()
           << ", \"replay_cycles\": " << l.replayCycles() << "}";
    });
    os << (first ? "],\n" : "\n  ],\n");

    os << "  \"hottest_link\": ";
    if (hottest_util >= 0.0) {
        os << "{\"name\": " << json::quoted(hottest_name)
           << ", \"utilization\": " << json::number(hottest_util)
           << "},\n";
    } else {
        os << "null,\n";
    }

    os << "  \"hop_latency\": ";
    if (rec_)
        obs::Recorder::histogramJson(os, rec_->fabricHopLatency());
    else
        os << "null";
    os << "\n}\n";
}

double
GpuSystem::l1HitRate() const
{
    double hits = 0.0, misses = 0.0;
    for (const auto &sm : sms_) {
        const auto &g = sm->l1().statsGroup();
        hits += g.get("hits") + g.get("hits_pending");
        misses += g.get("misses");
    }
    return aggregateHitRate(hits, misses);
}

double
GpuSystem::l15HitRate() const
{
    double hits = 0.0, misses = 0.0;
    for (const auto &c : l15_) {
        const auto &g = c->statsGroup();
        hits += g.get("hits") + g.get("hits_pending");
        misses += g.get("misses");
    }
    return aggregateHitRate(hits, misses);
}

double
GpuSystem::l2HitRate() const
{
    double hits = 0.0, misses = 0.0;
    for (const auto &c : l2_) {
        const auto &g = c->statsGroup();
        hits += g.get("hits") + g.get("hits_pending");
        misses += g.get("misses");
    }
    return aggregateHitRate(hits, misses);
}

} // namespace mcmgpu
