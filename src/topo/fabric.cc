#include "topo/fabric.hh"

#include <algorithm>
#include <ostream>

#include "common/log.hh"

namespace mcmgpu {

Link
makeFaultedLink(std::string name, double gbps, Cycle hop_cycles,
                const FaultPlan *plan, ModuleId upstream, uint64_t salt)
{
    if (!plan) {
        Link l(gbps, hop_cycles);
        l.setName(std::move(name));
        return l;
    }
    Link l(gbps * plan->linkDerate(upstream), hop_cycles);
    l.setName(std::move(name));
    const double rate = plan->linkErrorRate(upstream);
    if (rate > 0.0) {
        l.setTransientErrors(rate, plan->link_retry_cycles,
                             splitmix64(plan->seed ^
                                        (salt * 8191ull + upstream)));
    }
    return l;
}

Fabric::Fabric(const topo::TopologyDesc &desc, const topo::TopoParams &params,
               const FaultPlan *plan, RoutePolicy policy)
    : graph_(topo::buildTopoGraph(desc, params)),
      policy_(policy),
      table_(topo::computeRoutes(desc, graph_,
                                 policy == RoutePolicy::Adaptive))
{
    links_.reserve(graph_.links.size());
    for (const topo::TopoLinkDesc &d : graph_.links) {
        links_.push_back(makeFaultedLink(d.name, d.gbps, d.hop_cycles, plan,
                                         d.fault_upstream, d.fault_salt));
    }
    size_t max_cands = 0;
    route_meta_.resize(table_.entries.size());
    for (size_t e = 0; e < table_.entries.size(); ++e) {
        const topo::RouteSet &set = table_.entries[e];
        max_cands = std::max(max_cands, set.candidates.size());
        for (const topo::LinkSeq &seq : set.candidates) {
            RouteMeta meta;
            for (uint32_t id : seq) {
                const topo::TopoLinkDesc &l = graph_.links[id];
                meta.hops += graph_.leavesModule(l) ? 1 : 0;
                meta.board |= l.board;
            }
            route_meta_[e].push_back(meta);
        }
    }
    cand_picks_.assign(max_cands, 0);
}

std::unique_ptr<Fabric>
Fabric::create(const GpuConfig &cfg)
{
    topo::TopologyDesc desc;
    std::string err;
    fatal_if(!topo::parseTopology(cfg.topology, desc, err), "--topology: ",
             err);
    topo::TopoParams p;
    p.num_modules = cfg.num_modules;
    p.link_gbps = cfg.link_gbps;
    p.link_hop_cycles = cfg.link_hop_cycles;
    p.pkg_link_gbps = cfg.pkg_link_gbps;
    p.pkg_link_hop_cycles = cfg.pkg_link_hop_cycles;
    p.board_level_links = cfg.board_level_links;
    return std::make_unique<Fabric>(
        desc, p, cfg.fault.degradesLinks() ? &cfg.fault : nullptr,
        cfg.route_policy);
}

size_t
Fabric::pickAdaptive(const topo::RouteSet &set, Cycle now)
{
    // Score every equal-cost candidate by the total backlog a byte
    // arriving now would queue behind across its links. Lower is
    // better; the first minimum wins, so score ties deterministically
    // break towards the lowest candidate index.
    const size_t n = set.candidates.size();
    size_t best = 0;
    Cycle best_score = 0;
    bool all_tied = true;
    for (size_t c = 0; c < n; ++c) {
        Cycle score = 0;
        for (uint32_t id : set.candidates[c])
            score += links_[id].backlogCycles(now);
        if (c == 0) {
            best_score = score;
            continue;
        }
        if (score != best_score)
            all_tied = false;
        if (score < best_score) {
            best_score = score;
            best = c;
        }
    }
    ++route_adaptive_picks_;
    if (all_tied) {
        // Nothing to steer by: fall back to the static balancing
        // toggle. This is the only case that advances it — when the
        // score decides, the toggle keeps its state so the static
        // fallback parity is unaffected by adaptive overrides.
        best = route_toggle_++ % n;
    } else if (best != route_toggle_ % n) {
        ++route_diverted_;
    }
    ++cand_picks_[best];
    return best;
}

FabricTransfer
Fabric::send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
{
    panic_if(src >= graph_.nodes || dst >= graph_.nodes,
             "fabric node out of range: ", src, " -> ", dst);
    if (src == dst)
        return {now, 0};
    injected_ += bytes;

    const size_t entry = static_cast<size_t>(src) * graph_.nodes + dst;
    const topo::RouteSet &set = table_.entries[entry];
    // Single routes go straight through. Under the static policy,
    // equal-cost ties alternate on a global toggle: with the ring's
    // [cw, ccw] candidate order this is the classic (toggle++ & 1)
    // direction pick, and the toggle only advances on tied pairs. The
    // adaptive policy instead scores candidates by link backlog
    // (docs/TOPOLOGY.md).
    size_t pick = 0;
    if (set.candidates.size() > 1) {
        pick = policy_ == RoutePolicy::Adaptive
                   ? pickAdaptive(set, now)
                   : route_toggle_++ % set.candidates.size();
    }
    const topo::LinkSeq &seq = set.candidates[pick];
    const RouteMeta &meta = route_meta_[entry][pick];

    Cycle t = now;
    if (hop_hist_) [[unlikely]] {
        // Observational per-hop latency: identical traversal calls,
        // with each hop's entry-to-arrival delta recorded. The fast
        // loop below stays branch-free for the obs-off common case.
        for (uint32_t id : seq) {
            const Cycle entered = t;
            t = links_[id].traverse(t, bytes);
            hop_hist_->record(t - entered);
        }
        return {t, meta.hops, meta.board};
    }
    for (uint32_t id : seq)
        t = links_[id].traverse(t, bytes);
    return {t, meta.hops, meta.board};
}

uint64_t
Fabric::linkBytes() const
{
    // Links out of a switch re-carry bytes a module's link already
    // counted, so each message counts once per module it leaves.
    uint64_t sum = 0;
    for (size_t i = 0; i < links_.size(); ++i) {
        if (graph_.leavesModule(graph_.links[i]))
            sum += links_[i].bytesCarried();
    }
    return sum;
}

uint64_t
Fabric::transientErrors() const
{
    uint64_t sum = 0;
    for (const Link &l : links_)
        sum += l.transientErrors();
    return sum;
}

Cycle
Fabric::minRouteCycles() const
{
    Cycle best = kCycleMax;
    for (uint32_t src = 0; src < graph_.nodes; ++src) {
        for (uint32_t dst = 0; dst < graph_.nodes; ++dst) {
            if (src == dst)
                continue;
            for (const topo::LinkSeq &seq : table_.at(src, dst).candidates) {
                Cycle sum = 0;
                for (uint32_t link : seq)
                    sum += graph_.links[link].hop_cycles;
                best = std::min(best, sum);
            }
        }
    }
    return best == kCycleMax ? 0 : best;
}

void
Fabric::dumpOccupancy(std::ostream &os) const
{
    for (size_t i = 0; i < links_.size(); ++i) {
        const Link &l = links_[i];
        os << "  " << graph_.links[i].name << ": rate "
           << l.rateBytesPerCycle() << " B/cy, carried " << l.bytesCarried()
           << " B, busy " << l.busyCycles() << " cy, errors "
           << l.transientErrors() << ", replay " << l.replayCycles()
           << " cy\n";
    }
}

void
Fabric::visitLinks(const LinkVisitor &visit)
{
    for (size_t i = 0; i < links_.size(); ++i)
        visit(graph_.links[i].name, links_[i]);
}

} // namespace mcmgpu
