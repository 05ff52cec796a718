/**
 * @file
 * Hand-written reference fabrics for the parity tests: the ring, mesh
 * and port models exactly as the simulator implemented them before
 * every interconnect became a compiled topology. The `ring`, `mesh2d`
 * and `ports` specs must reproduce them bit for bit (TopoParity in
 * test_topo.cc): arrival cycles, hop counts, byte counters, fault-plan
 * seeding, and link names in visit order. Trimmed to what those tests
 * call; not part of the simulator.
 */

#ifndef MCMGPU_TESTS_LEGACY_FABRICS_HH
#define MCMGPU_TESTS_LEGACY_FABRICS_HH

#include <functional>
#include <string>
#include <vector>

#include "topo/fabric.hh"

namespace mcmgpu {
namespace legacy {

using LinkVisitor = std::function<void(const std::string &, Link &)>;

/** Sum @p stat over @p links. */
inline uint64_t
total(const std::vector<Link> &links, uint64_t (Link::*stat)() const)
{
    uint64_t sum = 0;
    for (const Link &l : links)
        sum += (l.*stat)();
    return sum;
}

/** Bidirectional ring with shortest-path routing. */
class RingFabric
{
  public:
    RingFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
               const FaultPlan *plan = nullptr)
        : nodes_(nodes)
    {
        // The configured link bandwidth is the aggregate of one physical
        // link; each direction gets half.
        const double per_direction = gbps / 2.0;
        for (uint32_t i = 0; i < nodes; ++i) {
            cw_.push_back(makeFaultedLink("ring.cw" + std::to_string(i),
                                          per_direction, hop_cycles, plan,
                                          i, 1));
            ccw_.push_back(makeFaultedLink("ring.ccw" + std::to_string(i),
                                           per_direction, hop_cycles, plan,
                                           i, 2));
        }
    }

    FabricTransfer
    send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
    {
        if (src == dst)
            return {now, 0};
        injected_ += bytes;

        const uint32_t fwd = (dst + nodes_ - src) % nodes_;
        const uint32_t bwd = nodes_ - fwd;
        // Two-node rings have exactly one physical link pair; always
        // use the "clockwise" direction so bandwidth is not
        // double-counted. Equal distance alternates to balance load.
        bool clockwise;
        if (nodes_ == 2 || fwd < bwd)
            clockwise = true;
        else if (bwd < fwd)
            clockwise = false;
        else
            clockwise = (route_toggle_++ & 1) == 0;

        const uint32_t hops = clockwise ? fwd : bwd;
        Cycle t = now;
        uint32_t at = src;
        for (uint32_t h = 0; h < hops; ++h) {
            if (clockwise) {
                t = cw_[at].traverse(t, bytes);
                at = (at + 1) % nodes_;
            } else {
                t = ccw_[at].traverse(t, bytes);
                at = (at + nodes_ - 1) % nodes_;
            }
        }
        return {t, hops};
    }

    uint64_t
    linkBytes() const
    {
        return total(cw_, &Link::bytesCarried) +
               total(ccw_, &Link::bytesCarried);
    }
    uint64_t injectedBytes() const { return injected_; }
    uint64_t
    transientErrors() const
    {
        return total(cw_, &Link::transientErrors) +
               total(ccw_, &Link::transientErrors);
    }

    void
    visitLinks(const LinkVisitor &visit)
    {
        for (uint32_t i = 0; i < nodes_; ++i) {
            visit("ring.cw" + std::to_string(i), cw_[i]);
            visit("ring.ccw" + std::to_string(i), ccw_[i]);
        }
    }

  private:
    uint32_t nodes_;
    std::vector<Link> cw_;  //!< cw_[i]: i -> (i+1) % nodes
    std::vector<Link> ccw_; //!< ccw_[i]: i -> (i-1+nodes) % nodes
    uint64_t injected_ = 0;
    uint64_t route_toggle_ = 0;
};

/** 2D mesh with dimension-ordered (XY) routing over the most-square
 *  grid that fits the node count. */
class MeshFabric
{
  public:
    MeshFabric(uint32_t nodes, double gbps, Cycle hop_cycles)
        : nodes_(nodes)
    {
        for (uint32_t d = 1; d * d <= nodes; ++d) {
            if (nodes % d == 0)
                rows_ = d;
        }
        cols_ = nodes / rows_;

        const double per_direction = gbps / 2.0;
        link_of_.assign(static_cast<size_t>(nodes) * nodes, -1);
        for (uint32_t a = 0; a < nodes; ++a) {
            const uint32_t ax = a % cols_, ay = a / cols_;
            for (uint32_t b = 0; b < nodes; ++b) {
                const uint32_t bx = b % cols_, by = b / cols_;
                const uint32_t dist = (ax > bx ? ax - bx : bx - ax) +
                                      (ay > by ? ay - by : by - ay);
                if (dist == 1) {
                    link_of_[static_cast<size_t>(a) * nodes + b] =
                        static_cast<int32_t>(links_.size());
                    links_.push_back(makeFaultedLink(
                        "mesh." + std::to_string(a) + "->" +
                            std::to_string(b),
                        per_direction, hop_cycles, nullptr, a, 3 + b));
                }
            }
        }
    }

    FabricTransfer
    send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
    {
        if (src == dst)
            return {now, 0};
        injected_ += bytes;

        // Dimension-ordered routing: X first, then Y.
        uint32_t at = src;
        Cycle t = now;
        uint32_t hops = 0;
        auto step = [&](uint32_t next) {
            const int32_t idx =
                link_of_[static_cast<size_t>(at) * nodes_ + next];
            t = links_[static_cast<size_t>(idx)].traverse(t, bytes);
            at = next;
            ++hops;
        };
        while (at % cols_ != dst % cols_)
            step(at % cols_ < dst % cols_ ? at + 1 : at - 1);
        while (at / cols_ != dst / cols_)
            step(at / cols_ < dst / cols_ ? at + cols_ : at - cols_);
        return {t, hops};
    }

    uint64_t linkBytes() const { return total(links_, &Link::bytesCarried); }
    uint64_t injectedBytes() const { return injected_; }

  private:
    uint32_t cols_ = 1;
    uint32_t rows_ = 1;
    uint32_t nodes_;
    std::vector<Link> links_;
    std::vector<int32_t> link_of_; //!< (a * nodes + b) -> link, -1
    uint64_t injected_ = 0;
};

/** Per-module ingress/egress port model (the analytical abstraction). */
class PortsFabric
{
  public:
    PortsFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
                const FaultPlan *plan = nullptr)
    {
        // As for the ring, each simplex port direction gets half.
        const double per_direction = gbps / 2.0;
        for (uint32_t i = 0; i < nodes; ++i) {
            // Split the hop latency across the two port traversals so
            // one send costs exactly hop_cycles of latency end to end.
            egress_.push_back(makeFaultedLink(
                "ports.egress" + std::to_string(i), per_direction,
                hop_cycles / 2, plan, i, 4));
            ingress_.push_back(makeFaultedLink(
                "ports.ingress" + std::to_string(i), per_direction,
                hop_cycles - hop_cycles / 2, plan, i, 5));
        }
    }

    FabricTransfer
    send(ModuleId src, ModuleId dst, uint64_t bytes, Cycle now)
    {
        if (src == dst)
            return {now, 0};
        injected_ += bytes;
        Cycle t = egress_[src].traverse(now, bytes);
        t = ingress_[dst].traverse(t, bytes);
        return {t, 1};
    }

    /** Ingress carries the same bytes; count each message once. */
    uint64_t linkBytes() const { return total(egress_, &Link::bytesCarried); }
    uint64_t injectedBytes() const { return injected_; }
    uint64_t
    transientErrors() const
    {
        return total(egress_, &Link::transientErrors) +
               total(ingress_, &Link::transientErrors);
    }

    void
    visitLinks(const LinkVisitor &visit)
    {
        for (size_t i = 0; i < egress_.size(); ++i) {
            visit("ports.egress" + std::to_string(i), egress_[i]);
            visit("ports.ingress" + std::to_string(i), ingress_[i]);
        }
    }

  private:
    std::vector<Link> egress_;
    std::vector<Link> ingress_;
    uint64_t injected_ = 0;
};

} // namespace legacy
} // namespace mcmgpu

#endif // MCMGPU_TESTS_LEGACY_FABRICS_HH
