#include "core/pattern_trace.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcmgpu {
namespace workloads {

PatternTrace::PatternTrace(std::shared_ptr<const KernelSpec> spec,
                           CtaId cta, WarpId warp)
    : spec_(std::move(spec)),
      cta_(cta),
      warp_(warp),
      rng_(splitmix64(spec_->seed * 0x51ed2701u + cta * 0x9e3779b9u +
                      warp + 1))
{
    panic_if(!spec_, "PatternTrace needs a spec");
}

Addr
PatternTrace::addressFor(const AccessSpec &acc, uint32_t item)
{
    const KernelSpec &k = *spec_;
    panic_if(acc.array >= k.arrays.size(),
             "kernel '", k.name, "': access references array ", acc.array,
             " of ", k.arrays.size());
    const ArrayRef &arr = k.arrays[acc.array];
    const uint64_t arr_lines = std::max<uint64_t>(1, arr.bytes / kLine);

    // Per-CTA chunk of the array, at least one line.
    const uint64_t chunk_lines =
        std::max<uint64_t>(1, arr_lines / std::max(1u, k.num_ctas));

    // Grid-stride position: consecutive warps touch consecutive lines.
    // Each CTA starts its sweep at a random rotation within its own
    // chunk so that, as on real hardware with thousands of slightly
    // desynchronized CTAs, concurrent CTAs do not march through the
    // fine-interleaved partitions in lockstep (which would serialize
    // the whole GPU on one memory partition at a time). The rotation is
    // aligned to one interleave block (two lines) — NOT to a page or
    // any multiple of the partition stride, which would re-align the
    // partition phase across CTAs.
    const uint64_t rot_align = 2;
    const uint64_t rot =
        chunk_lines > rot_align
            ? (splitmix64(k.seed ^ (0xc7a9'57e1ull * (cta_ + 1))) %
               (chunk_lines / rot_align)) * rot_align
            : 0;
    const uint64_t pos =
        (rot + static_cast<uint64_t>(item) * k.warps_per_cta + warp_) %
        chunk_lines;

    uint64_t line_idx = 0;
    switch (acc.kind) {
      case AccessKind::Partitioned:
        line_idx = (cta_ * chunk_lines + pos) % arr_lines;
        break;

      case AccessKind::Halo: {
        int64_t shifted = static_cast<int64_t>(cta_ * chunk_lines + pos) +
                          acc.halo_lines;
        int64_t n = static_cast<int64_t>(arr_lines);
        line_idx = static_cast<uint64_t>(((shifted % n) + n) % n);
        break;
      }

      case AccessKind::Gather:
        line_idx = rng_.below(arr_lines);
        break;

      case AccessKind::GatherLocal: {
        const uint64_t window_lines =
            std::max<uint64_t>(1, acc.window_bytes / kLine);
        int64_t center = static_cast<int64_t>(cta_ * chunk_lines);
        int64_t off = static_cast<int64_t>(rng_.below(window_lines)) -
                      static_cast<int64_t>(window_lines / 2);
        int64_t n = static_cast<int64_t>(arr_lines);
        line_idx = static_cast<uint64_t>((((center + off) % n) + n) % n);
        break;
      }

      case AccessKind::Broadcast:
        line_idx = (static_cast<uint64_t>(item) * k.warps_per_cta + warp_) %
                   arr_lines;
        break;
    }

    return arr.base + line_idx * kLine;
}

bool
PatternTrace::next(WarpOp &op)
{
    const KernelSpec &k = *spec_;

    while (item_ < k.items_per_warp) {
        // Pure-compute kernels: one compute op per item.
        if (k.accesses.empty()) {
            op = WarpOp{};
            op.compute_cycles = k.compute_per_item;
            ++item_;
            return true;
        }

        while (access_ < k.accesses.size()) {
            const AccessSpec &acc = k.accesses[access_];
            ++access_;

            if (acc.prob < 1.0 && !rng_.chance(acc.prob))
                continue;

            op = WarpOp{};
            op.has_mem = true;
            op.is_store = acc.store;
            op.bytes = acc.bytes;
            op.addr = addressFor(acc, item_);
            if (compute_pending_) {
                op.compute_cycles = k.compute_per_item;
                compute_pending_ = false;
            }
            return true;
        }

        // Item finished; if every access was probabilistically skipped,
        // still charge the item's compute.
        bool emit_compute = compute_pending_ && k.compute_per_item > 0;
        access_ = 0;
        compute_pending_ = true;
        ++item_;
        if (emit_compute) {
            op = WarpOp{};
            op.compute_cycles = k.compute_per_item;
            return true;
        }
    }
    return false;
}

} // namespace workloads
} // namespace mcmgpu
