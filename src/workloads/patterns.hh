/**
 * @file
 * Procedural kernel generator.
 *
 * The paper evaluates 48 CUDA applications through NVIDIA's in-house
 * trace-driven simulator. Those binaries and traces are proprietary, so
 * this reproduction synthesizes warp instruction streams with the same
 * structural properties the paper's optimizations exploit:
 *
 *  - Partitioned: each CTA owns a contiguous chunk of an array
 *    (grid-stride loops) -> page-granularity CTA<->data affinity that
 *    first-touch placement turns into locality.
 *  - Halo: stencil reads reaching into the neighbouring CTA's chunk ->
 *    inter-CTA sharing that distributed scheduling keeps on one GPM.
 *  - Gather / GatherLocal: irregular reads over the whole array or a
 *    window around the CTA's chunk (graphs, particle methods).
 *  - Broadcast: all CTAs stream the same small table (kmeans centroids,
 *    neural-net weights, cross-section tables) -> prime L1.5 fodder.
 *
 * Streams are deterministic in (seed, cta, warp): every machine
 * configuration replays byte-identical traces. KernelSpec, its access
 * types and PatternTrace are defined in core/pattern_trace.hh, which
 * this header includes: the SM runs the trace cursor in its warp slots.
 */

#ifndef MCMGPU_WORKLOADS_PATTERNS_HH
#define MCMGPU_WORKLOADS_PATTERNS_HH

#include "core/pattern_trace.hh"
#include "gpu/kernel.hh"

namespace mcmgpu {
namespace workloads {

/** Package a spec as a launchable kernel. */
KernelDesc makeKernel(KernelSpec spec);

// --- Access-spec shorthands used by the suite builders ---------------------

/** Coalesced grid-stride access over CTA-owned chunks. */
inline AccessSpec
part(uint32_t array, bool store = false, uint32_t bytes = kLine)
{
    AccessSpec a;
    a.array = array;
    a.kind = AccessKind::Partitioned;
    a.store = store;
    a.bytes = bytes;
    return a;
}

/** Stencil read shifted @p lines cache lines from the own position. */
inline AccessSpec
halo(uint32_t array, int32_t lines)
{
    AccessSpec a;
    a.array = array;
    a.kind = AccessKind::Halo;
    a.halo_lines = lines;
    return a;
}

/** Uniform random read over the whole array. */
inline AccessSpec
gather(uint32_t array, uint32_t bytes = kLine, double prob = 1.0)
{
    AccessSpec a;
    a.array = array;
    a.kind = AccessKind::Gather;
    a.bytes = bytes;
    a.prob = prob;
    return a;
}

/** Random read within @p window bytes around the CTA's own chunk. */
inline AccessSpec
gatherLocal(uint32_t array, uint64_t window, uint32_t bytes = kLine)
{
    AccessSpec a;
    a.array = array;
    a.kind = AccessKind::GatherLocal;
    a.window_bytes = window;
    a.bytes = bytes;
    return a;
}

/** Same-line-sequence read in every CTA (shared tables/weights). */
inline AccessSpec
bcast(uint32_t array)
{
    AccessSpec a;
    a.array = array;
    a.kind = AccessKind::Broadcast;
    return a;
}

} // namespace workloads
} // namespace mcmgpu

#endif // MCMGPU_WORKLOADS_PATTERNS_HH
