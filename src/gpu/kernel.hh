/**
 * @file
 * Kernel descriptor: the unit of work launched onto the logical GPU.
 *
 * A kernel is a grid of CTAs, each made of warps whose instruction
 * streams come from a pattern spec (run by value in the SM's warp
 * slots) or, for hand-written traces, from a trace factory. Workloads
 * are sequences of kernel launches (applications with convergence loops
 * relaunch the same kernel many times, which is what makes first-touch
 * placement and distributed scheduling synergistic — see Figure 12).
 */

#ifndef MCMGPU_GPU_KERNEL_HH
#define MCMGPU_GPU_KERNEL_HH

#include <functional>
#include <memory>
#include <string>

#include "common/types.hh"
#include "core/warp_trace.hh"

namespace mcmgpu {

namespace workloads {
struct KernelSpec;
}

/** Creates the instruction stream of one warp of one CTA. */
using TraceFactory =
    std::function<std::unique_ptr<WarpTrace>(CtaId, WarpId)>;

/** Static description of one kernel. */
struct KernelDesc
{
    std::string name;
    uint32_t num_ctas = 0;
    uint32_t warps_per_cta = 1;
    /** The pattern this kernel replays (set by workloads::makeKernel).
     *  When set, the SM builds each warp's PatternTrace inside its warp
     *  slot and make_trace is not called; when empty, every warp's
     *  trace comes from make_trace. */
    std::shared_ptr<const workloads::KernelSpec> spec;
    TraceFactory make_trace;
    /** Fingerprint of the generating parameters (trace identity), used
     *  by the experiment cache; empty disables caching for this kernel. */
    std::string signature;
};

/**
 * A kernel plus how many times the application launches it back to
 * back (iterative solvers relaunch the same grid every timestep).
 */
struct KernelLaunch
{
    KernelDesc kernel;
    uint32_t iterations = 1;
};

} // namespace mcmgpu

#endif // MCMGPU_GPU_KERNEL_HH
