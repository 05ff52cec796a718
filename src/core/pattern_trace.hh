/**
 * @file
 * Parametric kernel description and its warp-trace cursor.
 *
 * A KernelSpec describes one synthetic kernel: a grid of CTAs whose
 * warps walk a few arrays with the access patterns below. PatternTrace
 * replays that description for one (cta, warp). Both live in core/
 * because the SM runs a PatternTrace by value inside its warp slot
 * (core/sm.hh); the workload library (workloads/patterns.hh) builds the
 * specs and packages them as kernels.
 *
 * Streams are deterministic in (seed, cta, warp): every machine
 * configuration replays byte-identical traces.
 */

#ifndef MCMGPU_CORE_PATTERN_TRACE_HH
#define MCMGPU_CORE_PATTERN_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "core/warp_trace.hh"

namespace mcmgpu {
namespace workloads {

/** Cache-line size assumed by the generators (== machine line size). */
inline constexpr uint32_t kLine = 128;

/** A global-memory allocation the kernel operates on. */
struct ArrayRef
{
    Addr base = 0;
    uint64_t bytes = 0;
};

/** How an access stream walks its array. */
enum class AccessKind
{
    Partitioned, //!< CTA-chunked grid-stride walk
    Halo,        //!< Partitioned shifted by halo_lines (may cross chunks)
    Gather,      //!< uniform random line over the whole array
    GatherLocal, //!< random line in a window around the CTA's chunk
    Broadcast,   //!< same line sequence in every CTA (shared tables)
};

/** One access per item of the kernel's inner loop. */
struct AccessSpec
{
    uint32_t array = 0;         //!< index into KernelSpec::arrays
    AccessKind kind = AccessKind::Partitioned;
    bool store = false;
    uint32_t bytes = 128;       //!< payload (128 == fully coalesced line)
    int32_t halo_lines = 0;     //!< Halo: offset in cache lines
    uint64_t window_bytes = 0;  //!< GatherLocal: window size
    double prob = 1.0;          //!< emit probability per item
};

/** Full parametric description of one synthetic kernel. */
struct KernelSpec
{
    std::string name = "kernel";
    uint32_t num_ctas = 0;
    uint32_t warps_per_cta = 4;
    uint32_t items_per_warp = 0;   //!< inner-loop trip count per warp
    uint32_t compute_per_item = 1; //!< issue cycles of ALU work per item
    std::vector<ArrayRef> arrays;
    std::vector<AccessSpec> accesses;
    uint64_t seed = 1;
};

/**
 * WarpTrace that replays a KernelSpec for one (cta, warp). Final, so a
 * call through a PatternTrace is direct: the SM keeps one by value in
 * each warp slot and steps it without a virtual call.
 */
class PatternTrace final : public WarpTrace
{
  public:
    PatternTrace(std::shared_ptr<const KernelSpec> spec, CtaId cta,
                 WarpId warp);

    bool next(WarpOp &op) override;

  private:
    Addr addressFor(const AccessSpec &acc, uint32_t item);

    std::shared_ptr<const KernelSpec> spec_;
    CtaId cta_;
    WarpId warp_;
    uint32_t item_ = 0;
    uint32_t access_ = 0;
    bool compute_pending_ = true; //!< attach compute to the item's 1st op
    Rng rng_;
};

} // namespace workloads
} // namespace mcmgpu

#endif // MCMGPU_CORE_PATTERN_TRACE_HH
