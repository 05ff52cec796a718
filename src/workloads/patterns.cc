#include "workloads/patterns.hh"

#include <sstream>

#include "common/log.hh"

namespace mcmgpu {
namespace workloads {

KernelDesc
makeKernel(KernelSpec spec)
{
    fatal_if(spec.num_ctas == 0,
             "kernel '", spec.name, "': zero CTAs");
    fatal_if(spec.items_per_warp == 0,
             "kernel '", spec.name, "': zero items per warp");
    for (const AccessSpec &a : spec.accesses) {
        fatal_if(a.bytes == 0 || a.bytes > kLine,
                 "kernel '", spec.name,
                 "': access payload must be in (0, ", kLine, "]");
    }

    KernelDesc desc;
    desc.name = spec.name;
    desc.num_ctas = spec.num_ctas;
    desc.warps_per_cta = spec.warps_per_cta;

    // Full fingerprint of the generating parameters: any change to the
    // spec must invalidate cached simulation results.
    std::ostringstream sig;
    sig << spec.name << '|' << spec.num_ctas << ',' << spec.warps_per_cta
        << ',' << spec.items_per_warp << ',' << spec.compute_per_item
        << ',' << spec.seed;
    for (const ArrayRef &a : spec.arrays)
        sig << "|a" << a.base << ',' << a.bytes;
    for (const AccessSpec &ac : spec.accesses) {
        sig << "|x" << ac.array << ',' << static_cast<int>(ac.kind) << ','
            << ac.store << ',' << ac.bytes << ',' << ac.halo_lines << ','
            << ac.window_bytes << ',' << ac.prob;
    }
    desc.signature = sig.str();

    desc.spec = std::make_shared<const KernelSpec>(std::move(spec));
    desc.make_trace = [shared = desc.spec](CtaId cta, WarpId warp) {
        return std::make_unique<PatternTrace>(shared, cta, warp);
    };
    return desc;
}

} // namespace workloads
} // namespace mcmgpu
