/**
 * @file
 * Figure 13: performance of the MCM-GPU with first-touch page
 * placement on top of distributed scheduling and the remote-only L1.5,
 * comparing a 16 MB L1.5 (L2 reduced to a sliver) against an 8 MB
 * L1.5 + 8 MB L2 split.
 *
 * Paper reference: with FT keeping most accesses local, the pressure
 * moves to the local memory system, so the 8 MB L1.5 / 8 MB L2 split
 * wins: +51% / +11.3% / +7.9% (M / C / limited) over the baseline.
 */

#include <iostream>

#include "common/log.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;
using workloads::Category;

namespace {

GpuConfig
ftConfig(uint64_t l15_bytes, const char *name)
{
    GpuConfig c = configs::mcmWithL15(l15_bytes, L15Alloc::RemoteOnly)
                      .withSched(CtaSchedPolicy::DistributedBatch)
                      .withPagePolicy(PagePolicy::FirstTouch);
    c.name = name;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const GpuConfig base = configs::mcmBasic();
    const GpuConfig ft16 = ftConfig(16 * MiB, "mcm-ft-ds-l15-16mb");
    const GpuConfig ft8 = ftConfig(8 * MiB, "mcm-ft-ds-l15-8mb");

    // Warm all three configs across the suite through the pool.
    const GpuConfig matrix[] = {base, ft16, ft8};
    const auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    Table t({"Workload", "16MB RO L1.5 + DS + FT",
             "8MB RO L1.5 + 8MB L2 + DS + FT"});
    for (const workloads::Workload *w :
         workloads::byCategory(Category::MemoryIntensive)) {
        const RunResult &b = experiment::run(base, *w);
        t.addRow({w->abbr,
                  Table::fmt(experiment::run(ft16, *w).speedupOver(b), 2),
                  Table::fmt(experiment::run(ft8, *w).speedupOver(b), 2)});
    }
    t.addSeparator();
    for (auto cat : {Category::MemoryIntensive, Category::ComputeIntensive,
                     Category::LimitedParallelism}) {
        auto ws = workloads::byCategory(cat);
        t.addRow({std::string("geomean ") + categoryName(cat),
                  Table::fmt(experiment::geomeanSpeedup(ft16, base, ws), 2),
                  Table::fmt(experiment::geomeanSpeedup(ft8, base, ws),
                             2)});
    }

    std::cout << "Figure 13: speedup over baseline MCM-GPU with first "
                 "touch page placement\n(+ distributed scheduling + "
                 "remote-only L1.5)\n\n";
    t.print(std::cout);
    std::cout << "\nPaper: FT shifts the bottleneck to local memory "
                 "bandwidth, so the 8MB L1.5 +\n8MB L2 rebalance wins: "
                 "+51% / +11.3% / +7.9% (M/C/limited).\n";
    return 0;
}
