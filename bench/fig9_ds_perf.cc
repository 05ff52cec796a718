/**
 * @file
 * Figure 9: performance of the MCM-GPU with distributed CTA scheduling
 * combined with the 16 MB remote-only L1.5 cache, as speedup over the
 * baseline MCM-GPU (per memory-intensive workload + category geomeans).
 *
 * Paper reference: +23.4% / +1.9% / +5.2% for the M-Intensive /
 * C-Intensive / limited-parallelism categories; workloads such as
 * Srad-v2 and Kmeans only start winning once distributed scheduling
 * raises inter-CTA reuse in the L1.5.
 */

#include <iostream>

#include "common/log.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;
using workloads::Category;

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const GpuConfig base = configs::mcmBasic();
    const GpuConfig l15 =
        configs::mcmWithL15(16 * MiB, L15Alloc::RemoteOnly);
    GpuConfig ds = configs::mcmWithL15(16 * MiB, L15Alloc::RemoteOnly)
                       .withSched(CtaSchedPolicy::DistributedBatch)
                       .withName("mcm-l15-16mb-ds");

    // Warm all three configs across the suite through the pool.
    const GpuConfig matrix[] = {base, l15, ds};
    const auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    Table t({"Workload", "16MB RO L1.5 only", "+ Distributed sched",
             "DS benefit"});
    for (const workloads::Workload *w :
         workloads::byCategory(Category::MemoryIntensive)) {
        const RunResult &b = experiment::run(base, *w);
        double s_l15 = experiment::run(l15, *w).speedupOver(b);
        double s_ds = experiment::run(ds, *w).speedupOver(b);
        t.addRow({w->abbr, Table::fmt(s_l15, 2), Table::fmt(s_ds, 2),
                  Table::pct(s_ds / s_l15 - 1.0)});
    }
    t.addSeparator();
    for (auto cat : {Category::MemoryIntensive, Category::ComputeIntensive,
                     Category::LimitedParallelism}) {
        auto ws = workloads::byCategory(cat);
        double g_l15 = experiment::geomeanSpeedup(l15, base, ws);
        double g_ds = experiment::geomeanSpeedup(ds, base, ws);
        t.addRow({std::string("geomean ") + categoryName(cat),
                  Table::fmt(g_l15, 2), Table::fmt(g_ds, 2),
                  Table::pct(g_ds / g_l15 - 1.0)});
    }

    std::cout << "Figure 9: speedup over baseline MCM-GPU with "
                 "distributed CTA scheduling + 16MB\nremote-only L1.5\n\n";
    t.print(std::cout);
    std::cout << "\nPaper: combination reaches +23.4% / +1.9% / +5.2% "
                 "(M/C/limited) over the baseline.\n";
    return 0;
}
