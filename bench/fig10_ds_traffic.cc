/**
 * @file
 * Figure 10: reduction in inter-GPM bandwidth when distributed CTA
 * scheduling is added to the 16 MB remote-only L1.5 configuration,
 * compared to the baseline MCM-GPU.
 *
 * Paper reference: inter-GPM bandwidth utilization drops by 33% on
 * average across the suite (vs 28% for the L1.5 alone).
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
    GpuConfig ds = configs::mcmWithL15(16 * MiB, L15Alloc::RemoteOnly)
                       .withSched(CtaSchedPolicy::DistributedBatch)
                       .withName("mcm-l15-16mb-ds");

    // Warm both configs across the suite through the pool.
    const GpuConfig matrix[] = {base, ds};
    const auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    Table t({"Workload", "Baseline (TB/s)", "L1.5 + DS (TB/s)",
             "Reduction"});
    for (const workloads::Workload *w :
         workloads::byCategory(Category::MemoryIntensive)) {
        const RunResult &b = experiment::run(base, *w);
        const RunResult &o = experiment::run(ds, *w);
        double red = b.interModuleTBps() > 0.0
                         ? 1.0 - o.interModuleTBps() / b.interModuleTBps()
                         : 0.0;
        t.addRow({w->abbr, Table::fmt(b.interModuleTBps(), 2),
                  Table::fmt(o.interModuleTBps(), 2),
                  Table::fmt(100.0 * red, 1) + "%"});
    }
    t.addSeparator();

    double all_b = 0.0, all_o = 0.0;
    for (const workloads::Workload *w : experiment::everyWorkload()) {
        all_b += experiment::run(base, *w).interModuleTBps();
        all_o += experiment::run(ds, *w).interModuleTBps();
    }
    t.addRow({"avg All (48)", Table::fmt(all_b / 48.0, 2),
              Table::fmt(all_o / 48.0, 2),
              Table::fmt(100.0 * (1.0 - all_o / all_b), 1) + "%"});

    std::cout << "Figure 10: inter-GPM bandwidth with distributed "
                 "scheduling + 16MB remote-only L1.5\n\n";
    t.print(std::cout);
    std::cout << "\nPaper: -33% inter-GPM bandwidth on average across "
                 "all workloads.\n";
    return 0;
}
