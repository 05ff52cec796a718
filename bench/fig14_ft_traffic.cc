/**
 * @file
 * Figure 14: inter-GPM bandwidth once first-touch page placement joins
 * distributed scheduling and the remote-only L1.5 (16 MB vs 8 MB
 * variants), against the baseline MCM-GPU.
 *
 * Paper reference: many workloads see their inter-GPM traffic almost
 * eliminated; overall the optimized MCM-GPU moves 5x fewer bytes
 * between GPMs than the baseline.
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

    Table t({"Workload", "Baseline (TB/s)", "FT+DS+16MB L1.5 (TB/s)",
             "FT+DS+8MB L1.5 (TB/s)"});
    for (const workloads::Workload *w :
         workloads::byCategory(Category::MemoryIntensive)) {
        t.addRow({w->abbr,
                  Table::fmt(experiment::run(base, *w).interModuleTBps(),
                             2),
                  Table::fmt(experiment::run(ft16, *w).interModuleTBps(),
                             2),
                  Table::fmt(experiment::run(ft8, *w).interModuleTBps(),
                             2)});
    }
    t.addSeparator();

    double all_b = 0.0, all_16 = 0.0, all_8 = 0.0;
    for (const workloads::Workload *w : experiment::everyWorkload()) {
        all_b += experiment::run(base, *w).interModuleTBps();
        all_16 += experiment::run(ft16, *w).interModuleTBps();
        all_8 += experiment::run(ft8, *w).interModuleTBps();
    }
    t.addRow({"avg All (48)", Table::fmt(all_b / 48.0, 2),
              Table::fmt(all_16 / 48.0, 2), Table::fmt(all_8 / 48.0, 2)});

    std::cout << "Figure 14: inter-GPM bandwidth with first touch page "
                 "placement\n\n";
    t.print(std::cout);
    std::cout << "\nOverall inter-GPM traffic reduction vs baseline: "
              << Table::fmt(all_b / std::max(all_8, 1e-9), 1)
              << "x (paper: 5x).\n";
    return 0;
}
