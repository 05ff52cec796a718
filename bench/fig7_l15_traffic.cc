/**
 * @file
 * Figure 7: total inter-GPM bandwidth of the baseline MCM-GPU and of
 * the MCM-GPU with a 16 MB remote-only L1.5 cache, per
 * memory-intensive workload plus category averages.
 *
 * Paper reference: SSSP's link traffic drops by 39.9%; averages drop
 * 16.9% / 36.4% / 32.9% (M / C / limited), 28% across the suite.
 */

#include <iostream>

#include "common/log.hh"
#include "common/summary.hh"
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

    // Warm both configs across the suite through the pool.
    const GpuConfig matrix[] = {base, l15};
    const auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    Table t({"Workload", "Baseline (TB/s)", "16MB RO L1.5 (TB/s)",
             "Reduction"});
    for (const workloads::Workload *w :
         workloads::byCategory(Category::MemoryIntensive)) {
        const RunResult &b = experiment::run(base, *w);
        const RunResult &o = experiment::run(l15, *w);
        double red = b.interModuleTBps() > 0.0
                         ? 1.0 - o.interModuleTBps() / b.interModuleTBps()
                         : 0.0;
        t.addRow({w->abbr, Table::fmt(b.interModuleTBps(), 2),
                  Table::fmt(o.interModuleTBps(), 2),
                  Table::fmt(100.0 * red, 1) + "%"});
    }

    t.addSeparator();
    double total_red_log = 0.0;
    int n_all = 0;
    for (auto cat : {Category::MemoryIntensive, Category::ComputeIntensive,
                     Category::LimitedParallelism}) {
        double b_sum = 0.0, o_sum = 0.0;
        auto ws = workloads::byCategory(cat);
        for (const workloads::Workload *w : ws) {
            b_sum += experiment::run(base, *w).interModuleTBps();
            o_sum += experiment::run(l15, *w).interModuleTBps();
            ++n_all;
        }
        double red = b_sum > 0.0 ? 1.0 - o_sum / b_sum : 0.0;
        total_red_log += o_sum;
        t.addRow({std::string("avg ") + categoryName(cat),
                  Table::fmt(b_sum / ws.size(), 2),
                  Table::fmt(o_sum / ws.size(), 2),
                  Table::fmt(100.0 * red, 1) + "%"});
    }

    double all_b = 0.0, all_o = 0.0;
    for (const workloads::Workload *w : experiment::everyWorkload()) {
        all_b += experiment::run(base, *w).interModuleTBps();
        all_o += experiment::run(l15, *w).interModuleTBps();
    }
    t.addRow({"avg All", Table::fmt(all_b / 48.0, 2),
              Table::fmt(all_o / 48.0, 2),
              Table::fmt(100.0 * (1.0 - all_o / all_b), 1) + "%"});

    std::cout << "Figure 7: total inter-GPM bandwidth, baseline vs 16MB "
                 "remote-only L1.5\n\n";
    t.print(std::cout);
    std::cout << "\nPaper: SSSP -39.9%; averages -16.9% / -36.4% / "
                 "-32.9% (M/C/limited); -28% overall.\n";
    return 0;
}
