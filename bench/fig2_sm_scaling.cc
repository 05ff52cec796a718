/**
 * @file
 * Figure 2: hypothetical GPU performance scaling with growing SM count
 * and a proportionally scaled memory system (384 GB/s + 2MB L2 at 32
 * SMs up to 3 TB/s + 16MB L2 at 256 SMs).
 *
 * Reports speedup over the 32-SM GPU for the high-parallelism group
 * (33 apps) and the limited-parallelism group (15 apps) next to linear
 * scaling. Paper reference: high-parallelism apps reach ~87.8% of
 * linear at 256 SMs; limited-parallelism apps plateau. GPUs beyond 128
 * SMs are not manufacturable (dotted region in the paper).
 */

#include <iostream>

#include "common/log.hh"
#include "common/summary.hh"
#include "common/table.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const uint32_t sm_counts[] = {32, 64, 96, 128, 160, 192, 224, 256};
    const GpuConfig base = configs::monolithic(32);

    auto high = experiment::highParallelismWorkloads();
    auto limited =
        workloads::byCategory(workloads::Category::LimitedParallelism);

    // Warm the whole SM-count × workload matrix through the pool; the
    // geomean loops below then read memoized results.
    std::vector<GpuConfig> sweep;
    for (uint32_t sms : sm_counts)
        sweep.push_back(configs::monolithic(sms));
    const auto all = experiment::everyWorkload();
    experiment::prefetch(sweep, all);

    Table t({"SM count", "Linear", "High-Parallelism (33)",
             "Limited-Parallelism (15)", "Buildable?"});
    double high_at_256 = 0.0;
    for (uint32_t sms : sm_counts) {
        GpuConfig cfg = configs::monolithic(sms);
        double h = experiment::geomeanSpeedup(cfg, base, high);
        double l = experiment::geomeanSpeedup(cfg, base, limited);
        if (sms == 256)
            high_at_256 = h;
        t.addRow({std::to_string(sms), Table::fmt(sms / 32.0, 2),
                  Table::fmt(h, 2), Table::fmt(l, 2),
                  sms <= 128 ? "yes" : "no (beyond reticle/yield)"});
    }

    std::cout << "Figure 2: hypothetical monolithic GPU scaling "
                 "(speedup over a 32-SM GPU;\nL2 and DRAM bandwidth "
                 "scale proportionally with SM count)\n\n";
    t.print(std::cout);
    std::cout << "\nHigh-parallelism apps reach "
              << Table::fmt(100.0 * high_at_256 / 8.0, 1)
              << "% of linear scaling at 256 SMs (paper: 87.8%).\n";
    return 0;
}
