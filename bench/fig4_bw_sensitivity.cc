/**
 * @file
 * Figure 4: performance sensitivity of the basic 256-SM MCM-GPU to
 * inter-GPM link bandwidth.
 *
 * For each category (M-Intensive, C-Intensive high-parallelism, and
 * limited-parallelism), reports the slowdown relative to an abundant
 * 6 TB/s link at settings {6 TB/s, 3 TB/s, 1.5 TB/s, 768 GB/s,
 * 384 GB/s}. Paper reference: M-Intensive degrades ~12% / 40% / 57% at
 * 1.5 TB/s / 768 GB/s / 384 GB/s.
 */

#include <iostream>

#include "common/log.hh"
#include "common/summary.hh"
#include "common/table.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;
using workloads::Category;

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const double settings[] = {6144.0, 3072.0, 1536.0, 768.0, 384.0};
    const char *labels[] = {"6 TB/s", "3 TB/s", "1.5 TB/s", "768 GB/s",
                            "384 GB/s"};

    const GpuConfig reference = configs::mcmBasic(6144.0);

    // Warm the link-bandwidth × workload matrix through the pool.
    std::vector<GpuConfig> sweep{reference};
    for (double gbps : settings)
        sweep.push_back(configs::mcmBasic(gbps));
    const auto all = experiment::everyWorkload();
    experiment::prefetch(sweep, all);

    struct Row
    {
        const char *name;
        std::vector<const workloads::Workload *> ws;
    };
    Row rows[] = {
        {"M-Intensive", workloads::byCategory(Category::MemoryIntensive)},
        {"C-Intensive", workloads::byCategory(Category::ComputeIntensive)},
        {"Limited Parallelism",
         workloads::byCategory(Category::LimitedParallelism)},
        {"All", experiment::everyWorkload()},
    };

    Table t({"Category", labels[0], labels[1], labels[2], labels[3],
             labels[4]});
    for (const Row &row : rows) {
        std::vector<std::string> cells{row.name};
        for (double gbps : settings) {
            GpuConfig cfg = configs::mcmBasic(gbps);
            double rel =
                experiment::geomeanSpeedup(cfg, reference, row.ws);
            cells.push_back(Table::fmt(rel, 3));
        }
        t.addRow(std::move(cells));
    }

    std::cout << "Figure 4: relative performance vs inter-GPM link "
                 "bandwidth\n(basic 4-GPM 256-SM MCM-GPU; 1.0 = 6 TB/s "
                 "links)\n\n";
    t.print(std::cout);
    std::cout << "\nPaper: M-Intensive 12% / 40% / 57% degradation at "
                 "1.5 TB/s / 768 GB/s / 384 GB/s.\n";
    return 0;
}
