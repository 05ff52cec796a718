/**
 * @file
 * Figure 17 (and section 6.1): MCM-GPU vs multi-GPU.
 *
 * All machines have 256 SMs, 3 TB/s of aggregate DRAM bandwidth and
 * 16 MB of SRAM cache budget. The multi-GPU pair is connected by a
 * 256 GB/s aggregate board link; the programmer-transparent baseline
 * applies distributed scheduling and first touch (fine-grain CTA
 * assignment and round-robin pages performed very poorly over the
 * board link); the optimized multi-GPU moves half of each GPU's L2
 * into a GPU-side remote-only cache.
 *
 * Paper reference (normalized to the baseline multi-GPU): optimized
 * multi-GPU +25.1%, MCM-GPU +51.9% (i.e. 26.8% over the optimized
 * multi-GPU), monolithic highest.
 */

#include <cstring>
#include <iostream>

#include "common/log.hh"
#include "common/table.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const GpuConfig multi_base = configs::multiGpuBaseline();
    auto all = experiment::everyWorkload();

    struct Point
    {
        const char *label;
        const char *group;
        GpuConfig cfg;
    };
    const Point points[] = {
        {"Baseline Multi-GPU", "Buildable", multi_base},
        {"Optimized Multi-GPU", "Buildable", configs::multiGpuOptimized()},
        {"MCM-GPU (768 GB/s)", "Buildable", configs::mcmOptimized()},
        {"MCM-GPU (6 TB/s)", "Unbuildable", configs::mcmOptimized(6144.0)},
        {"Monolithic GPU", "Unbuildable",
         configs::monolithicUnbuildable()},
    };

    // Warm every machine across the suite through the pool.
    std::vector<GpuConfig> sweep;
    for (const Point &p : points)
        sweep.push_back(p.cfg);
    experiment::prefetch(sweep, all);

    Table t({"System", "Group", "Speedup over baseline Multi-GPU"});
    double mcm = 0.0, multi_opt = 0.0;
    for (const Point &p : points) {
        double g = experiment::geomeanSpeedup(p.cfg, multi_base, all);
        if (!std::strcmp(p.label, "MCM-GPU (768 GB/s)"))
            mcm = g;
        if (!std::strcmp(p.label, "Optimized Multi-GPU"))
            multi_opt = g;
        t.addRow({p.label, p.group, Table::fmt(g, 3)});
    }

    std::cout << "Figure 17: performance comparison of MCM-GPU and "
                 "multi-GPU (geomean, 48 workloads)\n\n";
    t.print(std::cout);
    std::cout << "\nMCM-GPU vs optimized multi-GPU: "
              << Table::pct(mcm / multi_opt - 1.0)
              << " (paper: +26.8%); vs baseline multi-GPU: "
              << Table::pct(mcm - 1.0) << " (paper: +51.9%).\n";
    return 0;
}
