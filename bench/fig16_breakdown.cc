/**
 * @file
 * Figure 16: breakdown of the sources of performance improvement.
 *
 * Reports, as % speedup over the baseline MCM-GPU (geomean over all 48
 * workloads):
 *   - each optimization applied alone (remote-only L1.5, distributed
 *     scheduling, first-touch placement),
 *   - the fully optimized MCM-GPU at 768 GB/s links,
 *   - the unbuildable comparison points: MCM-GPU with 6 TB/s links and
 *     the 256-SM monolithic GPU.
 *
 * Paper reference values: L1.5 alone +5.2%, DS alone ~0%, FT alone
 * -4.7%, all three combined +22.8%, monolithic ~ +33% (10% above the
 * optimized MCM-GPU).
 */

#include <iostream>

#include "common/log.hh"
#include "common/summary.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;

int
main(int argc, char **argv)
{
    cli::parseArgs(argc, argv, {cli::sweepFlags()});
    setQuietLogging(true);

    const GpuConfig base = configs::mcmBasic();
    auto all = experiment::everyWorkload();

    struct Point
    {
        const char *label;
        const char *group;
        GpuConfig cfg;
    };

    GpuConfig l15_only =
        configs::mcmWithL15(16 * MiB, L15Alloc::RemoteOnly)
            .withName("l15-alone");
    GpuConfig ds_only = configs::mcmBasic()
                            .withSched(CtaSchedPolicy::DistributedBatch)
                            .withName("ds-alone");
    GpuConfig ft_only = configs::mcmBasic()
                            .withPagePolicy(PagePolicy::FirstTouch)
                            .withName("ft-alone");

    const Point points[] = {
        {"Remote-Only L1.5 (16MB)", "Applied Alone", l15_only},
        {"Distributed Scheduling", "Applied Alone", ds_only},
        {"First Touch", "Applied Alone", ft_only},
        {"MCM-GPU (768 GB/s)", "Proposed", configs::mcmOptimized()},
        {"MCM-GPU (6 TB/s)", "Unbuildable", configs::mcmOptimized(6144.0)},
        {"Monolithic", "Unbuildable", configs::monolithicUnbuildable()},
    };

    // Warm every config used anywhere below (the headline comparisons
    // add two monolithic machines) across the suite through the pool.
    std::vector<GpuConfig> sweep{base, configs::mcmOptimized(),
                                 configs::monolithicBuildableMax(),
                                 configs::monolithicUnbuildable()};
    for (const Point &p : points)
        sweep.push_back(p.cfg);
    experiment::prefetch(sweep, all);

    Table t({"Configuration", "Group", "Speedup over baseline MCM-GPU"});
    for (const Point &p : points) {
        double g = experiment::geomeanSpeedup(p.cfg, base, all);
        t.addRow({p.label, p.group, Table::pct(g - 1.0)});
    }
    std::cout << "Figure 16: breakdown of optimized MCM-GPU speedup "
                 "(geomean, 48 workloads)\n\n";
    t.print(std::cout);

    // The paper's headline comparisons (section 5.4 / abstract).
    double opt_vs_base =
        experiment::geomeanSpeedup(configs::mcmOptimized(), base, all);
    double opt_vs_m128 = experiment::geomeanSpeedup(
        configs::mcmOptimized(), configs::monolithicBuildableMax(), all);
    double opt_vs_m256 = experiment::geomeanSpeedup(
        configs::mcmOptimized(), configs::monolithicUnbuildable(), all);
    std::cout << "\nHeadline comparisons:\n"
              << "  optimized vs baseline MCM-GPU : "
              << Table::pct(opt_vs_base - 1.0) << "  (paper: +22.8%)\n"
              << "  optimized vs 128-SM monolithic: "
              << Table::pct(opt_vs_m128 - 1.0) << "  (paper: +45.5%)\n"
              << "  optimized vs 256-SM monolithic: "
              << Table::pct(opt_vs_m256 - 1.0)
              << "  (paper: within 10%)\n";

    Table per_cat({"Category", "Optimized vs baseline MCM-GPU"});
    for (auto cat : {workloads::Category::MemoryIntensive,
                     workloads::Category::ComputeIntensive,
                     workloads::Category::LimitedParallelism}) {
        auto ws = workloads::byCategory(cat);
        double g =
            experiment::geomeanSpeedup(configs::mcmOptimized(), base, ws);
        per_cat.addRow({workloads::categoryName(cat),
                        Table::pct(g - 1.0)});
    }
    std::cout << "\nPer-category speedup of the optimized MCM-GPU "
                 "(section 5.3: +51% / +11.3% / +7.9%):\n\n";
    per_cat.print(std::cout);

    std::cout << "\nPaper: L1.5 alone +5.2%, DS alone ~0%, FT alone "
                 "-4.7%, combined +22.8%;\noptimized MCM-GPU within 10% "
                 "of the unbuildable monolithic GPU.\n";
    return 0;
}
