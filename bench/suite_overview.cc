/**
 * @file
 * Suite overview: per-workload metrics on the key machine
 * configurations. Not one of the paper's figures — this is the
 * maintenance/calibration view used to sanity-check that the synthetic
 * suite exhibits the categorical behaviour (memory- vs compute-bound,
 * limited parallelism, locality response) the paper's suite shows.
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
    bool csv = false;
    cli::parseArgs(argc, argv,
                   {{"output", {cli::toggle("--csv", "print CSV", csv)}},
                    cli::sweepFlags()});
    setQuietLogging(true);

    const GpuConfig base = configs::mcmBasic();
    const GpuConfig opt = configs::mcmOptimized();
    const GpuConfig mono128 = configs::monolithicBuildableMax();
    const GpuConfig mono256 = configs::monolithicUnbuildable();

    // Warm the full 4-machine × 48-workload matrix through the pool.
    const GpuConfig matrix[] = {base, opt, mono128, mono256};
    auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    Table t({"Workload", "Cat", "base Mcy", "opt/base", "m128/base",
             "m256/base", "GPM TB/s", "opt TB/s", "L2 hit", "L1.5 hit"});

    std::vector<double> opt_speedups;
    for (const workloads::Workload *w : all) {
        const RunResult &b = experiment::run(base, *w);
        const RunResult &o = experiment::run(opt, *w);
        const RunResult &m1 = experiment::run(mono128, *w);
        const RunResult &m2 = experiment::run(mono256, *w);
        opt_speedups.push_back(o.speedupOver(b));
        t.addRow({w->abbr, workloads::categoryName(w->category),
                  Table::fmt(b.cycles / 1e6, 2),
                  Table::fmt(o.speedupOver(b), 2),
                  Table::fmt(m1.speedupOver(b), 2),
                  Table::fmt(m2.speedupOver(b), 2),
                  Table::fmt(b.interModuleTBps(), 2),
                  Table::fmt(o.interModuleTBps(), 2),
                  Table::fmt(b.l2_hit_rate, 2),
                  Table::fmt(o.l15_hit_rate, 2)});
    }

    if (csv) {
        t.printCsv(std::cout);
    } else {
        t.print(std::cout);
    }

    std::cout << "\ngeomean optimized/base (all 48): "
              << Table::fmt(geomean(opt_speedups), 3) << "\n";
    for (auto cat : {workloads::Category::MemoryIntensive,
                     workloads::Category::ComputeIntensive,
                     workloads::Category::LimitedParallelism}) {
        auto ws = workloads::byCategory(cat);
        double g = experiment::geomeanSpeedup(opt, base, ws);
        std::cout << "geomean optimized/base (" << categoryName(cat)
                  << "): " << Table::fmt(g, 3) << "\n";
    }

    const experiment::SweepSummary sweep = experiment::sweepSummary();
    std::cout << "\nsweep: " << sweep.graph.jobs << "/" << sweep.graph.jobs
              << " jobs completed (" << sweep.graph.executed
              << " simulated, " << sweep.graph.cache_hits
              << " disk-cache hits, " << sweep.graph.hitRatioLabel()
              << " hit ratio, " << experiment::jobs() << " workers)\n";
    return 0;
}
