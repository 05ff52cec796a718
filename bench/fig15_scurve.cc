/**
 * @file
 * Figure 15: s-curve of the optimized MCM-GPU's speedup over the
 * baseline MCM-GPU across all 48 workloads, sorted ascending, with an
 * ASCII rendering of the curve.
 *
 * Paper reference: 31 workloads gain, 9 lose; extremes range from
 * about -25% (Streamcluster-type write-back L2 pressure, DWT/NN L1.5
 * latency) to 3.5-4.4x (CoMD, SP, XSBench).
 */

#include <algorithm>
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

    const GpuConfig base = configs::mcmBasic();
    const GpuConfig opt = configs::mcmOptimized();

    // Warm all 96 (config, workload) pairs through the worker pool;
    // the per-point run() calls below are then memo lookups.
    const GpuConfig matrix[] = {base, opt};
    const auto all = experiment::everyWorkload();
    experiment::prefetch(matrix, all);

    struct Point
    {
        std::string abbr;
        double speedup;
    };
    std::vector<Point> points;
    for (const workloads::Workload *w : all) {
        const RunResult &b = experiment::run(base, *w);
        const RunResult &o = experiment::run(opt, *w);
        points.push_back({w->abbr, o.speedupOver(b)});
    }
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  return a.speedup < b.speedup;
              });

    int gains = 0, losses = 0;
    double max_s = 0.0;
    for (const Point &p : points) {
        if (p.speedup > 1.005)
            ++gains;
        else if (p.speedup < 0.995)
            ++losses;
        max_s = std::max(max_s, p.speedup);
    }

    std::cout << "Figure 15: s-curve of optimized MCM-GPU speedups over "
                 "the baseline MCM-GPU\n(48 workloads, ascending)\n\n";
    const double scale = 40.0 / std::max(max_s, 1.0);
    for (size_t i = 0; i < points.size(); ++i) {
        int bar = static_cast<int>(points[i].speedup * scale + 0.5);
        int one = static_cast<int>(1.0 * scale + 0.5);
        std::string line(static_cast<size_t>(bar), '#');
        if (one < bar)
            line[static_cast<size_t>(one)] = '|'; // 1.0x marker
        std::printf("%2zu %-14s %5.2fx %s\n", i + 1,
                    points[i].abbr.c_str(), points[i].speedup,
                    line.c_str());
    }
    std::cout << "\n" << gains << " workloads gain, " << losses
              << " lose ('|' marks 1.0x; paper: 31 gain, 9 lose, "
                 "extremes -25% to +4.4x).\n";
    return 0;
}
