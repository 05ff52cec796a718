/**
 * @file
 * Resilience sweep: performance of the optimized MCM-GPU under
 * increasingly severe manufacturing faults (not a paper figure; this
 * reproduction's fault-injection study).
 *
 * Three independent severity axes, each relative to the pristine
 * machine (1.0 = no faults, smaller = slower):
 *  - SM floorsweeping: N SMs disabled per GPM, CTA batches rebalanced
 *    around the survivors.
 *  - Link degradation: every inter-GPM link derated to a fraction of
 *    its provisioned bandwidth, and separately a transient CRC-error
 *    process forcing exponential-backoff replays.
 *  - DRAM channel failure: one memory partition dead, its pages
 *    re-homed to the survivors.
 *
 * The headline claim is graceful degradation: every cell below must
 * come from a run that *finished* (watchdog armed); severity costs
 * performance, never correctness.
 */

#include <iostream>

#include "common/log.hh"
#include "common/summary.hh"
#include "common/table.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

using namespace mcmgpu;
using workloads::Category;

namespace {

struct Row
{
    const char *name;
    std::vector<const workloads::Workload *> ws;
};

/** Geomean relative performance, insisting every run finished. */
double
relPerf(const GpuConfig &cfg, const GpuConfig &base,
        std::span<const workloads::Workload *const> ws)
{
    for (const workloads::Workload *w : ws) {
        const RunResult &r = experiment::run(cfg, *w);
        fatal_if(r.status != RunStatus::Finished, "run '", w->abbr,
                 "' on '", cfg.name, "' ended ", toString(r.status),
                 " — degradation is supposed to be graceful");
    }
    return experiment::geomeanSpeedup(cfg, base, ws);
}

void
printAxis(const char *title, const std::vector<GpuConfig> &settings,
          const std::vector<std::string> &labels,
          const GpuConfig &pristine, const std::vector<Row> &rows)
{
    // Warm every faulted machine (plus the pristine reference) across
    // the widest row — "All" — through the pool.
    std::vector<GpuConfig> sweep(settings);
    sweep.push_back(pristine);
    experiment::prefetch(sweep, rows.back().ws);

    std::vector<std::string> header{"Category"};
    header.insert(header.end(), labels.begin(), labels.end());
    Table t(header);
    for (const Row &row : rows) {
        std::vector<std::string> cells{row.name};
        for (const GpuConfig &cfg : settings)
            cells.push_back(Table::fmt(relPerf(cfg, pristine, row.ws), 3));
        t.addRow(std::move(cells));
    }
    std::cout << title << '\n';
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    // Of the machine flags only the memory model and the topology make
    // sense here: the machine is fixed, and the fault, cycle-limit and
    // watchdog edits would bend the axes and the pristine reference.
    cli::Machines opt;
    cli::FlagTable edits = opt.flags();
    edits.title = "edits to mcm-optimized, on every axis";
    std::erase_if(edits.flags, [](const cli::Flag &f) {
        return f.name != "--mem-model" && f.name != "--remote-mshrs" &&
               f.name != "--topology";
    });
    cli::parseArgs(argc, argv, {edits, cli::sweepFlags()});
    setQuietLogging(true);

    // Every machine on every axis — the pristine reference included —
    // runs under the selected memory model and topology, so `--topology
    // mesh2d:2x2` puts the link axes on the mesh's links ("mesh.0->1").
    auto makeOpt = [&] { return opt.applyTo(configs::mcmOptimized()); };

    const GpuConfig pristine = makeOpt();
    const std::vector<Row> rows = {
        {"M-Intensive", workloads::byCategory(Category::MemoryIntensive)},
        {"C-Intensive", workloads::byCategory(Category::ComputeIntensive)},
        {"All", experiment::everyWorkload()},
    };

    std::cout << "Resilience sweep: optimized 4-GPM 256-SM MCM-GPU "
                 "under injected faults\n(geomean performance relative "
                 "to the pristine machine)\n\n";

    // --- Axis 1: SM floorsweeping ---------------------------------------
    {
        std::vector<GpuConfig> settings;
        std::vector<std::string> labels;
        for (uint32_t n : {4u, 8u, 16u, 32u}) {
            GpuConfig cfg = makeOpt().withName(
                "mcm-opt-swept" + std::to_string(n));
            cfg.fault.sweepSmsEveryModule(cfg.num_modules, n);
            settings.push_back(cfg);
            labels.push_back(std::to_string(n) + "/64 SMs");
        }
        printAxis("SM floorsweeping (SMs disabled per GPM)", settings,
                  labels, pristine, rows);
    }

    // --- Axis 2a: link bandwidth derating ----------------------------------
    {
        std::vector<GpuConfig> settings;
        std::vector<std::string> labels;
        for (double d : {0.75, 0.5, 0.25}) {
            GpuConfig cfg = makeOpt().withName(
                "mcm-opt-derate" + Table::fmt(d, 2));
            cfg.fault.derateLinks(d);
            settings.push_back(cfg);
            labels.push_back(Table::fmt(d, 2) + "x bw");
        }
        printAxis("Link bandwidth derating (all links)", settings, labels,
                  pristine, rows);
    }

    // --- Axis 2b: transient link errors -----------------------------------
    {
        std::vector<GpuConfig> settings;
        std::vector<std::string> labels;
        for (double p : {1e-3, 5e-3, 2e-2}) {
            GpuConfig cfg = makeOpt().withName(
                "mcm-opt-err" + Table::fmt(p, 4));
            cfg.fault.injectLinkErrors(p);
            settings.push_back(cfg);
            labels.push_back("p=" + Table::fmt(p, 3));
        }
        printAxis("Transient link errors (CRC replay per traversal)",
                  settings, labels, pristine, rows);
    }

    // --- Axis 3: dead DRAM partition ----------------------------------------
    {
        GpuConfig cfg = makeOpt().withName("mcm-opt-dead1");
        cfg.fault.killPartition(3);
        printAxis("DRAM channel failure (1 of 4 partitions dead)",
                  {cfg}, {"3 of 4 alive"}, pristine, rows);
    }

    std::cout << "Every cell comes from a finished run: faults degrade "
                 "IPC, never liveness.\n";
    return 0;
}
