/**
 * @file
 * Topology scaling sweep: static vs adaptive route selection across
 * every table-routed fabric family, at growing module counts (not a
 * paper figure; this reproduction's congestion-aware routing study).
 *
 * Each shape scales the basic MCM machine proportionally — L2 capacity
 * and DRAM bandwidth grow with the module count, exactly like the
 * paper's monolithic scaling experiment — so the fabric is the only
 * thing that changes between rows. Package shapes price their board
 * tier like the multi-GPU baseline (256 GB/s aggregate, board-level
 * hop latency) and follow its scheduling/placement choices.
 *
 * For every shape x {static, adaptive} x workload cell the sweep
 * reports run cycles, the hottest link's utilization (the congestion
 * heatmap peak), and the adaptive pick/divert counters. `--out FILE`
 * additionally writes the machine-readable "mcmgpu-toposcale/1"
 * document committed as BENCH_topo_scaling.json.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "sim/cli.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

struct Shape
{
    const char *spec;    //!< topology spec ("mesh2d:4x4", ...)
    uint32_t modules;    //!< GPM count the spec compiles to
    bool board_tier;     //!< package shapes need board-link pricing
};

/** The basic MCM machine scaled to @p modules GPMs on @p shape. */
GpuConfig
scaled(const Shape &shape, RoutePolicy policy)
{
    GpuConfig c = configs::mcmBasic();
    c.num_modules = shape.modules;
    c.l2.size_bytes = c.l2.size_bytes * shape.modules / 4;
    c.dram_total_gbps = c.dram_total_gbps * shape.modules / 4.0;
    c.withTopology(shape.spec).withRoutePolicy(policy);
    if (shape.board_tier) {
        c.pkg_link_gbps = 256.0;
        c.pkg_link_hop_cycles = 256;
        c.cta_sched = CtaSchedPolicy::DistributedBatch;
        c.page_policy = PagePolicy::FirstTouch;
    }
    c.name = std::string("topo-") + shape.spec +
             (policy == RoutePolicy::Adaptive ? "+adaptive" : "");
    return c;
}

struct Cell
{
    std::string shape;
    uint32_t modules = 0;
    std::string policy;
    std::string workload;
    Cycle cycles = 0;
    std::string hottest_link;
    double hottest_util = 0.0;
    uint64_t adaptive_picks = 0;
    uint64_t diverted = 0;
};

Cell
runCell(const Shape &shape, RoutePolicy policy,
        const workloads::Workload &w)
{
    const GpuConfig cfg = scaled(shape, policy);
    GpuSystem gpu(cfg);
    Runtime rt(gpu);
    rt.runAll(w.launches);
    fatal_if(rt.status() != RunStatus::Finished, "run '", w.abbr,
             "' on '", cfg.name, "' ended ", toString(rt.status()));

    Cell cell;
    cell.shape = shape.spec;
    cell.modules = shape.modules;
    cell.policy = policy == RoutePolicy::Adaptive ? "adaptive" : "static";
    cell.workload = w.abbr;
    cell.cycles = gpu.simEngine().now();
    gpu.fabric().visitLinks([&](const std::string &name, Link &l) {
        const double util =
            cell.cycles
                ? l.busyCycles() / static_cast<double>(cell.cycles)
                : 0.0;
        if (util > cell.hottest_util) {
            cell.hottest_util = util;
            cell.hottest_link = name;
        }
    });
    cell.adaptive_picks = gpu.fabric().routeAdaptivePicks();
    cell.diverted = gpu.fabric().routeDiverted();
    return cell;
}

void
writeJson(std::ostream &os, const std::vector<Cell> &cells)
{
    os << "{\n  \"schema\": \"mcmgpu-toposcale/1\",\n  \"rows\": [";
    bool first = true;
    for (const Cell &c : cells) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << "{\"shape\": " << json::quoted(c.shape)
           << ", \"modules\": " << c.modules
           << ", \"policy\": " << json::quoted(c.policy)
           << ", \"workload\": " << json::quoted(c.workload)
           << ", \"cycles\": " << c.cycles
           << ", \"hottest_link\": " << json::quoted(c.hottest_link)
           << ", \"hottest_util\": " << json::number(c.hottest_util)
           << ", \"route_adaptive_picks\": " << c.adaptive_picks
           << ", \"route_diverted\": " << c.diverted << "}";
    }
    os << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    cli::parseArgs(argc, argv,
                   {{"output",
                     {cli::value("--out", "<file>",
                                 "also write the rows as JSON", out_path)}}});
    setQuietLogging(true);

    // Every table-routed family, smallest to largest. The 4-node rows
    // share a module count so the families compare like for like; the
    // 16-node rows show how each family's bisection copes with scale.
    const Shape shapes[] = {
        {"ring", 4, false},
        {"mesh2d:2x2", 4, false},
        {"ring-of-rings:2/2", 4, false},
        {"package:2", 8, true},
        {"mesh2d:4x4", 16, false},
        {"package:4", 16, true},
    };
    const char *abbrs[] = {"Stream", "Hotspot", "Kmeans"};

    std::vector<Cell> cells;
    Table t({"Shape", "GPMs", "Workload", "Static cyc", "Adaptive cyc",
             "Static peak util", "Adaptive peak util", "Diverted"});
    for (const Shape &shape : shapes) {
        for (const char *abbr : abbrs) {
            const workloads::Workload *w = workloads::findByAbbr(abbr);
            fatal_if(!w, "unknown workload '", abbr, "'");
            Cell s = runCell(shape, RoutePolicy::Static, *w);
            Cell a = runCell(shape, RoutePolicy::Adaptive, *w);
            cells.push_back(s);
            cells.push_back(a);
            t.addRow({shape.spec, std::to_string(shape.modules), abbr,
                      std::to_string(s.cycles), std::to_string(a.cycles),
                      Table::fmt(s.hottest_util, 3),
                      Table::fmt(a.hottest_util, 3),
                      std::to_string(a.diverted)});
        }
    }

    std::cout << "Topology scaling: static vs adaptive route selection\n"
                 "(peak util = hottest link busy fraction; diverted = "
                 "adaptive picks off the toggle path)\n\n";
    t.print(std::cout);

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        fatal_if(!f, "cannot write '", out_path, "'");
        writeJson(f, cells);
        std::cout << "\nwrote " << out_path << '\n';
    }
    return 0;
}
