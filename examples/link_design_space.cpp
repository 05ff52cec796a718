/**
 * @file
 * Example: on-package link design space.
 *
 * Sweeps the inter-GPM link bandwidth and per-hop latency across the
 * fabric models (ring and the analytical port abstraction) for one
 * workload, and compares the simulated knee against the closed-form
 * sizing model of section 3.3.1.
 *
 *   ./build/examples/link_design_space [workload-abbr]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/analytic.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const std::string abbr = argc > 1 ? argv[1] : "Stream";
    const workloads::Workload *w = workloads::findByAbbr(abbr);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", abbr.c_str());
        return 1;
    }

    RunResult ref = Simulator::run(configs::mcmBasic(6144.0), *w);
    std::printf("Link design space for %s (relative to 6 TB/s ring "
                "links):\n\n",
                w->abbr.c_str());

    Table t({"Link BW", "Ring fabric", "Port model", "Ring, 2x hop "
             "latency"});
    for (double gbps : {6144.0, 3072.0, 1536.0, 768.0, 384.0}) {
        GpuConfig ring = configs::mcmBasic(gbps);
        GpuConfig ports = configs::mcmBasic(gbps).withTopology("ports");
        ports.name += "-ports";
        GpuConfig slow = configs::mcmBasic(gbps);
        slow.link_hop_cycles = 64;
        slow.name += "-slowhop";

        t.addRow({Table::fmt(gbps, 0) + " GB/s",
                  Table::fmt(Simulator::run(ring, *w).speedupOver(ref) /
                                 ref.speedupOver(ref),
                             3),
                  Table::fmt(Simulator::run(ports, *w).speedupOver(ref),
                             3),
                  Table::fmt(Simulator::run(slow, *w).speedupOver(ref),
                             3)});
    }
    t.print(std::cout);

    // Closed-form prediction for comparison.
    RunResult probe = Simulator::run(configs::mcmBasic(6144.0), *w);
    analytic::LinkSizingModel model;
    model.l2_hit_rate = probe.l2_hit_rate;
    std::printf("\nAnalytical model (section 3.3.1) with this "
                "workload's measured L2 hit rate (%.0f%%):\n"
                "  required link bandwidth = %.0f GB/s\n"
                "  predicted DRAM utilization at 768 GB/s = %.0f%%\n",
                100.0 * probe.l2_hit_rate, model.requiredLinkGbps(),
                100.0 * model.dramUtilizationAt(768.0));
    return 0;
}
