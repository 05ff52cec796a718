#include "sim/simulator.hh"

#include <memory>

#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "obs/options.hh"
#include "obs/recorder.hh"

namespace mcmgpu {

RunResult
Simulator::run(const GpuConfig &cfg, const workloads::Workload &workload,
               double wall_timeout_s, FabricRunSummary *fabric)
{
    // Observability is opt-in and purely passive: with everything off
    // (the default) no recorder exists and the hot paths only test a
    // null pointer. With it on, probes read state between events, so
    // cycle counts match the unobserved run bit for bit. The recorder
    // comes first: the machine decides its engine mode from it.
    const obs::Options obs_opt = obs::options();
    std::unique_ptr<obs::Recorder> rec;
    if (obs_opt.anyEnabled()) {
        rec = std::make_unique<obs::Recorder>(
            obs_opt, cfg.name, workload.abbr, cfg.num_modules);
    }
    GpuSystem gpu(cfg, rec.get());
    Runtime rt(gpu);
    if (wall_timeout_s > 0.0)
        gpu.simEngine().setWallDeadline(wall_timeout_s);

    RunResult r;
    try {
        rt.runAll(workload.launches);
        r.status = rt.status();
    } catch (const FabricDeadlock &deadlock) {
        // The wait-for graph closed a hold-and-wait cycle: a protocol
        // deadlock, deterministic for this config + workload. Callers
        // must not retry — the same cycle will form again.
        r.status = RunStatus::Deadlock;
        r.stall_diagnostic = deadlock.diagnostic();
    } catch (const SimStall &stall) {
        // The watchdog saw pending events but no retired work: report a
        // typed, diagnosable outcome with the partial metrics instead of
        // spinning forever.
        r.status = RunStatus::Stalled;
        r.stall_diagnostic = stall.diagnostic();
    } catch (const SimTimeout &timeout) {
        // Host wall-clock budget expired; the simulation itself was
        // healthy, so this outcome is retryable.
        r.status = RunStatus::Timeout;
        r.stall_diagnostic = timeout.what();
    }

    r.workload = workload.abbr;
    r.config = cfg.name;
    r.cycles = gpu.simEngine().now();
    r.warp_instructions = gpu.totalWarpInstructions();
    r.kernels = rt.kernelsExecuted();
    r.inter_module_bytes = gpu.interModuleBytes();
    r.dram_read_bytes = gpu.dramReadBytes();
    r.dram_write_bytes = gpu.dramWriteBytes();
    r.l1_hit_rate = gpu.l1HitRate();
    r.l15_hit_rate = gpu.l15HitRate();
    r.l2_hit_rate = gpu.l2HitRate();
    r.energy_chip_j = gpu.energy().joulesIn(Domain::Chip);
    const Domain link_domain =
        cfg.board_level_links ? Domain::Board : Domain::Package;
    r.energy_link_j = gpu.energy().joulesIn(link_domain);
    r.link_domain_bytes = gpu.energy().bytesIn(link_domain);

    if (rec) {
        gpu.finishObservability();
        rec->writeOutputs(
            [&gpu, &workload](std::ostream &os) {
                gpu.statsJson(os, workload.abbr);
            },
            [&gpu, &workload](std::ostream &os) {
                gpu.fabricJson(os, workload.abbr);
            });

        // Post-mortem: a failed run dumps the flight-recorder ring
        // with the typed diagnostic appended as the final event, so
        // the last-N-events tail and the named resource cycle land in
        // one replayable document.
        const bool failed = r.status == RunStatus::Deadlock ||
                            r.status == RunStatus::Stalled ||
                            r.status == RunStatus::Timeout;
        if (failed && rec->flight()) {
            std::string last = "run failed: ";
            last += toString(r.status);
            if (!r.stall_diagnostic.empty()) {
                last += " — ";
                last += r.stall_diagnostic;
            }
            rec->flight()->record(r.cycles, std::move(last));
            rec->writeFlight(toString(r.status), r.stall_diagnostic);
        }

        if (fabric) {
            fabric->present = true;
            fabric->cycles = r.cycles;
            fabric->remote_load.emplace(rec->remoteLoadLatency());
            gpu.fabric().visitLinks(
                [fabric, &r](const std::string &name, Link &l) {
                    FabricLinkSummary ls;
                    ls.name = name;
                    ls.bytes = l.bytesCarried();
                    ls.busy_cycles = l.busyCycles();
                    ls.utilization =
                        r.cycles ? l.busyCycles() /
                                       static_cast<double>(r.cycles)
                                 : 0.0;
                    fabric->links.push_back(std::move(ls));
                });
        }
    }
    return r;
}

} // namespace mcmgpu
