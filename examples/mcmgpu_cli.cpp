/**
 * @file
 * Command-line driver: run any workload on any machine configuration
 * without writing code.
 *
 *   mcmgpu_cli --list
 *   mcmgpu_cli --workload Stream --machine mcm-optimized
 *   mcmgpu_cli --workload CoMD --machine mcm-basic --link-gbps 1536 \
 *              --sched distributed --pages first-touch --l15-mb 8
 *   mcmgpu_cli --matrix mcm-basic,mcm-optimized --workloads Stream,TSP \
 *              --jobs 4 --runs-json runs.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <iostream>

#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

void
usage()
{
    std::printf(
        "usage: mcmgpu_cli [options]\n"
        "  --list                     list workloads and exit\n"
        "  --workload <abbr>          workload to run (default Stream)\n"
        "  --machine <preset>         mono-32 | mono-128 | mono-256 |\n"
        "                             mcm-basic | mcm-optimized |\n"
        "                             mcm-mesh | mcm-mesh-adaptive |\n"
        "                             mcm-rings | mcm-package |\n"
        "                             mcm-turnaround |\n"
        "                             multi-gpu | multi-gpu-opt\n"
        "                             (default mcm-basic)\n"
        "  --link-gbps <n>            inter-module link bandwidth\n"
        "  --hop-cycles <n>           per-hop latency\n"
        "  --l15-mb <n>               remote-only L1.5 capacity (total)\n"
        "  --sched <p>                centralized | distributed | dynamic\n"
        "  --pages <p>                interleave | first-touch | rr-page\n"
        "topology (docs/TOPOLOGY.md):\n"
        "  --topology <spec>          ring | mesh2d[:RxC] |\n"
        "                             ring-of-rings:G/R | package:P |\n"
        "                             ports (default: the preset's)\n"
        "  --pkg-link-gbps <n>        inter-package link bandwidth\n"
        "                             (package:P only, default 256)\n"
        "  --pkg-hop-cycles <n>       inter-package hop latency\n"
        "                             (default 256)\n"
        "  --route-policy <p>         static | adaptive: equal-cost\n"
        "                             candidate selection (static is\n"
        "                             the legacy toggle; adaptive takes\n"
        "                             the least-backlogged route)\n"
        "dram:\n"
        "  --dram-turnaround <n>      read/write bus-turnaround cycles\n"
        "                             per channel (default 0 = off)\n"
        "  --dram-write-drain <n>     buffer n posted writes per channel\n"
        "                             and drain as one batch (default 0)\n"
        "  --stats                    print summary statistics\n"
        "  --dump-stats               dump every component counter\n"
        "memory pipeline:\n"
        "  --mem-model <m>            chain | staged (default chain)\n"
        "  --remote-mshrs <n>         staged: remote MSHRs per module\n"
        "                             (0 = unbounded)\n"
        "  --fabric-vcs <n>           staged: fabric virtual channels\n"
        "                             (0 = off, 1 = shared pool —\n"
        "                             deliberately deadlock-prone,\n"
        "                             2 = req/resp, deadlock-free)\n"
        "  --vc-credits <n>           credits per VC pool per GPM pair\n"
        "                             (default 64)\n"
        "parallel simulation (docs/PDES.md):\n"
        "  --sim-threads <n>          simulate GPM domains on n threads\n"
        "                             (default 1 = serial; needs the\n"
        "                             staged model, distributed CTA\n"
        "                             scheduling, fabric_vcs = 0;\n"
        "                             ineligible configs warn and run\n"
        "                             serial)\n"
        "fault injection:\n"
        "  --sweep-sms <n>            disable first n SMs of every GPM\n"
        "  --link-derate <f>          derate all links to f (0 < f <= 1)\n"
        "  --link-error-rate <p>      transient CRC-error chance per\n"
        "                             traversal (0 <= p <= 1)\n"
        "  --kill-partition <p>       mark DRAM partition p dead\n"
        "  --fault-seed <s>           seed for link error streams\n"
        "  --watchdog-cycles <n>      no-progress window (0 disables)\n"
        "  --max-cycles <n>           stop after n cycles\n"
        "parallel sweeps:\n"
        "  --matrix <m1,m2,...>       run a machine x workload matrix\n"
        "                             through the experiment pool\n"
        "  --workloads <w1,w2,...>    workload set for --matrix\n"
        "                             (default: all 48)\n"
        "observability:\n"
        "  --check-obs <dir>          validate every .json under dir "
        "and\n"
        "                             exit (0 = all well-formed; also\n"
        "                             schema-checks stats/timeline/\n"
        "                             fabric/flight artifacts)\n"
        "scripting:\n"
        "  --expect-status <s>        single-run: exit 0 iff the run "
        "ends\n"
        "                             with this status (finished | "
        "stalled |\n"
        "                             deadlock | timeout | cycle_limit "
        "|\n"
        "                             error), else exit 3\n"
        "%s",
        experiment::cliFlagHelp());
}

/**
 * Parse all of @p text into @p out, or report "invalid value 'x' for
 * <flag>" and exit 1. The target's type is the grammar: unsigned
 * targets refuse any sign, and a value out of the target's range is
 * rejected rather than wrapped or truncated.
 */
template <typename T>
void
parseValue(const std::string &flag, const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, out);
    if (ec != std::errc() || stop != end) {
        std::fprintf(stderr, "invalid value '%s' for %s\n", text.c_str(),
                     flag.c_str());
        std::exit(1);
    }
}

/** Set @p out to the value @p choices maps @p text to, or report
 *  "unknown <flag> 'x' (a|b|...)" and exit 1. */
template <typename E>
void
parseChoice(const std::string &flag, const std::string &text, E &out,
            std::initializer_list<std::pair<const char *, E>> choices)
{
    std::string names;
    for (const auto &[name, value] : choices) {
        if (text == name) {
            out = value;
            return;
        }
        names += (names.empty() ? "" : "|") + std::string(name);
    }
    std::fprintf(stderr, "unknown %s '%s' (%s)\n", flag.c_str(),
                 text.c_str(), names.c_str());
    std::exit(1);
}

bool
parseMachine(const std::string &name, GpuConfig &cfg)
{
    if (name == "mono-32") {
        cfg = configs::monolithic(32);
    } else if (name == "mono-128") {
        cfg = configs::monolithicBuildableMax();
    } else if (name == "mono-256") {
        cfg = configs::monolithicUnbuildable();
    } else if (name == "mcm-basic") {
        cfg = configs::mcmBasic();
    } else if (name == "mcm-optimized") {
        cfg = configs::mcmOptimized();
    } else if (name == "mcm-mesh") {
        cfg = configs::mcmMesh();
    } else if (name == "mcm-mesh-adaptive") {
        cfg = configs::mcmMeshAdaptive();
    } else if (name == "mcm-rings") {
        cfg = configs::mcmRingOfRings();
    } else if (name == "mcm-package") {
        cfg = configs::mcmPackage();
    } else if (name == "mcm-turnaround") {
        cfg = configs::mcmTurnaround();
    } else if (name == "multi-gpu") {
        cfg = configs::multiGpuBaseline();
    } else if (name == "multi-gpu-opt") {
        cfg = configs::multiGpuOptimized();
    } else {
        return false;
    }
    return true;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

/**
 * --matrix mode: run machines × workloads through the experiment pool
 * and print one cycles cell per pair, plus the sweep summary. Failed
 * jobs show up as per-cell statuses, not an aborted sweep.
 * @return 0 when every job finished, 2 otherwise.
 */
int
runMatrixMode(const std::string &machines, const std::string &workload_set,
              MemModel mem_model, uint32_t remote_mshrs,
              uint32_t fabric_vcs, uint32_t vc_credits,
              const std::string &topology,
              std::optional<RoutePolicy> route_policy)
{
    std::vector<GpuConfig> cfgs;
    for (const std::string &m : splitCommas(machines)) {
        GpuConfig c;
        if (!parseMachine(m, c)) {
            std::fprintf(stderr, "unknown machine '%s'\n", m.c_str());
            return 1;
        }
        c.withMemModel(mem_model, remote_mshrs);
        c.withFabricVcs(fabric_vcs, vc_credits);
        if (!topology.empty())
            c.withTopology(topology).withName(c.name + "+" + topology);
        if (route_policy == RoutePolicy::Adaptive) {
            c.withRoutePolicy(RoutePolicy::Adaptive)
                .withName(c.name + "+adaptive");
        }
        cfgs.push_back(std::move(c));
    }
    std::vector<const workloads::Workload *> ws;
    if (workload_set.empty()) {
        ws = experiment::everyWorkload();
    } else {
        for (const std::string &abbr : splitCommas(workload_set)) {
            const workloads::Workload *w = workloads::findByAbbr(abbr);
            if (!w) {
                std::fprintf(stderr,
                             "unknown workload '%s' (try --list)\n",
                             abbr.c_str());
                return 1;
            }
            ws.push_back(w);
        }
    }

    const auto grid = experiment::runMatrix(cfgs, ws);

    std::vector<std::string> header{"Workload"};
    for (const GpuConfig &c : cfgs)
        header.push_back(c.name + " (cycles)");
    Table t(header);
    bool all_finished = true;
    for (size_t i = 0; i < ws.size(); ++i) {
        std::vector<std::string> row{ws[i]->abbr};
        for (size_t c = 0; c < cfgs.size(); ++c) {
            const RunResult &r = grid[c][i];
            std::string cell = std::to_string(r.cycles);
            if (r.status != RunStatus::Finished) {
                cell += std::string(" [") + toString(r.status) + "]";
                all_finished = false;
            }
            row.push_back(std::move(cell));
        }
        t.addRow(std::move(row));
    }
    t.print(std::cout);

    const experiment::SweepSummary sweep = experiment::sweepSummary();
    std::cout << "\nsweep: " << sweep.graph.jobs << " jobs ("
              << sweep.graph.executed << " simulated, "
              << sweep.graph.cache_hits << " disk-cache hits, "
              << sweep.graph.failed << " failed) on "
              << experiment::jobs() << " workers\n";
    return all_finished ? 0 : 2;
}

/**
 * --check-obs mode: validate every .json file under @p dir with the
 * strict shared checker. Exercised by the obs-smoke ctest so a
 * malformed emitter fails CI, not a Perfetto load three weeks later.
 * @return 0 when every file is well-formed, 1 otherwise.
 */
/**
 * Artifact-specific schema checks, run after the generic
 * well-formedness pass. The repo deliberately has no JSON parser
 * (json::validate checks shape only), so these are targeted string
 * scans over fields our own emitters write with known spelling:
 * schema markers, utilization bounds, and monotonic cycle sequences.
 * @return an empty string when fine, else a one-line complaint.
 */
std::string
schemaIssue(const std::string &name, const std::string &text)
{
    auto ends_with = [&](const char *suffix) {
        const size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    auto require_marker = [&](const char *marker) -> std::string {
        std::string want = "\"schema\": \"";
        want += marker;
        want += "\"";
        if (text.find(want) == std::string::npos)
            return std::string("missing schema marker ") + marker;
        return "";
    };
    // Scan every `"<field>": <number>` occurrence and hand the parsed
    // value to @p fn; the first non-empty complaint wins.
    auto each_number =
        [&](const char *field,
            const std::function<std::string(double)> &fn) -> std::string {
        std::string needle = "\"";
        needle += field;
        needle += "\": ";
        for (size_t pos = text.find(needle); pos != std::string::npos;
             pos = text.find(needle, pos + 1)) {
            const char *start = text.c_str() + pos + needle.size();
            char *end = nullptr;
            const double v = std::strtod(start, &end);
            if (end == start)
                continue; // "null" or similar; not a number
            std::string bad = fn(v);
            if (!bad.empty())
                return bad;
        }
        return "";
    };

    if (ends_with(".fabric.json")) {
        std::string bad = require_marker("mcmgpu-fabric/1");
        if (!bad.empty())
            return bad;
        // Adaptive-routing runs carry the route block as a unit: the
        // policy marker, both counters, and the candidate-pick
        // distribution (diverted is a subset of the scored picks).
        if (text.find("\"route_policy\": \"adaptive\"") !=
            std::string::npos) {
            if (text.find("\"route_adaptive_picks\": ") ==
                std::string::npos)
                return "adaptive fabric missing route_adaptive_picks";
            if (text.find("\"route_diverted\": ") == std::string::npos)
                return "adaptive fabric missing route_diverted";
            if (text.find("\"route_candidate_picks\": [") ==
                std::string::npos)
                return "adaptive fabric missing route_candidate_picks";
            double picks = -1.0;
            bad = each_number("route_adaptive_picks",
                              [&](double v) -> std::string {
                                  picks = v;
                                  return v < 0.0
                                             ? "negative route picks"
                                             : "";
                              });
            if (!bad.empty())
                return bad;
            bad = each_number("route_diverted",
                              [&](double v) -> std::string {
                                  if (v < 0.0 || v > picks)
                                      return "route_diverted " +
                                             std::to_string(v) +
                                             " exceeds adaptive picks";
                                  return "";
                              });
            if (!bad.empty())
                return bad;
        }
        return each_number("utilization", [](double v) -> std::string {
            if (!(v >= 0.0 && v <= 1.0)) // also catches NaN
                return "utilization " + std::to_string(v) +
                       " outside [0, 1]";
            return "";
        });
    }
    if (ends_with(".flight.json")) {
        std::string bad = require_marker("mcmgpu-flight/1");
        if (!bad.empty())
            return bad;
        // Event cycles must never run backwards; seqs are unique and
        // strictly increasing (ring replay order).
        double last_cycle = -1.0, last_seq = -1.0;
        bad = each_number("cycle", [&](double v) -> std::string {
            if (v < 0.0 || !(v >= last_cycle))
                return "event cycles run backwards at " +
                       std::to_string(v);
            last_cycle = v;
            return "";
        });
        if (!bad.empty())
            return bad;
        return each_number("seq", [&](double v) -> std::string {
            if (v < 0.0 || !(v > last_seq))
                return "event seqs not strictly increasing at " +
                       std::to_string(v);
            last_seq = v;
            return "";
        });
    }
    if (ends_with(".timeline.json")) {
        std::string bad = require_marker("mcmgpu-timeline/1");
        if (!bad.empty())
            return bad;
        // Sample windows are emitted in simulation order; equal or
        // descending boundaries mean a broken sampler.
        const char *needle = "\"window_end_cycles\": [";
        const size_t pos = text.find(needle);
        if (pos == std::string::npos)
            return "missing window_end_cycles";
        const char *p = text.c_str() + pos + std::strlen(needle);
        double last = -1.0;
        while (*p && *p != ']') {
            char *end = nullptr;
            const double v = std::strtod(p, &end);
            if (end == p)
                break;
            if (!(v > last))
                return "non-monotonic sample window at " +
                       std::to_string(v);
            last = v;
            p = end;
            while (*p == ',' || *p == ' ')
                ++p;
        }
        return "";
    }
    if (ends_with(".stats.json"))
        return require_marker("mcmgpu-stats/1");
    return "";
}

int
checkObsMode(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<fs::path> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".json")
            files.push_back(entry.path());
    }
    if (ec) {
        std::fprintf(stderr, "--check-obs: cannot read '%s': %s\n",
                     dir.c_str(), ec.message().c_str());
        return 1;
    }
    if (files.empty()) {
        std::fprintf(stderr, "--check-obs: no .json files under '%s'\n",
                     dir.c_str());
        return 1;
    }
    std::sort(files.begin(), files.end());

    int bad = 0;
    for (const fs::path &p : files) {
        std::ifstream in(p);
        std::ostringstream text;
        text << in.rdbuf();
        if (!in.good() && !in.eof()) {
            std::fprintf(stderr, "%s: read error\n", p.c_str());
            ++bad;
            continue;
        }
        json::ValidationResult res = json::validate(text.str());
        if (!res) {
            std::fprintf(stderr, "%s: invalid JSON at byte %zu: %s\n",
                         p.c_str(), res.offset, res.error.c_str());
            ++bad;
            continue;
        }
        const std::string issue =
            schemaIssue(p.filename().string(), text.str());
        if (!issue.empty()) {
            std::fprintf(stderr, "%s: %s\n", p.c_str(), issue.c_str());
            ++bad;
        } else {
            std::printf("%s: ok\n", p.c_str());
        }
    }
    if (bad) {
        std::fprintf(stderr, "--check-obs: %d of %zu files invalid\n",
                     bad, files.size());
        return 1;
    }
    std::printf("--check-obs: %zu files well-formed\n", files.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    std::string workload = "Stream";
    GpuConfig cfg = configs::mcmBasic();
    bool stats = false;
    bool dump = false;
    MemModel mem_model = MemModel::Chain;
    uint32_t remote_mshrs = 0;
    uint32_t fabric_vcs = 0;
    uint32_t vc_credits = 64;
    uint32_t sim_threads = 1;
    std::string topology; // empty: keep the preset's
    std::optional<RoutePolicy> route_policy; // empty: keep the preset's
    std::string matrix_machines;
    std::string matrix_workloads;
    std::string check_obs_dir;
    std::string expect_status;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            for (const auto &w : workloads::allWorkloads())
                std::printf("%-14s %-12s %s\n", w.abbr.c_str(),
                            workloads::categoryName(w.category),
                            w.name.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--machine") {
            if (!parseMachine(next(), cfg)) {
                usage();
                return 1;
            }
        } else if (arg == "--link-gbps") {
            parseValue(arg, next(), cfg.link_gbps);
        } else if (arg == "--hop-cycles") {
            parseValue(arg, next(), cfg.link_hop_cycles);
        } else if (arg == "--l15-mb") {
            uint64_t mb = 0;
            parseValue(arg, next(), mb);
            cfg.withL15(mb * MiB, L15Alloc::RemoteOnly);
            if (mb > 0 && mb * MiB < 16 * MiB)
                cfg.l2.size_bytes = 16 * MiB - mb * MiB;
        } else if (arg == "--sched") {
            parseChoice(arg, next(), cfg.cta_sched,
                        {{"centralized", CtaSchedPolicy::CentralizedRR},
                         {"distributed", CtaSchedPolicy::DistributedBatch},
                         {"dynamic", CtaSchedPolicy::DynamicBatch}});
        } else if (arg == "--pages") {
            parseChoice(arg, next(), cfg.page_policy,
                        {{"interleave", PagePolicy::FineInterleave},
                         {"first-touch", PagePolicy::FirstTouch},
                         {"rr-page", PagePolicy::RoundRobinPage}});
        } else if (arg == "--topology") {
            topology = next();
        } else if (arg == "--route-policy") {
            RoutePolicy p = RoutePolicy::Static;
            parseChoice(arg, next(), p,
                        {{"static", RoutePolicy::Static},
                         {"adaptive", RoutePolicy::Adaptive}});
            route_policy = p;
        } else if (arg == "--pkg-link-gbps") {
            parseValue(arg, next(), cfg.pkg_link_gbps);
        } else if (arg == "--pkg-hop-cycles") {
            parseValue(arg, next(), cfg.pkg_link_hop_cycles);
        } else if (arg == "--dram-turnaround") {
            parseValue(arg, next(), cfg.dram_turnaround_cycles);
        } else if (arg == "--dram-write-drain") {
            parseValue(arg, next(), cfg.dram_write_drain);
        } else if (arg == "--sweep-sms") {
            uint32_t n = 0;
            parseValue(arg, next(), n);
            cfg.fault.sweepSmsEveryModule(cfg.num_modules, n);
        } else if (arg == "--link-derate") {
            double f = 0.0;
            parseValue(arg, next(), f);
            cfg.fault.derateLinks(f);
        } else if (arg == "--link-error-rate") {
            double p = 0.0;
            parseValue(arg, next(), p);
            cfg.fault.injectLinkErrors(p);
        } else if (arg == "--kill-partition") {
            PartitionId p = 0;
            parseValue(arg, next(), p);
            cfg.fault.killPartition(p);
        } else if (arg == "--fault-seed") {
            uint64_t seed = 0;
            parseValue(arg, next(), seed);
            cfg.fault.withSeed(seed);
        } else if (arg == "--watchdog-cycles") {
            parseValue(arg, next(), cfg.watchdog_cycles);
        } else if (arg == "--max-cycles") {
            parseValue(arg, next(), cfg.cycle_limit);
        } else if (arg == "--mem-model") {
            parseChoice(arg, next(), mem_model,
                        {{"chain", MemModel::Chain},
                         {"staged", MemModel::Staged}});
        } else if (arg == "--remote-mshrs") {
            parseValue(arg, next(), remote_mshrs);
        } else if (arg == "--fabric-vcs") {
            parseValue(arg, next(), fabric_vcs);
        } else if (arg == "--vc-credits") {
            parseValue(arg, next(), vc_credits);
        } else if (arg == "--sim-threads") {
            parseValue(arg, next(), sim_threads);
        } else if (arg == "--expect-status") {
            expect_status = next();
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--dump-stats") {
            dump = true;
        } else if (arg == "--matrix") {
            matrix_machines = next();
        } else if (arg == "--workloads") {
            matrix_workloads = next();
        } else if (arg == "--check-obs") {
            check_obs_dir = next();
        } else if (experiment::parseCliFlag(argc, argv, i)) {
            // shared sweep flags: --quiet/--jobs/--runs-json/--cache-dir
        } else {
            usage();
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    // Applied after the flag loop so --mem-model / --fabric-vcs /
    // --topology / --route-policy compose with --machine in either
    // order (an absent --route-policy keeps the preset's policy).
    cfg.withMemModel(mem_model, remote_mshrs);
    cfg.withFabricVcs(fabric_vcs, vc_credits);
    cfg.withSimThreads(sim_threads);
    if (!topology.empty())
        cfg.withTopology(topology);
    if (route_policy)
        cfg.withRoutePolicy(*route_policy);

    if (!check_obs_dir.empty())
        return checkObsMode(check_obs_dir);

    if (!matrix_machines.empty()) {
        return runMatrixMode(matrix_machines, matrix_workloads, mem_model,
                             remote_mshrs, fabric_vcs, vc_credits,
                             topology, route_policy);
    }

    const workloads::Workload *w = workloads::findByAbbr(workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     workload.c_str());
        return 1;
    }

    try {
        cfg.validate();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    if (dump) {
        // Drive the machine directly so its counters stay accessible.
        GpuSystem gpu(cfg);
        Runtime rt(gpu);
        rt.runAll(w->launches);
        gpu.dumpStats(std::cout);
        return 0;
    }

    RunResult r = Simulator::run(cfg, *w);
    std::printf("workload        : %s (%s)\n", w->name.c_str(),
                w->abbr.c_str());
    std::printf("machine         : %s\n", cfg.name.c_str());
    std::printf("status          : %s\n", toString(r.status));
    if (r.status == RunStatus::Stalled || r.status == RunStatus::Deadlock)
        std::printf("--- stall diagnostic ---\n%s",
                    r.stall_diagnostic.c_str());
    else if (r.status == RunStatus::Error ||
             r.status == RunStatus::Timeout)
        std::printf("--- error ---\n%s\n", r.stall_diagnostic.c_str());
    std::printf("cycles          : %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("warp insts      : %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(r.warp_instructions),
                r.ipc());
    std::printf("kernels         : %u\n", r.kernels);
    std::printf("inter-module    : %.3f TB/s average\n",
                r.interModuleTBps());
    if (stats) {
        std::printf("dram read/write : %llu / %llu MB\n",
                    static_cast<unsigned long long>(r.dram_read_bytes >>
                                                    20),
                    static_cast<unsigned long long>(r.dram_write_bytes >>
                                                    20));
        std::printf("hit rates       : L1 %.1f%%  L1.5 %.1f%%  L2 "
                    "%.1f%%\n",
                    100.0 * r.l1_hit_rate, 100.0 * r.l15_hit_rate,
                    100.0 * r.l2_hit_rate);
        std::printf("energy          : chip %.4f J, links %.4f J\n",
                    r.energy_chip_j, r.energy_link_j);
    }
    if (!expect_status.empty()) {
        // Scripting contract (resilience-smoke ctest): exit 0 iff the
        // run ended exactly as predicted, 3 on any other outcome.
        if (expect_status != toString(r.status)) {
            std::fprintf(stderr,
                         "expected status '%s' but run ended '%s'\n",
                         expect_status.c_str(), toString(r.status));
            return 3;
        }
    }
    return 0;
}
