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
 *
 * Flags may come in any order: machine edits apply to whichever
 * machines --machine or --matrix selects (see sim/cli.hh). --help
 * lists every flag.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
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
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

/**
 * --matrix mode: run machines × workloads through the experiment pool
 * and print one cycles cell per pair, plus the sweep summary. Failed
 * jobs show up as per-cell statuses, not an aborted sweep.
 * @return 0 when every job finished, 2 otherwise.
 */
int
runMatrixMode(const std::vector<GpuConfig> &cfgs,
              std::vector<const workloads::Workload *> ws)
{
    if (ws.empty())
        ws = experiment::everyWorkload();
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
    if (ends_with(".stats.json")) {
        std::string bad = require_marker("mcmgpu-stats/1");
        if (!bad.empty())
            return bad;
        // A run with a "mem" group (staged model) lands every completed
        // transaction in exactly one load/store latency histogram.
        if (text.find("\"mem\": {") == std::string::npos)
            return "";
        auto number_after = [&](const std::string &needle, size_t from) {
            const size_t pos = text.find(needle, from);
            return pos == std::string::npos
                       ? -1.0
                       : std::strtod(text.c_str() + pos + needle.size(),
                                     nullptr);
        };
        double samples = 0.0;
        for (const char *h : {"load_latency_local", "load_latency_remote",
                              "store_latency_local",
                              "store_latency_remote"}) {
            const size_t at =
                text.find(std::string("{\"name\": \"") + h + "\"");
            if (at == std::string::npos)
                return std::string("mem group without histogram ") + h;
            samples += number_after("\"count\": ", at);
        }
        const double completed = number_after("\"txn_completed\": ", 0);
        if (samples != completed)
            return "latency histogram counts " +
                   std::to_string(static_cast<long long>(samples)) +
                   " != mem.txn_completed " +
                   std::to_string(static_cast<long long>(completed));
        return "";
    }
    return "";
}

/**
 * --check-obs mode: validate every .json file under @p dir with the
 * strict shared checker. Exercised by the obs-smoke ctest so a
 * malformed emitter fails CI, not a Perfetto load three weeks later.
 * @return 0 when every file is well-formed, 1 otherwise.
 */
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
    std::vector<const workloads::Workload *> matrix_workloads;
    bool list = false, stats = false, dump = false;
    std::string check_obs_dir;
    std::optional<RunStatus> expect_status;
    cli::Choices<std::optional<RunStatus>> statuses;
    for (RunStatus s : {RunStatus::Finished, RunStatus::Stalled,
                        RunStatus::Deadlock, RunStatus::Timeout,
                        RunStatus::CycleLimit, RunStatus::Error})
        statuses.emplace_back(toString(s), s);
    cli::Machines machines;

    cli::parseArgs(argc, argv, {{"runs", {
        cli::toggle("--list", "list workloads and exit", list),
        {"--workload", "<abbr>", "workload to run (default Stream)",
         [&](const std::string &v) {
             cli::parseChoice("--workload", v, cli::workloadNames());
             workload = v;
         }},
        {"--workloads", "<w1,w2,...>", "workload set for --matrix "
         "(default: all 48)", [&](const std::string &v) {
             matrix_workloads = cli::parseWorkloads("--workloads", v);
         }},
        cli::toggle("--stats", "print summary statistics", stats),
        cli::toggle("--dump-stats", "dump every component counter", dump),
        cli::value("--check-obs", "<dir>", "validate every .json under dir "
                   "and exit (0 = all well-formed; also schema-checks "
                   "stats/timeline/fabric/flight artifacts)", check_obs_dir),
        cli::choice("--expect-status", "single run: exit 0 iff the run ends "
                    "with this status, else 3", expect_status, statuses),
    }}, machines.flags(), cli::sweepFlags()});

    if (list) {
        for (const auto &w : workloads::allWorkloads())
            std::printf("%-14s %-12s %s\n", w.abbr.c_str(),
                        workloads::categoryName(w.category),
                        w.name.c_str());
        return 0;
    }

    if (!check_obs_dir.empty())
        return checkObsMode(check_obs_dir);

    const std::vector<GpuConfig> cfgs = machines.build();
    if (machines.matrix())
        return runMatrixMode(cfgs, matrix_workloads);

    const GpuConfig &cfg = cfgs.front();
    const workloads::Workload *w = workloads::findByAbbr(workload);

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
    if (expect_status && *expect_status != r.status) {
        // Scripting contract (resilience-smoke ctest): exit 0 iff the
        // run ended exactly as predicted, 3 on any other outcome.
        std::fprintf(stderr, "expected status '%s' but run ended '%s'\n",
                     toString(*expect_status), toString(r.status));
        return 3;
    }
    return 0;
}
