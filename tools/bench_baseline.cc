/**
 * @file
 * End-to-end hot-path benchmark harness: runs workload × machine pairs
 * through the full simulator (GpuSystem + Runtime, the same path the
 * CLI and experiment runner use) and reports throughput as
 * events-per-second of the discrete-event engine, the figure of merit
 * for simulator speed. Emits `BENCH_hotpath.json`:
 *
 *   {
 *     "schema": "mcmgpu-bench/1",
 *     "machines": [...], "workloads": N,
 *     "pairs": [ { "config": "...", "workload": "...",
 *                  "cycles": C, "events": E,
 *                  "wall_ms": W, "events_per_sec": R }, ... ],
 *     "totals": { "events": E, "wall_ms": W, "events_per_sec": R }
 *   }
 *
 * The committed BENCH_hotpath.json at the repo root is the regression
 * baseline: the `bench-baseline` ctest re-runs a small subset, checks
 * the emitted document against the schema above, and fails when
 * aggregate events/sec drops more than the threshold below the
 * committed figures for the same pairs (skipped under sanitizers via
 * --no-threshold, where wall-clock is meaningless).
 *
 * Cycle and event counts are also cross-checked against the baseline
 * for every matched pair, whatever its memory model or engine: a
 * *timing* regression (non-bit-identical simulation) fails the check
 * even when speed is fine.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

struct PairResult
{
    std::string config;
    std::string workload;
    uint64_t cycles = 0;
    uint64_t events = 0;
    double wall_ms = 0.0;

    double
    eventsPerSec() const
    {
        return wall_ms > 0.0 ? static_cast<double>(events) /
                                   (wall_ms / 1000.0)
                             : 0.0;
    }
};

bool
machineByName(const std::string &name, GpuConfig &cfg)
{
    // A "+adaptive" suffix on any preset switches the fabric to
    // congestion-aware route selection and tags the config name, so
    // adaptive pairs are distinct in the baseline.
    static const std::string kAdaptive = "+adaptive";
    if (name.size() > kAdaptive.size() &&
        name.compare(name.size() - kAdaptive.size(), kAdaptive.size(),
                     kAdaptive) == 0) {
        const std::string base = name.substr(0, name.size() -
                                                    kAdaptive.size());
        if (!machineByName(base, cfg))
            return false;
        cfg.withRoutePolicy(RoutePolicy::Adaptive);
        cfg.name += kAdaptive;
        return true;
    }
    if (name == "mono-32")
        cfg = configs::monolithic(32);
    else if (name == "mono-128")
        cfg = configs::monolithicBuildableMax();
    else if (name == "mono-256")
        cfg = configs::monolithicUnbuildable();
    else if (name == "mcm-basic")
        cfg = configs::mcmBasic();
    else if (name == "mcm-optimized")
        cfg = configs::mcmOptimized();
    else if (name == "mcm-mesh")
        cfg = configs::mcmMesh();
    else if (name == "mcm-rings")
        cfg = configs::mcmRingOfRings();
    else if (name == "mcm-package")
        cfg = configs::mcmPackage();
    else if (name == "multi-gpu")
        cfg = configs::multiGpuBaseline();
    else if (name == "multi-gpu-opt")
        cfg = configs::multiGpuOptimized();
    else
        return false;
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

PairResult
runPair(const GpuConfig &cfg, const workloads::Workload &wl, int repeats)
{
    PairResult r;
    r.config = cfg.name;
    r.workload = wl.abbr;
    double best_ms = 0.0;
    for (int i = 0; i < repeats; ++i) {
        GpuSystem gpu(cfg);
        Runtime rt(gpu);
        const auto t0 = std::chrono::steady_clock::now();
        rt.runAll(wl.launches);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        // Keep the fastest repeat: scheduler noise only ever slows a
        // run down, so the minimum is the closest to the true cost.
        // Engine-level figures so both serial and parallel (--sim-
        // threads) runs report totals over every domain.
        if (i == 0 || ms < best_ms) {
            best_ms = ms;
            r.cycles = gpu.simEngine().now();
            r.events = gpu.eventsExecuted();
        }
    }
    r.wall_ms = best_ms;
    return r;
}

std::string
emitJson(const std::vector<std::string> &machines,
         size_t num_workloads, const std::vector<PairResult> &pairs)
{
    uint64_t tot_events = 0;
    double tot_ms = 0.0;
    for (const auto &p : pairs) {
        tot_events += p.events;
        tot_ms += p.wall_ms;
    }
    const double tot_rate =
        tot_ms > 0.0 ? static_cast<double>(tot_events) / (tot_ms / 1000.0)
                     : 0.0;

    std::ostringstream os;
    os << "{\n  \"schema\": \"mcmgpu-bench/1\",\n  \"machines\": [";
    for (size_t i = 0; i < machines.size(); ++i)
        os << (i ? ", " : "") << json::quoted(machines[i]);
    os << "],\n  \"workloads\": " << num_workloads << ",\n  \"pairs\": [\n";
    for (size_t i = 0; i < pairs.size(); ++i) {
        const auto &p = pairs[i];
        os << "    {\"config\": " << json::quoted(p.config)
           << ", \"workload\": " << json::quoted(p.workload)
           << ", \"cycles\": " << p.cycles
           << ", \"events\": " << p.events
           << ", \"wall_ms\": " << json::number(p.wall_ms)
           << ", \"events_per_sec\": " << json::number(p.eventsPerSec())
           << "}" << (i + 1 < pairs.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"totals\": {\"events\": " << tot_events
       << ", \"wall_ms\": " << json::number(tot_ms)
       << ", \"events_per_sec\": " << json::number(tot_rate) << "}\n}\n";
    return os.str();
}

// ---- baseline parsing (just enough JSON reading for our own schema) ----

struct BaselinePair
{
    std::string config;
    std::string workload;
    uint64_t cycles = 0;
    uint64_t events = 0;
    double events_per_sec = 0.0;
};

/** Extract the string value following `"key": "` inside @p obj. */
bool
fieldString(const std::string &obj, const char *key, std::string &out)
{
    const std::string pat = std::string("\"") + key + "\":";
    size_t p = obj.find(pat);
    if (p == std::string::npos)
        return false;
    p = obj.find('"', p + pat.size());
    if (p == std::string::npos)
        return false;
    const size_t e = obj.find('"', p + 1);
    if (e == std::string::npos)
        return false;
    out = obj.substr(p + 1, e - p - 1);
    return true;
}

bool
fieldNumber(const std::string &obj, const char *key, double &out)
{
    const std::string pat = std::string("\"") + key + "\":";
    size_t p = obj.find(pat);
    if (p == std::string::npos)
        return false;
    p += pat.size();
    while (p < obj.size() && (obj[p] == ' ' || obj[p] == '\t'))
        ++p;
    try {
        out = std::stod(obj.substr(p));
    } catch (...) {
        return false;
    }
    return true;
}

/**
 * Validate @p text against the mcmgpu-bench/1 schema and pull out the
 * per-pair figures. Returns false (with a message on stderr) on any
 * defect; used both as the self-check after emitting and to read the
 * committed baseline.
 */
bool
parseBench(const std::string &text, std::vector<BaselinePair> &out)
{
    auto v = json::validate(text);
    if (!v) {
        std::cerr << "bench json malformed at byte " << v.offset << ": "
                  << v.error << "\n";
        return false;
    }
    if (text.find("\"schema\": \"mcmgpu-bench/1\"") == std::string::npos &&
        text.find("\"schema\":\"mcmgpu-bench/1\"") == std::string::npos) {
        std::cerr << "bench json missing schema mcmgpu-bench/1\n";
        return false;
    }
    const size_t pairs_at = text.find("\"pairs\"");
    if (pairs_at == std::string::npos) {
        std::cerr << "bench json missing pairs array\n";
        return false;
    }
    // Walk the {...} objects of the pairs array (no nested objects by
    // schema; validate() above already guaranteed well-formedness).
    size_t p = text.find('[', pairs_at);
    const size_t end = text.find(']', pairs_at);
    if (p == std::string::npos || end == std::string::npos)
        return false;
    while (true) {
        const size_t b = text.find('{', p);
        if (b == std::string::npos || b > end)
            break;
        const size_t e = text.find('}', b);
        if (e == std::string::npos)
            break;
        const std::string obj = text.substr(b, e - b + 1);
        BaselinePair bp;
        double cycles = 0, events = 0;
        if (!fieldString(obj, "config", bp.config) ||
            !fieldString(obj, "workload", bp.workload) ||
            !fieldNumber(obj, "cycles", cycles) ||
            !fieldNumber(obj, "events", events) ||
            !fieldNumber(obj, "events_per_sec", bp.events_per_sec)) {
            std::cerr << "bench pair missing required field: " << obj
                      << "\n";
            return false;
        }
        bp.cycles = static_cast<uint64_t>(cycles);
        bp.events = static_cast<uint64_t>(events);
        out.push_back(bp);
        p = e + 1;
    }
    if (out.empty()) {
        std::cerr << "bench json has no pairs\n";
        return false;
    }
    if (text.find("\"totals\"") == std::string::npos) {
        std::cerr << "bench json missing totals\n";
        return false;
    }
    return true;
}

void
usage()
{
    std::cout <<
        "bench_baseline: simulator hot-path throughput harness\n"
        "  --machines a,b     machine presets (default "
        "mcm-basic,mcm-optimized;\n"
        "                     also mcm-mesh, mcm-rings, mcm-package, "
        "mono-*, multi-gpu*;\n"
        "                     a +adaptive suffix, e.g. "
        "mcm-mesh+adaptive, enables\n"
        "                     congestion-aware route selection)\n"
        "  --workloads x,y    workload abbreviations (default: all 48)\n"
        "  --repeat N         repeats per pair, fastest kept (default 1)\n"
        "  --mem-model M      chain | staged | staged-vc | both | all\n"
        "                     (default chain); staged pairs carry a "
        "+staged\n"
        "                     config suffix, staged-vc pairs (2 virtual\n"
        "                     channels, credit flow control) +staged-vc\n"
        "  --sim-threads N    N > 1 adds a PDES pair family per machine:\n"
        "                     +staged-dist (staged model, distributed\n"
        "                     CTA batches, serial engine) and\n"
        "                     +staged-dist-smtN (same machine on N\n"
        "                     worker threads), plus a speedup summary\n"
        "                     over the matched family\n"
        "  --out FILE         write BENCH json (default "
        "BENCH_hotpath.json)\n"
        "  --baseline FILE    committed baseline to regress against\n"
        "  --threshold PCT    max events/sec regression (default 20)\n"
        "  --no-threshold     schema + cycle checks only (sanitizers)\n"
        "  --compare FILE     print speedup vs another bench json\n"
        "  --quiet            suppress per-pair progress\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> machines = {"mcm-basic", "mcm-optimized"};
    std::vector<std::string> workload_names;
    std::string out_path = "BENCH_hotpath.json";
    std::string baseline_path;
    std::string compare_path;
    double threshold_pct = 20.0;
    bool use_threshold = true;
    bool quiet = false;
    int repeats = 1;
    bool run_chain = true;
    bool run_staged = false;
    bool run_staged_vc = false;
    uint32_t sim_threads = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty())
            continue; // a disabled $<...> CMake genex passes ""
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--machines")
            machines = splitCommas(next());
        else if (a == "--workloads")
            workload_names = splitCommas(next());
        else if (a == "--repeat")
            repeats = std::max(1, std::atoi(next().c_str()));
        else if (a == "--mem-model") {
            const std::string m = next();
            run_chain = m == "chain" || m == "both" || m == "all";
            run_staged = m == "staged" || m == "both" || m == "all";
            run_staged_vc = m == "staged-vc" || m == "all";
            if (!run_chain && !run_staged && !run_staged_vc) {
                std::cerr << "unknown --mem-model " << m
                          << " (chain | staged | staged-vc | both | "
                             "all)\n";
                return 2;
            }
        } else if (a == "--sim-threads")
            sim_threads = static_cast<uint32_t>(
                std::max(1, std::atoi(next().c_str())));
        else if (a == "--out")
            out_path = next();
        else if (a == "--baseline")
            baseline_path = next();
        else if (a == "--threshold")
            threshold_pct = std::atof(next().c_str());
        else if (a == "--no-threshold")
            use_threshold = false;
        else if (a == "--compare")
            compare_path = next();
        else if (a == "--quiet")
            quiet = true;
        else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown flag " << a << "\n";
            usage();
            return 2;
        }
    }

    // Resolve the run set.
    std::vector<const workloads::Workload *> suite;
    if (workload_names.empty()) {
        for (const auto &w : workloads::allWorkloads())
            suite.push_back(&w);
    } else {
        for (const auto &n : workload_names) {
            const auto *w = workloads::findByAbbr(n);
            if (!w) {
                std::cerr << "unknown workload " << n << "\n";
                return 2;
            }
            suite.push_back(w);
        }
    }

    std::vector<GpuConfig> cfgs;
    for (const auto &m : machines) {
        GpuConfig cfg;
        if (!machineByName(m, cfg)) {
            std::cerr << "unknown machine " << m << "\n";
            return 2;
        }
        if (run_chain)
            cfgs.push_back(cfg);
        if (run_staged) {
            GpuConfig st = cfg;
            st.withMemModel(MemModel::Staged, 0);
            st.name += "+staged";
            cfgs.push_back(st);
        }
        if (run_staged_vc) {
            GpuConfig sv = cfg;
            sv.withMemModel(MemModel::Staged, 0);
            sv.withFabricVcs(2, 64);
            sv.name += "+staged-vc";
            cfgs.push_back(sv);
        }
        if (sim_threads > 1) {
            // PDES family: the serial reference and the N-thread run of
            // the same machine, differing only in the engine.
            // DistributedBatch scheduling — a PDES eligibility
            // requirement (docs/PDES.md) — applies to both. Parallel
            // cycles carry the documented bounded store-ack slip, so
            // the -smtN pair differs from its serial twin, but it is
            // deterministic for every N and gated against its own
            // committed figures. Ineligible machines (e.g.
            // single-module mono-*) fall back to the serial engine in
            // the -smt config by design.
            GpuConfig sd = cfg;
            sd.withMemModel(MemModel::Staged, 0);
            sd.withSched(CtaSchedPolicy::DistributedBatch);
            sd.name += "+staged-dist";
            cfgs.push_back(sd);
            GpuConfig sp = sd;
            sp.withSimThreads(sim_threads);
            sp.name += "-smt" + std::to_string(sim_threads);
            cfgs.push_back(sp);
        }
    }

    std::vector<PairResult> pairs;
    pairs.reserve(cfgs.size() * suite.size());
    for (const auto &cfg : cfgs) {
        for (const auto *wl : suite) {
            PairResult r = runPair(cfg, *wl, repeats);
            if (!quiet)
                std::cout << cfg.name << " x " << wl->abbr << ": "
                          << r.events << " events in "
                          << json::number(r.wall_ms) << " ms ("
                          << json::number(r.eventsPerSec() / 1e6)
                          << " Mev/s)\n";
            pairs.push_back(std::move(r));
        }
    }

    if (sim_threads > 1) {
        // In-run PDES summary: aggregate serial-engine vs N-thread
        // wall time over the matched +staged-dist family, per machine
        // and in total. (On a single-core host this reports the
        // threading overhead rather than a speedup; the figure is the
        // honest measurement either way.)
        const std::string ser_sfx = "+staged-dist";
        const std::string par_sfx =
            ser_sfx + "-smt" + std::to_string(sim_threads);
        double tot_ser = 0.0, tot_par = 0.0;
        for (const auto &m : machines) {
            double ser_ms = 0.0, par_ms = 0.0;
            uint64_t par_events = 0;
            for (const auto &p : pairs) {
                if (p.config == m + ser_sfx)
                    ser_ms += p.wall_ms;
                else if (p.config == m + par_sfx) {
                    par_ms += p.wall_ms;
                    par_events += p.events;
                }
            }
            if (ser_ms <= 0.0 || par_ms <= 0.0)
                continue;
            tot_ser += ser_ms;
            tot_par += par_ms;
            std::cout << "pdes " << m << ": serial "
                      << json::number(ser_ms) << " ms, smt"
                      << sim_threads << " " << json::number(par_ms)
                      << " ms -> " << json::number(ser_ms / par_ms)
                      << "x ("
                      << json::number(static_cast<double>(par_events) /
                                      (par_ms / 1000.0) / 1e6)
                      << " Mev/s parallel)\n";
        }
        if (tot_ser > 0.0 && tot_par > 0.0)
            std::cout << "pdes total: " << json::number(tot_ser)
                      << " ms serial vs " << json::number(tot_par)
                      << " ms smt" << sim_threads << " -> "
                      << json::number(tot_ser / tot_par) << "x\n";
    }

    const std::string doc = emitJson(machines, suite.size(), pairs);
    {
        std::ofstream of(out_path, std::ios::binary);
        if (!of) {
            std::cerr << "cannot write " << out_path << "\n";
            return 1;
        }
        of << doc;
    }

    // Self-check: whatever we just emitted must satisfy our own schema.
    std::vector<BaselinePair> self;
    if (!parseBench(doc, self)) {
        std::cerr << "emitted document failed schema check\n";
        return 1;
    }
    if (!quiet)
        std::cout << "wrote " << out_path << " (" << pairs.size()
                  << " pairs)\n";

    int rc = 0;

    auto loadBench = [](const std::string &path,
                        std::vector<BaselinePair> &bp) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::cerr << "cannot read " << path << "\n";
            return false;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        return parseBench(ss.str(), bp);
    };

    auto matchedRates = [&pairs](const std::vector<BaselinePair> &base,
                                 double &cur_rate, double &base_rate,
                                 uint64_t &cycle_mismatches) {
        uint64_t cur_events = 0, base_events = 0;
        double cur_ms = 0.0, base_ms = 0.0;
        cycle_mismatches = 0;
        size_t matched = 0;
        for (const auto &p : pairs) {
            for (const auto &b : base) {
                if (b.config != p.config || b.workload != p.workload)
                    continue;
                ++matched;
                cur_events += p.events;
                cur_ms += p.wall_ms;
                base_events += b.events;
                base_ms += static_cast<double>(b.events) /
                           (b.events_per_sec > 0.0 ? b.events_per_sec
                                                   : 1.0) * 1000.0;
                // Every pair is deterministic — parallel ones for every
                // worker count — so any drift in cycles or events is a
                // timing change the committed baseline must record.
                if (b.cycles != p.cycles || b.events != p.events)
                    ++cycle_mismatches;
                break;
            }
        }
        cur_rate = cur_ms > 0.0
                       ? static_cast<double>(cur_events) / (cur_ms / 1000.0)
                       : 0.0;
        base_rate = base_ms > 0.0
                        ? static_cast<double>(base_events) /
                              (base_ms / 1000.0)
                        : 0.0;
        return matched;
    };

    if (!baseline_path.empty()) {
        std::vector<BaselinePair> base;
        if (!loadBench(baseline_path, base))
            return 1;
        double cur_rate = 0.0, base_rate = 0.0;
        uint64_t cycle_mismatches = 0;
        const size_t matched =
            matchedRates(base, cur_rate, base_rate, cycle_mismatches);
        if (matched == 0) {
            std::cerr << "baseline shares no (config, workload) pairs "
                         "with this run\n";
            return 1;
        }
        std::cout << "baseline check: " << matched << " matched pairs, "
                  << json::number(cur_rate / 1e6) << " Mev/s now vs "
                  << json::number(base_rate / 1e6) << " Mev/s committed\n";
        if (cycle_mismatches != 0) {
            // Simulated time diverged from the committed run: that is a
            // correctness regression, never acceptable regardless of
            // speed or sanitizer mode.
            std::cerr << "FAIL: " << cycle_mismatches
                      << " pair(s) changed cycles/events vs baseline "
                         "(simulation no longer bit-identical)\n";
            rc = 1;
        }
        if (use_threshold && base_rate > 0.0 &&
            cur_rate < base_rate * (1.0 - threshold_pct / 100.0)) {
            std::cerr << "FAIL: events/sec regressed more than "
                      << threshold_pct << "% vs committed baseline\n";
            rc = 1;
        }
    }

    if (!compare_path.empty()) {
        std::vector<BaselinePair> other;
        if (!loadBench(compare_path, other))
            return 1;
        double cur_rate = 0.0, other_rate = 0.0;
        uint64_t cycle_mismatches = 0;
        const size_t matched =
            matchedRates(other, cur_rate, other_rate, cycle_mismatches);
        if (matched != 0 && other_rate > 0.0)
            std::cout << "speedup vs " << compare_path << ": "
                      << json::number(cur_rate / other_rate) << "x over "
                      << matched << " pairs ("
                      << cycle_mismatches << " cycle mismatches)\n";
    }

    return rc;
}
