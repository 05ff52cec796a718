#include "sim/cli.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>

#include "obs/options.hh"
#include "sim/experiment.hh"

namespace mcmgpu {
namespace cli {

namespace {

std::string
join(const std::vector<std::string> &names, const std::string &sep = "|")
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : sep) + n;
    return out;
}

/** A flag whose value parses as a T and is handed to @p use. */
template <typename T, typename Use>
Flag
typed(std::string name, std::string mv, std::string help, Use use)
{
    return {name, std::move(mv), std::move(help),
            [name, use](const std::string &text) {
                T v{};
                parseValue(name, text, v);
                use(v);
            }};
}

/** A flag that sets one field of the process-wide obs::Options; a
 *  switch (no metavar) sets its bool field. */
template <typename T>
Flag
obsField(std::string name, std::string mv, std::string help,
         T obs::Options::*field)
{
    return {name, std::move(mv), std::move(help),
            [name, field](const std::string &text) {
                obs::Options o = obs::options();
                if constexpr (std::is_same_v<T, bool>)
                    o.*field = true;
                else
                    parseValue(name, text, o.*field);
                obs::setOptions(o);
            }};
}

/** The machine-edit flags, each writing into @p c. */
FlagTable
machineFlags(GpuConfig &c)
{
    return {"machines (edits apply in command-line order to every selected "
            "machine)", {
        value("--link-gbps", "<n>", "inter-module link bandwidth, GB/s",
              c.link_gbps),
        value("--hop-cycles", "<n>", "per-hop link latency",
              c.link_hop_cycles),
        {"--l15-mb", "<n>", "remote-only L1.5 capacity in MB (total), "
         "carved out of the machine's cache budget of 64 KB per SM; the L2 "
         "keeps the rest, at least 32 KB per partition (0 = no L1.5)",
         [&c](const std::string &text) {
             uint64_t mb = 0;
             parseValue("--l15-mb", text, mb);
             if (mb > std::numeric_limits<uint64_t>::max() / MiB)
                 throw invalidValue("--l15-mb", text);
             c.withL15(mb * MiB, L15Alloc::RemoteOnly);
         }},
        choice("--sched", "CTA scheduling policy", c.cta_sched,
               {{"centralized", CtaSchedPolicy::CentralizedRR},
                {"distributed", CtaSchedPolicy::DistributedBatch},
                {"dynamic", CtaSchedPolicy::DynamicBatch}}),
        choice("--pages", "page placement policy", c.page_policy,
               {{"interleave", PagePolicy::FineInterleave},
                {"first-touch", PagePolicy::FirstTouch},
                {"rr-page", PagePolicy::RoundRobinPage}}),
        value("--topology", "<spec>", "ring | mesh2d[:RxC] | "
              "ring-of-rings:G/R | package:P | ports (default: the "
              "preset's; docs/TOPOLOGY.md)", c.topology),
        value("--pkg-link-gbps", "<n>", "inter-package link bandwidth, GB/s "
              "(package:P only, default 256)", c.pkg_link_gbps),
        value("--pkg-hop-cycles", "<n>", "inter-package hop latency "
              "(package:P only, default 256)", c.pkg_link_hop_cycles),
        choice("--route-policy", "equal-cost route selection (static is the "
               "legacy toggle; adaptive takes the least-backlogged route)",
               c.route_policy,
               {{"static", RoutePolicy::Static},
                {"adaptive", RoutePolicy::Adaptive}}),
        value("--dram-turnaround", "<n>", "DRAM read/write turnaround "
              "cycles per channel (0 = off)", c.dram_turnaround_cycles),
        value("--dram-write-drain", "<n>", "buffer n posted writes per "
              "channel and drain them as one batch (0 = off)",
              c.dram_write_drain),
        typed<uint32_t>("--sweep-sms", "<n>", "disable the first n SMs of "
                        "every GPM", [&c](uint32_t n) {
                            c.fault.sweepSmsEveryModule(c.num_modules, n);
                        }),
        typed<double>("--link-derate", "<f>", "derate all links to f "
                      "(0 < f <= 1)",
                      [&c](double f) { c.fault.derateLinks(f); }),
        typed<double>("--link-error-rate", "<p>", "transient CRC-error "
                      "chance per traversal (0 <= p <= 1)",
                      [&c](double p) { c.fault.injectLinkErrors(p); }),
        typed<PartitionId>("--kill-partition", "<p>", "mark DRAM partition "
                           "p dead",
                           [&c](PartitionId p) { c.fault.killPartition(p); }),
        value("--fault-seed", "<s>", "seed for link error streams",
              c.fault.seed),
        value("--watchdog-cycles", "<n>", "no-progress window (0 disables)",
              c.watchdog_cycles),
        value("--max-cycles", "<n>", "stop after n cycles", c.cycle_limit),
        choice("--mem-model", "post-L1 memory model (default chain)",
               c.mem_model,
               {{"chain", MemModel::Chain}, {"staged", MemModel::Staged}}),
        value("--remote-mshrs", "<n>", "staged: remote MSHRs per module "
              "(0 = unbounded)", c.remote_mshrs),
        value("--fabric-vcs", "<n>", "staged: fabric virtual channels (0 = "
              "off, 1 = one shared pool, deliberately deadlock-prone, 2 = "
              "req/resp, deadlock-free)", c.fabric_vcs),
        value("--vc-credits", "<n>", "credits per VC pool per GPM pair "
              "(default 64)", c.vc_credits),
        typed<uint32_t>("--sim-threads", "<n>", "simulate GPM domains on n "
                        "threads (default 1 = serial). Needs the staged "
                        "model, --sched distributed and --fabric-vcs 0; "
                        "other machines warn and run serial (docs/PDES.md)",
                        [&c](uint32_t n) { c.withSimThreads(n); }),
    }};
}

} // namespace

size_t
parseChoice(const std::string &flag, const std::string &text,
            const std::vector<std::string> &names)
{
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end())
        throw UsageError("unknown " + flag + " '" + text + "' (" +
                         join(names) + ")");
    return static_cast<size_t>(it - names.begin());
}

std::vector<std::string>
parseList(const std::string &flag, const std::string &text,
          const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    for (std::string item; std::getline(ss, item, ',');) {
        if (!item.empty())
            out.push_back(names[parseChoice(flag, item, names)]);
    }
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const workloads::Workload &w : workloads::allWorkloads())
            out.push_back(w.abbr);
        return out;
    }();
    return names;
}

std::vector<const workloads::Workload *>
parseWorkloads(const std::string &flag, const std::string &text)
{
    std::vector<const workloads::Workload *> out;
    for (const std::string &abbr : parseList(flag, text, workloadNames()))
        out.push_back(workloads::findByAbbr(abbr));
    return out;
}

std::string
metavar(const std::vector<std::string> &names)
{
    return "<" + join(names) + ">";
}

std::string
alternatives(const std::vector<std::string> &names)
{
    return join(names, " | ");
}

Flag
toggle(std::string name, std::string help, bool &out)
{
    return {std::move(name), "", std::move(help),
            [&out](const std::string &) { out = true; }};
}

FlagTable
sweepFlags()
{
    using obs::Options;
    return {"sweeps and observability (see EXPERIMENTS.md)", {
        {"--quiet", "", "suppress per-run progress lines",
         [](const std::string &) { experiment::setProgress(false); }},
        typed<unsigned>("--jobs", "<n>", "parallel sweep workers (1 = "
                        "serial, 0 = one per hardware thread; or set "
                        "MCMGPU_JOBS)",
                        experiment::setJobs)
            .fromEnv("MCMGPU_JOBS", "0"), // empty: per hardware thread
        typed<std::string>("--runs-json", "<path>", "write per-job "
                           "telemetry after every sweep (or set "
                           "MCMGPU_RUNS_JSON)",
                           experiment::setRunsJsonPath)
            .fromEnv("MCMGPU_RUNS_JSON"),
        typed<std::string>("--cache-dir", "<dir>", "result cache location "
                           "('' disables; or set MCMGPU_CACHE_DIR)",
                           experiment::setCacheDir)
            .fromEnv("MCMGPU_CACHE_DIR", ""),
        typed<double>("--job-timeout-s", "<s>", "per-job wall-clock budget; "
                      "a run over it ends 'timeout' and retries with backoff "
                      "(0 disables; or set MCMGPU_JOB_TIMEOUT_S)",
                      experiment::setJobTimeout)
            .fromEnv("MCMGPU_JOB_TIMEOUT_S"),
        obsField("--sample-period", "<cycles>", "sample timelines every N "
                 "cycles into <obs-dir>/*.timeline.json (or set "
                 "MCMGPU_SAMPLE_PERIOD)",
                 &Options::sample_period)
            .fromEnv("MCMGPU_SAMPLE_PERIOD"),
        obsField("--stats-json", "", "dump per-run stats.json (or set "
                 "MCMGPU_STATS_JSON=1)",
                 &Options::stats_json)
            .fromEnv("MCMGPU_STATS_JSON"),
        obsField("--trace-json", "", "emit per-run Chrome trace.json (or "
                 "set MCMGPU_TRACE_JSON=1)",
                 &Options::trace_json)
            .fromEnv("MCMGPU_TRACE_JSON"),
        obsField("--obs-flight-recorder", "<n>", "keep the last N events in "
                 "a ring; failed runs dump them as <obs-dir>/*.flight.json "
                 "(0 disables; or set MCMGPU_FLIGHT_RECORDER)",
                 &Options::flight_recorder)
            .fromEnv("MCMGPU_FLIGHT_RECORDER"),
        obsField("--obs-dir", "<dir>", "observability output directory "
                 "(default obs-out; or set MCMGPU_OBS_DIR)",
                 &Options::out_dir)
            .fromEnv("MCMGPU_OBS_DIR"),
    }};
}

FlagTable
Machines::flags()
{
    // Each edit first writes a scratch machine, so a bad value fails
    // while parsing; applyTo() replays the recorded arguments.
    FlagTable t = machineFlags(scratch_);
    for (Flag &f : t.flags) {
        f.apply = [this, name = f.name,
                   check = f.apply](const std::string &text) {
            check(text);
            args_.insert(args_.end(), {name, text});
        };
    }
    auto select = [this](const std::string &flag,
                         std::vector<std::string> presets) {
        if (!by_.empty() && by_ != flag)
            throw UsageError("--machine and --matrix exclude each other");
        by_ = flag;
        presets_ = std::move(presets);
    };
    const std::vector<std::string> &names = configs::presetNames();
    t.flags.insert(t.flags.begin(), {
        {"--machine", "<preset>", alternatives(names) + " (default "
         "mcm-basic)", [select, &names](const std::string &v) {
             select("--machine", {names[parseChoice("--machine", v, names)]});
         }},
        {"--matrix", "<m1,m2,...>", "run a matrix of these presets x "
         "--workloads through the experiment pool",
         [select, &names](const std::string &v) {
             select("--matrix", parseList("--matrix", v, names));
         }},
    });
    return t;
}

std::vector<GpuConfig>
Machines::build() const
{
    std::vector<GpuConfig> out;
    for (const std::string &p : presets_)
        out.push_back(applyTo(configs::preset(p)));
    return out;
}

GpuConfig
Machines::applyTo(GpuConfig cfg) const
{
    parse(args_, {machineFlags(cfg)});
    return cfg;
}

std::string
usage(const std::string &prog, const std::vector<FlagTable> &tables)
{
    constexpr size_t kHelpColumn = 29, kWidth = 79;
    std::ostringstream os;
    os << "usage: " << prog << " [options]\n";
    for (const FlagTable &t : tables) {
        if (!t.title.empty())
            os << '\n' << t.title << ":\n";
        for (const Flag &f : t.flags) {
            std::string line = "  " + f.name;
            if (!f.metavar.empty())
                line += " " + f.metavar;
            // A spelling too wide for the column gets its help below.
            if (line.size() >= kHelpColumn) {
                os << line << '\n';
                line.clear();
            }
            line.resize(kHelpColumn, ' ');
            // The help wraps at kWidth, each line starting in its column.
            std::istringstream words(f.help);
            for (std::string w; words >> w;) {
                if (line.size() > kHelpColumn &&
                    line.size() + 1 + w.size() > kWidth) {
                    os << line << '\n';
                    line.assign(kHelpColumn, ' ');
                }
                line += (line.size() > kHelpColumn ? " " : "") + w;
            }
            os << line << '\n';
        }
    }
    return os.str();
}

void
parse(const std::vector<std::string> &args,
      const std::vector<FlagTable> &tables)
{
    for (size_t i = 0; i < args.size(); ++i) {
        const Flag *flag = nullptr;
        for (const FlagTable &t : tables) {
            for (const Flag &f : t.flags) {
                if (f.name == args[i])
                    flag = &f;
            }
        }
        if (!flag)
            throw UsageError("unknown flag '" + args[i] + "' (try --help)");
        if (!flag->metavar.empty() && i + 1 == args.size())
            throw UsageError("missing value for " + flag->name);
        flag->apply(flag->metavar.empty() ? "" : args[++i]);
    }
}

void
applyEnv(const std::vector<FlagTable> &tables)
{
    static const std::vector<std::string> kSwitchWords = {
        "0", "1", "false", "true", "no", "yes", "off", "on"};
    for (const FlagTable &t : tables) {
        for (const Flag &f : t.flags) {
            const char *raw =
                f.env.empty() ? nullptr : std::getenv(f.env.c_str());
            if (raw == nullptr)
                continue;
            const std::string v = raw;
            try {
                if (f.metavar.empty()) {
                    // Odd indices of kSwitchWords are the "on" words.
                    if (!v.empty() &&
                        parseChoice(f.name, v, kSwitchWords) % 2 == 1)
                        f.apply("");
                } else if (!v.empty()) {
                    f.apply(v);
                } else if (f.env_empty != nullptr) {
                    f.apply(f.env_empty);
                }
            } catch (const UsageError &e) {
                throw UsageError(f.env + ": " + e.what());
            }
        }
    }
}

void
parseArgs(int argc, char **argv, std::vector<FlagTable> tables)
{
    const std::string prog =
        std::filesystem::path(argc > 0 ? argv[0] : "").filename().string();
    tables.insert(tables.begin(),
                  {"", {{"--help", "", "print this help and exit",
                         [&](const std::string &) {
                             std::cout << usage(prog, tables);
                             std::exit(0);
                         }}}});
    try {
        applyEnv(tables);
        parse({argv + std::min(argc, 1), argv + argc}, tables);
    } catch (const UsageError &e) {
        std::cerr << e.what() << '\n';
        std::exit(1);
    }
}

} // namespace cli
} // namespace mcmgpu
