/**
 * @file
 * Unit tests for the shared command-line grammar: machine edits apply
 * in command-line order to every selected preset whatever the flag
 * order, the preset table has one spelling per machine, and every bad
 * input is a one-line UsageError. No test here simulates anything.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "obs/options.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

namespace mcmgpu {
namespace {

/** The machines a --machine / --matrix command line selects, through
 *  the tables mcmgpu_cli parses. */
std::vector<GpuConfig>
selected(const std::vector<std::string> &args)
{
    cli::Machines machines;
    cli::parse(args, {machines.flags()});
    return machines.build();
}

/** The one-line diagnosis parse() gives @p args, or "" if it accepts. */
std::string
usageError(const std::vector<std::string> &args)
{
    cli::Machines machines;
    try {
        cli::parse(args, {machines.flags(), cli::sweepFlags()});
    } catch (const cli::UsageError &e) {
        return e.what();
    }
    return "";
}

TEST(Cli, MachineEditsIgnoreFlagOrder)
{
    const auto after = selected({"--link-gbps", "192", "--machine",
                                 "mcm-basic"});
    const auto before = selected({"--machine", "mcm-basic", "--link-gbps",
                                  "192"});
    ASSERT_EQ(after.size(), 1u);
    ASSERT_EQ(before.size(), 1u);
    EXPECT_EQ(experiment::configKey(after[0]),
              experiment::configKey(before[0]));
    EXPECT_EQ(experiment::configKey(after[0]),
              experiment::configKey(configs::mcmBasic(192.0)));

    // An edit given before --machine uses the machine it lands on.
    const auto pkg = selected({"--sweep-sms", "2", "--machine",
                               "mcm-package"});
    ASSERT_EQ(pkg.size(), 1u);
    EXPECT_EQ(pkg[0].fault.swept_sms.size(), 2u * pkg[0].num_modules);
    EXPECT_EQ(pkg[0].num_modules, 8u);
}

TEST(Cli, MatrixEditsApplyToEveryPreset)
{
    const auto cfgs = selected({"--matrix", "mcm-basic,mcm-optimized",
                                "--link-gbps", "192", "--sched",
                                "distributed", "--sweep-sms", "2"});
    ASSERT_EQ(cfgs.size(), 2u);
    EXPECT_EQ(cfgs[0].name, "mcm-basic");
    EXPECT_EQ(cfgs[1].name, "mcm-optimized");
    for (const GpuConfig &c : cfgs) {
        EXPECT_DOUBLE_EQ(c.link_gbps, 192.0) << c.name;
        EXPECT_EQ(c.cta_sched, CtaSchedPolicy::DistributedBatch) << c.name;
        EXPECT_EQ(c.fault.swept_sms.size(), 2u * c.num_modules) << c.name;
        for (ModuleId m = 0; m < c.num_modules; ++m)
            EXPECT_EQ(c.fault.sweptSmsIn(m), 2u) << c.name << " GPM " << m;
    }
    GpuConfig opt = configs::mcmOptimized(192.0);
    opt.fault.sweepSmsEveryModule(opt.num_modules, 2);
    EXPECT_EQ(experiment::configKey(cfgs[1]), experiment::configKey(opt));

    // --sweep-sms counts each preset's own modules.
    const auto mixed = selected({"--matrix", "multi-gpu,mcm-package",
                                 "--sweep-sms", "2"});
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_EQ(mixed[0].fault.swept_sms.size(), 4u);
    EXPECT_EQ(mixed[1].fault.swept_sms.size(), 16u);
}

TEST(Cli, MachineAndMatrixExcludeEachOther)
{
    // Neither order may quietly pick one of the two.
    const std::string both = "--machine and --matrix exclude each other";
    EXPECT_EQ(usageError({"--matrix", "mcm-basic", "--machine", "mcm-mesh"}),
              both);
    EXPECT_EQ(usageError({"--machine", "mcm-mesh", "--matrix", "mcm-basic"}),
              both);

    // Repeating one of them keeps the last, as for every other flag.
    const auto last = selected({"--machine", "mcm-mesh", "--machine",
                                "mcm-rings"});
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].name, "mcm-rings");

    cli::Machines machines;
    EXPECT_FALSE(machines.matrix());
    cli::parse({"--matrix", "mono-32"}, {machines.flags()});
    EXPECT_TRUE(machines.matrix());
}

TEST(Cli, AdaptiveMeshPresetMatchesSuffixPath)
{
    // The generic "+adaptive" suffix the bench harness used to apply.
    GpuConfig suffixed = configs::mcmMesh();
    suffixed.withRoutePolicy(RoutePolicy::Adaptive);
    suffixed.name += "+adaptive";

    const GpuConfig p = configs::preset("mcm-mesh+adaptive");
    EXPECT_EQ(p.name, suffixed.name);
    EXPECT_EQ(experiment::configKey(p), experiment::configKey(suffixed));
}

TEST(Cli, EveryPresetBuildsAndValidates)
{
    const std::vector<std::string> &names = configs::presetNames();
    EXPECT_EQ(names.size(), 12u);
    for (const std::string &n : names)
        EXPECT_NO_THROW(configs::preset(n).validate()) << n;
    EXPECT_THROW(configs::preset("mcm-mesh-adaptive"), std::runtime_error);
}

TEST(Cli, L15FlagIsIsoTransistor)
{
    // The flag and the presets share one rule: the L1.5 comes out of
    // the machine's own cache budget, and a repeated flag keeps the last.
    auto one = [](const std::vector<std::string> &args) {
        const std::vector<GpuConfig> cfgs = selected(args);
        EXPECT_EQ(cfgs.size(), 1u);
        return cfgs.front();
    };
    EXPECT_EQ(experiment::configKey(
                  one({"--machine", "mcm-basic", "--l15-mb", "16"})),
              experiment::configKey(configs::mcmWithL15(16 * MiB)));
    EXPECT_EQ(experiment::configKey(one({"--l15-mb", "16", "--l15-mb", "8"})),
              experiment::configKey(one({"--l15-mb", "8"})));

    const GpuConfig off = one({"--machine", "mcm-optimized", "--l15-mb", "0"});
    EXPECT_EQ(off.l15_alloc, L15Alloc::Off);
    EXPECT_EQ(off.l2.size_bytes, 16 * MiB);
    EXPECT_EQ(one({"--machine", "mcm-package", "--l15-mb", "8"}).l2.size_bytes,
              24 * MiB);
    EXPECT_EQ(one({"--machine", "mono-32", "--l15-mb", "1"}).l2.size_bytes,
              1 * MiB);
}

TEST(Cli, BadInputIsOneLineUsageError)
{
    EXPECT_EQ(usageError({"--jbos", "8"}),
              "unknown flag '--jbos' (try --help)");
    EXPECT_EQ(usageError({"--sim-threads", "2", "--jobs"}),
              "missing value for --jobs");
    EXPECT_EQ(usageError({"--jobs", "abc"}),
              "invalid value 'abc' for --jobs");
    EXPECT_EQ(usageError({"--jobs", "-1"}), "invalid value '-1' for --jobs");
    EXPECT_EQ(usageError({"--link-gbps", "12x"}),
              "invalid value '12x' for --link-gbps");
    EXPECT_EQ(usageError({"--max-cycles", "abc"}),
              "invalid value 'abc' for --max-cycles");
    // 2^44 MB is 2^64 bytes: neither value may wrap to a small L1.5.
    EXPECT_EQ(usageError({"--l15-mb", "17592186044416"}),
              "invalid value '17592186044416' for --l15-mb");
    EXPECT_EQ(usageError({"--l15-mb", "17592186044417"}),
              "invalid value '17592186044417' for --l15-mb");
    EXPECT_EQ(usageError({"--sched", "distrbuted"}),
              "unknown --sched 'distrbuted' "
              "(centralized|distributed|dynamic)");
    EXPECT_EQ(usageError({"--topology", "mesh2d:2x2", "--mem-model",
                          "staged"}),
              "");

    try {
        cli::parseList("--matrix", "mcm-basic,,mcm-mesh-adaptive",
                       configs::presetNames());
        FAIL() << "an unknown preset was accepted";
    } catch (const cli::UsageError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown --matrix 'mcm-mesh-adaptive' (mono-32|mono-128|"
                  "mono-256|mcm-basic|mcm-optimized|mcm-mesh|"
                  "mcm-mesh+adaptive|mcm-rings|mcm-package|mcm-turnaround|"
                  "multi-gpu|multi-gpu-opt)");
    }
    EXPECT_EQ(cli::parseWorkloads("--workloads", "NN,,TSP").size(), 2u);
    EXPECT_THROW(cli::parseWorkloads("--workloads", "NN,Nope"),
                 cli::UsageError);
}

TEST(Cli, EnvironmentGoesThroughTheFlagGrammar)
{
    obs::setOptions(obs::Options{});
    ::setenv("MCMGPU_SAMPLE_PERIOD", "500", 1);
    ::setenv("MCMGPU_STATS_JSON", "yes", 1);
    ::setenv("MCMGPU_TRACE_JSON", "off", 1);
    ::setenv("MCMGPU_OBS_DIR", "", 1); // empty counts as unset
    cli::applyEnv({cli::sweepFlags()});
    obs::Options o = obs::options();
    EXPECT_EQ(o.sample_period, 500u);
    EXPECT_TRUE(o.stats_json);
    EXPECT_FALSE(o.trace_json);
    EXPECT_EQ(o.out_dir, "obs-out");

    // A flag given after the environment wins.
    ::setenv("MCMGPU_OBS_DIR", "from-env", 1);
    cli::applyEnv({cli::sweepFlags()});
    cli::parse({"--obs-dir", "from-flag"}, {cli::sweepFlags()});
    EXPECT_EQ(obs::options().out_dir, "from-flag");

    // A malformed value names its variable; a switch takes only the
    // eight on/off words.
    auto envError = [] {
        try {
            cli::applyEnv({cli::sweepFlags()});
        } catch (const cli::UsageError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    ::setenv("MCMGPU_SAMPLE_PERIOD", "5k", 1);
    EXPECT_EQ(envError(),
              "MCMGPU_SAMPLE_PERIOD: invalid value '5k' for --sample-period");
    ::setenv("MCMGPU_SAMPLE_PERIOD", "0", 1);
    ::setenv("MCMGPU_STATS_JSON", "maybe", 1);
    EXPECT_EQ(envError(), "MCMGPU_STATS_JSON: unknown --stats-json 'maybe' "
                          "(0|1|false|true|no|yes|off|on)");

    for (const char *v : {"MCMGPU_SAMPLE_PERIOD", "MCMGPU_STATS_JSON",
                          "MCMGPU_TRACE_JSON", "MCMGPU_OBS_DIR"})
        ::unsetenv(v);
    obs::setOptions(obs::Options{});
}

TEST(Cli, UsageListsEveryFlag)
{
    cli::Machines machines;
    const std::vector<cli::FlagTable> tables{machines.flags(),
                                             cli::sweepFlags()};
    EXPECT_EQ(tables[0].flags.size(), 2u + 23u);
    EXPECT_EQ(tables[1].flags.size(), 10u);
    const std::string text = cli::usage("prog", tables);

    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LT(line.size(), 80u) << line;

    // Undo the wrapping: a continuation starts in the help column.
    std::string joined = text;
    const std::string wrap = "\n" + std::string(29, ' ');
    for (size_t at; (at = joined.find(wrap)) != std::string::npos;)
        joined.replace(at, wrap.size(), " ");
    for (const cli::FlagTable &t : tables) {
        EXPECT_NE(joined.find(t.title + ":\n"), std::string::npos);
        for (const cli::Flag &f : t.flags) {
            EXPECT_NE(joined.find("  " + f.name + " "), std::string::npos)
                << f.name;
            EXPECT_NE(joined.find(f.help + "\n"), std::string::npos)
                << f.name;
        }
    }
    EXPECT_NE(joined.find("mcm-basic | mcm-optimized"), std::string::npos);
}

} // namespace
} // namespace mcmgpu
