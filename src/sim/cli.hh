/**
 * @file
 * The one command-line grammar every binary shares. A binary lists the
 * flag tables it accepts (its own, sweepFlags(), Machines::flags()) and
 * parseArgs() walks argv against them. An unknown flag or a missing
 * or malformed value ends the process with a one-line diagnosis and
 * exit code 1; --help prints usage generated from the same tables.
 *
 * Machine edits are recorded while parsing and applied afterwards, in
 * command-line order, to every machine the binary selects, so where
 * --machine sits on the command line never changes what runs.
 *
 * A flag may name an MCMGPU_* environment variable. parseArgs() applies
 * every such variable that is set through its flag, before argv, so a
 * flag on the command line always wins and a malformed variable fails
 * like a malformed flag.
 */

#ifndef MCMGPU_SIM_CLI_HH
#define MCMGPU_SIM_CLI_HH

#include <charconv>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace cli {

/** A malformed command line; what() is the one-line diagnosis. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One flag. An empty metavar makes it a switch that takes no value. */
struct Flag
{
    std::string name;
    std::string metavar;
    std::string help; //!< one paragraph; usage() wraps it
    std::function<void(const std::string &value)> apply;
    /** The environment variable that presets this flag, or empty. */
    std::string env = {};
    /** The value an empty variable stands for; nullptr ignores it. */
    const char *env_empty = nullptr;

    /** This flag, preset by variable @p var (see applyEnv()). */
    Flag
    fromEnv(std::string var, const char *if_empty = nullptr) &&
    {
        env = std::move(var);
        env_empty = if_empty;
        return std::move(*this);
    }
};

/** A titled group of flags; --help prints one section per table. */
struct FlagTable
{
    std::string title;
    std::vector<Flag> flags;
};

/** The UsageError "invalid value 'x' for <flag>". */
inline UsageError
invalidValue(const std::string &flag, const std::string &text)
{
    return UsageError("invalid value '" + text + "' for " + flag);
}

/**
 * Parse all of @p text into @p out, or throw invalidValue(). The
 * target's type is the grammar: unsigned targets refuse any sign, and
 * an out-of-range value is rejected, never wrapped or truncated.
 * Strings are taken verbatim.
 */
template <typename T>
void
parseValue(const std::string &flag, const std::string &text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
    } else {
        const char *end = text.data() + text.size();
        const auto [stop, ec] = std::from_chars(text.data(), end, out);
        if (ec != std::errc() || stop != end)
            throw invalidValue(flag, text);
    }
}

/** The index of @p text in @p names, or throw "unknown <flag> 'x'
 *  (a|b|...)" listing every name. */
size_t parseChoice(const std::string &flag, const std::string &text,
                   const std::vector<std::string> &names);

/** The items of comma list @p text, each checked by parseChoice();
 *  empty items are skipped. */
std::vector<std::string> parseList(const std::string &flag,
                                   const std::string &text,
                                   const std::vector<std::string> &names);

/** The abbreviation of every registered workload, in registry order. */
const std::vector<std::string> &workloadNames();

/** The workloads comma list @p text names, checked by parseList(). */
std::vector<const workloads::Workload *>
parseWorkloads(const std::string &flag, const std::string &text);

/** "<a|b|...>": the metavar of a flag whose values are @p names. */
std::string metavar(const std::vector<std::string> &names);

/** "a | b | ...": @p names for a help line, which usage() may wrap. */
std::string alternatives(const std::vector<std::string> &names);

/** A switch that sets @p out. */
Flag toggle(std::string name, std::string help, bool &out);

/** A flag whose value parseValue() stores in @p out. */
template <typename T>
Flag
value(std::string name, std::string metavar, std::string help, T &out)
{
    return {name, std::move(metavar), std::move(help),
            [name, &out](const std::string &text) {
                parseValue(name, text, out);
            }};
}

/** The spellings of an enum-like flag's values. */
template <typename E>
using Choices = std::vector<std::pair<std::string, E>>;

/** A flag whose value is one of @p choices, stored in @p out. */
template <typename E>
Flag
choice(std::string name, std::string help, E &out, Choices<E> choices)
{
    std::vector<std::string> names;
    for (const auto &c : choices)
        names.push_back(c.first);
    return {name, metavar(names), std::move(help),
            [name, &out, names, choices](const std::string &text) {
                out = choices[parseChoice(name, text, names)].second;
            }};
}

/** The shared sweep and observability flags (--quiet ... --obs-dir);
 *  each sets the process-wide experiment or obs:: option it names. */
FlagTable sweepFlags();

/**
 * The machines a run uses: --machine names one preset (default
 * mcm-basic) and --matrix a list of them; giving both is a UsageError.
 * The machine edits (--link-gbps ... --sim-threads) are checked while
 * parsing, recorded, and replayed in command-line order on every
 * selected preset, so flag order never changes what runs. The flags
 * hold this object's address, so it is neither copied nor moved.
 */
class Machines
{
  public:
    Machines() = default;
    Machines(const Machines &) = delete;
    Machines &operator=(const Machines &) = delete;

    /** --machine, --matrix and the 23 machine edits. */
    FlagTable flags();

    /** Whether --matrix chose the machines. */
    bool matrix() const { return by_ == "--matrix"; }

    /** Each selected preset with every edit applied, in selection order. */
    std::vector<GpuConfig> build() const;

    /** @p cfg with every recorded edit applied, in command-line order. */
    GpuConfig applyTo(GpuConfig cfg) const;

  private:
    std::vector<std::string> presets_{"mcm-basic"};
    std::string by_;                //!< the flag that chose presets_, if any
    GpuConfig scratch_;             //!< target of the parse-time check
    std::vector<std::string> args_; //!< every edit's flag and value
};

/** Usage text for @p prog: one entry per flag, its help wrapped to fit
 *  80 columns, and one section per table. */
std::string usage(const std::string &prog,
                  const std::vector<FlagTable> &tables);

/**
 * Apply each of @p args to the flag of @p tables it names, in order; a
 * flag with a metavar takes the next argument as its value.
 * @throws UsageError on an unknown flag or a missing or bad value.
 */
void parse(const std::vector<std::string> &args,
           const std::vector<FlagTable> &tables);

/**
 * Apply the environment variable of every flag in @p tables that has
 * one and is set, through the flag's apply function. A switch's value
 * is one of 0|1|false|true|no|yes|off|on (empty is off).
 * @throws UsageError naming the variable on a malformed value.
 */
void applyEnv(const std::vector<FlagTable> &tables);

/** applyEnv(), then parse() argv[1..] against @p tables plus --help,
 *  which prints usage() and exits 0; a UsageError prints its line and
 *  exits 1. */
void parseArgs(int argc, char **argv, std::vector<FlagTable> tables);

} // namespace cli
} // namespace mcmgpu

#endif // MCMGPU_SIM_CLI_HH
