/**
 * @file
 * Process-wide observability switches.
 *
 * Everything here defaults to OFF: a simulation with default Options
 * allocates no recorder, arms no sample hook, and pays at most one
 * null-pointer test per instrumented site. The shared sweep flags
 * (--sample-period, --stats-json, --trace-json, --obs-flight-recorder,
 * --obs-dir; src/sim/cli.hh) populate the options once, the matching
 * MCMGPU_* environment variables first and the command line over them,
 * before any simulation starts; simulations snapshot them at
 * construction.
 */

#ifndef MCMGPU_OBS_OPTIONS_HH
#define MCMGPU_OBS_OPTIONS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mcmgpu {
namespace obs {

/** What to record and where to put it. */
struct Options
{
    /** Timeline sampling window in cycles; 0 disables the sampler. */
    Cycle sample_period = 0;

    /** Emit <dir>/<config>__<workload>.stats.json per run. */
    bool stats_json = false;

    /** Emit <dir>/<config>__<workload>.trace.json per run. */
    bool trace_json = false;

    /**
     * Keep the last N event/txn-phase transitions in a ring buffer and
     * dump them as <dir>/<config>__<workload>.flight.json when a run
     * ends in a failure status (deadlock/stalled/timeout). 0 disables
     * the flight recorder entirely.
     */
    uint32_t flight_recorder = 0;

    /** Output directory for every observability artifact. */
    std::string out_dir = "obs-out";

    /** True when any recorder at all needs to exist. */
    bool
    anyEnabled() const
    {
        return sample_period != 0 || stats_json || trace_json ||
               flight_recorder != 0;
    }
};

/** Snapshot of the process-wide options (thread-safe). */
Options options();

/** Replace the process-wide options (call before starting sweeps). */
void setOptions(const Options &opt);

} // namespace obs
} // namespace mcmgpu

#endif // MCMGPU_OBS_OPTIONS_HH
