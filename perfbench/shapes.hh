/**
 * @file
 * The six kernel shapes the benchmark simulates, built in the
 * benchmark's own files from workloads::KernelSpec + makeKernel. Each
 * mirrors one registry application (Stream, Srad-v2, BFS, Kmeans,
 * SGEMM, NN): same allocations, kernel specs and launch counts.
 *
 * Seed 0 (the default) reproduces the registry apps' specs and kernel
 * seeds exactly, so experiment::workloadKey of a mirror equals its
 * app's. Any other benchmark seed re-seeds every KernelSpec.
 */

#ifndef PERFBENCH_SHAPES_HH
#define PERFBENCH_SHAPES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace perfbench {

/** One kernel shape: the registry abbreviation it mirrors and a
 *  builder seeded from the benchmark's seed argument. */
struct Shape
{
    std::string abbr;
    mcmgpu::workloads::Workload (*build)(uint64_t bench_seed);
};

/** All six shapes, in a fixed order. */
const std::vector<Shape> &shapes();

/** Kernel seed for a registry kernel seeded @p app_seed under benchmark
 *  seed @p bench_seed; identity at bench_seed 0. */
uint64_t kernelSeed(uint64_t app_seed, uint64_t bench_seed);

} // namespace perfbench

#endif // PERFBENCH_SHAPES_HH
