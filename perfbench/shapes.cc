#include "shapes.hh"

#include "common/units.hh"

namespace perfbench {

using namespace mcmgpu;
using namespace mcmgpu::workloads;

uint64_t
kernelSeed(uint64_t app_seed, uint64_t bench_seed)
{
    return app_seed ^ (bench_seed * 0x9e37'79b9'7f4a'7c15ull);
}

namespace {

KernelSpec
spec(std::string name, uint32_t ctas, uint32_t warps, uint32_t items,
     uint32_t compute, std::vector<ArrayRef> arrays,
     std::vector<AccessSpec> accesses, uint64_t seed)
{
    KernelSpec k;
    k.name = std::move(name);
    k.num_ctas = ctas;
    k.warps_per_cta = warps;
    k.items_per_warp = items;
    k.compute_per_item = compute;
    k.arrays = std::move(arrays);
    k.accesses = std::move(accesses);
    k.seed = seed;
    return k;
}

// Partitioned stream: 96 MB against 16 MB of modelled cache, no reuse.
Workload
stream(uint64_t s)
{
    WorkloadBuilder b("Stream Triad", "Stream", Category::MemoryIntensive);
    b.paperFootprintMB(3072);
    ArrayRef a{b.alloc(32 * MiB), 32 * MiB};
    ArrayRef bb{b.alloc(32 * MiB), 32 * MiB};
    ArrayRef c{b.alloc(32 * MiB), 32 * MiB};
    b.launch(spec("triad", 4096, 4, 12, 3, {a, bb, c},
                  {part(1), part(2), part(0, true)}, kernelSeed(24, s)),
             2);
    return b.build();
}

// Halo stencil: north/south reads cross CTA chunks (sharing).
Workload
srad(uint64_t s)
{
    WorkloadBuilder b("SRAD (v2)", "Srad-v2", Category::MemoryIntensive);
    b.paperFootprintMB(96);
    ArrayRef img{b.alloc(16 * MiB), 16 * MiB};
    ArrayRef out{b.alloc(16 * MiB), 16 * MiB};
    b.launch(spec("srad", 2048, 4, 16, 3, {img, out},
                  {part(0), halo(0, 1), halo(0, -1), halo(0, 128),
                   part(1, true)}, kernelSeed(23, s)),
             2);
    return b.build();
}

// Gathers over a hot subset and the whole CSR: remote traffic.
Workload
bfs(uint64_t s)
{
    WorkloadBuilder b("Breadth First Search", "BFS",
                      Category::MemoryIntensive);
    b.paperFootprintMB(37);
    ArrayRef adj{b.alloc(8 * MiB), 8 * MiB};
    ArrayRef dist{b.alloc(4 * MiB), 4 * MiB};
    ArrayRef hot{adj.base, 1 * MiB};
    b.launch(spec("bfs_level", 4096, 4, 12, 6, {adj, dist, hot},
                  {part(1, false, 32), gather(2, 64, 0.5),
                   gather(0, 64, 0.15)}, kernelSeed(31, s)),
             3);
    return b.build();
}

// Broadcast centroid table that fits in the L1.5.
Workload
kmeans(uint64_t s)
{
    WorkloadBuilder b("Kmeans clustering", "Kmeans",
                      Category::MemoryIntensive);
    b.paperFootprintMB(216);
    ArrayRef points{b.alloc(32 * MiB), 32 * MiB};
    ArrayRef centroids{b.alloc(1 * MiB), 1 * MiB};
    ArrayRef assign{b.alloc(4 * MiB), 4 * MiB};
    b.launch(spec("assign", 2048, 4, 24, 4, {points, centroids, assign},
                  {part(0), bcast(1), part(2, true, 32)},
                  kernelSeed(15, s)),
             2);
    return b.build();
}

// Compute-bound tile kernel.
Workload
sgemm(uint64_t s)
{
    WorkloadBuilder b("Dense matrix multiply", "SGEMM",
                      Category::ComputeIntensive);
    ArrayRef a{b.alloc(8 * MiB), 8 * MiB};
    ArrayRef bm{b.alloc(8 * MiB), 8 * MiB};
    ArrayRef c{b.alloc(8 * MiB), 8 * MiB};
    b.launch(spec("gemm", 4096, 4, 8, 28, {a, bm, c},
                  {part(0), bcast(1), part(2, true)}, kernelSeed(41, s)),
             2);
    return b.build();
}

// 128 CTAs: limited parallelism.
Workload
nn(uint64_t s)
{
    WorkloadBuilder b("Nearest Neighbor", "NN",
                      Category::LimitedParallelism);
    ArrayRef records{b.alloc(24 * MiB), 24 * MiB};
    ArrayRef out{b.alloc(512 * KiB), 512 * KiB};
    b.launch(spec("nn", 128, 8, 36, 4, {records, out},
                  {gather(0), part(1, true, 32)}, kernelSeed(62, s)),
             1);
    return b.build();
}

} // namespace

const std::vector<Shape> &
shapes()
{
    static const std::vector<Shape> all = {
        {"Stream", stream}, {"Srad-v2", srad}, {"BFS", bfs},
        {"Kmeans", kmeans}, {"SGEMM", sgemm}, {"NN", nn},
    };
    return all;
}

} // namespace perfbench
