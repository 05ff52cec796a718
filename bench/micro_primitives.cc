/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot primitives:
 * the bandwidth-server calendar, cache tag lookups, ring traversal,
 * event queue throughput, procedural trace generation, and an
 * end-to-end simulated-warp-instructions-per-second figure.
 */

#include <benchmark/benchmark.h>

#include "common/bw_server.hh"
#include "common/event_queue.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "topo/fabric.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

void
BM_BandwidthServerAcquire(benchmark::State &state)
{
    BandwidthServer server(768.0);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.acquire(t, 128));
        t += 2;
    }
}
BENCHMARK(BM_BandwidthServerAcquire);

void
BM_BandwidthServerSaturated(benchmark::State &state)
{
    // Demand 4x the rate: the calendar runs far ahead of time.
    BandwidthServer server(32.0);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.acquire(t, 128));
        t += 1;
    }
}
BENCHMARK(BM_BandwidthServerSaturated);

void
BM_CacheLookupHit(benchmark::State &state)
{
    CacheGeometry geo{4 * MiB, 128, 16, 30};
    Cache cache(geo, "bm.cache", true);
    for (Addr a = 0; a < 1 * MiB; a += 128)
        cache.fill(a, false, 0);
    Rng rng(7);
    Cycle t = 1;
    for (auto _ : state) {
        Addr a = (rng.next() % (1 * MiB)) & ~127ull;
        benchmark::DoNotOptimize(cache.lookup(a, false, t++));
    }
}
BENCHMARK(BM_CacheLookupHit);

void
BM_CacheFillEvict(benchmark::State &state)
{
    CacheGeometry geo{256 * KiB, 128, 16, 30};
    Cache cache(geo, "bm.cache2", true);
    Addr a = 0;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.fill(a, true, t));
        a += 128;
        ++t;
    }
}
BENCHMARK(BM_CacheFillEvict);

void
BM_RingSend(benchmark::State &state)
{
    // The basic MCM-GPU's 4-stop ring: 768 GB/s links, 32-cycle hops.
    const std::unique_ptr<Fabric> ring = Fabric::create(configs::mcmBasic());
    Cycle t = 0;
    uint32_t dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring->send(0, dst, 144, t));
        dst = dst % 3 + 1;
        t += 1;
    }
}
BENCHMARK(BM_RingSend);

void
BM_EventQueueChain(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        state.PauseTiming();
        eq.reset();
        state.ResumeTiming();
        // A chain of 1024 self-scheduling events.
        int remaining = 1024;
        std::function<void()> step = [&] {
            if (--remaining > 0)
                eq.schedule(eq.now() + 1, step);
        };
        eq.schedule(0, step);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueChain);

void
BM_PatternTraceGeneration(benchmark::State &state)
{
    using namespace workloads;
    auto spec = std::make_shared<KernelSpec>();
    spec->name = "bm";
    spec->num_ctas = 1024;
    spec->warps_per_cta = 4;
    spec->items_per_warp = 1u << 20;
    spec->compute_per_item = 2;
    spec->arrays = {{0x1000'0000, 32 * MiB}, {0x3000'0000, 4 * MiB}};
    spec->accesses = {part(0), gather(1, 64), part(0, true)};
    PatternTrace trace(spec, 17, 2);
    WarpOp op;
    for (auto _ : state) {
        trace.next(op);
        benchmark::DoNotOptimize(op.addr);
    }
}
BENCHMARK(BM_PatternTraceGeneration);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    setQuietLogging(true);
    const workloads::Workload *w = workloads::findByAbbr("CFD");
    GpuConfig cfg = configs::mcmOptimized();
    uint64_t insts = 0;
    for (auto _ : state) {
        RunResult r = Simulator::run(cfg, *w);
        insts += r.warp_instructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.SetLabel("items = simulated warp instructions");
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
