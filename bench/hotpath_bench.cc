/**
 * @file
 * google-benchmark suite for the event-engine hot path introduced with
 * the calendar queue: callback boxing (SmallFn vs std::function),
 * schedule/drain throughput in the near-future common case, far-future
 * window crossings, hit-under-fill cache probes, probes of tag state
 * the size of the whole machine, and the kernel-boundary flush.
 * Companion to `tools/bench_baseline`, which measures the same
 * machinery end to end; this suite isolates the primitives so a
 * regression points at the component, not the system.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "common/smallfn.hh"
#include "common/units.hh"
#include "mem/cache.hh"

using namespace mcmgpu;

namespace {

struct Sink
{
    uint64_t calls = 0;
    void bump(uint64_t d) { calls += d; }
};

void
BM_SmallFnConstructInvoke(benchmark::State &state)
{
    // The shape every warp continuation has: an owner pointer plus a
    // shared_ptr (24 bytes) — beyond std::function's inline budget,
    // comfortably inside SmallFn's.
    Sink sink;
    auto token = std::make_shared<uint64_t>(3);
    for (auto _ : state) {
        SmallFn fn([&sink, token] { sink.bump(*token); });
        fn();
        benchmark::DoNotOptimize(sink.calls);
    }
}
BENCHMARK(BM_SmallFnConstructInvoke);

void
BM_StdFunctionConstructInvoke(benchmark::State &state)
{
    // Reference point: the pre-calendar engine boxed every callback in
    // std::function, heap-allocating this very capture.
    Sink sink;
    auto token = std::make_shared<uint64_t>(3);
    for (auto _ : state) {
        std::function<void()> fn([&sink, token] { sink.bump(*token); });
        fn();
        benchmark::DoNotOptimize(sink.calls);
    }
}
BENCHMARK(BM_StdFunctionConstructInvoke);

void
BM_EventQueueNearFuture(benchmark::State &state)
{
    // Steady-state drain: every executed event schedules its successor
    // a few cycles out, the exact traffic of cache hits and link hops.
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 7, [&] { ++fired; });
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueNearFuture);

void
BM_EventQueueFanOut(benchmark::State &state)
{
    // Burst of same-cycle events (a CTA wave becoming ready at once):
    // stresses bucket FIFO append plus tie-break ordering.
    const int kFan = static_cast<int>(state.range(0));
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        const Cycle t = eq.now() + 3;
        for (int i = 0; i < kFan; ++i)
            eq.schedule(t, [&] { ++fired; });
        while (eq.step()) {
        }
    }
    state.SetItemsProcessed(state.iterations() * kFan);
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueFanOut)->Arg(32)->Arg(256);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // DRAM-latency-scale deferrals that cross the calendar window:
    // exercises the far heap and the migrate-on-advance path.
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 6000, [&] { ++fired; });
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueFarFuture);

void
BM_CacheHitUnderFill(benchmark::State &state)
{
    // Probe lines whose fills are still in flight: the path that used
    // to pay a hash lookup per access now reads the way's ready cycle.
    CacheGeometry geo{4 * MiB, 128, 16, 30};
    Cache cache(geo, "bm.hotpath.cache", true);
    for (Addr a = 0; a < 1 * MiB; a += 128)
        cache.fill(a, false, 1'000'000'000);
    Rng rng(11);
    Cycle t = 1;
    for (auto _ : state) {
        const Addr a = (rng.next() % (1 * MiB)) & ~127ull;
        benchmark::DoNotOptimize(cache.lookup(a, false, t));
        ++t;
    }
}
BENCHMARK(BM_CacheHitUnderFill);

void
BM_CacheProbeMachineSized(benchmark::State &state)
{
    // Tag state the size of the whole machine, cold in the host caches:
    // mcm-basic's 256 per-SM L1s and four L2 slices, warmed full. Each
    // iteration probes a random SM's L1 and, on a miss, a random L2
    // slice (filled on its own miss) before filling the L1, the probes
    // of the chain path without its timing. Lines are drawn from twice
    // the L2's capacity, so nearly every probe misses the L1.
    const GpuConfig cfg = configs::mcmBasic();
    CacheGeometry slice = cfg.l2;
    slice.size_bytes /= cfg.totalPartitions();
    std::vector<std::unique_ptr<Cache>> l1s, l2s;
    for (uint32_t s = 0; s < cfg.totalSms(); ++s)
        l1s.push_back(std::make_unique<Cache>(cfg.l1, "bm.l1", false));
    for (uint32_t p = 0; p < cfg.totalPartitions(); ++p)
        l2s.push_back(std::make_unique<Cache>(slice, "bm.l2", true));

    const uint64_t lines = 2 * cfg.l2.size_bytes / cfg.l2.line_bytes;
    Rng rng(13);
    auto randomLine = [&] {
        return 0x1000'0000ull + rng.next() % lines * cfg.l2.line_bytes;
    };
    for (auto &c : l1s) {
        for (uint64_t i = 0; i < 2 * cfg.l1.size_bytes / cfg.l1.line_bytes;
             ++i)
            c->fill(randomLine(), false, 0);
    }
    for (auto &c : l2s) {
        for (uint64_t i = 0; i < 2 * slice.size_bytes / slice.line_bytes; ++i)
            c->fill(randomLine(), false, 0);
    }

    Cycle t = 1;
    for (auto _ : state) {
        Cache &l1 = *l1s[rng.next() % l1s.size()];
        const Addr a = randomLine();
        if (l1.lookup(a, false, t).outcome == CacheOutcome::Miss) {
            Cache &l2 = *l2s[rng.next() % l2s.size()];
            if (l2.lookup(a, false, t).outcome == CacheOutcome::Miss)
                benchmark::DoNotOptimize(l2.fill(a, false, t + 400));
            benchmark::DoNotOptimize(l1.fill(a, false, t + 500));
        }
        ++t;
    }
}
BENCHMARK(BM_CacheProbeMachineSized);

void
BM_CacheInvalidateAll(benchmark::State &state)
{
    // The software-coherence flush at every kernel boundary: it clears
    // the valid, dirty and tracked masks of every set (2048 here).
    CacheGeometry geo{4 * MiB, 128, 16, 30};
    Cache cache(geo, "bm.hotpath.flush", true);
    for (Addr a = 0; a < 4 * MiB; a += 128)
        cache.fill(a, true, 0);
    for (auto _ : state) {
        cache.invalidateAll();
        cache.fill(0, false, 0);
    }
}
BENCHMARK(BM_CacheInvalidateAll);

} // namespace

BENCHMARK_MAIN();
