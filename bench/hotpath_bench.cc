/**
 * @file
 * google-benchmark suite for the event-engine hot path introduced with
 * the calendar queue: callback boxing (SmallFn vs std::function),
 * schedule/drain throughput in the near-future common case, far-future
 * window crossings, hit-under-fill cache probes, probes of tag state
 * the size of the whole machine, the kernel-boundary flush, and warp
 * stepping on a machine's worth of SMs.
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
#include "core/sm.hh"
#include "mem/cache.hh"
#include "mem/txn.hh"
#include "workloads/patterns.hh"

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
    // An owner pointer plus a shared_ptr (24 bytes): beyond
    // std::function's inline budget, comfortably inside SmallFn's.
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

/** The memory behind BM_WarpStepMachineSized: every L1 miss and store
 *  completes inline after a fixed latency, and a retiring CTA is
 *  replaced at once by the next CTA of an endless grid on the same SM,
 *  so every warp slot stays occupied. */
class InlineMemory : public SmContext
{
  public:
    static constexpr Cycle kLatency = 400;

    void
    memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
              Cycle now, TxnDoneFn done) override
    {
        MemTxn txn;
        txn.addr = addr;
        txn.bytes = bytes;
        txn.is_store = is_store;
        txn.src = src;
        txn.issued = now;
        txn.t = now + kLatency;
        txn.phase = TxnPhase::Complete;
        done(txn, txn.t);
    }

    void
    ctaFinished(SmId sm) override
    {
        sms[sm]->launchCta(*kernel, next_cta++, eq.now());
    }

    EventQueue eq;
    std::vector<std::unique_ptr<Sm>> sms;
    const KernelDesc *kernel = nullptr;
    CtaId next_cta = 0;
};

void
BM_WarpStepMachineSized(benchmark::State &state)
{
    // mcm-basic's 256 SMs, each full (16 CTAs of 4 warps), running a
    // Stream-like pattern kernel over 96 MB: the host cost of one warp
    // instruction (trace cursor, scoreboard, issue pipeline, L1 probe,
    // event dispatch) with the memory system reduced to a constant.
    // Each iteration executes one event; per_inst divides the timed CPU
    // time by the warp instructions those events executed.
    const GpuConfig cfg = configs::mcmBasic();
    workloads::KernelSpec spec;
    spec.name = "bm.warp_step";
    spec.num_ctas = cfg.totalSms() * cfg.max_ctas_per_sm;
    spec.warps_per_cta = cfg.max_warps_per_sm / cfg.max_ctas_per_sm;
    spec.items_per_warp = 12;
    spec.compute_per_item = 3;
    for (uint64_t a = 0; a < 3; ++a)
        spec.arrays.push_back({0x1000'0000ull + a * 32 * MiB, 32 * MiB});
    spec.accesses = {workloads::part(1), workloads::part(2),
                     workloads::part(0, true)};
    const KernelDesc kernel = workloads::makeKernel(spec);

    InlineMemory mem;
    mem.kernel = &kernel;
    for (uint32_t s = 0; s < cfg.totalSms(); ++s) {
        mem.sms.push_back(std::make_unique<Sm>(s, s / cfg.sms_per_module,
                                               cfg, mem, mem.eq));
    }
    for (auto &sm : mem.sms) {
        while (sm->canAccept(kernel))
            sm->launchCta(kernel, mem.next_cta++, 0);
    }

    auto insts = [&] {
        uint64_t n = 0;
        for (const auto &sm : mem.sms)
            n += sm->warpInstructions();
        return n;
    };
    const uint64_t before = insts();
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.eq.step());
    const double executed = static_cast<double>(insts() - before);
    state.SetItemsProcessed(static_cast<int64_t>(executed));
    state.counters["per_inst"] = benchmark::Counter(
        executed, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WarpStepMachineSized);

} // namespace

BENCHMARK_MAIN();
