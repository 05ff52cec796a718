#include "gpu/runtime.hh"

#include "common/log.hh"

namespace mcmgpu {

Runtime::Runtime(GpuSystem &gpu)
    : gpu_(gpu),
      // Batch weights follow the enabled-SM count per module, so a
      // floorswept GPM receives a proportionally smaller CTA batch.
      // With no faults every weight is equal and the split is
      // bit-for-bit the classic n*m/M one.
      sched_(CtaScheduler::create(gpu.config().cta_sched,
                                  gpu.enabledSmsPerModule()))
{
    gpu_.setCtaSink(this);
}

Runtime::~Runtime()
{
    gpu_.setCtaSink(nullptr);
}

bool
Runtime::refill(SmId sm_id, Cycle now)
{
    if (!gpu_.smEnabled(sm_id))
        return false; // floorswept: never receives work
    Sm &sm = gpu_.sm(sm_id);
    if (!sm.canAccept(*active_))
        return false;
    std::optional<CtaId> cta = sched_->nextFor(sm.module());
    if (!cta)
        return false;
    sm.launchCta(*active_, *cta, now);
    if (obs::Recorder *rec = gpu_.recorder())
        rec->ctaLaunched(sm.module(), now);
    return true;
}

void
Runtime::fillAllSms(Cycle now)
{
    // Visit SMs module-interleaved (GPM0.SM0, GPM1.SM0, ..., GPM0.SM1,
    // ...), which under centralized scheduling spreads consecutive CTAs
    // across modules exactly as in Figure 8(a). The hardware work
    // distributor does not reset between kernel launches — it keeps
    // handing work to SMs round-robin from wherever it stopped — so the
    // visit origin rotates per kernel. This is what denies a
    // centralized scheduler the cross-kernel CTA->GPM affinity that
    // first-touch placement needs (Figure 12): FT applied alone ends up
    // with pages pinned far from their next consumer.
    const GpuConfig &cfg = gpu_.config();
    const uint32_t per_module = cfg.sms_per_module;
    const uint32_t total = gpu_.numSms();
    const uint32_t origin = fill_origin_ % total;
    fill_origin_ = (fill_origin_ + kFillOriginStep) % total;

    bool progress = true;
    while (progress) {
        progress = false;
        for (uint32_t k = 0; k < total; ++k) {
            // Flattened module-interleaved sequence, rotated by origin.
            uint32_t j = (origin + k) % total;
            ModuleId m = j % cfg.num_modules;
            uint32_t slot = j / cfg.num_modules;
            SmId sm = m * per_module + slot;
            progress |= refill(sm, now);
        }
    }
}

void
Runtime::runKernel(const KernelDesc &kernel)
{
    fatal_if(kernel.num_ctas == 0,
             "kernel '", kernel.name, "' launches zero CTAs");
    fatal_if(kernel.warps_per_cta == 0 ||
             kernel.warps_per_cta > gpu_.config().max_warps_per_sm,
             "kernel '", kernel.name, "': ", kernel.warps_per_cta,
             " warps per CTA cannot fit on an SM");
    panic_if(active_ != nullptr, "kernel launched while one is in flight");

    active_ = &kernel;
    status_ = RunStatus::Finished;
    sched_->beginKernel(kernel.num_ctas);

    // All time queries and runs go through the engine: serially it is
    // the event queue itself; in parallel mode queue 0's clock can lag
    // the global one between kernels, and scheduling below a domain's
    // local time is an error.
    SimEngine &engine = gpu_.simEngine();
    if (obs::Recorder *rec = gpu_.recorder())
        rec->kernelBegin(kernel.name, engine.now());

    // Serial launch cost: driver work + grid setup on the front end.
    const Cycle limit = gpu_.config().cycle_limit;
    Cycle start = engine.now() + gpu_.config().kernel_launch_cycles;
    if (start > engine.now())
        engine.queue(0).schedule(start, [] {});
    SimEngine::Outcome out = engine.run(limit); // advance to launch point
    if (out == EventQueue::Outcome::Drained) {
        fillAllSms(engine.now());
        // Drain the machine: every scheduled warp event, CTA refill,
        // and memory completion executes; an empty queue means the
        // grid retired.
        out = engine.run(limit);
    }

    if (out == EventQueue::Outcome::LimitHit) {
        // Cycle budget expired mid-kernel: freeze the machine as-is so
        // callers can inspect how far it got. No coherence flush, no
        // retirement checks — this is a truncated run, not a finished
        // one. The recorder closes the truncated kernel span itself in
        // finalize().
        active_ = nullptr;
        status_ = RunStatus::CycleLimit;
        return;
    }

    if (gpu_.memPipeline().inflight() != 0) {
        // The queue drained but transactions are still in flight: every
        // one of them is parked on a full resource (MSHR pool, VC
        // credit pool) with no pending event left to free it. That is
        // a wedge, not a finished grid — diagnose it as one.
        engine.diagnoseWedge(log_detail::concat(
            gpu_.memPipeline().inflight(), " memory transaction(s) "
            "parked with no pending events (kernel '", kernel.name,
            "')"));
    }

    panic_if(sched_->remaining() != 0,
             "kernel '", kernel.name, "' finished with ",
             sched_->remaining(), " CTAs never scheduled");

    active_ = nullptr;
    ++kernels_executed_;
    if (obs::Recorder *rec = gpu_.recorder())
        rec->kernelEnd(engine.now());

    // Kernel-boundary synchronization: software coherence flushes the
    // L1s and the GPM-side L1.5s exactly once (section 5.1.1).
    gpu_.flushKernelCaches();
}

void
Runtime::runAll(std::span<const KernelLaunch> launches)
{
    for (const KernelLaunch &launch : launches) {
        for (uint32_t it = 0; it < launch.iterations; ++it) {
            runKernel(launch.kernel);
            if (status_ != RunStatus::Finished)
                return;
        }
    }
}

void
Runtime::onCtaFinished(SmId sm)
{
    // Runs inside the retiring SM's domain: the refill must be stamped
    // with (and scheduled at) that domain's local clock.
    if (active_)
        refill(sm, gpu_.moduleQueue(gpu_.moduleOfSm(sm)).now());
}

} // namespace mcmgpu
