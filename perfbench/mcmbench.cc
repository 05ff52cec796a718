/**
 * @file
 * Measurement harness of the simulator host-throughput benchmark.
 *
 * One invocation runs one benchmark workload — a fixed list of
 * (machine, kernel shape) pairs — and prints one JSON object per line:
 *
 *  - untraced (--trace 0): pairs run back to back, each on a fresh
 *    machine, sweep after sweep until --seconds have elapsed (every
 *    pair at least once). One "pair" record per pair run carries the
 *    set-up, wall and process-CPU time plus the simulated outputs
 *    (cycles, events, warp instructions, FNV-1a digest of statsJson)
 *    and the peak resident set while the pair ran.
 *  - traced (--trace 1): each pair runs untraced once as the reference,
 *    then through TracedGpu, which times every call into the public
 *    GpuSystem::memAccess and re-installs the PDES sequencer hook as a
 *    timed wrapper around MemPipeline::processMessages. The recorded
 *    post-L1 access stream is then replayed into standalone caches,
 *    DRAM partitions and a fabric. One "layer" record per pair, in
 *    whole sweeps until --seconds have elapsed (at least one).
 *
 * Every layer number comes from calls into public functions made here;
 * nothing inside the simulator is instrumented. perfbench/run.py turns
 * the records into metrics and checks them against pinned outputs.
 */

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

#include "shapes.hh"

using namespace mcmgpu;
using perfbench::Shape;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU time of the whole process (all threads). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Open a fresh peak-resident-set window for the next pair: return freed
 * heap pages of every malloc arena (worker threads' included) to the
 * kernel, then reset the kernel's high-water mark (Linux >= 4.0).
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since resetPeakRss(), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Which CPUs a pair runs on. On a shared host one CPU at a time slows
 * down under neighbouring load, for seconds to minutes, and a
 * single-threaded run stays on whichever CPU it started on. So
 * serial-engine runs are pinned to one allowed CPU chosen by a slot
 * that rotates with the pair and the sweep: each pair's runs sample
 * every CPU, and a run's figures average over them. Parallel-engine
 * runs keep every allowed CPU.
 */
class CpuPlacement
{
  public:
    CpuPlacement()
    {
        CPU_ZERO(&all_);
        sched_getaffinity(0, sizeof all_, &all_);
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
        }
    }

    /** Allow every CPU. Call before constructing a machine: its PDES
     *  workers inherit the constructing thread's CPU set. */
    void spread() { sched_setaffinity(0, sizeof all_, &all_); }

    /** Pin the calling thread to slot @p slot's CPU when @p gpu runs on
     *  the serial engine. */
    void
    place(const GpuSystem &gpu, size_t slot)
    {
        if (gpu.simEngine().parallel() || cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[slot % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf2'9ce4'8422'2325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100'0000'01b3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One JSON object on one stdout line. */
class Record
{
  public:
    explicit Record(const char *kind)
    {
        os_ << "{\"kind\": \"" << kind << '"';
    }

    Record &
    num(const char *key, double v)
    {
        os_ << ", \"" << key << "\": " << json::number(v);
        return *this;
    }

    Record &
    str(const char *key, const std::string &v)
    {
        os_ << ", \"" << key << "\": " << json::quoted(v);
        return *this;
    }

    Record &
    flag(const char *key, bool v)
    {
        os_ << ", \"" << key << "\": " << (v ? "true" : "false");
        return *this;
    }

    void
    emit()
    {
        os_ << "}\n";
        std::cout << os_.str() << std::flush;
    }

  private:
    std::ostringstream os_;
};

// --- Workloads --------------------------------------------------------------

struct PairSpec
{
    GpuConfig cfg;
    const Shape *shape;

    std::string label() const { return cfg.name + "/" + shape->abbr; }
};

/**
 * The pairs of benchmark workload @p name (README.md says why each
 * exists). @p small keeps one small pair (NN on the first machine) for
 * the self-test. @return false for an unknown name.
 */
bool
pairsFor(const std::string &name, bool small, std::vector<PairSpec> &out)
{
    std::vector<GpuConfig> machines;
    if (name == "chain-serial") {
        machines = {configs::mcmBasic(), configs::mcmOptimized()};
    } else if (name == "staged-serial") {
        GpuConfig mesh = configs::mcmMesh();
        mesh.withMemModel(MemModel::Staged).withName("mcm-mesh+staged");
        machines = {mesh};
    } else if (name.rfind("pdes-smt", 0) == 0) {
        const std::string n = name.substr(8);
        if (n.empty() || n.size() > 2 ||
            n.find_first_not_of("0123456789") != std::string::npos)
            return false;
        const uint32_t threads = static_cast<uint32_t>(std::stoul(n));
        if (threads < 2)
            return false;
        // Names carry no thread count: statsJson is byte-identical for
        // every N >= 2 (docs/PDES.md), so one set of pins serves all N.
        GpuConfig mesh = configs::mcmMesh();
        mesh.withMemModel(MemModel::Staged)
            .withSched(CtaSchedPolicy::DistributedBatch)
            .withName("mcm-mesh+staged-dist");
        GpuConfig opt = configs::mcmOptimized();
        opt.withMemModel(MemModel::Staged).withName("mcm-optimized+staged");
        machines = {mesh, opt};
        for (GpuConfig &m : machines)
            m.withSimThreads(threads);
    } else {
        return false;
    }

    if (small)
        machines.resize(1);
    for (const GpuConfig &m : machines) {
        for (const Shape &s : perfbench::shapes()) {
            if (!small || s.abbr == "NN")
                out.push_back({m, &s});
        }
    }
    return true;
}

/** At the default seed a mirror must fingerprint like its registry app;
 *  "" when it does, else a description of the mismatch. */
std::string
registryKeyMismatch(const workloads::Workload &mirror)
{
    const workloads::Workload *app = workloads::findByAbbr(mirror.abbr);
    if (app == nullptr)
        return "no registry app " + mirror.abbr;
    if (experiment::workloadKey(*app) != experiment::workloadKey(mirror))
        return "workloadKey differs from registry app " + mirror.abbr;
    return "";
}

/** Every warp's trace replayed once: its op count is the warp
 *  instruction count a finished run must report. */
struct TraceCount
{
    uint64_t insts = 0;    //!< ops summed over launch iterations
    uint64_t replayed = 0; //!< ops generated by this replay
    double seconds = 0.0;
};

TraceCount
replayTraces(const workloads::Workload &w)
{
    TraceCount tc;
    const auto t0 = Clock::now();
    for (const KernelLaunch &l : w.launches) {
        uint64_t ops = 0;
        WarpOp op;
        for (CtaId c = 0; c < l.kernel.num_ctas; ++c) {
            for (WarpId wp = 0; wp < l.kernel.warps_per_cta; ++wp) {
                std::unique_ptr<WarpTrace> tr = l.kernel.make_trace(c, wp);
                while (tr->next(op))
                    ++ops;
            }
        }
        tc.replayed += ops;
        tc.insts += ops * l.iterations;
    }
    tc.seconds = secondsSince(t0);
    return tc;
}

uint32_t
launchCount(const workloads::Workload &w)
{
    uint32_t n = 0;
    for (const KernelLaunch &l : w.launches)
        n += l.iterations;
    return n;
}

// --- Running one pair -------------------------------------------------------

struct RunOut
{
    bool finished = false;
    bool parallel = false;
    uint64_t cycles = 0;
    uint64_t events = 0;
    uint64_t insts = 0;
    uint64_t digest = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/** Run every launch through Runtime::runKernel, timing the whole; then
 *  read the simulated outputs. */
RunOut
simulate(GpuSystem &gpu, Runtime &rt, const workloads::Workload &w)
{
    RunOut r;
    const double c0 = processCpuSeconds();
    const auto t0 = Clock::now();
    for (const KernelLaunch &l : w.launches) {
        for (uint32_t i = 0; i < l.iterations; ++i) {
            if (rt.status() != RunStatus::Finished)
                break;
            rt.runKernel(l.kernel);
        }
    }
    r.wall_s = secondsSince(t0);
    r.cpu_s = processCpuSeconds() - c0;

    r.finished = rt.status() == RunStatus::Finished &&
                 rt.kernelsExecuted() == launchCount(w);
    r.parallel = gpu.simEngine().parallel();
    r.cycles = gpu.simEngine().now();
    r.events = gpu.eventsExecuted();
    r.insts = gpu.totalWarpInstructions();
    std::ostringstream os;
    gpu.statsJson(os, w.abbr);
    r.digest = fnv1a(os.str());
    return r;
}

void
addOutputs(Record &rec, const RunOut &r)
{
    rec.flag("finished", r.finished)
        .flag("parallel", r.parallel)
        .num("cycles", static_cast<double>(r.cycles))
        .num("events", static_cast<double>(r.events))
        .num("insts", static_cast<double>(r.insts))
        .str("digest", hex64(r.digest));
}

// --- Untraced pass ----------------------------------------------------------

int
untracedPass(const std::vector<PairSpec> &pairs, uint64_t seed,
             double seconds)
{
    // Verification inputs, computed outside every timed span.
    std::vector<TraceCount> expect;
    std::vector<std::string> key_err;
    for (const PairSpec &p : pairs) {
        workloads::Workload w = p.shape->build(seed);
        expect.push_back(replayTraces(w));
        key_err.push_back(seed == 0 ? registryKeyMismatch(w) : "");
    }

    CpuPlacement cpus;
    const auto start = Clock::now();
    bool more = true;
    for (uint32_t sweep = 0; more; ++sweep) {
        for (size_t i = 0; i < pairs.size(); ++i) {
            if (sweep > 0 && secondsSince(start) >= seconds) {
                more = false;
                break;
            }
            const PairSpec &p = pairs[i];
            Record rec("pair");
            rec.str("pair", p.label()).num("sweep", sweep);
            try {
                cpus.spread();
                resetPeakRss();
                const auto t0 = Clock::now();
                workloads::Workload w = p.shape->build(seed);
                auto gpu = std::make_unique<GpuSystem>(p.cfg);
                auto rt = std::make_unique<Runtime>(*gpu);
                const double setup_s = secondsSince(t0);
                cpus.place(*gpu, i + sweep);
                const RunOut r = simulate(*gpu, *rt, w);
                rec.num("setup_s", setup_s)
                    .num("wall_s", r.wall_s)
                    .num("cpu_s", r.cpu_s)
                    .num("peak_rss_mb", peakRssMb());
                addOutputs(rec, r);
            } catch (const std::exception &e) {
                rec.str("error", e.what());
            }
            rec.num("expect_insts", static_cast<double>(expect[i].insts))
                .str("key_error", key_err[i])
                .emit();
        }
    }
    return 0;
}

// --- Traced pass ------------------------------------------------------------

/** One post-L1 access as GpuSystem::memAccess received it. */
struct AccessRec
{
    Cycle now;
    Addr addr;
    uint32_t bytes;
    ModuleId src;
    bool store;

    auto key() const { return std::tie(now, src, addr, store, bytes); }
};

/** memAccess span totals of one thread. */
struct AccessAcc
{
    uint64_t calls = 0;
    std::chrono::nanoseconds spent{0};
    std::vector<AccessRec> stream;
};

/**
 * The machine with its layer boundaries timed from outside: memAccess
 * is the public virtual every SM calls for an L1 miss or store, and the
 * sequencer hook is the public SimEngine barrier callback. PDES workers
 * call memAccess concurrently, so spans accumulate per thread.
 */
class TracedGpu : public GpuSystem
{
  public:
    explicit TracedGpu(const GpuConfig &cfg) : GpuSystem(cfg)
    {
        if (!simEngine().parallel())
            return;
        // Mirrors GpuSystem::activateParallelIfEligible's hook; the
        // digest check against the untraced run catches any drift.
        MemPipeline *p = &memPipeline();
        simEngine().setSequencerHook([this, p] {
            const auto t0 = Clock::now();
            p->processMessages();
            seq_spent_ += Clock::now() - t0;
            ++rounds_;
        });
    }

    using GpuSystem::memAccess;

    void
    memAccess(ModuleId src, Addr addr, uint32_t bytes, bool is_store,
              Cycle now, TxnDoneFn done) override
    {
        AccessAcc &acc = local();
        acc.stream.push_back({now, addr, bytes, src, is_store});
        const auto t0 = Clock::now();
        GpuSystem::memAccess(src, addr, bytes, is_store, now,
                             std::move(done));
        acc.spent += Clock::now() - t0;
        ++acc.calls;
    }

    uint64_t
    accessCalls() const
    {
        uint64_t n = 0;
        for (const AccessAcc &a : accs_)
            n += a.calls;
        return n;
    }

    double
    accessSeconds() const
    {
        std::chrono::nanoseconds t{0};
        for (const AccessAcc &a : accs_)
            t += a.spent;
        return std::chrono::duration<double>(t).count();
    }

    /** Every thread's recorded accesses in one deterministic order
     *  (time, then source module), whichever worker issued them. */
    std::vector<AccessRec>
    takeStream()
    {
        std::vector<AccessRec> all;
        for (AccessAcc &a : accs_) {
            all.insert(all.end(), a.stream.begin(), a.stream.end());
            a.stream = {};
        }
        std::sort(all.begin(), all.end(),
                  [](const AccessRec &x, const AccessRec &y) {
                      return x.key() < y.key();
                  });
        return all;
    }

    uint64_t rounds() const { return rounds_; }
    double
    seqSeconds() const
    {
        return std::chrono::duration<double>(seq_spent_).count();
    }

  private:
    AccessAcc &
    local()
    {
        // Cached per thread and per machine instance; the instance id
        // (not the address, which a later machine may reuse) keys it.
        thread_local uint64_t owner = 0;
        thread_local AccessAcc *acc = nullptr;
        if (owner != id_) {
            std::lock_guard<std::mutex> lk(mu_);
            accs_.emplace_back();
            acc = &accs_.back();
            owner = id_;
        }
        return *acc;
    }

    static inline std::atomic<uint64_t> next_id_{0};
    const uint64_t id_ = ++next_id_;

    std::mutex mu_;
    std::deque<AccessAcc> accs_; //!< guarded by mu_ while growing

    std::chrono::nanoseconds seq_spent_{0};
    uint64_t rounds_ = 0;
};

/** Hits (incl. hit-under-fill) and attempts of a cache's stats group. */
void
addCacheCounts(const Cache &c, double &hits, double &attempts)
{
    const stats::Group &g = c.statsGroup();
    const double h = g.get("hits") + g.get("hits_pending");
    hits += h;
    attempts += h + g.get("misses");
}

struct Replay
{
    uint64_t cache_ops = 0, dram_ops = 0, sends = 0;
    double cache_s = 0.0, dram_s = 0.0, send_s = 0.0;
};

/**
 * Replay @p stream into standalone components built from @p cfg the way
 * GpuSystem builds them: the home L2 slices (Cache::lookup/fill), the
 * DRAM partitions (DramPartition::read/write behind
 * PageTable::partitionFor), and the fabric (Fabric::create(cfg)->send,
 * request and response of every remote access).
 */
Replay
replayStream(const GpuConfig &cfg, const std::vector<AccessRec> &stream)
{
    Replay r;
    const uint32_t parts = cfg.totalPartitions();
    std::vector<PartitionId> home(stream.size());
    {
        PageTable pt(cfg);
        for (size_t i = 0; i < stream.size(); ++i)
            home[i] = pt.partitionFor(stream[i].addr, stream[i].src);
    }

    CacheGeometry geo = cfg.l2;
    geo.size_bytes = cfg.l2BytesPerPartition();
    std::vector<std::unique_ptr<Cache>> l2;
    for (PartitionId p = 0; p < parts; ++p)
        l2.push_back(std::make_unique<Cache>(geo, "replay.l2", true));
    const Cycle dram_lat = nsToCycles(cfg.dram_latency_ns);
    auto t0 = Clock::now();
    for (size_t i = 0; i < stream.size(); ++i) {
        const AccessRec &a = stream[i];
        Cache &c = *l2[home[i]];
        if (c.lookup(a.addr, a.store, a.now).outcome == CacheOutcome::Miss)
            c.fill(a.addr, a.store, a.now + dram_lat);
    }
    r.cache_s = secondsSince(t0);
    r.cache_ops = stream.size();

    std::vector<std::unique_ptr<DramPartition>> dram;
    for (PartitionId p = 0; p < parts; ++p) {
        dram.push_back(std::make_unique<DramPartition>(
            p, cfg.channels_per_partition, cfg.dramGbpsPerPartition(),
            dram_lat, cfg.interleave_bytes, cfg.dram_turnaround_cycles,
            cfg.dram_write_drain));
    }
    PageTable pt(cfg);
    t0 = Clock::now();
    for (const AccessRec &a : stream) {
        DramPartition &d = *dram[pt.partitionFor(a.addr, a.src)];
        if (a.store)
            d.write(a.addr, a.bytes, a.now);
        else
            d.read(a.addr, a.bytes, a.now);
    }
    r.dram_s = secondsSince(t0);
    r.dram_ops = stream.size();

    std::unique_ptr<Fabric> fabric = Fabric::create(cfg);
    const uint64_t header = FabricStage::kHeaderBytes;
    t0 = Clock::now();
    for (size_t i = 0; i < stream.size(); ++i) {
        const AccessRec &a = stream[i];
        const ModuleId hm = home[i] / cfg.partitions_per_module;
        if (hm == a.src)
            continue;
        const FabricTransfer req =
            fabric->send(a.src, hm, header + (a.store ? a.bytes : 0), a.now);
        ++r.sends;
        if (!a.store) {
            fabric->send(hm, a.src, header + a.bytes, req.arrival);
            ++r.sends;
        }
    }
    r.send_s = secondsSince(t0);
    return r;
}

/** The traced measurements of one pair, as one "layer" record. Every
 *  serial-engine run of the pair uses slot @p slot's CPU. */
void
tracedPair(const PairSpec &p, uint64_t seed, CpuPlacement &cpus,
           size_t slot, Record &rec)
{
    auto t0 = Clock::now();
    workloads::Workload w = p.shape->build(seed);
    const double build_s = secondsSince(t0);
    const TraceCount tc = replayTraces(w);

    // Untraced reference: construction time, wall/CPU time, and the
    // outputs the traced run must reproduce byte for byte.
    cpus.spread();
    t0 = Clock::now();
    auto ref = std::make_unique<GpuSystem>(p.cfg);
    auto ref_rt = std::make_unique<Runtime>(*ref);
    const double construct_s = secondsSince(t0);
    cpus.place(*ref, slot);
    const RunOut u = simulate(*ref, *ref_rt, w);
    ref_rt.reset();
    ref.reset();

    // Serial-engine reference for pairs the parallel engine ran.
    double serial_wall_s = 0.0;
    if (u.parallel) {
        GpuConfig serial = p.cfg;
        serial.withSimThreads(1);
        GpuSystem sg(serial);
        Runtime srt(sg);
        cpus.place(sg, slot);
        serial_wall_s = simulate(sg, srt, w).wall_s;
    }

    cpus.spread();
    auto tg = std::make_unique<TracedGpu>(p.cfg);
    auto trt = std::make_unique<Runtime>(*tg);
    cpus.place(*tg, slot);
    const RunOut t = simulate(*tg, *trt, w);
    trt.reset();

    double l1_h = 0, l1_a = 0, l15_h = 0, l15_a = 0, l2_h = 0, l2_a = 0;
    for (SmId s = 0; s < tg->numSms(); ++s)
        addCacheCounts(tg->sm(s).l1(), l1_h, l1_a);
    for (ModuleId m = 0; m < p.cfg.num_modules; ++m)
        addCacheCounts(tg->l15(m), l15_h, l15_a);
    for (PartitionId q = 0; q < p.cfg.totalPartitions(); ++q)
        addCacheCounts(tg->l2(q), l2_h, l2_a);
    const stats::Group &mem = tg->memPipeline().statsGroup();

    rec.num("build_s", build_s)
        .num("trace_s", tc.seconds)
        .num("trace_ops", static_cast<double>(tc.replayed))
        .num("expect_insts", static_cast<double>(tc.insts))
        .num("construct_s", construct_s)
        .num("wall_s", u.wall_s)
        .num("cpu_s", u.cpu_s)
        .num("serial_wall_s", serial_wall_s)
        .num("traced_wall_s", t.wall_s)
        .num("traced_cpu_s", t.cpu_s)
        .flag("traced_finished", t.finished)
        .str("traced_digest", hex64(t.digest))
        .num("access_calls", static_cast<double>(tg->accessCalls()))
        .num("access_s", tg->accessSeconds())
        .num("rounds", static_cast<double>(tg->rounds()))
        .num("seq_s", tg->seqSeconds())
        .num("l1_hits", l1_h).num("l1_attempts", l1_a)
        .num("l15_hits", l15_h).num("l15_attempts", l15_a)
        .num("l2_hits", l2_h).num("l2_attempts", l2_a)
        .num("txn_launched", mem.get("txn_launched"))
        .num("mshr_stalled", mem.get("txn_mshr_stalled"))
        .num("link_bytes", static_cast<double>(tg->fabric().linkBytes()));
    addOutputs(rec, u);

    const std::vector<AccessRec> stream = tg->takeStream();
    tg.reset();
    const Replay r = replayStream(p.cfg, stream);
    rec.num("cache_ops", static_cast<double>(r.cache_ops))
        .num("cache_s", r.cache_s)
        .num("dram_ops", static_cast<double>(r.dram_ops))
        .num("dram_s", r.dram_s)
        .num("sends", static_cast<double>(r.sends))
        .num("send_s", r.send_s);
}

int
tracedPass(const std::vector<PairSpec> &pairs, uint64_t seed,
           double seconds)
{
    // Whole sweeps only, so the count metrics, which sum over the traced
    // runs, do not depend on where the time budget ran out; another
    // sweep starts only if one more fits the budget.
    CpuPlacement cpus;
    const auto start = Clock::now();
    double sweep_s = 0.0;
    for (uint32_t sweep = 0;
         sweep == 0 || secondsSince(start) + sweep_s <= seconds; ++sweep) {
        const auto sweep_t0 = Clock::now();
        for (size_t i = 0; i < pairs.size(); ++i) {
            const PairSpec &p = pairs[i];
            Record rec("layer");
            rec.str("pair", p.label()).num("sweep", sweep);
            try {
                tracedPair(p, seed, cpus, i + sweep, rec);
            } catch (const std::exception &e) {
                rec.str("error", e.what());
            }
            rec.str("key_error",
                    seed == 0 ? registryKeyMismatch(p.shape->build(seed))
                              : "")
                .emit();
        }
        sweep_s = secondsSince(sweep_t0);
    }
    return 0;
}

void
usage()
{
    std::cerr <<
        "mcmbench --workload W --seed N --seconds S --trace 0|1 [--small]\n"
        "mcmbench --host\n"
        "  W: chain-serial | staged-serial | pdes-smtN (N >= 2)\n"
        "  --small runs one small pair per workload (self-test)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 1.0;
    int trace = 0;
    bool small = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                workload = value();
            else if (a == "--seed")
                seed = std::stoull(value());
            else if (a == "--seconds")
                seconds = std::stod(value());
            else if (a == "--trace")
                trace = std::stoi(value());
            else if (a == "--small")
                small = true;
            else if (a == "--host") {
                Record("host")
                    .str("compiler", __VERSION__)
                    .str("flags", PERFBENCH_CXX_FLAGS)
                    .str("build_type", PERFBENCH_BUILD_TYPE)
                    .emit();
                return 0;
            } else
                throw std::invalid_argument("unknown flag " + a);
        }
    } catch (const std::exception &e) {
        std::cerr << "mcmbench: " << e.what() << "\n";
        usage();
        return 2;
    }

    std::vector<PairSpec> pairs;
    if (!pairsFor(workload, small, pairs) || (trace != 0 && trace != 1) ||
        !(seconds > 0.0)) {
        usage();
        return 2;
    }
    // The pdes workloads' first-touch machine falls back to the serial
    // engine by design; its one-time warning is expected noise here.
    setQuietLogging(true);
    return trace ? tracedPass(pairs, seed, seconds)
                 : untracedPass(pairs, seed, seconds);
}
