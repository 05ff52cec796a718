#!/usr/bin/env python3
"""Host-throughput benchmark of the MCM-GPU simulator (see README.md).

Run from the repository root:

  python3 perfbench/run.py --workload chain-serial --seed 0 --seconds 30 \
      --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record OUT.json --seed 0 --seconds 30
  python3 perfbench/run.py --compare A.json B.json
  python3 perfbench/run.py --write-pins

The script builds the harness (perfbench/CMakeLists.txt) into
.bench_build/perfbench, runs it, checks every simulated output, and
prints the metrics, with the last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "mcmbench")
PINS_PATH = os.path.join(HERE, "pins.json")

WORKLOADS = ("chain-serial", "staged-serial", "pdes-smt2")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

# Seconds a harness run may take before the benchmark gives up; the
# whole invocation must end within 180 s once the build is done.
HARNESS_TIMEOUT_S = 165

END_TO_END = {
    "sim_minsts_per_s": "Minst/s",
    "sim_minsts_per_cpu_s": "Minst/cpu_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside the end-to-end metrics; it is 0 on a correct run, so it
# is reported through "failed" in the result line rather than as a
# metric with a regression bound.
FAILED_SHARE_UNIT = "share"

PER_LAYER = {
    "workloads.build_ms": "ms",
    "workloads.trace_ns_per_op": "ns/op",
    "gpu.construct_ms": "ms",
    "core.self_share": "share",
    "core.self_ns_per_inst": "ns/inst",
    "mem.access_ns": "ns/access",
    "mem.access_share": "share",
    "mem.access_per_inst": "access/inst",
    "mem.l1_hit_rate": "share",
    "mem.l15_hit_rate": "share",
    "mem.l2_hit_rate": "share",
    "mem.cache_ns": "ns/op",
    "mem.dram_ns": "ns/op",
    "mem.txn_per_inst": "txn/inst",
    "mem.mshr_stall_share": "share",
    "topo.send_ns": "ns/send",
    "topo.link_bytes_per_inst": "B/inst",
    "common.event_queue.events_per_inst": "event/inst",
    "common.event_queue.events_per_s": "event/s",
    "common.sim_domain.parallel_share": "share",
    "common.sim_domain.rounds": "count",
    "common.sim_domain.events_per_round": "event/round",
    "common.sim_domain.seq_share": "share",
    "common.sim_domain.seq_us_per_round": "us/round",
    "common.sim_domain.cpu_per_wall": "cpu_s/s",
    "common.sim_domain.window_parallelism": "cpu_s/s",
    "common.sim_domain.speedup": "x",
    "bench.trace_overhead": "x",
}

# Chain-model Stream cycles pinned by the repository's verification
# notes; the default seed must reproduce them.
STREAM_CYCLES = {"mcm-basic/Stream": 64267, "mcm-optimized/Stream": 48635}

PINNED_FIELDS = ("cycles", "events", "insts", "digest")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# --- Building and running the harness ----------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources beside perfbench/ (expected src/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except OSError as e:
            die("cannot run %s: %s" % (cmd[0], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            die("build step failed: " + " ".join(cmd))


def harness(*args):
    """Run the harness; return its JSON-lines records."""
    cmd = [HARNESS] + [str(a) for a in args]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness exceeded %d s: %s" % (HARNESS_TIMEOUT_S, " ".join(cmd)))
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("harness failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    return [json.loads(line) for line in p.stdout.splitlines() if line]


def measure(workload, seed, seconds, trace, small=False):
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds,
            "--trace", 1 if trace else 0]
    return harness(*(args + (["--small"] if small else [])))


# --- Correctness -------------------------------------------------------------


def load_pins():
    if not os.path.isfile(PINS_PATH):
        return {}
    with open(PINS_PATH) as f:
        return json.load(f)["seeds"]


def check(records, seed, pins):
    """Count pair runs and failed pair runs; return (attempted, failed,
    problems). A run fails when it errors or does not finish, when its
    warp instructions differ from the trace replay's count, when a
    traced run's outputs differ from its untraced reference, when its
    outputs differ from an earlier run of the same pair, or when pins
    exist for the seed and any pinned output differs."""
    seed_pins = pins.get(str(seed))
    first = {}
    attempted = failed = 0
    problems = []
    for r in records:
        if r["kind"] not in ("pair", "layer"):
            continue
        attempted += 1
        label = r["pair"]
        bad = []
        if "error" in r:
            bad.append("error: " + r["error"])
        else:
            if not r["finished"]:
                bad.append("did not finish")
            if r["insts"] != r["expect_insts"]:
                bad.append("insts %d != trace replay %d"
                           % (r["insts"], r["expect_insts"]))
            if r["kind"] == "layer" and (
                    not r["traced_finished"] or
                    r["traced_digest"] != r["digest"]):
                bad.append("traced run differs from untraced run")
            out = {k: r[k] for k in PINNED_FIELDS}
            if first.setdefault(label, out) != out:
                bad.append("outputs differ from an earlier run")
            if seed_pins is not None:
                pin = seed_pins.get(label)
                if pin is None:
                    bad.append("no pinned outputs")
                else:
                    bad += ["%s %s != pinned %s" % (k, out[k], pin[k])
                            for k in PINNED_FIELDS if out[k] != pin[k]]
            if seed == DEFAULT_SEED and label in STREAM_CYCLES and \
                    r["cycles"] != STREAM_CYCLES[label]:
                bad.append("cycles %d != %d" % (r["cycles"],
                                                STREAM_CYCLES[label]))
        if r["key_error"]:
            bad.append(r["key_error"])
        if bad:
            failed += 1
            problems.append("%s (sweep %d): %s"
                            % (label, r["sweep"], "; ".join(bad)))
    return attempted, failed, problems


# --- Metrics -----------------------------------------------------------------


def div(a, b):
    return a / b if b else 0.0


def by_pair(records, kind):
    pairs = {}
    for r in records:
        if r["kind"] == kind and "error" not in r:
            pairs.setdefault(r["pair"], []).append(r)
    return pairs


def end_to_end(records):
    """Per pair, the median over its runs of set-up, wall and CPU time;
    the metrics sum those medians over the workload's pairs."""
    pairs = by_pair(records, "pair")
    med = lambda rs, k: statistics.median(r[k] for r in rs)
    insts = sum(rs[0]["insts"] for rs in pairs.values())
    wall = sum(med(rs, "wall_s") for rs in pairs.values())
    cpu = sum(med(rs, "cpu_s") for rs in pairs.values())
    return {
        "sim_minsts_per_s": div(insts, wall) / 1e6,
        "sim_minsts_per_cpu_s": div(insts, cpu) / 1e6,
        "setup_s": sum(med(rs, "setup_s") for rs in pairs.values()),
        "peak_rss_mb": max((med(rs, "peak_rss_mb") for rs in pairs.values()),
                           default=0.0),
    }


def per_layer(records):
    """Layer metrics from the traced records: times per operation are
    ratios of sums over every traced run; per-sweep figures average over
    sweeps. Spans inside parallel runs overlap across worker threads,
    so their share is taken of process CPU time rather than wall."""
    rs = [r for rs in by_pair(records, "layer").values() for r in rs]
    par = [r for r in rs if r["parallel"]]

    def s(key, runs=rs):
        return sum(r[key] for r in runs)

    sweeps = len({r["sweep"] for r in rs}) or 1
    insts = s("insts")
    busy = sum(r["traced_cpu_s"] if r["parallel"] else r["traced_wall_s"]
               for r in rs)
    cpu_base = par or rs
    return {
        "workloads.build_ms": s("build_s") / sweeps * 1e3,
        "workloads.trace_ns_per_op": div(s("trace_s"), s("trace_ops")) * 1e9,
        "gpu.construct_ms": s("construct_s") / sweeps * 1e3,
        "core.self_share": div(busy - s("access_s"), busy),
        "core.self_ns_per_inst": div(busy - s("access_s"), insts) * 1e9,
        "mem.access_ns": div(s("access_s"), s("access_calls")) * 1e9,
        "mem.access_share": div(s("access_s"), busy),
        "mem.access_per_inst": div(s("access_calls"), insts),
        "mem.l1_hit_rate": div(s("l1_hits"), s("l1_attempts")),
        "mem.l15_hit_rate": div(s("l15_hits"), s("l15_attempts")),
        "mem.l2_hit_rate": div(s("l2_hits"), s("l2_attempts")),
        "mem.cache_ns": div(s("cache_s"), s("cache_ops")) * 1e9,
        "mem.dram_ns": div(s("dram_s"), s("dram_ops")) * 1e9,
        "mem.txn_per_inst": div(s("txn_launched"), insts),
        "mem.mshr_stall_share": div(s("mshr_stalled"), s("txn_launched")),
        "topo.send_ns": div(s("send_s"), s("sends")) * 1e9,
        "topo.link_bytes_per_inst": div(s("link_bytes"), insts),
        "common.event_queue.events_per_inst": div(s("events"), insts),
        "common.event_queue.events_per_s": div(s("events"), s("wall_s")),
        "common.sim_domain.parallel_share": div(s("insts", par), insts),
        "common.sim_domain.rounds": s("rounds") / sweeps,
        "common.sim_domain.events_per_round":
            div(s("events", par), s("rounds")),
        "common.sim_domain.seq_share":
            div(s("seq_s"), s("traced_wall_s", par)),
        "common.sim_domain.seq_us_per_round":
            div(s("seq_s"), s("rounds")) * 1e6,
        "common.sim_domain.cpu_per_wall":
            div(s("cpu_s", cpu_base), s("wall_s", cpu_base)),
        "common.sim_domain.window_parallelism":
            div(s("traced_cpu_s", par) - s("seq_s"),
                s("traced_wall_s", par) - s("seq_s")),
        "common.sim_domain.speedup":
            div(s("serial_wall_s", par), s("wall_s", par)) if par else 1.0,
        "bench.trace_overhead": div(s("traced_wall_s"), s("wall_s")),
    }


def evaluate(workload, seed, seconds, trace, pins, small=False):
    """One benchmark run: (result line dict, failed_share, problems)."""
    records = measure(workload, seed, seconds, trace, small)
    attempted, failed, problems = check(records, seed, pins)
    if trace:
        values, units = per_layer(records), PER_LAYER
    else:
        values, units = end_to_end(records), END_TO_END
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }
    return result, div(failed, attempted), problems, records


def print_result(workload, result, failed_share, problems):
    for p in problems[:10]:
        print("FAILED " + p, file=sys.stderr)
    print("workload %s: %d pair runs, %d failed"
          % (workload, result["attempted"], result["failed"]))
    width = max(len(k) for k in result["metrics"])
    for name, m in result["metrics"].items():
        print("  %-*s %14.6g %s" % (width, name, m["value"], m["unit"]))
    if "sim_minsts_per_s" in result["metrics"]:
        print("  %-*s %14.6g %s" % (width, "failed_share", failed_share,
                                    FAILED_SHARE_UNIT))
    print(json.dumps(result))


# --- Host stamp, result sets and comparison ----------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        q = subprocess.run(["git", "status", "--porcelain", "src",
                            "perfbench"], cwd=ROOT, capture_output=True,
                           text=True)
    except OSError:
        return "unknown"
    if p.returncode != 0:
        return "unknown"
    return p.stdout.strip() + ("+dirty" if q.stdout.strip() else "")


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result set
    identifies its code even where git is unavailable."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".cc", ".hh", ".txt")):
                    continue
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_stamp():
    built = harness("--host")[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": built["compiler"],
        "flags": built["flags"],
        "build_type": built["build_type"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def record(path, seed, seconds, pins):
    doc = {"schema": "mcmgpu-perfbench/1", "host": host_stamp(),
           "seed": seed, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        entry = {"pairs": {}}
        for trace in (0, 1):
            res, failed_share, problems, records = evaluate(
                w, seed, seconds, trace, pins)
            print_result(w, res, failed_share, problems)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = res["metrics"]
            if not trace:
                entry.update(correct=res["correct"],
                             attempted=res["attempted"],
                             failed=res["failed"],
                             failed_share=failed_share)
                for r in records:
                    if r["kind"] == "pair" and "error" not in r:
                        entry["pairs"][r["pair"]] = {
                            k: r[k] for k in PINNED_FIELDS}
            else:
                entry["correct"] = entry["correct"] and res["correct"]
        doc["workloads"][w] = entry
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for k in ("nproc", "cpu_model"):
        if a["host"][k] != b["host"][k]:
            die("refusing to compare result sets from different hosts "
                "(%s: %r vs %r)" % (k, a["host"][k], b["host"][k]))
    for k in ("compiler", "flags", "build_type"):
        if a["host"][k] != b["host"][k]:
            print("note: %s differs: %r vs %r"
                  % (k, a["host"][k], b["host"][k]))
    print("%s (A) vs %s (B); seeds %s vs %s"
          % (path_a, path_b, a["seed"], b["seed"]))
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        for group in ("end_to_end", "per_layer"):
            ma, mb = a["workloads"][w][group], b["workloads"][w][group]
            for name in sorted(set(ma) & set(mb)):
                va, vb = ma[name]["value"], mb[name]["value"]
                print("%-14s %-40s %14.6g %14.6g  B/A %s"
                      % (w, name, va, vb,
                         "%.4f" % (vb / va) if va else "n/a"))


def write_pins():
    """Pin every pair's outputs at the default and held-out seeds. The
    pdes pins come from two workers and are checked at four: results
    are byte-identical for every worker count >= 2."""
    seeds = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        pins = {}
        for w in ("chain-serial", "staged-serial", "pdes-smt2"):
            records = measure(w, seed, 0.001, False)
            attempted, failed, problems = check(records, seed, {})
            if failed:
                die("cannot pin a failing run: " + "; ".join(problems))
            for r in records:
                if r["kind"] == "pair":
                    pins[r["pair"]] = {k: r[k] for k in PINNED_FIELDS}
        records = measure("pdes-smt4", seed, 0.001, False)
        _, failed, problems = check(records, seed, {str(seed): pins})
        if failed:
            die("pdes-smt4 differs from pdes-smt2: " + "; ".join(problems))
        seeds[str(seed)] = pins
    with open(PINS_PATH, "w") as f:
        json.dump({"schema": "mcmgpu-perfbench-pins/1", "seeds": seeds},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + PINS_PATH)


# --- Self-test ---------------------------------------------------------------


def self_test(pins):
    """One small pair per workload, both passes: every metric is printed
    by name with its unit, the run is correct, and a deliberately wrong
    pinned digest is counted as a failure."""
    errors = []
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as f:
            spec = json.load(f)
        for group, table in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            if declared != table:
                errors.append("BENCHMARK.json %s differs from run.py"
                              % group)
    for w in WORKLOADS:
        for trace in (0, 1):
            res, failed_share, problems, records = evaluate(
                w, DEFAULT_SEED, 0.001, trace, pins, small=True)
            print_result(w, res, failed_share, problems)
            table = PER_LAYER if trace else END_TO_END
            for name, unit in table.items():
                m = res["metrics"].get(name)
                if m is None or m["unit"] != unit or \
                        not isinstance(m["value"], float):
                    errors.append("%s: metric %s missing" % (w, name))
            if not res["correct"]:
                errors.append("%s trace=%d: small pair failed" % (w, trace))
            wrong = json.loads(json.dumps(pins))
            for pin in wrong.get(str(DEFAULT_SEED), {}).values():
                pin["digest"] = "0" * 16
            attempted, failed, _ = check(records, DEFAULT_SEED, wrong)
            if attempted == 0 or failed != attempted:
                errors.append("%s: wrong pinned digest not counted" % w)
    for e in errors:
        print("SELF-TEST FAILED: " + e, file=sys.stderr)
    print("self-test " + ("failed" if errors else "ok"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    help="chain-serial | staged-serial | pdes-smtN")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", metavar="OUT")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    build()
    pins = load_pins()
    if args.self_test:
        return self_test(pins)
    if args.record:
        record(args.record, args.seed, args.seconds, pins)
        return 0
    if args.write_pins:
        write_pins()
        return 0
    if not args.workload:
        die("--workload is required")
    res, failed_share, problems, _ = evaluate(
        args.workload, args.seed, args.seconds, args.trace, pins)
    print_result(args.workload, res, failed_share, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
