#!/usr/bin/env python3
"""Repo benchmark runner (see benchmark/README.md).

    python3 benchmark/run.py --seed 1 --json out.json   # every workload
    python3 benchmark/run.py --quick                    # 1 round of 0.3 s
    python3 benchmark/run.py compare A.json B.json      # verdict per metric
    python3 benchmark/run.py --workload shm_small --seed 1 --seconds 10 --trace 0

Builds ohpx_bench (benchmark/ohpx_bench.cpp) and ohpx_reference
(benchmark/reference.cpp) into build-bench/ when needed, checks the
span-attribution self-test, then runs each workload round in a fresh
ohpx_bench process, followed by ohpx_reference.  A full run interleaves
rounds across workloads (round r of every workload before round r+1), so
a slow phase of a shared host hits all workloads alike, and ends with
one traced layer pass per workload.  With --workload, one workload is measured and the
last stdout line is a single JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Metric names, units and regression bounds come from BENCHMARK.json at
the repository root.  Exits non-zero on any correctness failure.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BENCH_BIN = BUILD / "ohpx_bench"
REFERENCE_BIN = BUILD / "ohpx_reference"
SPEC_PATH = ROOT / "BENCHMARK.json"

ROUNDS = 40
MEASURE_S = 0.25
# The layer pass's untraced stretch: long enough that p99_us, which it
# reports, has over 1,000 samples on every workload (cap_bulk, the slowest,
# makes 300-600 calls/s).
LAYER_MEASURE_S = 4.0
QUICK = {"rounds": 1, "measure_s": 0.3}

# Each ohpx_bench process runs on two fixed CPUs: the generator thread on
# one, the ORB's threads and the forked daemons on the other, so every
# call crosses CPUs the way it does when deployed.  Round r uses the r-th
# and (r+1)-th allowed CPUs (cyclically).  Left to the scheduler, where
# the ORB's threads landed moved tcp_fanin between 55k and 210k calls/s
# from process to process.
CPUS = sorted(os.sched_getaffinity(0))

# Times are reported at the reference host's speed.  After each round
# ohpx_reference (benchmark/reference.cpp) times a fixed kernel on the
# round's generator CPU, and every time is scaled by REFERENCE_NS / that
# time (rates by the inverse).  On the reference host, co-tenants slowed
# stretches of seconds to minutes by 20-75%, and the kernel slows with
# them.  REFERENCE_NS is the kernel's time on that host when quiet.
REFERENCE_NS = 1_000_000.0

# Not in BENCHMARK.json: its regression bound is absolute (any failure is a
# regression), and a metric there must never read 0.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower",
              "bound": 0.0}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    return json.loads(SPEC_PATH.read_text())


# --------------------------------------------------------------------------
# build and ohpx_bench processes

def build():
    """Configures (when needed) and builds ohpx_bench.  A failing step's
    output goes to stderr; stdout stays machine-readable."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(BUILD), "-j",
            str(min(4, os.cpu_count() or 1))]

    def step(cmd):
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
        return done.returncode == 0

    # An existing tree is only rebuilt; configure again if that fails, in
    # case an earlier configure stopped half-way.
    if (BUILD / "CMakeCache.txt").exists() and step(make):
        return
    if not (step(configure) and step(make)):
        raise BenchError("build failed")


def run_bench(args, timeout, binary=BENCH_BIN):
    """Runs ohpx_bench (or `binary`) in a process group of its own and
    returns its last stdout line as JSON.  On timeout the whole group
    (daemons included) is killed."""
    command = f"{binary.name} {' '.join(args)}"
    proc = subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{command}: timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{command}: exit {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def self_test():
    result = run_bench(["--self-test"], timeout=60)
    if result.get("self_test") != "pass":
        raise BenchError("span attribution self-test failed")


def cpu_pair(rnd):
    """--cpus value of round rnd: generator CPU, ORB CPU."""
    return (f"{CPUS[rnd % len(CPUS)]},"
            f"{CPUS[(rnd + 1) % len(CPUS)]}")


def run_round(workload, seed, rnd, measure_s):
    """One measured round, then the reference kernel on its generator
    CPU."""
    result = run_bench(["--workload", workload, "--seed", str(seed),
                        "--round", str(rnd), "--measure-s", str(measure_s),
                        "--cpus", cpu_pair(rnd)], timeout=measure_s + 90)
    result.update(run_bench([str(CPUS[rnd % len(CPUS)])], timeout=30,
                            binary=REFERENCE_BIN))
    return result


def run_layers(workload, seed, measure_s):
    return run_bench(["--workload", workload, "--seed", str(seed), "--layers",
                      "--measure-s", str(measure_s), "--cpus", cpu_pair(0)],
                     timeout=measure_s + 120)


# --------------------------------------------------------------------------
# aggregation

def round_metrics(r):
    """End-to-end values of one round, times at the reference speed."""
    calls, elapsed = r["calls"], r["elapsed_s"]
    slowdown = r["reference_ns"] / REFERENCE_NS
    return {
        "calls_per_s": calls / elapsed * slowdown if elapsed > 0 else 0.0,
        "p50_us": r["p50_ns"] / 1e3 / slowdown,
        "payload_mb_per_s": r["payload_bytes"] / elapsed / 1e6 * slowdown
        if elapsed > 0 else 0.0,
        "cpu_us_per_call": r["cpu_s"] * 1e6 / calls / slowdown
        if calls else 0.0,
        "setup_s": r["setup_s"] / slowdown,
        "peak_rss_mb": r["peak_rss_mb"],
        "error_rate": r["failed"] / (calls + r["failed"])
        if calls + r["failed"] else 1.0,
        "slowdown": slowdown,
    }


def summarize(rounds, spec):
    """Per-workload summary: each metric is the median over all rounds,
    and error_rate counts the calls of all of them."""
    per_round = [round_metrics(r) for r in rounds]
    operations = sum(r["calls"] for r in rounds)
    failures = sum(r["failed"] for r in rounds)
    metrics = {}
    for m in spec["end_to_end"] + [ERROR_RATE]:
        name = m["name"]
        values = [row[name] for row in per_round]
        value = statistics.median(values)
        if name == "error_rate":
            value = failures / (operations + failures) if operations else 1.0
        metrics[name] = {"value": value, "unit": m["unit"], "rounds": values}
    errors = [e for r in rounds for e in r["errors"]][:8]
    return {
        "correct": failures == 0 and operations > 0,
        "operations": operations,
        "failures": failures,
        "samples": sum(r["samples"] for r in rounds),
        "slowdown": [row["slowdown"] for row in per_round],
        "errors": errors,
        "metrics": metrics,
    }


def layer_summary(result, spec):
    layers = result["layers"]
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise BenchError("ohpx_bench reported no " + ", ".join(missing))
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def host_info(compiler):
    models = [line.split(":", 1)[1].strip()
              for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")]
    return {"nproc": os.cpu_count(), "cpu": models[0] if models else "unknown",
            "compiler": compiler}


# --------------------------------------------------------------------------
# modes

def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def durations(quick):
    """(rounds, measured s per round, layer-pass stretch s)."""
    if quick:
        return QUICK["rounds"], QUICK["measure_s"], QUICK["measure_s"]
    return ROUNDS, MEASURE_S, LAYER_MEASURE_S


def one_workload(opts, spec):
    """Measures one workload; the last stdout line is one JSON object."""
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        raise BenchError(f"unknown workload {opts.workload}; one of {names}")
    rounds, measure_s, layer_s = durations(opts.quick)
    if opts.seconds:  # scale both to the requested measured time
        layer_s *= opts.seconds / (rounds * measure_s)
        measure_s = opts.seconds / rounds
    if opts.trace:
        result = run_layers(opts.workload, opts.seed, layer_s)
        metrics = layer_summary(result, spec)
        attempted, failed = result["calls"], result["failed"]
        errors = result["errors"]
        correct = failed == 0 and metrics["trace.dropped"]["value"] == 0
    else:
        summary = summarize(
            [run_round(opts.workload, opts.seed, r, measure_s)
             for r in range(rounds)], spec)
        metrics = {m["name"]: {k: summary["metrics"][m["name"]][k]
                               for k in ("value", "unit")}
                   for m in spec["end_to_end"]}
        attempted = summary["operations"] + summary["failures"]
        failed, correct = summary["failures"], summary["correct"]
        errors = summary["errors"]
    print_metrics(f"{opts.workload} (seed {opts.seed})", metrics)
    for e in errors:
        print(f"  error: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def full_run(opts, spec):
    names = [w["name"] for w in spec["workloads"]]
    rounds, measure_s, layer_s = durations(opts.quick)
    started = time.monotonic()
    results = {w: [] for w in names}
    for r in range(rounds):
        for w in names:
            results[w].append(run_round(w, opts.seed, r, measure_s))
    report = {"seed": opts.seed, "rounds": rounds, "measure_s": measure_s,
              "self_test": "pass", "workloads": {}}
    correct = True
    for w in names:
        summary = summarize(results[w], spec)
        layers = run_layers(w, opts.seed, layer_s)
        summary["layers"] = layer_summary(layers, spec)
        summary["layer_pass"] = {k: layers[k] for k in (
            "calls", "failed", "p99_samples", "traced_calls", "spans")}
        summary["errors"] += layers["errors"]
        summary["correct"] = (summary["correct"] and layers["failed"] == 0 and
                              summary["layers"]["trace.dropped"]["value"] == 0)
        correct = correct and summary["correct"]
        report["workloads"][w] = summary
        print_metrics(f"{w}: {summary['operations']} calls, "
                      f"{summary['failures']} failed, "
                      f"{summary['samples']} latency samples",
                      summary["metrics"])
        print_metrics(f"{w} layers (traced pass)", summary["layers"])
        for e in summary["errors"]:
            print(f"  error: {e}")
    report["wall_s"] = time.monotonic() - started
    report["host"] = host_info(results[names[0]][0]["compiler_version"])
    print(f"wall {report['wall_s']:.1f} s, "
          f"{'all outputs correct' if correct else 'CORRECTNESS FAILURES'}")
    if opts.json:
        Path(opts.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


def compare(path_a, path_b, spec):
    """Per workload and end-to-end metric: both medians, both quartiles
    and a verdict against the metric's bound in BENCHMARK.json."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    worse = 0
    print(f"{'workload':15s} {'metric':17s} {'A median':>12s} "
          f"{'B median':>12s} {'A q1..q3':>25s} {'B q1..q3':>25s}  verdict")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            continue
        for m in spec["end_to_end"] + [ERROR_RATE]:
            name = m["name"]
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            verdict = judge(ma, mb, m)
            worse += verdict == "worse"
            qa, qb = quartiles(ma["rounds"]), quartiles(mb["rounds"])
            print(f"{w:15s} {name:17s} {ma['value']:12.6g} {mb['value']:12.6g}"
                  f" {qa[0]:12.6g}..{qa[1]:<11.6g} {qb[0]:12.6g}..{qb[1]:<11.6g}"
                  f"  {verdict}")
    return 1 if worse else 0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(ma, mb, m):
    """better / worse / unchanged, or unresolved when the rounds spread
    wider than the bound and do not separate completely."""
    lower = m["better"] == "lower"
    va, vb, bound = ma["value"], mb["value"], m["bound"]
    if bound == 0.0:  # absolute: any increase is a regression
        if vb == va:
            return "unchanged"
        return "better" if (vb < va) == lower else "worse"
    if va == 0:
        return "unresolved"
    change = (vb - va) / abs(va)
    gain = -change if lower else change
    spread = max((q[1] - q[0]) / abs(x["value"]) if x["value"] else 0.0
                 for x, q in ((ma, quartiles(ma["rounds"])),
                              (mb, quartiles(mb["rounds"]))))
    if spread > bound:
        b_all_better = (max(mb["rounds"]) < min(ma["rounds"]) if lower
                        else min(mb["rounds"]) > max(ma["rounds"]))
        return "better" if b_all_better else "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "unchanged"


def main():
    argv = sys.argv[1:]
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            if len(argv) != 3:
                raise BenchError("usage: run.py compare A.json B.json")
            return compare(argv[1], argv[2], spec)
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--json", help="write the full report here")
        parser.add_argument("--quick", action="store_true",
                            help="1 round of 0.3 s per workload (smoke)")
        parser.add_argument("--workload",
                            help="measure one workload; JSON last line")
        parser.add_argument("--seconds", type=float,
                            help="measured seconds per workload run")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                            help="with --workload: 1 = per-layer metrics")
        opts = parser.parse_args(argv)
        build()
        self_test()
        return one_workload(opts, spec) if opts.workload else full_run(
            opts, spec)
    except (BenchError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
