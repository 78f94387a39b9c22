#!/usr/bin/env python3
"""The dcape benchmark: one command for every workload.

    python3 perfbench/run.py --workload sim-window --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 7    # every workload, both modes

Run from the root of a checkout. The first call builds
`perfbench/dcape_perfbench` (Release) into `.bench_build/perfbench`.

--trace 0  timed runs: one child process per repetition, repeated until
           --seconds have passed; every end-to-end metric is the median
           over the repetitions, printed with its quartiles.
--trace 1  the traced run: phase spans around the real run, a layer
           replay of the same input, and the per-layer metrics.

Both modes check the workload's output against a reference, off the
timed path. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
any result is wrong or a run failed, 2 on a usage or build error.
WORKLOADS.md says why each workload exists and what it should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dcape_perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
LAYERS_JSON = HERE / "layers.json"

# Seed that no change may be tuned on; a claimed gain must also hold on it.
HELD_OUT_SEED = 20071

# Inputs per run: repetitions cycle through this many generated inputs,
# so a run's medians do not hang on one input's spill pattern. Each
# input is checked.
INPUTS_PER_RUN = 4
# Fewest timed repetitions a run reports, however short --seconds is.
MIN_REPS = INPUTS_PER_RUN
# Per-child limit; a repetition takes about a second.
CHILD_TIMEOUT_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


def build():
    """Configures and builds the benchmark binary (no-op when current)."""
    if not (ROOT / "src" / "dcape.h").is_file():
        fail("library sources not found at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "dcape_perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def child(workload, seed, mode, scale, extra=()):
    """Runs one dcape_perfbench process; returns its JSON or None."""
    cmd = [str(BINARY), "--workload=" + workload, "--seed=%d" % seed,
           "--mode=" + mode, "--scale=%r" % scale, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("perfbench: %s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                            proc.stderr.strip()[-2000:]))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: unreadable output from " + " ".join(cmd))
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_spec():
    spec = json.loads(BENCHMARK_JSON.read_text())
    layers = json.loads(LAYERS_JSON.read_text())["layers"]
    return spec, {entry["metric"]: entry for entry in layers}


def input_seeds(seed):
    """The generator seeds of one run; seeds n and n+1 share none."""
    return [seed * INPUTS_PER_RUN + i for i in range(INPUTS_PER_RUN)]


def check_outcomes(workload, seeds, scale):
    """Checks every input; returns ({seed: check JSON}, attempted, failed)."""
    checks, attempted, failed = {}, 0, 0
    for seed in seeds:
        check = child(workload, seed, "check", scale)
        if check is None or check.get("reference_results", 0) < 1:
            attempted, failed = attempted + 1, failed + 1
            continue
        checks[seed] = check
        attempted += check["reference_results"]
        failed += check["wrong_results"]
        if check.get("detail"):
            print("check seed %d: %s" % (seed, check["detail"]))
    return checks, attempted, failed


def timed(args, spec):
    seeds = input_seeds(args.seed)
    deadline = time.monotonic() + args.seconds
    reps = []
    broken = 0
    while len(reps) + broken < MIN_REPS or time.monotonic() < deadline:
        seed = seeds[(len(reps) + broken) % len(seeds)]
        rep = child(args.workload, seed, "timed", args.scale)
        if rep is None or not rep.get("ok"):
            broken += 1
            if broken > MIN_REPS:
                break
            continue
        reps.append(rep)
    checks, attempted, failed = check_outcomes(args.workload, seeds,
                                               args.scale)
    key = ("tuples", "runtime_results", "cleanup_results")
    for rep in reps:
        check = checks.get(rep["seed"])
        # The simulator is deterministic: every timed repetition must
        # have produced exactly the answer the checked run of its input
        # produced.
        if check is not None and not check["realtime"] and (
                tuple(rep[k] for k in key) != tuple(check[k] for k in key)):
            log("perfbench: timed repetition differs from the checked "
                "run: %s" % {k: (rep[k], check[k]) for k in key})
            broken += 1
    if broken > 0 or not reps:
        failed = attempted

    samples = {
        "answer_s": [r["answer_s"] for r in reps],
        "tuples_per_s": [r["tuples"] / r["answer_s"] for r in reps],
        "runtime_result_frac": [
            r["runtime_results"] / max(1, r["runtime_results"] +
                                       r["cleanup_results"]) for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    metrics = {}
    rows = []
    for entry in spec["end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        values = samples.get(name) or [0.0]
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        rows.append((name, median, q1, q3, unit))

    print("workload %s  seed %d (inputs %s; held-out seed %d)  "
          "repetitions %d  measured %.1f s" % (
              args.workload, args.seed, ",".join(map(str, seeds)),
              HELD_OUT_SEED, len(reps), args.seconds))
    if reps:
        print("host nproc=%d  compiler=%s  build=%s" % (
            os.cpu_count() or 0, reps[0]["compiler"], reps[0]["build_type"]))
    print("%-22s %14s %14s %14s  %s" % ("metric", "median", "q1", "q3",
                                         "unit"))
    for name, median, q1, q3, unit in rows:
        print("%-22s %14.6g %14.6g %14.6g  %s" % (name, median, q1, q3, unit))
    print("%-22s %14.6g  (%d wrong of %d reference results)" % (
        "wrong_result_frac", failed / attempted, failed, attempted))
    return metrics, attempted, failed


def traced(args, spec, layers):
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / ("%s-%d.json" % (args.workload, args.seed))
    seed = input_seeds(args.seed)[0]
    out = child(args.workload, seed, "trace", args.scale,
                ["--trace-out=" + str(trace_file)])
    _, attempted, failed = check_outcomes(args.workload, [seed], args.scale)
    if out is None or not out.get("ok"):
        failed = attempted
    measured = out["metrics"] if out else {}
    metrics = {}
    print("workload %s  seed %d (input %d)  traced run; spans in %s" % (
        args.workload, args.seed, seed, trace_file.relative_to(ROOT)))
    print("%-30s %14s %-9s %-24s %-22s %s" % (
        "layer metric", "value", "unit", "moves", "exercised on", "bypass"))
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        value = measured.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        layer = layers.get(name, {})
        bypass = layer.get("bypass", [])
        mark = ""
        if args.workload in bypass:
            mark = " (bypass: predicted ~0)"
        print("%-30s %14.6g %-9s %-24s %-22s %s%s" % (
            name, value, unit, layer.get("moves", ""),
            ",".join(layer.get("on", [])), ",".join(bypass) or "-", mark))
    if out:
        work = out["work"]
        print("\nwork done          real run      replay")
        for key in work["real"]:
            print("%-18s %12d %12d" % (key, work["real"][key],
                                       work["replay"][key]))
        print("\nreal phase time %.4f s; replay layer self time %.4f s "
              "(codec pass excluded)" % (out["real_phases_s"],
                                          out["replay_accounted_s"]))
        print("\nspan                                      count      "
              "total_s       self_s")
        for name, span in sorted(out["spans"].items()):
            print("%-38s %9d %12.6f %12.6f" % (name, span["count"],
                                               span["total_s"],
                                               span["self_s"]))
    print("wrong_result_frac %.6g (%d wrong of %d reference results)" % (
        failed / attempted, failed, attempted))
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="every workload: timed, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run-length multiplier (the self-test uses "
                             "a small one)")
    args = parser.parse_args()
    if not BENCHMARK_JSON.is_file() or not LAYERS_JSON.is_file():
        fail("BENCHMARK.json or perfbench/layers.json is missing")
    spec, layers = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds <= 0 or args.scale <= 0:
        fail("--seconds and --scale must be positive")
    if args.all:
        build()
        failed = 0
        for name in names:
            args.workload = name
            for run in (timed, lambda a, s: traced(a, s, layers)):
                failed += run(args, spec)[2]
                print()
        print("all workloads: %s" % ("correct" if failed == 0 else
                                     "%d wrong results" % failed))
        return 0 if failed == 0 else 1
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(names)))
    build()
    if args.trace:
        metrics, attempted, failed = traced(args, spec, layers)
    else:
        metrics, attempted, failed = timed(args, spec)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
