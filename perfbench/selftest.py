#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny length.

    python3 perfbench/selftest.py

For each workload it checks that
  1. run.py prints every end-to-end metric (--trace 0) and every
     per-layer metric (--trace 1) exactly once, with its unit, in the
     table and in the final JSON line;
  2. the output check passes (wrong_result_frac is 0);
  3. the layer replay did the work the real run reported: the same
     tuples, segments, encoded bytes and cleanup results, and messages
     and spill events within a small tolerance (the replay re-enacts the
     data plane, not every control message).
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = ROOT / ".bench_build" / "perfbench" / "dcape_perfbench"
SCALE = 0.2
SEED = 3

EXACT = ("tuples", "segments_written", "encoded_bytes", "cleanup_results")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate keys: %s" % keys)
    return dict(pairs)


def run_py(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return proc.returncode, lines[:-1], result


def check_metrics(errors, tag, spec_metrics, table, result):
    metrics = result["metrics"]
    names = [m["name"] for m in spec_metrics]
    if sorted(metrics) != sorted(names):
        errors.append("%s: metrics %s, want %s" % (tag, sorted(metrics),
                                                   sorted(names)))
    for m in spec_metrics:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, want %r" % (
                tag, m["name"], got.get("unit"), m["unit"]))
        rows = [line for line in table if line.split()[:1] == [m["name"]]]
        if len(rows) != 1 or m["unit"] not in rows[0].split():
            errors.append("%s: %s appears in %d table rows with its unit" % (
                tag, m["name"], len(rows)))
    if not result["correct"] or result["failed"] != 0:
        errors.append("%s: output check failed: %s" % (tag, result))


def check_replay(errors, workload):
    proc = subprocess.run(
        [str(BINARY), "--workload=" + workload, "--seed=%d" % SEED,
         "--mode=trace", "--scale=%r" % SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        errors.append("%s: trace mode exited %d" % (workload,
                                                    proc.returncode))
        return
    work = json.loads(proc.stdout.strip().splitlines()[-1])["work"]
    real, replay = work["real"], work["replay"]
    for key in EXACT:
        if real[key] != replay[key]:
            errors.append("%s: replay %s %d != real %d" % (
                workload, key, replay[key], real[key]))
    if abs(replay["messages"] - real["messages"]) > 0.01 * real["messages"]:
        errors.append("%s: replay messages %d vs real %d" % (
            workload, replay["messages"], real["messages"]))
    if abs(replay["spill_events"] - real["spill_events"]) > max(
            2, 0.1 * real["spill_events"]):
        errors.append("%s: replay spill events %d vs real %d" % (
            workload, replay["spill_events"], real["spill_events"]))
    print("%s replay work: %s" % (workload, json.dumps(work)))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, table, result = run_py(name, trace)
            tag = "%s --trace %d" % (name, trace)
            if code != 0:
                errors.append("%s: exit code %d" % (tag, code))
            check_metrics(errors, tag, spec[key], table, result)
        check_replay(errors, name)
    for error in errors:
        print("FAIL " + error)
    print("selftest: %s" % ("ok" if not errors else
                            "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
