#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. Every workload runs at --scale 0.1 (one
tenth of each simulated window) in both modes, and the test checks that:

  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, and reports no failed run (run_failure_ratio is 0);
  * --trace 0 emits every end_to_end metric of BENCHMARK.json and
    --trace 1 every per_layer metric, each with its declared unit;
  * the output digest repeats run to run. Within each run, every pass
    repeats the first pass's digests, and on fanout-wide every
    partitioned run of the crew check matches its serial twin; a
    mismatch shows as a failed run;
  * some workload's crew check really ran partitioned
    (partition.domains > 1).

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--scale", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s --trace %d exited %d:\n%s" %
                           (workload, trace, out.returncode, out.stderr[-2000:]))
    digest = next((l.split()[2] for l in lines if l.startswith("digest ")),
                  None)
    return json.loads(lines[-1]), digest


def check_result(errors, tag, result, declared):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (tag, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (tag, result["correct"], result["failed"]))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("%s: attempted=%r" % (tag, result["attempted"]))
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if sorted(metrics) != sorted(want):
        errors.append("%s: metrics differ: missing %s, extra %s" %
                      (tag, sorted(set(want) - set(metrics)),
                       sorted(set(metrics) - set(want))))
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append("%s: %s unit %r, declared %r" %
                          (tag, name, m.get("unit"), want[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (tag, name, value))
    if metrics.get("run_failure_ratio", {}).get("value", 0) != 0:
        errors.append("%s: run_failure_ratio is not 0" % tag)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    digests = {}
    crew_domains = 0
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result, digest = run(w, trace)
            check_result(errors, "%s --trace %d" % (w, trace), result,
                         declared)
            domains = result["metrics"].get("partition.domains", {})
            crew_domains = max(crew_domains, domains.get("value", 0))
            digests.setdefault(w, []).append(digest)
        _, again = run(w, 0)
        digests[w].append(again)
        if len(set(digests[w])) != 1:
            errors.append("%s: digests differ run to run: %s" %
                          (w, digests[w]))
        print("selftest: %s ok so far (%d problems)" % (w, len(errors)),
              file=sys.stderr)
    if crew_domains <= 1:
        errors.append("no workload ran the partitioned engine")
    for e in errors:
        print("selftest: FAIL " + e)
    print("selftest: %s" % ("PASS" if not errors else "FAIL"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
