#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (through run.py), then checks that
  * the checksum gate fires on a mismatching pair (perfbench --check-gate);
  * every workload in BENCHMARK.json prints, with --trace 0, exactly the
    end-to-end metrics and, with --trace 1, exactly the per-layer metrics,
    each with its declared unit, as a correct result with no failed epoch;
  * stream-only layers are non-zero on stream workloads and zero on batch
    ones, and the stream-only end-to-end views are printed with units;
  * an unknown workload exits non-zero without a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
STREAM_ONLY_LAYERS = ["stream.ingest_s", "stream.backlog_scan_s",
                      "stream.epochs", "stream.epoch_p90_s", "stream.wait_p99"]
STREAM_ONLY_VIEWS = ["epoch latency p90 =", "queue wait p50 =",
                     "queue wait p99 ="]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def check_result(label, lines, declared):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, label + ": last line is a JSON result")
        return {}
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          label + ": result has exactly the four keys")
    check(result.get("correct") is True, label + ": correct")
    check(result.get("failed") == 0 and result.get("attempted", 0) >= 1,
          label + ": epochs attempted, none failed")
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(declared),
          label + ": metric names match BENCHMARK.json")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        value = got.get("value")
        check(got.get("unit") == unit and isinstance(value, (int, float))
              and math.isfinite(value),
              "%s: %s is a number in %s" % (label, name, unit))
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    code, lines = run(["--check-gate"])
    check(code == 0, "checksum gate and percentile rule (--check-gate)")
    code, lines = run(["--workload", "no-such-workload", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    check(code != 0 and not any(l.startswith("{") for l in lines),
          "unknown workload exits non-zero without a result")

    for workload in (w["name"] for w in bench["workloads"]):
        stream = workload.startswith("stream-")
        common = ["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--tiny"]
        code, lines = run(common + ["--trace", "0"])
        check(code == 0, workload + " trace 0 exits 0")
        metrics = check_result(workload + " trace 0", lines, end_to_end)
        check(all(m.get("value") for m in metrics.values()),
              workload + ": end-to-end metrics are non-zero")
        for view in STREAM_ONLY_VIEWS:
            printed = any(view in l for l in lines)
            check(printed == stream, "%s: '%s' printed only on streams"
                  % (workload, view))

        code, lines = run(common + ["--trace", "1"])
        check(code == 0, workload + " trace 1 exits 0")
        metrics = check_result(workload + " trace 1", lines, per_layer)
        for name in STREAM_ONLY_LAYERS:
            value = metrics.get(name, {}).get("value")
            check((value > 0) == stream if value is not None else False,
                  "%s: %s %s" % (workload, name,
                                 "non-zero" if stream else "zero"))

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
