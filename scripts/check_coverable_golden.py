#!/usr/bin/env python3
"""Pin the streaming engine's per-epoch coverable_backlog on the trace corpus.

Replays each trace of tests/data through
`mqa_cli --replay-trace=<trace> --stream --csv --algo=<algo> --threads=<n>`
for every (trace, algo, threads) combination below, takes the `coverable`
column of the CSV, and diffs it against the golden file.

    check_coverable_golden.py --cli build/examples/mqa_cli \
        --golden tests/data/coverable_backlog_golden.csv
    check_coverable_golden.py --cli ... --golden ... --record  # rewrite it

Exits 0 when every epoch matches, 1 on any difference.
"""

import argparse
import csv
import io
import os
import subprocess
import sys

TRACES = ("golden_small", "bursty_small")
ALGOS = ("greedy", "dc")
THREADS = (1, 4)
HEADER = ("trace", "algo", "threads", "epoch", "coverable")


def collect(cli, data_dir):
    rows = []
    for trace in TRACES:
        for algo in ALGOS:
            for threads in THREADS:
                out = subprocess.run(
                    [cli, "--replay-trace=" +
                     os.path.join(data_dir, trace + ".trace.csv"),
                     "--stream", "--csv", "--algo=" + algo,
                     "--threads=%d" % threads],
                    check=True, capture_output=True, text=True).stdout
                for rec in csv.DictReader(io.StringIO(out)):
                    rows.append((trace, algo, str(threads), rec["epoch"],
                                 rec["coverable"]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to mqa_cli")
    ap.add_argument("--golden", required=True, help="golden CSV file")
    ap.add_argument("--record", action="store_true",
                    help="write the golden file instead of checking it")
    args = ap.parse_args()

    data_dir = os.path.dirname(os.path.abspath(args.golden))
    rows = collect(args.cli, data_dir)
    if args.record:
        with open(args.golden, "w", newline="") as f:
            f.write("# Per-epoch coverable_backlog of mqa_cli --replay-trace="
                    "tests/data/<trace>.trace.csv --stream --csv "
                    "--algo=<algo> --threads=<threads>.\n"
                    "# Regenerate with scripts/check_coverable_golden.py "
                    "--record.\n")
            w = csv.writer(f, lineterminator="\n")
            w.writerow(HEADER)
            w.writerows(rows)
        print("wrote %d rows to %s" % (len(rows), args.golden))
        return 0

    with open(args.golden, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    reader = csv.reader(lines)
    if tuple(next(reader)) != HEADER:
        print("FAIL: unexpected golden header", file=sys.stderr)
        return 1
    golden = [tuple(r) for r in reader]
    if rows == golden:
        print("ok: %d epochs match" % len(rows))
        return 0
    if len(rows) != len(golden):
        print("FAIL: %d epochs, golden has %d" % (len(rows), len(golden)),
              file=sys.stderr)
    for got, want in zip(rows, golden):
        if got != want:
            print("FAIL: got %s, golden %s" % (",".join(got), ",".join(want)),
                  file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
