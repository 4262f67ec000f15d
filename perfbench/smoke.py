#!/usr/bin/env python3
"""Smoke check of the benchmark, in a few seconds.

Runs every workload path, traced and untraced, at the smallest sizes (the
k=1 Hadamard variants, one n=8 laminar dataset, 20 sweep datasets) with
every output check, confirms that each run reports exactly the metrics
BENCHMARK.json names, and confirms that the checks catch a wrong output.
Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Bench, import_package, run_workload
from workloads import WORKLOADS


def main() -> int:
    lib, _ = import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {metric["name"] for metric in spec["end_to_end"]},
        True: {metric["name"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            # A near-zero budget runs the round once (once untraced and once traced with --trace 1).
            record = run_workload(lib, workload, seed=1, seconds=0.01, trace=trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            if not record["correct"] or record["failed"]:
                problems.append(f"{label}: {record['failed']} of {record['attempted']} failed")
            names = set(record["metrics"])
            if names != wanted[trace]:
                problems.append(f"{label}: metrics missing {sorted(wanted[trace] - names)}, "
                                f"unexpected {sorted(names - wanted[trace])}")

    # A wrong sign matrix must fail the block-difference check, and a CLI
    # document one byte off must fail the byte comparison.
    print("tampered outputs: the two FAILED lines that follow are expected", file=sys.stderr)
    bench = Bench(lib, "hadamard-unique", 1, 1, trace=False, smoke=True)
    try:
        case = bench.setup()[0]
        case.sign = lib.SignMatrix(tuple(tuple(-x for x in row) for row in case.sign.entries))
        if bench.run_library(case) is not None:
            problems.append("negated sign matrix passed the block-difference check")
    finally:
        bench.close()
    bench = Bench(lib, "tiny-sweep", 1, 1, trace=False, smoke=True)
    try:
        case = bench.setup()[0]
        if bench.run_library(case) is None:
            problems.append("tiny-sweep case failed before tampering")
        code, text = case.expected["analyze"]
        case.expected["analyze"] = (code, text + " ")
        if bench.run_pipeline(case) is not None:
            problems.append("a CLI document one byte off passed the comparison")
    finally:
        bench.close()

    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
