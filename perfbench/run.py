#!/usr/bin/env python3
"""ranklens benchmark: the CLI pipeline end to end, and every layer in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hadamard-unique --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads are hadamard-unique, laminar-wide and tiny-sweep; `all` runs the
three one after the other, each in its own process. One client drives a
closed loop from a single process: every operation starts after the
previous one ends, and no two subprocesses run at once.

With --trace 0 the run pushes each dataset of the round through the
library path the CLI uses, in-process (batch_per_s), and then through
its CLI pipeline as subprocesses (pipeline_s.p50, peak_rss_mb): the
whole round once, then round again for as long as --seconds allows.
With --trace 1 the run makes in-process passes in which each dataset
runs untraced and then traced, and reports the per-layer metrics, the tracing overhead and
cli.startup_s; spans go to perfbench/results/.

Every output is checked, and each dataset has a wall-clock timeout; a
timeout counts as failed. The last line of stdout is one JSON record:
{"correct", "attempted", "failed", "metrics"}. See NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

from tracing import Tracer
from workloads import CLI_SAMPLE, WORKLOADS, CheckFailed, check_outcome, cli_steps, library_path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
CLI_CODE = "from ranklens.cli import run; run()"
DATASET_TIMEOUT_S = 25.0  # the slowest dataset today takes about 5 s
# No dataset starts later than this into a run, so that a run whose datasets
# time out still ends within 180 s: set-up, this, and one dataset's library
# path and CLI pipeline at DATASET_TIMEOUT_S each.
HARD_STOP_S = 110.0
SETUP_REPEATS = 3
STARTUP_PROBES = 7
PROBE_TEXT = '{"n":1,"observations":[{"choice":[1,1],"cols":[1],"rows":[1]}]}\n'


class DatasetTimeout(Exception):
    """A dataset ran past DATASET_TIMEOUT_S."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise DatasetTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, or None
    when that would not lie above the median."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return None
    return 100 * (index + 1) // len(ordered), ordered[index]


def weighted_median(samples: dict[str, list[float]]) -> float:
    """Median over cases, each case's samples weighing 1/count, so every
    case counts the same however often it ran; 0.0 without samples."""
    points = sorted((value, 1 / len(values)) for values in samples.values() for value in values)
    half = len(samples) / 2
    seen = 0.0
    for index, (value, weight) in enumerate(points):
        seen += weight
        if math.isclose(seen, half) and index + 1 < len(points):
            return (value + points[index + 1][0]) / 2
        if seen > half:
            return value
    return points[-1][0] if points else 0.0


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git: any child process
    would count in peak_rss_mb. "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One run of one workload."""

    def __init__(self, lib, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, import_s: float = 0.0):
        self.lib = lib
        self.import_s = import_s
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.attempted = 0
        self.failures: list[dict] = []
        self.samples: list[tuple[str, str, float]] = []  # (case, "library" or "cli", seconds)
        self.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tracer = Tracer(lib, expected=(DatasetTimeout,)) if trace else None

    @property
    def label(self) -> str:
        """Stem of this run's files under perfbench/results/."""
        return f"{'smoke-' if self.smoke else ''}{self.workload}-seed{self.seed}-trace{int(self.trace)}"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fail(self, case_id: str, phase: str, reason: str) -> None:
        self.failures.append({"case": case_id, "phase": phase, "reason": reason})
        print(f"FAILED {case_id} ({phase}): {reason}", file=sys.stderr)

    def cli(self, argv: list[str], timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", CLI_CODE, *argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=timeout,
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> list:
        """Corpus generation, input files and warm-up, up to the first timed operation."""
        cases = WORKLOADS[self.workload](self.lib, ROOT, self.seed, self.smoke)
        for case in cases:
            if case.sylvester_k is None:
                (self.workdir / f"{case.id}.json").write_text(case.text)
        probe = self.workdir / "probe.json"
        probe.write_text(PROBE_TEXT)
        library_path(self.lib, self.workload, min(cases, key=lambda case: (case.n, len(case.text))))
        self.cli(["validate", str(probe)], DATASET_TIMEOUT_S)
        return cases

    # -- timed phases --------------------------------------------------------------

    def run_round(self, cases: list, budget: float, run_case) -> None:
        """Run every case of the round once, then go on round the cases while
        each is expected to end within the budget; the first that is not
        ends the run. No case starts after the hard stop (HARD_STOP_S)."""
        start = time.perf_counter()
        hard_stop = start + max(budget, HARD_STOP_S)
        took: dict[str, float] = {}
        for index in itertools.count():
            case = cases[index % len(cases)]
            now = time.perf_counter()
            if index >= len(cases) and now - start + took[case.id] > budget:
                return
            if now > hard_stop:
                self.attempted += 1
                self.fail(case.id, "schedule", "not started: the run passed its hard stop")
                return
            run_case(case)
            took[case.id] = time.perf_counter() - now

    def whole_passes(self, cases: list, budget: float, run_case) -> int:
        """Whole passes over the round; another starts only if it is expected
        to end within the budget. Returns the number of passes."""
        start = time.perf_counter()
        hard_stop = start + max(budget, HARD_STOP_S)
        done = 0
        while True:
            for case in cases:
                if time.perf_counter() > hard_stop:
                    self.attempted += 1
                    self.fail(case.id, "schedule", "not started: the run passed its hard stop")
                    return done
                run_case(case)
            done += 1
            if (time.perf_counter() - start) * (done + 1) / done > budget:
                return done

    def run_library(self, case, traced: bool = False) -> float | None:
        """The library path on one case, then its checks; the time of the
        path alone, or None when the case failed."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_dataset(case.id)
            tracer.active = traced
        try:
            with time_limit(DATASET_TIMEOUT_S):
                start = time.perf_counter()
                outcome = library_path(self.lib, self.workload, case)
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
                check_outcome(self.lib, self.workload, case, outcome)
        except DatasetTimeout:
            self.fail(case.id, "library", "timeout")
            return None
        except CheckFailed as exc:
            self.fail(case.id, "library", str(exc))
            return None
        except Exception as exc:  # any other exception is a failed dataset, not a crashed run
            self.fail(case.id, "library", f"{type(exc).__name__}: {exc}")
            return None
        return elapsed

    def run_pipeline(self, case) -> float | None:
        """The CLI pipeline of one case; its wall time, or None when it failed."""
        self.attempted += 1
        if not case.expected:
            self.fail(case.id, "cli", "no in-process result to compare with")
            return None
        dataset_path = self.workdir / f"{case.id}.json"
        game_path = self.workdir / f"{case.id}.game.json"
        start = time.perf_counter()
        deadline = start + DATASET_TIMEOUT_S
        for command, argv in cli_steps(self.workload, case, str(dataset_path), str(game_path)):
            try:
                proc = self.cli(argv, max(deadline - time.perf_counter(), 0.001))
            except subprocess.TimeoutExpired:
                self.fail(case.id, "cli", "timeout")
                return None
            code, text = case.expected[command]
            if proc.returncode != code or proc.stdout != text.encode():
                stderr = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                self.fail(case.id, "cli", f"{command}: exit {proc.returncode} (expected {code}), "
                          f"stdout {'matches' if proc.stdout == text.encode() else 'differs'} {stderr}")
                return None
            if command == "generate":
                dataset_path.write_bytes(proc.stdout)
            elif command == "rationalize" and code == 0:
                game_path.write_bytes(proc.stdout)
        return time.perf_counter() - start

    def measure(self) -> tuple[dict, list[str]]:
        """Set up, run the phases, and return the metrics with report lines."""
        setup_times = []
        if self.tracer is not None:
            self.tracer.install()
        # One traced set-up, so hadamard.generate_s covers one corpus generation.
        for _ in range(1 if self.smoke or self.trace else SETUP_REPEATS):
            start = time.perf_counter()
            cases = self.setup()
            setup_times.append(time.perf_counter() - start)
        if self.trace:
            return self.measure_traced(cases)
        return self.measure_untraced(cases, setup_times)

    def measure_untraced(self, cases: list, setup_times: list[float]) -> tuple[dict, list[str]]:
        # Each case's CLI pipeline follows its library path, so both metrics
        # sample the whole run. A run ends part-way round the cases, so each
        # case's samples are averaged (library) or weighted 1/count
        # (pipelines) first: every case of the round counts the same.
        on_cli = {case.id for case in cases}
        if self.workload in CLI_SAMPLE:
            size = 3 if self.smoke else CLI_SAMPLE[self.workload]
            on_cli = {case.id for case in Random(self.seed).sample(cases, min(size, len(cases)))}
        library_times: dict[str, list[float]] = {}
        pipelines: dict[str, list[float]] = {}
        verified = 0

        def run_case(case):
            nonlocal verified
            elapsed = self.run_library(case)
            verified += elapsed is not None
            library_times.setdefault(case.id, []).append(DATASET_TIMEOUT_S if elapsed is None else elapsed)
            self.samples.append((case.id, "library", library_times[case.id][-1]))
            if case.id in on_cli:
                elapsed = self.run_pipeline(case)
                if elapsed is not None:
                    pipelines.setdefault(case.id, []).append(elapsed)
                    self.samples.append((case.id, "cli", elapsed))

        self.run_round(cases, self.seconds, run_case)

        setup_s = self.import_s + statistics.median(setup_times)
        round_s = sum(statistics.fmean(times) for times in library_times.values())
        batch_per_s = len(library_times) / round_s if round_s else 0.0
        p50 = weighted_median(pipelines)
        attempts = sum(len(times) for times in library_times.values())
        every_pipeline = [t for times in pipelines.values() for t in times]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = {
            "pipeline_s.p50": (p50, "s"),
            "batch_per_s": (batch_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        high = tail(every_pipeline)
        lines = [
            f"pipeline_s: p50 {p50:.4f} s, "
            + (f"p{high[0]} {high[1]:.4f} s, " if high else "no percentile above p50 with ten samples beyond it, ")
            + f"max {max(every_pipeline, default=0.0):.4f} s, n={len(every_pipeline)} CLI pipelines "
            f"of {len(pipelines)} datasets",
            f"batch_per_s: {batch_per_s:.4f} 1/s ({verified} verified of {attempts} library paths "
            f"over {len(library_times)} datasets, {sum(map(sum, library_times.values())):.3f} s in-process)",
            f"setup_s: {setup_s:.4f} s (imports {self.import_s:.4f} s + median of {len(setup_times)} set-ups)",
            f"peak_rss_mb: {peak_rss_mb:.1f} MB (largest CLI subprocess)",
        ]
        return metrics, lines

    def measure_traced(self, cases: list) -> tuple[dict, list[str]]:
        tracer = self.tracer
        tracer.uninstall()
        tracer.counts.clear()
        # Startup probes first, so the in-process passes get the rest of the budget.
        startups = []
        probe = str(self.workdir / "probe.json")
        for _ in range(1 if self.smoke else STARTUP_PROBES):
            start = time.perf_counter()
            proc = self.cli(["validate", probe], DATASET_TIMEOUT_S)
            startups.append(time.perf_counter() - start)
            self.attempted += 1
            if proc.returncode != 0 or proc.stdout != PROBE_TEXT.encode():
                tracer.errors["cli"] += 1
                self.fail("probe", "cli", f"validate exit {proc.returncode}")
        budget = max(self.seconds - sum(startups), 0.0)
        time_of = {False: 0.0, True: 0.0}
        count_of = {False: 0, True: 0}

        def library_case(case):
            # Untraced, then traced, back to back: the overhead compares the
            # same dataset at nearly the same moment of host load.
            for traced in (False, True):
                if traced:
                    tracer.install()
                else:
                    tracer.uninstall()
                elapsed = self.run_library(case, traced)
                time_of[traced] += DATASET_TIMEOUT_S if elapsed is None else elapsed
                count_of[traced] += elapsed is not None
            tracer.uninstall()

        done = self.whole_passes(cases, budget, library_case)
        traced_passes = max(done, 1)
        metrics = {name: (value, "s" if name.endswith("_s") else "count")
                   for name, value in tracer.metrics(traced_passes).items()}
        rate = {key: count_of[key] / time_of[key] if time_of[key] else 0.0 for key in time_of}
        overhead = 1 - rate[True] / rate[False] if rate[False] else 0.0
        metrics["cli.startup_s"] = (statistics.median(startups), "s")
        metrics["cli.errors"] = (tracer.errors["cli"], "count")
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        spans_path = RESULTS / f"{self.label}-spans.jsonl.gz"
        tracer.write_spans(spans_path)
        lines = [
            f"cli.startup_s: {metrics['cli.startup_s'][0]:.4f} s (median of {len(startups)} validate probes)",
            f"batch_per_s untraced {rate[False]:.4f} 1/s, traced {rate[True]:.4f} 1/s, "
            f"trace.overhead_ratio {overhead:.4f} ({traced_passes} traced passes)",
            f"spans: {sum(s is not None for s in tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        ]
        return metrics, lines


def run_workload(lib, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, import_s: float = 0.0) -> dict:
    """One run; prints the report and returns the result record."""
    RESULTS.mkdir(exist_ok=True)
    bench = Bench(lib, workload, seed, seconds, trace, smoke, import_s)
    try:
        metrics, lines = bench.measure()
    finally:
        bench.close()
    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
    }
    print(" ".join(f"{key}={value}" for key, value in meta.items()))
    for line in lines:
        print(line)
    print(f"fail_ratio: {failed / attempted:.4f} ratio ({failed} failed of {attempted} attempted)")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = dict(meta, fail_ratio=failed / attempted, failures=bench.failures, report=lines, record=record,
                   samples=bench.samples)
    out = RESULTS / f"{bench.label}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")
    return record


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ranklens benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ranklens (and with it numpy) from the checkout's src/; returns
    the package and the seconds the import took."""
    if not (ROOT / "src" / "ranklens" / "__init__.py").is_file():
        raise SystemExit(f"error: no ranklens package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import ranklens
    import numpy  # noqa: F401  the package's one dependency; its version goes into the results

    return ranklens, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
        return status
    lib, import_s = import_package()
    record = run_workload(lib, args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
