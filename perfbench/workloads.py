"""The three workloads: seeded corpora, the in-process library path, and
the checks on every output.

Each workload builds one *round* of datasets from its seed. A run makes
whole passes over the round, so every run of a workload measures the
same mix of sizes and its medians and rates are comparable between runs.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path
from random import Random


class CheckFailed(Exception):
    """An output of the program differs from what the check expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Case:
    """One dataset of a round, with what its CLI pipeline must print."""

    id: str
    n: int
    text: str  # canonical dataset document
    sign: object = None  # SignMatrix of a hadamard-unique case
    sylvester_k: int | None = None  # Sylvester members start from `generate`
    # CLI command -> (exit code, stdout), built in-process by the checks.
    expected: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the timed library path produced for one case."""

    dataset: object
    report: object
    decision: object
    certificate: object = None
    negative: object = None  # the NotRationalizable raised by rationalize_auto
    game: object = None
    verdict: object = None
    rank: int | None = None
    block_difference: bool | None = None
    min_rank: object = None
    zero_sum: bool | None = None


# -- corpora ------------------------------------------------------------------

def _load_generators(root: Path):
    """tests/generators.py of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("ranklens_bench_generators", root / "tests" / "generators.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hadamard_round(lib, root: Path, seed: int, smoke: bool) -> list[Case]:
    """Uniqueness variants of Sylvester and seeded random +-1 sign matrices.

    Three of the five cases are at n=32, so the round's median pipeline is
    an n=32 one, where classification does the work. They come first, so a
    run's time after the first round goes to them.
    """
    members = (("S", 1), ("R", 1)) if smoke else (("S", 4), ("R", 4), ("R", 4), ("S", 3), ("R", 3))
    rng = Random(seed)
    cases = []
    for index, (kind, k) in enumerate(members):
        order = 1 << k
        if kind == "S":
            sign = lib.sylvester_hadamard(k)
        else:
            sign = lib.SignMatrix(tuple(
                tuple(rng.choice((-1, 1)) for _ in range(order)) for _ in range(order)
            ))
        dataset = lib.uniqueness_variant(lib.two_regular_dataset(sign))
        cases.append(Case(
            id=f"{kind}{2 * order}-{index}", n=dataset.n, text=lib.dataset_to_text(dataset),
            sign=sign, sylvester_k=k if kind == "S" else None,
        ))
    return cases


def laminar_round(lib, root: Path, seed: int, smoke: bool) -> list[Case]:
    """Seeded random laminar uniqueness datasets, three at each of n = 96, 128, 192."""
    sizes = (8,) if smoke else (96, 128, 192) * 3
    generators = _load_generators(root)
    rng = Random(seed)
    cases = []
    for index, n in enumerate(sizes):
        dataset = generators.random_laminar_unique_dataset(rng, n)
        cases.append(Case(id=f"L{n}-{index}", n=n, text=lib.dataset_to_text(dataset)))
    return cases


def tiny_round(lib, root: Path, seed: int, smoke: bool) -> list[Case]:
    """All 697 datasets of at most three observations on the 2x2 game, in seeded order."""
    axis = [(1,), (2,), (1, 2)]
    pool = [((r, c), rows, cols) for rows, cols in product(axis, axis) for r, c in product(rows, cols)]
    chosen_sets = [()] + [chosen for size in (1, 2, 3) for chosen in combinations(pool, size)]
    order = list(range(len(chosen_sets)))
    Random(seed).shuffle(order)
    if smoke:
        order = order[:20]
    return [
        Case(id=f"T{index}", n=2, text=lib.dataset_to_text(lib.validate_dataset(list(chosen_sets[index]), 2)))
        for index in order
    ]


# -- the timed library path -----------------------------------------------------

def library_path(lib, workload: str, case: Case) -> Outcome:
    """Canonical text to a verified certificate, as the CLI pipeline does it."""
    dataset = lib.dataset_from_text(case.text)
    outcome = Outcome(dataset, lib.analyze(dataset), lib.is_rationalizable(dataset))
    try:
        outcome.certificate = lib.rationalize_auto(dataset)
    except lib.NotRationalizable as exc:
        outcome.negative = exc
    else:
        outcome.game = lib.game_from_text(lib.game_to_text(outcome.certificate.game))
        outcome.verdict = lib.rationalizes(outcome.game, dataset)
        outcome.rank = lib.game_rank(outcome.game)
        if workload == "hadamard-unique":
            outcome.block_difference = lib.block_difference_certificate(outcome.game, case.sign)
    if workload == "tiny-sweep":
        config = lib.SearchConfig(max_abs_payoff=3, zero_sum_shortcut=False)
        outcome.min_rank = lib.brute_force_min_rank(dataset, config)
        outcome.zero_sum = lib.zero_sum_feasible(dataset)
    return outcome


# -- checks and the expected CLI documents ----------------------------------------

def _analyze_document(report, rationalizable: bool) -> dict:
    return {
        "laminar": report.laminar,
        "uniqueness": report.uniqueness,
        "crossing_span": report.crossing_span,
        "row_span": report.row_span,
        "col_span": report.col_span,
        "rationalizable": rationalizable,
        "crossing_subgames": [{"rows": list(s.rows), "cols": list(s.cols)} for s in report.crossing_subgames],
        "crossing_choices": [[p.row, p.col] for p in report.crossing_choices],
    }


def _witness_document(witness) -> dict:
    return {
        "player": witness.player,
        "cycle": [[p.row, p.col] for p in witness.cycle],
        "inequalities": list(witness.inequalities()),
    }


def check_outcome(lib, workload: str, case: Case, out: Outcome) -> None:
    """Check one library-path outcome and record what the CLI must print."""
    check(lib.dataset_to_text(out.dataset) == case.text, "dataset text does not round-trip")
    rationalizable = out.decision.rationalizable
    check(rationalizable == (out.negative is None),
          f"is_rationalizable says {rationalizable} but rationalize_auto "
          f"{'raised NotRationalizable' if out.negative is not None else 'returned a game'}")
    expected = case.expected
    expected["analyze"] = (0, lib.canonical_json(_analyze_document(out.report, rationalizable)))
    if case.sylvester_k is not None:
        expected["generate"] = (0, case.text)
    else:
        expected["validate"] = (0, case.text)

    if out.negative is not None:
        check(out.negative.witness is not None, "negative result without a witness")
        expected["rationalize"] = (1, lib.canonical_json({
            "rationalizable": False,
            "witness": _witness_document(out.negative.witness),
            "message": str(out.negative),
        }))
    else:
        cert = out.certificate
        check(out.game == cert.game, "game document does not round-trip")
        check(out.verdict.ok, f"certificate game fails verification: {out.verdict.failures[:1]}")
        check(out.rank == cert.rank, f"game_rank {out.rank} != certificate rank {cert.rank}")
        check(cert.rank_bound is None or out.rank <= cert.rank_bound,
              f"rank {out.rank} exceeds rank_bound {cert.rank_bound}")
        document = lib.game_to_document(cert.game)
        document.update({
            "method": cert.method,
            "rank": cert.rank,
            "rank_bound": cert.rank_bound,
            "uniqueness_guarantee": cert.uniqueness_guarantee,
        })
        expected["rationalize"] = (0, lib.canonical_json(document))
        expected["verify"] = (0, lib.canonical_json({"rationalizes": True, "rank": out.rank, "failures": []}))

    if workload == "hadamard-unique":
        check(out.report.uniqueness and not out.report.laminar, "variant should be unique and crossing")
        check(out.report.crossing_span == case.n // 2,
              f"crossing span {out.report.crossing_span} != n/2 = {case.n // 2}")
        check(out.block_difference is True, "block_difference_certificate fails")
        if case.sylvester_k is not None:
            bound = lib.hadamard_minrank_bound(1 << case.sylvester_k)
            check(out.rank >= bound, f"Sylvester rank {out.rank} below hadamard_minrank_bound {bound}")
    elif workload == "laminar-wide":
        check(out.report.laminar and out.report.uniqueness, "dataset should be laminar with uniqueness")
    elif workload == "tiny-sweep":
        # The two equivalences of acceptance criterion 8.
        check((out.min_rank is not None) == rationalizable,
              f"brute force {out.min_rank} disagrees with is_rationalizable {rationalizable}")
        check((out.min_rank == 0) == out.zero_sum,
              f"brute force {out.min_rank} disagrees with zero_sum_feasible {out.zero_sum}")
        expected["minrank"] = (0, f"{out.min_rank}\n") if out.min_rank is not None else (1, "none\n")


def cli_steps(workload: str, case: Case, dataset_path: str, game_path: str) -> list[tuple[str, list[str]]]:
    """The CLI pipeline of one case: (command, argv) in order."""
    if workload == "tiny-sweep":
        return [
            ("analyze", ["analyze", dataset_path]),
            ("rationalize", ["rationalize", dataset_path, "--method", "auto"]),
            ("minrank", ["minrank", dataset_path, "--max-abs", "3"]),
        ]
    if case.sylvester_k is not None:
        first = ("generate", ["generate", "hadamard", "--k", str(case.sylvester_k), "--variant", "unique"])
    else:
        first = ("validate", ["validate", dataset_path])
    return [
        first,
        ("analyze", ["analyze", dataset_path]),
        ("rationalize", ["rationalize", dataset_path, "--method", "auto"]),
        ("verify", ["verify", game_path, dataset_path]),
    ]


WORKLOADS = {
    "hadamard-unique": hadamard_round,
    "laminar-wide": laminar_round,
    "tiny-sweep": tiny_round,
}

# Cases of the round that the CLI phase runs: all of them, except on
# tiny-sweep, where a seeded sample of the round suffices because every
# pipeline there is process start-up.
CLI_SAMPLE = {"tiny-sweep": 20}
