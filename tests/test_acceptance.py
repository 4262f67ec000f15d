"""End-to-end acceptance checks.

Each test covers one numbered criterion, records a PASS/FAIL line for the
terminal summary, and then asserts. Timing thresholds are deliberate
constants; seeds are fixed so every run sees the same corpora.
"""

import time
from random import Random

from ranklens import (
    BimatrixGame,
    SearchConfig,
    analyze,
    block_difference_certificate,
    brute_force_min_rank,
    game_rank,
    hadamard_minrank_bound,
    is_rationalizable,
    rationalize_bounded_rank,
    rationalize_general,
    rationalize_rank_one,
    rationalize_zero_sum,
    rationalizes,
    strict_equilibria,
    sylvester_hadamard,
    two_regular_dataset,
    uniqueness_variant,
    validate_dataset,
    zero_sum_feasible,
)
from ranklens.cli import main

from .conftest import ACCEPTANCE_RESULTS
from .generators import (
    random_fraction_matrix,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    rank_one_sign_realizable,
    two_by_two_sweep,
)

DIAG_TEXT = '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]},{"choice":[2,2],"cols":[1,2],"rows":[1,2]}]}\n'
RANK_ONE_CALL_BUDGET = 0.001  # seconds, best of five after warmup
HADAMARD_BUDGET = 5.0  # seconds, criteria 6 and 7
SWEEP_BUDGET = 600.0  # seconds, criterion 8
RANK_CALL_BUDGET = 1.0  # seconds per game_rank call, criterion 9


def record(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (bool(ok), detail)
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_rank_one_document_and_speed(tmp_path, capsys, diag_dataset):
    path = tmp_path / "diag.json"
    path.write_text(DIAG_TEXT)
    code = main(["rationalize", str(path), "--method", "rank1"])
    out = capsys.readouterr().out
    expected = (
        '{"A":[["2","7"],["1","8"]],"B":[["2","1"],["7","8"]],'
        '"method":"rank_one","n":2,"rank":1,"rank_bound":1,"uniqueness_guarantee":true}\n'
    )
    document_ok = code == 0 and out == expected

    for _ in range(3):
        rationalize_rank_one(diag_dataset)
    best = min(
        (lambda start: (rationalize_rank_one(diag_dataset), time.perf_counter() - start))(
            time.perf_counter()
        )[1]
        for _ in range(5)
    )
    fast = best < RANK_ONE_CALL_BUDGET
    record(
        1,
        document_ok and fast,
        f"byte-exact document {document_ok}, best call {best * 1e6:.0f}us",
    )


def test_criterion_2_contradiction_detected(contradictory_dataset):
    result = is_rationalizable(contradictory_dataset)
    witness_ok = (
        not result.rationalizable
        and result.witness.player == "row"
        and len(result.witness.cycle) == 2
        and set(result.witness.cycle) == {(1, 1), (2, 1)}
    )
    search = brute_force_min_rank(contradictory_dataset)
    record(
        2,
        witness_ok and search is None,
        f"two-cycle witness {witness_ok}, exhaustive search empty {search is None}",
    )


def test_criterion_3_diagonal_needs_rank_one(diag_dataset):
    infeasible = not zero_sum_feasible(diag_dataset)
    minimum = brute_force_min_rank(diag_dataset)
    record(
        3,
        infeasible and minimum == 1,
        f"zero-sum infeasible {infeasible}, minimum rank {minimum}",
    )


def test_criterion_4_zero_sum_route():
    rng = Random(90)
    count = 220
    checked = 0
    for idx in range(count):
        n = 1 + idx % 8
        ds = random_laminar_unique_dataset(rng, n)
        cert = rationalize_zero_sum(ds)
        assert cert.rank == 0
        assert rationalizes(cert.game, ds).ok
        for obs in ds.observations:
            assert strict_equilibria(cert.game, obs.subgame) == {obs.choice}
        checked += 1
    record(4, checked == count, f"{checked} laminar datasets, all rank 0 with unique equilibria")


def test_criterion_5_bounded_rank_route():
    rng = Random(91)
    target = 200
    checked = 0
    crossing = 0
    attempts = 0
    while checked < target and attempts < 4000:
        attempts += 1
        ds = random_uniqueness_dataset(rng, 2 + attempts % 7)
        if not is_rationalizable(ds):
            continue
        cert = rationalize_bounded_rank(ds)
        span = analyze(ds).crossing_span
        assert rationalizes(cert.game, ds).ok
        assert cert.rank <= span
        if span > 0:
            crossing += 1
        checked += 1
    record(
        5,
        checked == target,
        f"{checked} uniqueness datasets ({crossing} with crossings), rank within span",
    )


def test_criterion_6_hadamard_rank_two():
    start = time.perf_counter()
    h2 = sylvester_hadamard(1)
    two_regular = two_regular_dataset(h2)
    variant = uniqueness_variant(two_regular)

    span_ok = analyze(variant).crossing_span == 2
    cert_bounded = rationalize_bounded_rank(variant)
    cert_general = rationalize_general(two_regular)
    certificates = block_difference_certificate(
        cert_bounded.game, h2
    ) and block_difference_certificate(cert_general.game, h2)

    # No rank-1 matrix can carry the order-2 pattern, so rank 2 is optimal.
    sign_blocks_rank_one = not rank_one_sign_realizable(h2.entries)
    ranks_ok = cert_bounded.rank == 2 and cert_general.rank == 2

    h4 = sylvester_hadamard(2)
    cert_eight = rationalize_general(two_regular_dataset(h4))
    eight_ok = (
        block_difference_certificate(cert_eight.game, h4)
        and cert_eight.rank >= hadamard_minrank_bound(4)
    )
    elapsed = time.perf_counter() - start
    record(
        6,
        span_ok and certificates and sign_blocks_rank_one and ranks_ok and eight_ok and elapsed < HADAMARD_BUDGET,
        f"span {span_ok}, certificates {certificates}, rank-2 optimal {sign_blocks_rank_one and ranks_ok}, "
        f"order-8 {eight_ok}, {elapsed:.2f}s",
    )


def test_criterion_7_variant_span_scales():
    start = time.perf_counter()
    spans = {}
    for k in range(1, 7):
        variant = uniqueness_variant(two_regular_dataset(sylvester_hadamard(k)))
        spans[variant.n] = analyze(variant).crossing_span
    elapsed = time.perf_counter() - start
    ok = spans == {4: 2, 8: 4, 16: 8, 32: 16, 64: 32, 128: 64} and elapsed < HADAMARD_BUDGET
    record(7, ok, f"spans {spans}, {elapsed:.2f}s")


def test_criterion_8_exhaustive_sweep():
    start = time.perf_counter()
    config = SearchConfig(max_abs_payoff=3, zero_sum_shortcut=False)
    datasets = two_by_two_sweep()
    checked = 0
    for ds in datasets:
        minimum = brute_force_min_rank(ds, config)
        assert (minimum is not None) == is_rationalizable(ds).rationalizable
        assert (minimum == 0) == zero_sum_feasible(ds)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 697 and elapsed < SWEEP_BUDGET
    record(8, ok, f"{checked} datasets swept in {elapsed:.1f}s, both equivalences exact")


def test_criterion_9_rank_computation_scales():
    sizes = (1, 2, 4, 8, 16, 32, 64)
    slowest = 0.0
    for n in sizes:
        full = tuple(range(1, n + 1))
        ds = validate_dataset([((k, k), full, full) for k in full], n)
        cert = rationalize_rank_one(ds)
        start = time.perf_counter()
        rank = game_rank(cert.game)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert rank == 1
        assert elapsed < RANK_CALL_BUDGET

    rng = Random(92)
    zero_sum_ok = 0
    for _ in range(100):
        size = rng.randint(1, 6)
        a = random_fraction_matrix(rng, size)
        b = tuple(tuple(-x for x in row) for row in a)
        if game_rank(BimatrixGame.from_rows(a, b)) == 0:
            zero_sum_ok += 1
    record(
        9,
        zero_sum_ok == 100,
        f"rank 1 up to n=64 (slowest call {slowest * 1e3:.1f}ms), {zero_sum_ok}/100 zero-sum ranks 0",
    )
