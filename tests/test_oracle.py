import sys
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from ranklens import (
    oracle,
    BimatrixGame,
    BudgetExceeded,
    SearchConfig,
    brute_force_min_rank,
    game_rank,
    rationalizes,
    validate_dataset,
    zero_sum_feasible,
)
from .generators import all_two_by_two_observations, col_side_ok, naive_min_rank, row_side_ok, two_by_two_sweep

NO_SHORTCUT = SearchConfig(zero_sum_shortcut=False)


class TestZeroSumFeasible:
    def test_examples(self, diag_dataset, nested_dataset, contradictory_dataset, crossing_strips_dataset):
        assert zero_sum_feasible(nested_dataset)
        assert zero_sum_feasible(crossing_strips_dataset)
        assert not zero_sum_feasible(diag_dataset)
        assert not zero_sum_feasible(contradictory_dataset)

    def test_empty_dataset(self):
        assert zero_sum_feasible(validate_dataset([], 2))


class TestBruteForce:
    def test_diag_needs_rank_one(self, diag_dataset):
        assert brute_force_min_rank(diag_dataset) == 1
        assert brute_force_min_rank(diag_dataset, NO_SHORTCUT) == 1

    def test_contradictory_is_infeasible(self, contradictory_dataset):
        assert brute_force_min_rank(contradictory_dataset) is None
        assert brute_force_min_rank(contradictory_dataset, NO_SHORTCUT) is None

    def test_single_observation_admits_zero_sum(self):
        ds = validate_dataset([((1, 1), (1, 2), (1, 2))], 2)
        assert brute_force_min_rank(ds) == 0
        assert brute_force_min_rank(ds, NO_SHORTCUT) == 0
        exhibit = BimatrixGame.from_rows([[1, 2], [0, 3]], [[-1, -2], [0, -3]])
        assert rationalizes(exhibit, ds).ok
        assert game_rank(exhibit) == 0

    def test_crossing_strips(self, crossing_strips_dataset):
        assert brute_force_min_rank(crossing_strips_dataset) == 0
        assert brute_force_min_rank(crossing_strips_dataset, NO_SHORTCUT) == 0

    def test_order_one(self):
        # A 1x1 subgame has no deviation, so B = -A rationalizes at every radius.
        for radius in range(7):
            for shortcut in (True, False):
                config = SearchConfig(max_abs_payoff=radius, zero_sum_shortcut=shortcut)
                assert brute_force_min_rank(validate_dataset([((1, 1), (1,), (1,))], 1), config) == 0
                assert brute_force_min_rank(validate_dataset([], 1), config) == 0

    def test_budget(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        with pytest.raises(BudgetExceeded):
            brute_force_min_rank(ds)
        assert brute_force_min_rank(ds, SearchConfig(max_n=3, max_abs_payoff=1, zero_sum_shortcut=True)) == 0

    def test_positive_rank_beyond_order_two_is_refused(self):
        # Both diagonal choices on a 2x2 subgame need rank >= 1, which the
        # search can only certify exactly for n <= 2.
        ds = validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 2), (1, 2), (1, 2))], 3)
        for shortcut in (True, False):
            config = SearchConfig(max_n=3, max_abs_payoff=1, zero_sum_shortcut=shortcut)
            with pytest.raises(BudgetExceeded, match="positive minimum rank for n <= 2 only"):
                brute_force_min_rank(ds, config)
        contradictory = validate_dataset([((1, 1), (1, 2), (1,)), ((2, 1), (1, 2), (1,))], 3)
        assert brute_force_min_rank(contradictory, config) is None

    def test_order_three_answers(self):
        full = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        exhaustive = SearchConfig(max_n=3, max_abs_payoff=1, zero_sum_shortcut=False)
        assert brute_force_min_rank(full, exhaustive) == 0
        # A cycle through rows 1 -> 2 -> 3 -> 1 of column 1.
        cycle = validate_dataset([((1, 1), (1, 2), (1,)), ((2, 1), (2, 3), (1,)), ((3, 1), (1, 3), (1,))], 3)
        assert brute_force_min_rank(cycle, exhaustive) is None
        with pytest.raises(BudgetExceeded, match="^n=3 exceeds max_n=2 \\(search space 7\\^18\\)$"):
            brute_force_min_rank(full, SearchConfig(zero_sum_shortcut=False))
        refusal = "^max_abs_payoff=2 at n=3 needs 1953125 box rows, over the budget 32768$"
        with pytest.raises(BudgetExceeded, match=refusal):
            brute_force_min_rank(full, SearchConfig(max_n=3, max_abs_payoff=2, zero_sum_shortcut=False))

    def test_search_space_of_large_orders_is_a_power(self):
        # (2M+1)^(2n^2) at n = 64 has 6,921 digits, more than str() prints by default.
        with pytest.raises(BudgetExceeded, match="^n=64 exceeds max_n=2 \\(search space 7\\^8192\\)$"):
            brute_force_min_rank(validate_dataset([], 64))

    def test_unprintable_box_is_refused_with_a_bound(self, diag_dataset):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no integer digit limit")
        radius = 10 ** (limit // 4 + 1)  # printable, but (2 * radius + 1)^4 is not
        bound = ((2 * radius + 1) ** 4).bit_length() - 1
        with pytest.raises(BudgetExceeded) as refused:
            brute_force_min_rank(diag_dataset, SearchConfig(max_abs_payoff=radius))
        assert str(refused.value) == (
            f"max_abs_payoff={radius} at n=2 needs at least 2^{bound} box rows, over the budget 32768"
        )

    def test_box_budget_is_checked_before_allocation(self, diag_dataset, monkeypatch):
        enumerated = []

        def enumerate_lines(n, max_abs, orders):
            enumerated.append(max_abs)
            return [frozenset() for _ in orders]

        monkeypatch.setattr(oracle, "_feasible_lines", enumerate_lines)
        # Radius 6 at n = 2 is 13^4 = 28,561 rows, within BOX_ROW_BUDGET.
        assert brute_force_min_rank(diag_dataset, SearchConfig(max_abs_payoff=6)) is None
        for radius in (7, 20):
            with pytest.raises(BudgetExceeded):
                brute_force_min_rank(diag_dataset, SearchConfig(max_abs_payoff=radius))
        assert enumerated == [6]

    def test_rank_two_only_when_no_sum_is_singular(self, monkeypatch):
        # No 2x2 dataset reaches answer 2 (every nonempty box holds a game
        # of rank <= 1), so the combination step runs on chosen lines. A = I,
        # and B's row sets G_1, G_2 decide whether some A + B is singular.
        def set_lines(g1, g2):
            rows = [frozenset(g1), frozenset(g2)]
            minus = [frozenset((-u, -v) for u, v in row) for row in rows]
            identity = [frozenset({(1, 0)}), frozenset({(0, 1)})]
            monkeypatch.setattr(oracle, "_feasible_lines", lambda n, max_abs, orders: identity + rows + minus)

        empty = validate_dataset([], 2)
        for g1, g2, rank in [
            ({(0, 0)}, {(0, 0)}, 2),  # A + B = I
            ({(0, 0), (-1, 0)}, {(0, 0)}, 1),  # a zero first row
            ({(1, 1)}, {(-2, -2)}, 1),  # rows (2, 1) and (-2, -1)
            ({(1, 1)}, {(4, 1)}, 1),  # rows (2, 1) and (4, 2)
            ({(1, 1)}, {(-2, -1)}, 2),  # rows (2, 1) and (-2, 0)
        ]:
            set_lines(g1, g2)
            assert brute_force_min_rank(empty, NO_SHORTCUT) == rank

    def test_negative_radius_is_refused(self):
        with pytest.raises(BudgetExceeded):
            SearchConfig(max_abs_payoff=-1)

    def test_matches_naive_reference_at_radius_one(self):
        pool = all_two_by_two_observations()
        config = SearchConfig(max_abs_payoff=1, zero_sum_shortcut=False)
        datasets = [validate_dataset([], 2)]
        datasets += [validate_dataset([obs], 2) for obs in pool]
        datasets += [validate_dataset(list(pair), 2) for pair in combinations(pool, 2)]
        for ds in datasets:
            assert brute_force_min_rank(ds, config) == naive_min_rank(ds, 1)

    def test_matches_naive_reference_at_radius_two(self, diag_dataset, crossing_strips_dataset):
        config = SearchConfig(max_abs_payoff=2, zero_sum_shortcut=False)
        for ds in (diag_dataset, crossing_strips_dataset):
            assert brute_force_min_rank(ds, config) == naive_min_rank(ds, 2)

    def test_radius_three_agrees_with_radius_four(
        self, diag_dataset, contradictory_dataset, crossing_strips_dataset
    ):
        for ds in (diag_dataset, contradictory_dataset, crossing_strips_dataset):
            at3 = brute_force_min_rank(ds, SearchConfig(max_abs_payoff=3, zero_sum_shortcut=False))
            at4 = brute_force_min_rank(ds, SearchConfig(max_abs_payoff=4, zero_sum_shortcut=False))
            assert at3 == at4


class TestFactorization:
    def test_rationalizes_splits_by_player(self):
        rng = Random(73)
        pool = all_two_by_two_observations()
        for _ in range(200):
            ds = validate_dataset(rng.sample(pool, rng.randint(0, 3)), 2)
            a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            game = BimatrixGame.from_rows(a, b)
            flat_a = [x for row in a for x in row]
            flat_b = [x for row in b for x in row]
            expected = row_side_ok(flat_a, ds) and col_side_ok(flat_b, ds)
            assert rationalizes(game, ds).ok == expected


class TestRecordedAnswers:
    """The factorized search gives the answers the full-box enumeration
    gave on the 697-dataset sweep (tests/oracle_sweep.txt)."""

    def test_sweep(self):
        sweep = two_by_two_sweep()
        table = Path(__file__).with_name("oracle_sweep.txt").read_text().splitlines()
        rows = [line.split() for line in table if not line.startswith("#")]
        assert [(radius, shortcut) for radius, shortcut, _ in rows] == [
            (str(radius), shortcut) for radius in (0, 1, 2, 3, 6) for shortcut in ("on", "off")
        ]
        for radius, shortcut, recorded in rows:
            config = SearchConfig(max_abs_payoff=int(radius), zero_sum_shortcut=shortcut == "on")
            answers = (brute_force_min_rank(ds, config) for ds in sweep)
            assert "".join("n" if answer is None else str(answer) for answer in answers) == recorded, (radius, shortcut)
