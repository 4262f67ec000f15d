from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np
import pytest

from ranklens import (
    oracle,
    BimatrixGame,
    BudgetExceeded,
    SearchConfig,
    SizeMismatch,
    Subgame,
    all_subgame_equilibria,
    brute_force_min_rank,
    game_rank,
    rationalizes,
    validate_dataset,
    zero_sum_feasible,
)
from .generators import all_two_by_two_observations, col_side_ok, naive_min_rank, row_side_ok

NO_SHORTCUT = SearchConfig(zero_sum_shortcut=False)


class TestZeroSumFeasible:
    def test_examples(self, diag_dataset, nested_dataset, contradictory_dataset, crossing_strips_dataset):
        assert zero_sum_feasible(nested_dataset)
        assert zero_sum_feasible(crossing_strips_dataset)
        assert not zero_sum_feasible(diag_dataset)
        assert not zero_sum_feasible(contradictory_dataset)

    def test_empty_dataset(self):
        assert zero_sum_feasible(validate_dataset([], 2))


class TestSubgameEquilibria:
    def test_diag(self, known_rank_one_game, diag_dataset):
        table = all_subgame_equilibria(known_rank_one_game, diag_dataset)
        assert table == {
            Subgame((1, 2), (1, 2)): frozenset(diag_dataset.choices())
        }

    def test_size_mismatch(self, known_rank_one_game):
        with pytest.raises(SizeMismatch):
            all_subgame_equilibria(known_rank_one_game, validate_dataset([], 3))


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
        assert brute_force_min_rank(validate_dataset([((1, 1), (1,), (1,))], 1)) == 0
        assert brute_force_min_rank(validate_dataset([], 1), NO_SHORTCUT) == 0

    def test_budget(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        with pytest.raises(BudgetExceeded):
            brute_force_min_rank(ds)
        assert brute_force_min_rank(ds, SearchConfig(max_n=3, max_abs_payoff=1, zero_sum_shortcut=True)) == 0

    def test_positive_rank_beyond_order_two_is_refused(self):
        # Both diagonal choices on a 2x2 subgame need rank >= 1, which the
        # search can only certify exactly for n <= 2.
        ds = validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 2), (1, 2), (1, 2))], 3)
        config = SearchConfig(max_n=3, max_abs_payoff=1)
        with pytest.raises(BudgetExceeded):
            brute_force_min_rank(ds, config)
        contradictory = validate_dataset([((1, 1), (1, 2), (1,)), ((2, 1), (1, 2), (1,))], 3)
        assert brute_force_min_rank(contradictory, config) is None

    def test_box_budget_is_checked_before_allocation(self, diag_dataset, monkeypatch):
        allocated = []

        def allocate(n, max_abs):
            allocated.append(max_abs)
            return np.empty((0, n * n), dtype=np.int64)

        monkeypatch.setattr(oracle, "_enumerate_box", allocate)
        # Radius 6 at n = 2 is 13^4 = 28,561 rows, within BOX_ROW_BUDGET.
        assert brute_force_min_rank(diag_dataset, SearchConfig(max_abs_payoff=6)) is None
        for radius in (7, 20):
            with pytest.raises(BudgetExceeded):
                brute_force_min_rank(diag_dataset, SearchConfig(max_abs_payoff=radius))
        assert allocated == [6]

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
