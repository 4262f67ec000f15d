import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from ranklens import (
    CycleWitness,
    DataSet,
    NotLaminar,
    NotRationalizable,
    RanklensError,
    StrategyProfile,
    SubgameNotFull,
    UniquenessViolated,
    analyze,
    dataset_from_text,
    dataset_to_text,
    full_subgame,
    game_rank,
    is_rationalizable,
    rationalize_auto,
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
)
from ranklens.graphs import _edge_ids
from ranklens.structure import _classes
from .generators import (
    distinct_choices,
    is_zero_sum,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    reference_corpus,
    two_by_two_sweep,
    vertex_id,
)


def P(r, c):
    return StrategyProfile(r, c)


def F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# A row cycle spread across two crossing subgames; uniqueness holds because
# neither subgame contains the other.
CONTRADICTORY_CROSSING = [
    ((1, 1), (1, 2), (1, 2)),
    ((2, 1), (1, 2), (1, 3)),
]


class TestRankOne:
    def test_diagonal_choices(self, diag_dataset, known_rank_one_game):
        cert = rationalize_rank_one(diag_dataset)
        assert cert.game == known_rank_one_game
        assert cert.method == "rank_one"
        assert cert.rank == 1
        assert cert.rank_bound == 1
        assert cert.uniqueness_guarantee

    def test_antidiagonal_choices(self):
        ds = validate_dataset([((1, 2), (1, 2), (1, 2)), ((2, 1), (1, 2), (1, 2))], 2)
        cert = rationalize_rank_one(ds)
        assert cert.game.a == F([[7, 2], [8, 1]])
        assert cert.game.b == F([[1, 2], [8, 7]])
        assert cert.rank == 1

    def test_equilibria_are_exactly_the_choices(self):
        rng = Random(43)
        for _ in range(25):
            n = rng.randint(1, 6)
            rows = rng.sample(range(1, n + 1), rng.randint(0, n))
            cols = rng.sample(range(1, n + 1), len(rows))
            ds = validate_dataset(
                [((r, c), tuple(range(1, n + 1)), tuple(range(1, n + 1))) for r, c in zip(rows, cols)],
                n,
            )
            cert = rationalize_rank_one(ds)
            if n == 1 and not ds.observations:
                # a 1x1 game has no deviations, so its only profile is a
                # strict equilibrium no matter the payoffs
                assert strict_equilibria(cert.game, full_subgame(1)) == {P(1, 1)}
            else:
                assert strict_equilibria(cert.game, full_subgame(n)) == distinct_choices(ds)
            assert game_rank(cert.game) == 1

    def test_empty_dataset(self):
        ds = validate_dataset([], 2)
        cert = rationalize_rank_one(ds)
        assert strict_equilibria(cert.game, full_subgame(2)) == frozenset()
        assert cert.rank == 1

    def test_requires_full_subgames(self, nested_dataset):
        with pytest.raises(SubgameNotFull):
            rationalize_rank_one(nested_dataset)

    def test_shared_row_is_not_rationalizable(self):
        ds = validate_dataset([((1, 1), (1, 2), (1, 2)), ((1, 2), (1, 2), (1, 2))], 2)
        with pytest.raises(NotRationalizable) as exc:
            rationalize_rank_one(ds)
        assert exc.value.witness == CycleWitness("column", (P(1, 1), P(1, 2)))

    def test_shared_column_is_not_rationalizable(self):
        ds = validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 1), (1, 2), (1, 2))], 2)
        with pytest.raises(NotRationalizable) as exc:
            rationalize_rank_one(ds)
        assert exc.value.witness == CycleWitness("row", (P(1, 1), P(2, 1)))


class TestZeroSum:
    def test_nested(self, nested_dataset):
        cert = rationalize_zero_sum(nested_dataset)
        assert cert.method == "zero_sum"
        assert cert.rank == 0
        assert cert.rank_bound == 0
        assert cert.uniqueness_guarantee
        assert cert.game.a == F([[2, 3], [1, 1]])
        assert is_zero_sum(cert.game)

    def test_duplicate_nested_choice_is_deduped(self):
        ds = validate_dataset([((2, 2), (1, 2), (1, 2)), ((2, 2), (2,), (2,))], 2)
        cert = rationalize_zero_sum(ds)
        assert len(ds.observations) == 2
        assert rationalizes(cert.game, ds).ok

    def test_preconditions(self, diag_dataset, crossing_strips_dataset):
        with pytest.raises(NotLaminar):
            rationalize_zero_sum(crossing_strips_dataset)
        with pytest.raises(UniquenessViolated):
            rationalize_zero_sum(diag_dataset)

    def test_a_cyclic_strong_graph_is_an_internal_error(self, nested_dataset, monkeypatch):
        # Laminar uniqueness data make the strong graph acyclic (see
        # test_strong_graph_is_acyclic_on_laminar_uniqueness_data); were it
        # not, the route would stop and name the cycle.
        monkeypatch.setattr("ranklens.rationalize._strong_edge_ids", lambda dataset, rows, cols: [(0, 9), (9, 0)])
        with pytest.raises(AssertionError) as raised:
            rationalize_zero_sum(nested_dataset)
        assert str(raised.value) == (
            "internal error: zero_sum's strong graph has cycle "
            "(SplitVertex(row=1, col=1, tag=''), SplitVertex(row=2, col=2, tag=''))"
        )

    def test_random_datasets(self):
        rng = Random(47)
        for _ in range(30):
            ds = random_laminar_unique_dataset(rng, rng.randint(1, 7))
            cert = rationalize_zero_sum(ds)
            assert cert.rank == 0
            assert rationalizes(cert.game, ds).ok
            for obs in ds.observations:
                assert strict_equilibria(cert.game, obs.subgame) == {obs.choice}


class TestBoundedRank:
    def test_crossing_strips(self, crossing_strips_dataset):
        cert = rationalize_bounded_rank(crossing_strips_dataset)
        assert cert.method == "bounded_rank"
        assert cert.game.a == F([[1, 1], [2, 2]])
        assert cert.game.b == F([[-1, -1], [-2, -1]])
        assert cert.rank == 1
        assert cert.rank_bound == 1
        assert not cert.uniqueness_guarantee

    def test_contradictory_crossing(self):
        ds = validate_dataset(CONTRADICTORY_CROSSING, 3)
        with pytest.raises(NotRationalizable) as exc:
            rationalize_bounded_rank(ds)
        witness = exc.value.witness
        assert witness.player == "row"
        assert set(witness.cycle) == {P(1, 1), P(2, 1)}

    def test_uniqueness_required(self, diag_dataset):
        with pytest.raises(UniquenessViolated):
            rationalize_bounded_rank(diag_dataset)

    def test_random_datasets(self):
        rng = Random(53)
        for _ in range(40):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 7))
            if not is_rationalizable(ds):
                with pytest.raises(NotRationalizable):
                    rationalize_bounded_rank(ds)
                continue
            cert = rationalize_bounded_rank(ds)
            assert rationalizes(cert.game, ds).ok
            assert cert.rank <= cert.rank_bound


class TestGeneral:
    def test_diagonal(self, diag_dataset):
        cert = rationalize_general(diag_dataset)
        assert cert.method == "general"
        assert cert.rank_bound is None
        assert cert.game.a == F([[2, 1], [1, 2]])
        assert cert.game.b == F([[-1, -2], [-2, -1]])

    def test_contradictory(self, contradictory_dataset):
        with pytest.raises(NotRationalizable) as exc:
            rationalize_general(contradictory_dataset)
        witness = exc.value.witness
        assert witness.player == "row"
        assert set(witness.cycle) == {P(1, 1), P(2, 1)}
        assert "A[" in str(exc.value)

    def test_two_regular(self):
        ds = two_regular_dataset(sylvester_hadamard(1))
        cert = rationalize_general(ds)
        assert cert.rank == 2
        assert rationalizes(cert.game, ds).ok


class TestDecision:
    def test_contradictory_witness_inequalities(self, contradictory_dataset):
        result = is_rationalizable(contradictory_dataset)
        assert not result
        ineqs = result.witness.inequalities()
        assert set(ineqs) == {"A[1,1] > A[2,1]", "A[2,1] > A[1,1]"}

    def test_column_witness(self):
        ds = validate_dataset(
            [((1, 1), (1,), (1, 2)), ((1, 2), (1, 2), (1, 2)), ((2, 1), (1, 2), (1, 2))], 2
        )
        result = is_rationalizable(ds)
        assert not result
        assert result.witness.player == "column"
        assert set(result.witness.cycle) == {P(1, 1), P(1, 2)}
        assert set(result.witness.inequalities()) == {
            "B[1,1] > B[1,2]",
            "B[1,2] > B[1,1]",
        }

    def test_crossing_contradiction_passes_uniqueness(self):
        from ranklens import satisfies_uniqueness

        ds = validate_dataset(CONTRADICTORY_CROSSING, 3)
        assert satisfies_uniqueness(ds).ok
        assert not is_rationalizable(ds)

    def test_removing_observations_preserves_rationalizability(self):
        rng = Random(59)
        for _ in range(30):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 6))
            if not is_rationalizable(ds) or not ds.observations:
                continue
            drop = rng.randrange(len(ds.observations))
            smaller = validate_dataset(
                [
                    ((o.choice.row, o.choice.col), o.subgame.rows, o.subgame.cols)
                    for k, o in enumerate(ds.observations)
                    if k != drop
                ],
                ds.n,
            )
            assert is_rationalizable(smaller)


class TestAuto:
    def test_dispatch(self, diag_dataset, nested_dataset, crossing_strips_dataset):
        assert rationalize_auto(diag_dataset).method == "rank_one"
        assert rationalize_auto(nested_dataset).method == "zero_sum"
        assert rationalize_auto(crossing_strips_dataset).method == "bounded_rank"
        two_regular = two_regular_dataset(sylvester_hadamard(1))
        assert rationalize_auto(two_regular).method == "general"

    def test_empty_dataset_counts_as_full(self):
        assert rationalize_auto(validate_dataset([], 3)).method == "rank_one"

    def test_every_certificate_verifies(self):
        rng = Random(61)
        for _ in range(30):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 6))
            if not is_rationalizable(ds):
                continue
            cert = rationalize_auto(ds)
            assert rationalizes(cert.game, ds).ok
            if cert.rank_bound is not None:
                assert cert.rank <= cert.rank_bound


@pytest.fixture
def classification_calls(monkeypatch):
    """Counts calls of the pairwise classifiers, through every ranklens
    namespace that holds a reference to them."""
    import ranklens.structure as structure

    calls = Counter()
    for name in ("satisfies_uniqueness", "crossing_set"):
        original = getattr(structure, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "ranklens" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def property_corpus():
    """The 697-dataset 2x2 sweep plus seeded random uniqueness datasets."""
    rng = Random(67)
    return two_by_two_sweep() + [random_uniqueness_dataset(rng, rng.randint(2, 7)) for _ in range(150)]


class TestProperties:
    def test_auto_rejects_exactly_the_unrationalizable(self):
        for ds in property_corpus():
            rationalizable = is_rationalizable(ds).rationalizable
            try:
                rationalize_auto(ds)
            except NotRationalizable:
                assert not rationalizable, ds
            else:
                assert rationalizable, ds

    def test_rank_within_crossing_span_on_uniqueness_data(self):
        checked = 0
        for ds in property_corpus():
            report = analyze(ds)
            if not report.uniqueness or not is_rationalizable(ds):
                continue
            assert rationalize_bounded_rank(ds).rank <= report.crossing_span, ds
            cert = rationalize_auto(ds)
            # Full-subgame data goes to rank_one, whose rank is 1 at span 0.
            assert cert.rank <= report.crossing_span or cert.method == "rank_one", ds
            checked += 1
        assert checked > 100

    def test_bounded_rank_witness_is_one_players_cycle(self):
        """A bounded-rank refusal names a cycle of one player's strict
        preferences: each step is an edge of that player's part of the
        plain revealed-preference graph, so the data implies each of its
        inequalities."""
        refused = 0
        for ds in property_corpus():
            if not analyze(ds).uniqueness:
                continue
            try:
                rationalize_bounded_rank(ds)
            except NotRationalizable as exc:
                witness = exc.witness
                rows, cols = _edge_ids(ds.n, ds.observations)
                edges = rows if witness.player == "row" else cols
                cycle = witness.cycle
                for step, profile in enumerate(cycle):
                    nxt = cycle[(step + 1) % len(cycle)]
                    assert (vertex_id(ds.n, *profile), vertex_id(ds.n, *nxt)) in edges, (ds, witness)
                refused += 1
        assert refused >= 10

    def test_each_call_classifies_once(
        self, classification_calls, diag_dataset, nested_dataset, crossing_strips_dataset
    ):
        two_regular = two_regular_dataset(sylvester_hadamard(1))
        calls = [
            (rationalize_auto, diag_dataset, "rank_one"),
            (rationalize_auto, nested_dataset, "zero_sum"),
            (rationalize_auto, crossing_strips_dataset, "bounded_rank"),
            (rationalize_auto, two_regular, "general"),
            (rationalize_zero_sum, nested_dataset, "zero_sum"),
            (rationalize_bounded_rank, crossing_strips_dataset, "bounded_rank"),
        ]
        for route, ds, method in calls:
            classification_calls.clear()
            assert route(ds).method == method
            assert classification_calls["satisfies_uniqueness"] <= 1, (route.__name__, method)
            assert classification_calls["crossing_set"] <= 1, (route.__name__, method)
            # The dataset keeps its classification: asking again classifies nothing.
            classification_calls.clear()
            assert route(ds).method == method
            assert not classification_calls, (route.__name__, method)

    def test_a_fresh_dataset_classifies_once_in_auto(self, classification_calls):
        ds = uniqueness_variant(two_regular_dataset(sylvester_hadamard(2)))
        assert rationalize_auto(ds).method == "bounded_rank"
        assert classification_calls == {"satisfies_uniqueness": 1, "crossing_set": 1}

    def test_a_laminar_dataset_is_classified_once_in_auto(self, monkeypatch):
        """The zero-sum route takes its row and column classes from the
        dataset's own classification: one rationalize_auto call makes one
        classification and no second DataSet."""
        import ranklens.model as model
        import ranklens.structure as structure

        made = Counter()
        init, post_init, checked = structure._Classification.__init__, DataSet.__post_init__, model._checked_dataset

        def counted(name, original):
            def call(*args):
                made[name] += 1
                return original(*args)
            return call

        rng = Random(83)
        for n in (24, 96):
            drawn = random_laminar_unique_dataset(rng, n)
            while drawn.subgames() == (full_subgame(n),):
                drawn = random_laminar_unique_dataset(rng, n)
            ds = dataset_from_text(dataset_to_text(drawn))
            monkeypatch.setattr(structure._Classification, "__init__", counted("classification", init))
            monkeypatch.setattr(DataSet, "__post_init__", counted("dataset", post_init))
            monkeypatch.setattr(model, "_checked_dataset", counted("dataset", checked))
            cert = rationalize_auto(ds)
            monkeypatch.undo()
            assert cert.method == "zero_sum"
            assert made == {"classification": 1}
            made.clear()
            # The route did price a quotient: some class repeats.
            rows, cols = _classes(ds)
            assert max(rows) + 1 < n and max(cols) + 1 < n

    def test_routes_answer_alike_on_warmed_and_fresh_datasets(self):
        routes = (rationalize_auto, rationalize_zero_sum, rationalize_bounded_rank, rationalize_general,
                  rationalize_rank_one, is_rationalizable)

        def answer(route, ds):
            try:
                return route(ds)
            except RanklensError as exc:
                return type(exc), str(exc), getattr(exc, "witness", None)

        checked = 0
        for ds in reference_corpus():
            text = dataset_to_text(ds)
            warmed = dataset_from_text(text)
            analyze(warmed)
            first = [answer(route, warmed) for route in routes]
            assert [answer(route, warmed) for route in routes] == first
            assert [answer(route, dataset_from_text(text)) for route in routes] == first
            checked += 1
        assert checked == 957
