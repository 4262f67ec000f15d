import copy
import math
import pickle
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklens import (
    BimatrixGame,
    ChoiceOutsideSubgame,
    DataSet,
    EmptySubgame,
    IndexOutOfRange,
    InvalidSize,
    Observation,
    RanklensError,
    SizeMismatch,
    StrategyProfile,
    Subgame,
    block_difference_certificate,
    full_subgame,
    game_rank,
    game_to_text,
    rational_matrix_rank,
    rationalize_auto,
    rationalize_general,
    rationalizes,
    strict_equilibria,
    sylvester_hadamard,
    two_regular_dataset,
    validate_dataset,
)
from ranklens import model

from .generators import distinct_choices, is_zero_sum, minor_rank, random_fraction_matrix, reference_corpus, sum_matrix


class TestValidation:
    def test_canonical_two_observation_dataset(self, diag_dataset):
        assert diag_dataset.n == 2
        assert len(diag_dataset.observations) == 2
        assert distinct_choices(diag_dataset) == {StrategyProfile(1, 1), StrategyProfile(2, 2)}

    def test_choice_outside_subgame(self):
        with pytest.raises(ChoiceOutsideSubgame):
            validate_dataset([((1, 2), (1,), (1,))], 1)

    def test_empty_subgame(self):
        with pytest.raises(EmptySubgame):
            validate_dataset([((1, 1), (), (1,))], 2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            validate_dataset([((3, 1), (3,), (1,))], 2)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            DataSet(0, ())

    def test_duplicate_triples_merge(self):
        ds = validate_dataset([((1, 1), (1, 2), (1, 2))] * 3, 2)
        assert len(ds.observations) == 1

    def test_index_sets_are_canonicalized(self):
        a = Subgame((2, 1, 2), (1,))
        b = Subgame((1, 2), (1,))
        assert a == b
        assert a.rows == (1, 2)

    def test_equal_datasets_identical_representation(self):
        first = validate_dataset([((2, 2), (2, 1), (2, 1)), ((1, 1), (1, 2), (1, 2))], 2)
        second = validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 2), (1, 2), (1, 2))], 2)
        assert first == second
        assert first.observations == second.observations

    def test_canonical_order_is_the_tuple_order(self):
        # Observations and subgames sort as plain tuples: by choice, then
        # rows, then cols, from any input order.
        rng = Random(47)
        checked = 0
        for ds in reference_corpus():
            shuffled = list(ds.observations)
            rng.shuffle(shuffled)
            rebuilt = DataSet(ds.n, tuple(shuffled))
            expected = tuple(sorted(shuffled, key=lambda o: (o.choice, o.subgame.rows, o.subgame.cols)))
            assert rebuilt.observations == expected == ds.observations
            assert rebuilt.subgames() == tuple(sorted({o.subgame for o in shuffled}, key=lambda s: (s.rows, s.cols)))
            checked += 1
        assert checked == 957

    def test_observations_and_subgames_are_canonical_value_types(self):
        obs = Observation((1, 1), Subgame((2, 1, 2), (2, 1)))
        assert repr(obs) == (
            "Observation(choice=StrategyProfile(row=1, col=1), subgame=Subgame(rows=(1, 2), cols=(1, 2)))"
        )
        for value, field in ((obs, "choice"), (obs.subgame, "rows")):
            with pytest.raises(AttributeError):
                setattr(value, field, (1, 1))
        ds = validate_dataset([((2, 1), (2, 1), (1,)), ((1, 1), (1, 2), (2, 1))], 2)
        for value in (obs, obs.subgame, *ds.observations, ds):
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert copied == value and repr(copied) == repr(value)
                assert type(copied) is type(value)
        assert copy.deepcopy(ds).observations == tuple(sorted(ds.observations))


class TestEquilibria:
    def test_full_game_equilibria(self, known_rank_one_game):
        assert strict_equilibria(known_rank_one_game, full_subgame(2)) == {
            StrategyProfile(1, 1),
            StrategyProfile(2, 2),
        }

    def test_column_subgame(self, known_rank_one_game):
        sub = Subgame((1, 2), (1,))
        assert strict_equilibria(known_rank_one_game, sub) == {StrategyProfile(1, 1)}

    def test_tie_is_not_strict(self):
        game = BimatrixGame.from_rows([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        assert strict_equilibria(game, full_subgame(2)) == frozenset()

    def test_subgame_exceeding_game(self, known_rank_one_game):
        with pytest.raises(IndexOutOfRange):
            strict_equilibria(known_rank_one_game, Subgame((1, 3), (1,)))

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_at_most_one_equilibrium_per_line(self, n, data):
        entries = st.integers(-4, 4)
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        cols = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        game = BimatrixGame.from_rows(rows, cols)
        sub_rows = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        sub_cols = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        found = strict_equilibria(game, Subgame(sub_rows, sub_cols))
        assert len(found) <= min(len(sub_rows), len(sub_cols))


class TestRationalizes:
    def test_known_game_rationalizes(self, known_rank_one_game, diag_dataset):
        report = rationalizes(known_rank_one_game, diag_dataset)
        assert report.ok
        assert report.failures == ()

    def test_off_diagonal_choice_fails(self, known_rank_one_game, diag_dataset):
        extended = DataSet(
            2,
            diag_dataset.observations
            + (Observation(StrategyProfile(1, 2), full_subgame(2)),),
        )
        report = rationalizes(known_rank_one_game, extended)
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].inequality == "A[1,2]=7 <= A[2,2]=8"

    def test_size_mismatch(self, known_rank_one_game):
        with pytest.raises(SizeMismatch):
            rationalizes(known_rank_one_game, validate_dataset([((1, 1), (1,), (1,))], 3))


class TestRank:
    def test_rank_one_sum(self, known_rank_one_game):
        assert sum_matrix(known_rank_one_game) == [[4, 8], [8, 16]]
        assert game_rank(known_rank_one_game) == 1

    def test_zero_sum_game(self):
        game = BimatrixGame.from_rows([[3, -1], [0, 5]], [[-3, 1], [0, -5]])
        assert game_rank(game) == 0
        assert is_zero_sum(game)

    def test_full_rank(self):
        game = BimatrixGame.from_rows([[1, 1], [1, -1]], [[0, 0], [0, 0]])
        assert game_rank(game) == 2

    def test_ragged_matrix_rejected_in_either_row_order(self):
        for rows in ([[], [1]], [[1], []], [[1, 2], [3]]):
            with pytest.raises(SizeMismatch):
                rational_matrix_rank(rows)
        assert rational_matrix_rank([]) == rational_matrix_rank([[], []]) == 0

    def test_rank_of_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert rational_matrix_rank(rows) == minor_rank(rows)

    def test_exhaustive_two_by_two(self):
        values = range(-2, 3)
        from itertools import product

        for flat in product(values, repeat=4):
            rows = [list(flat[:2]), list(flat[2:])]
            assert rational_matrix_rank(rows) == minor_rank(rows), rows

    @given(st.integers(3, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_minor_method(self, n, data):
        rows = data.draw(
            st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        assert rational_matrix_rank(rows) == minor_rank(rows)

    def test_rank_of_random_fractions(self):
        rng = Random(7)
        for _ in range(25):
            size = rng.randint(1, 4)
            rows = random_fraction_matrix(rng, size)
            assert rational_matrix_rank(rows) == minor_rank(rows)

    def test_game_rank_of_rational_games(self):
        # A + B = C of known low rank, with A's and B's denominators unlike C's.
        rng = Random(11)
        for _ in range(40):
            size = rng.randint(1, 4)
            def vector():
                return [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(size)]

            terms = [(vector(), vector()) for _ in range(rng.randint(0, size))]
            total = [
                [sum((u[i] * v[j] for u, v in terms), Fraction(0)) for j in range(size)]
                for i in range(size)
            ]
            a = random_fraction_matrix(rng, size)
            b = [[total[i][j] - a[i][j] for j in range(size)] for i in range(size)]
            game = BimatrixGame.from_rows(a, b)
            assert sum_matrix(game) == total
            assert game_rank(game) == minor_rank(total) == rational_matrix_rank(total)

    def test_shared_and_separate_entry_objects_agree(self):
        # game_rank and game_to_text work once per distinct entry object. A
        # game whose equal entries are one object must read like one whose
        # every cell is an object of its own; rows mix integer and rational
        # entries, so some scale by 1 and some do not.
        rng = Random(13)
        for _ in range(80):
            size = rng.randint(1, 6)
            pool = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 4))]
            a = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            b = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            shared = BimatrixGame.from_rows(a, b)
            separate = BimatrixGame.from_rows(
                *([[Fraction(x.numerator, x.denominator) for x in row] for row in m] for m in (a, b))
            )
            assert len({id(x) for m in (separate.a, separate.b) for row in m for x in row}) == 2 * size * size
            assert separate == shared
            assert game_rank(shared) == game_rank(separate) == rational_matrix_rank(sum_matrix(shared))
            assert game_to_text(shared) == game_to_text(separate)

    def test_game_rank_matches_bareiss_reference(self, monkeypatch):
        # game_rank answers from the support of A + B, an exact rank-1 test
        # and a lower bound mod 2**61 - 1. It must agree with
        # rational_matrix_rank, the plain Bareiss reference, and run Bareiss
        # only when the bound falls short of the support's smaller side and
        # that side is over 2 (a failed rank-1 test already shows rank 2).
        # A repeated pair of row objects counts once, and the entries are
        # small, so a minor that is nonzero is nonzero mod the prime unless
        # its rows are multiples of it.
        calls = []
        bareiss = model._bareiss_rank
        monkeypatch.setattr(model, "_bareiss_rank", lambda m: calls.append(1) or bareiss(m))
        prime = 2**61 - 1
        rng = Random(19)
        for case in range(600):
            kind = case % 6
            size = rng.randint(1, 6)
            if kind == 5:
                scale = [rng.choice((prime, -2 * prime, 1, 3)) for _ in range(size)]
                total = [[scale[i] * rng.randint(-3, 3) for _ in range(size)] for i in range(size)]
            elif kind == 4:
                # rank 1 with negative and zero scale factors, one row off line
                line = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(size)]
                total = [[rng.randint(-3, 3) * x for x in line] for _ in range(size)]
                if rng.random() < 0.5:
                    total[rng.randrange(size)][rng.randrange(size)] += 1
            else:
                # a sum of outer products with nonzero factors: full support
                terms = [
                    [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)) for _ in range(size)]
                     for _ in range(2)]
                    for _ in range(rng.randint(1, size))
                ]
                total = [[sum(u[i] * v[j] for u, v in terms) for j in range(size)] for i in range(size)]
            if kind in (1, 3):
                for _ in range(rng.randint(1, size)):
                    zero = rng.randrange(size)
                    if rng.random() < 0.5:
                        total[zero] = [0] * size
                    else:
                        for row in total:
                            row[zero] = 0
            a = [tuple(row) for row in random_fraction_matrix(rng, size)]
            b = [tuple(Fraction(x) - y for x, y in zip(row, row_a)) for row, row_a in zip(total, a)]
            if kind in (2, 3):
                # repeated row objects: a pair of rows, or an A row alone
                for _ in range(rng.randint(1, size)):
                    i, k = rng.randrange(size), rng.randrange(size)
                    a[i] = a[k]
                    if rng.random() < 0.7:
                        b[i], total[i] = b[k], total[k]
                    else:
                        total[i] = list(total[i])
                        b[i] = tuple(Fraction(x) - y for x, y in zip(total[i], a[i]))
            game = BimatrixGame(size, tuple(a), tuple(b))
            assert total == sum_matrix(game)
            expected = rational_matrix_rank(total)
            calls.clear()
            assert game_rank(game) == expected, total
            ran_bareiss = bool(calls)
            rows = [row for row in {id(row): row for row in total}.values() if any(row)]
            side = min(len(rows), sum(map(any, zip(*rows)))) if rows else 0
            modular = rational_matrix_rank([row for row in rows if any(x % prime for x in row)])
            assert ran_bareiss == (expected > 1 and modular < side > 2), total

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            BimatrixGame.from_rows([[0.5]], [[1]])

    def test_integer_rows_are_kept_on_the_game(self, monkeypatch):
        # game_rank and block_difference_certificate read one scaling of
        # A + B (one lcm per distinct pair of rows): the second reader finds
        # it on the game.
        game = rationalize_general(two_regular_dataset(sylvester_hadamard(2))).game
        fresh = BimatrixGame(game.n, game.a, game.b)
        lcm, calls = math.lcm, []
        monkeypatch.setattr(math, "lcm", lambda *xs: calls.append(xs) or lcm(*xs))
        assert game_rank(fresh) == game_rank(game)
        scaled = len(calls)
        assert scaled and block_difference_certificate(fresh, sylvester_hadamard(2))
        assert len(calls) == scaled
        assert model._integer_rows(fresh) is vars(fresh)["_integer_rows"]

    def test_a_pickled_game_carries_no_memo_and_still_shares_its_rows(self):
        checked = 0
        for ds in reference_corpus():
            try:
                game = rationalize_auto(ds).game  # ranked, so the memo is set
            except RanklensError:
                continue
            assert "_integer_rows" in vars(game)
            fresh = BimatrixGame(game.n, game.a, game.b)
            assert game == fresh and hash(game) == hash(fresh) and repr(game) == repr(fresh)
            assert pickle.dumps(game) == pickle.dumps(fresh)
            for copied in (pickle.loads(pickle.dumps(game)), copy.copy(game), copy.deepcopy(game)):
                assert set(vars(copied)) == {"n", "a", "b"}
                assert copied == game
                assert len(set(map(id, copied.a + copied.b))) == len(set(map(id, game.a + game.b)))
                assert game_rank(copied) == game_rank(game)
            checked += 1
        assert checked > 700


def per_object_dataset(triples, n):
    """The per-object construction validate_dataset must agree with."""
    return DataSet(
        n,
        tuple(
            Observation(StrategyProfile(*choice), Subgame(tuple(rows), tuple(cols)))
            for choice, rows, cols in triples
        ),
    )


def outcome(build, make_triples, n):
    """('ok', dataset) or ('error', type, text) of one construction."""
    try:
        return ("ok", build(make_triples(), n))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def random_triples(rng: Random, n: int):
    """A few triples over indices 0..n+1 (n+1 when n is not an int), often
    empty, duplicated, unsorted or with the choice off the grid."""
    top = (n if type(n) is int else 2) + 1
    triples = []
    for _ in range(rng.randint(1, 5)):
        rows = [rng.randint(0, top) for _ in range(rng.choice((0, 1, 2, 3)))]
        cols = [rng.randint(0, top) for _ in range(rng.choice((0, 1, 2, 3)))]
        if rows and cols and rng.random() < 0.6:
            choice = (rng.choice(rows), rng.choice(cols))
        else:
            choice = (rng.randint(0, top), rng.randint(0, top))
        triples.append((choice, rows, cols))
    return triples


def as_generators(triples):
    """Fresh one-shot iterators for every choice, rows and cols."""
    return lambda: iter([(iter(choice), (x for x in rows), (x for x in cols)) for choice, rows, cols in triples])


class TestBulkValidation:
    """validate_dataset checks and builds integer data in one bulk pass.
    When that pass fails, it raises the error of per-object construction."""

    def test_valid_corpus_matches_per_object_construction(self):
        rng = Random(83)
        for ds in reference_corpus():
            triples = []
            for obs in ds.observations:
                rows, cols = list(obs.subgame.rows) * 2, list(obs.subgame.cols)
                rng.shuffle(rows)
                rng.shuffle(cols)
                triples.append(((obs.choice.row, obs.choice.col), rows, cols))
            triples += triples[: rng.randint(0, len(triples))]
            rng.shuffle(triples)
            bulk = validate_dataset(triples, ds.n)
            reference = per_object_dataset(triples, ds.n)
            assert bulk == reference == ds
            assert bulk.observations == reference.observations
            assert bulk.subgames() == reference.subgames()
            for obs in bulk.observations:
                assert type(obs.choice) is StrategyProfile
                for axis in (obs.subgame.rows, obs.subgame.cols):
                    assert type(axis) is tuple and list(axis) == sorted(set(axis))
                    assert {type(index) for index in axis} == {int}

    def test_seeded_malformed_triples_match_per_object_construction(self):
        rng = Random(89)
        errors = Counter()
        for _ in range(3000):
            n = rng.choice((-1, 0, 1, 2, 3, 4, "2", 2.5))
            triples = random_triples(rng, n)
            make = (lambda: list(triples)) if rng.random() < 0.5 else as_generators(triples)
            bulk = outcome(validate_dataset, make, n)
            reference = outcome(per_object_dataset, make, n)
            assert bulk == reference, (triples, n)
            errors[bulk[1].__name__ if bulk[0] == "error" else "ok"] += 1
        assert set(errors) == {"ok", "EmptySubgame", "ChoiceOutsideSubgame", "IndexOutOfRange", "InvalidSize"}, errors

    @pytest.mark.parametrize(
        "triples, n, error",
        [
            ([((1, 1), (), (1,))], 2, EmptySubgame),
            ([((1, 1), (1,), [])], 2, EmptySubgame),
            ([((1, 2), (1,), (1,))], 2, ChoiceOutsideSubgame),
            ([((0, 1), (0,), (1,))], 2, IndexOutOfRange),
            ([((3, 1), (1, 3), (1,))], 2, IndexOutOfRange),
            ([((1, 1), (1,), (1,))], 0, InvalidSize),
            ([((1, 1), (1,), (1,))], -3, InvalidSize),
            ([((1, 1), (1,), (1,))], "2", InvalidSize),
            # Input order: an empty or off-grid triple beats an earlier index
            # out of range, which DataSet only finds in sorted order.
            ([((3, 3), (3,), (3,)), ((1, 1), (), (1,))], 2, EmptySubgame),
            ([((3, 3), (3,), (3,)), ((2, 1), (1,), (1, 2))], 2, ChoiceOutsideSubgame),
            # In sorted order, (1, 3) comes before (2, 0).
            ([((2, 0), (2,), (0,)), ((1, 3), (1,), (3,))], 2, IndexOutOfRange),
            # An index that is not an int is refused by the first constructor
            # that sees it, before a later off-grid choice.
            ([(("1", 1), ("1",), (1,)), ((2, 1), (1,), (1,))], 2, IndexOutOfRange),
            ([(("1", 1), ("1",), (1,))], 2, IndexOutOfRange),
            # A triple that cannot be read yields to an earlier bad triple.
            ([((1, 1), (), (1,)), ((1, 1, 1), (1,), (1,))], 2, EmptySubgame),
            ([((1, 1), (1,), (1,)), ((1, 1, 1), (1,), (1,))], 2, TypeError),
            ([((1, 1), (1,), (1,)), ((1, 1), (1,))], 2, ValueError),
            # Subgame checks its indices before it sorts them.
            ([(("1", 1), ("1", 2), (1,))], 2, IndexOutOfRange),
        ],
    )
    def test_first_error_as_per_object_construction(self, triples, n, error):
        for make in (lambda: list(triples), lambda: iter(triples)):
            bulk = outcome(validate_dataset, make, n)
            assert bulk == outcome(per_object_dataset, make, n)
            assert bulk[:2] == ("error", error)

    def test_duplicated_unsorted_and_generator_indices(self):
        triples = [((2, 1), (2, 1, 2), (1,)), ((1, 2), (1,), (2, 1)), ((2, 1), (1, 2), (1, 1))]
        for make in (lambda: triples, as_generators(triples)):
            bulk = validate_dataset(make(), 2)
            assert bulk == per_object_dataset(triples, 2)
            assert [obs.subgame for obs in bulk.observations] == [Subgame((1,), (1, 2)), Subgame((1, 2), (1,))]

    def test_data_other_than_ints_is_refused(self):
        # No document can carry a non-int, so neither the constructors nor
        # the bulk pass accept one; a bool is not an int.
        for triples, n, error, message in (
            ([((True, 1), (1,), (1,))], 2, IndexOutOfRange, "index True is not an int in choice (True, 1)"),
            ([((1, 1), (1,), (1, True))], 2, IndexOutOfRange,
             "index True is not an int in subgame with rows (1,) and cols (1, True)"),
            ([((1, 1), (1,), (1,)), ((1, 1), (1.0, 2), (1,))], 2, IndexOutOfRange,
             "index 1.0 is not an int in subgame with rows (1.0, 2) and cols (1,)"),
            ([((1, 1), (1,), (1,))], 2.0, InvalidSize, "game size must be an int, got 2.0"),
            ([((1, 1), (1,), (1,))], True, InvalidSize, "game size must be an int, got True"),
            ([], 2.0, InvalidSize, "game size must be an int, got 2.0"),
        ):
            for make in (lambda: list(triples), as_generators(triples)):
                assert outcome(per_object_dataset, make, n) == ("error", error, message)
                assert outcome(validate_dataset, make, n) == ("error", error, message)
        with pytest.raises(InvalidSize, match="must be an int, got 2.0"):
            DataSet(2.0, (Observation((1, 1), Subgame((1, 2), (1, 2))),))

    def test_grids_are_shared(self):
        ds = validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 2), (2, 1), (1, 2))], 2)
        first, second = ds.observations
        assert first.subgame is second.subgame
        assert ds.subgames() == (first.subgame,)
