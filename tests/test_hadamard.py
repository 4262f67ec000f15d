import math
from fractions import Fraction
from random import Random

import pytest

from ranklens import (
    BimatrixGame,
    InvalidSize,
    NotPowerOfTwo,
    NotTwoRegular,
    SignMatrix,
    SizeLimitExceeded,
    SizeMismatch,
    ZeroSignEntry,
    analyze,
    block_difference_certificate,
    hadamard_minrank_bound,
    is_rationalizable,
    rationalize_bounded_rank,
    rationalize_general,
    satisfies_uniqueness,
    sylvester_hadamard,
    two_regular_dataset,
    two_regular_sign_pattern,
    uniqueness_variant,
    validate_dataset,
)
from ranklens.graphs import _edge_ids
from .generators import distinct_choices, random_fraction_matrix, rank_one_sign_realizable, sum_matrix

H2 = SignMatrix(((1, 1), (1, -1)))


def sign_of(rows):
    """The entrywise signs of a square rational matrix."""
    return SignMatrix(tuple(tuple((x > 0) - (x < 0) for x in row) for row in rows))


def random_sign(rng, m):
    return SignMatrix(tuple(tuple(rng.choice((1, -1)) for _ in range(m)) for _ in range(m)))


class TestSignMatrix:
    @pytest.mark.parametrize("entry", [1, True, 1.0])
    def test_entries_equal_to_one_store_as_int_one(self, entry):
        sign = SignMatrix(((entry,),))
        assert sign.entries == ((1,),) and type(sign.entries[0][0]) is int

    @pytest.mark.parametrize("entry", [0.5, -1.7, 2, "1"])
    def test_entries_are_checked_before_truncation(self, entry):
        with pytest.raises(ValueError, match=r"^sign matrix entries must be -1, 0, or \+1$"):
            SignMatrix(((entry,),))

    def test_ragged_matrix(self):
        with pytest.raises(SizeMismatch):
            SignMatrix(((1, -1), (1,)))


class TestSylvester:
    def test_small_orders(self):
        assert sylvester_hadamard(0).entries == ((1,),)
        assert sylvester_hadamard(1) == H2
        assert sylvester_hadamard(2).entries == (
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        )

    def test_orthogonal_rows(self):
        for k in range(7):
            h = sylvester_hadamard(k).entries
            order = 1 << k
            for i in range(order):
                for j in range(order):
                    dot = sum(h[i][t] * h[j][t] for t in range(order))
                    assert dot == (order if i == j else 0)

    def test_errors(self):
        with pytest.raises(InvalidSize):
            sylvester_hadamard(-1)
        with pytest.raises(SizeLimitExceeded):
            sylvester_hadamard(11)
        with pytest.raises(SizeLimitExceeded):
            sylvester_hadamard(3, size_cap=4)


class TestTwoRegular:
    def test_order_one(self, diag_dataset):
        assert two_regular_dataset(SignMatrix(((1,),))) == diag_dataset

    def test_h2_blocks(self):
        ds = two_regular_dataset(H2)
        assert ds.n == 4
        assert len(ds.observations) == 8
        assert analyze(ds).laminar
        assert not satisfies_uniqueness(ds).ok
        choices = set((c.row, c.col) for c in distinct_choices(ds))
        # the -1 block (rows 3-4, cols 3-4) carries its off-diagonal
        assert {(3, 4), (4, 3)} <= choices
        assert {(3, 3), (4, 4)}.isdisjoint(choices)

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroSignEntry):
            two_regular_dataset(SignMatrix(((0,),)))

    def test_round_trip(self):
        rng = Random(67)
        for _ in range(20):
            sign = random_sign(rng, rng.randint(1, 5))
            assert two_regular_sign_pattern(two_regular_dataset(sign)) == sign

    def test_recovery_rejects_odd_size(self):
        ds = validate_dataset([((1, 1), (1,), (1,))], 3)
        with pytest.raises(NotTwoRegular):
            two_regular_sign_pattern(ds)

    def test_recovery_rejects_missing_block(self):
        ds = two_regular_dataset(H2)
        block = ds.observations[0].subgame
        pruned = validate_dataset(
            [
                ((o.choice.row, o.choice.col), o.subgame.rows, o.subgame.cols)
                for o in ds.observations
                if o.subgame != block
            ],
            ds.n,
        )
        with pytest.raises(NotTwoRegular):
            two_regular_sign_pattern(pruned)

    def test_recovery_rejects_mixed_block(self):
        ds = validate_dataset(
            [((1, 1), (1, 2), (1, 2)), ((2, 1), (1, 2), (1, 2))], 2
        )
        with pytest.raises(NotTwoRegular):
            two_regular_sign_pattern(ds)


class TestUniquenessVariant:
    def test_h2_observations(self):
        variant = uniqueness_variant(two_regular_dataset(H2))
        expected = validate_dataset(
            [
                ((1, 1), (1, 2), (1, 2)),
                ((2, 2), (1, 2), (2,)),
                ((2, 2), (2,), (1, 2)),
                ((1, 3), (1, 2), (3, 4)),
                ((2, 4), (1, 2), (4,)),
                ((2, 4), (2,), (3, 4)),
                ((3, 1), (3, 4), (1, 2)),
                ((4, 2), (3, 4), (2,)),
                ((4, 2), (4,), (1, 2)),
                ((3, 4), (3, 4), (3, 4)),
                ((4, 3), (3, 4), (3,)),
                ((4, 3), (4,), (3, 4)),
            ],
            4,
        )
        assert variant == expected

    def test_same_entailed_inequalities_per_block(self):
        for k in (1, 2):
            original = two_regular_dataset(sylvester_hadamard(k))
            variant = uniqueness_variant(original)
            for block in original.subgames():
                in_block = lambda o: (
                    set(o.subgame.rows) <= set(block.rows)
                    and set(o.subgame.cols) <= set(block.cols)
                )
                original_edges = _edge_ids(
                    original.n, (o for o in original.observations if o.subgame == block)
                )
                variant_edges = _edge_ids(variant.n, (o for o in variant.observations if in_block(o)))
                assert variant_edges == original_edges

    def test_structure(self):
        for k in (1, 2, 3):
            variant = uniqueness_variant(two_regular_dataset(sylvester_hadamard(k)))
            n = variant.n
            assert satisfies_uniqueness(variant).ok
            assert not analyze(variant).laminar
            assert analyze(variant).crossing_span == n // 2

    def test_variant_is_rationalizable_with_bounded_rank(self):
        variant = uniqueness_variant(two_regular_dataset(H2))
        assert is_rationalizable(variant)
        cert = rationalize_bounded_rank(variant)
        assert cert.rank <= 2
        assert block_difference_certificate(cert.game, H2)


def dense_block_difference(c):
    """P C P^T by explicit multiplication, where P is the (n/2) x n map with
    +1 at column 2i-1 and -1 at column 2i of row i."""
    n = len(c)
    p = [[0] * n for _ in range(n // 2)]
    for i in range(n // 2):
        p[i][2 * i], p[i][2 * i + 1] = 1, -1
    pc = [[sum(p[i][a] * c[a][b] for a in range(n)) for b in range(n)] for i in range(n // 2)]
    return [[sum(pc[i][b] * p[j][b] for b in range(n)) for j in range(n // 2)] for i in range(n // 2)]


class TestBlockDifference:
    def test_size_validation(self):
        for n in (1, 3, 6):
            zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            with pytest.raises(SizeMismatch):
                block_difference_certificate(BimatrixGame(n, zero, zero), H2)

    def test_conjugate_is_blockwise_alternating_sum(self):
        rng = Random(71)
        for n in (2, 4, 6):
            c = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            left = dense_block_difference(c)
            for i in range(n // 2):
                for j in range(n // 2):
                    r, s = 2 * i, 2 * j
                    assert left[i][j] == c[r][s] - c[r][s + 1] - c[r + 1][s] + c[r + 1][s + 1]
            zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            game = BimatrixGame(n, tuple(map(tuple, c)), zero)
            pattern = sign_of(left)
            assert block_difference_certificate(game, pattern)
            flipped = [list(row) for row in pattern.entries]
            flipped[0][0] = -flipped[0][0] if flipped[0][0] else 1
            assert not block_difference_certificate(game, SignMatrix(tuple(map(tuple, flipped))))

    def test_integer_sums_match_the_fraction_reference(self):
        # Unlike denominators across A and B, entry objects both shared and
        # separate, and row objects shared in A alone: the result must be
        # the Fraction computation's.
        rng = Random(73)
        checked = {True: 0, False: 0}
        for trial in range(80):
            n = 2 * rng.randint(1, 4)
            a = random_fraction_matrix(rng, n, max_abs=4, max_den=rng.choice((1, 3, 12)))
            b = random_fraction_matrix(rng, n, max_abs=4, max_den=rng.choice((1, 5, 7)))
            if trial >= 60:
                # Every row of A is one tuple; the rows of B are their own.
                a = (random_fraction_matrix(rng, n, max_abs=4, max_den=12)[0],) * n
                b = random_fraction_matrix(rng, n, max_abs=4, max_den=7)
            elif trial % 3 == 0:
                b = a  # the same entry objects in A and B
            elif trial % 3 == 1:
                b = tuple(tuple(-Fraction(x) + 1 for x in row) for row in a)
            game = BimatrixGame(n, a, b)
            c = sum_matrix(game)
            blocks = range(0, n, 2)
            reference = sign_of(
                [[c[r][s] - c[r][s + 1] - c[r + 1][s] + c[r + 1][s + 1] for s in blocks] for r in blocks]
            )
            random_sign = SignMatrix(tuple(tuple(rng.choice((-1, 0, 1)) for _ in blocks) for _ in blocks))
            flipped = [list(row) for row in reference.entries]
            i, j = rng.randrange(n // 2), rng.randrange(n // 2)
            flipped[i][j] = -flipped[i][j] if flipped[i][j] else 1
            for sign in (reference, random_sign, SignMatrix(tuple(map(tuple, flipped)))):
                expected = sign == reference
                assert block_difference_certificate(game, sign) is expected
                checked[expected] += 1
        assert checked[True] >= 60 and checked[False] >= 60

    def test_pairwise_coprime_large_denominators(self):
        # Every entry has its own denominator near 10**9, pairwise coprime,
        # as exact solvers produce: a scale common to the whole game would
        # be the product of all 2n^2 of them.
        rng = Random(79)
        n = 32
        denominators, product_so_far, candidate = [], 1, 10**9
        while len(denominators) < 2 * n * n:
            candidate += 1
            if math.gcd(candidate, product_so_far) == 1:
                denominators.append(candidate)
                product_so_far *= candidate
        rng.shuffle(denominators)
        dens = iter(denominators)
        a, b = (
            tuple(tuple(Fraction(rng.randint(-5 * 10**9, 5 * 10**9), next(dens)) for _ in range(n)) for _ in range(n))
            for _ in "ab"
        )
        game = BimatrixGame(n, a, b)
        c = sum_matrix(game)
        blocks = range(0, n, 2)
        reference = sign_of(
            [[c[r][s] - c[r][s + 1] - c[r + 1][s] + c[r + 1][s + 1] for s in blocks] for r in blocks]
        )
        assert block_difference_certificate(game, reference)
        for i, j in ((0, 0), (n // 2 - 1, 3), (7, n // 2 - 1)):
            flipped = [list(row) for row in reference.entries]
            flipped[i][j] = -flipped[i][j] if flipped[i][j] else 1
            assert not block_difference_certificate(game, SignMatrix(tuple(map(tuple, flipped))))

    def test_certificate_on_synthesized_game(self):
        ds = two_regular_dataset(H2)
        cert = rationalize_general(ds)
        assert block_difference_certificate(cert.game, H2)

    def test_certificate_rejects_flat_game(self):
        zero = tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4))
        game = BimatrixGame(4, zero, zero)
        assert not block_difference_certificate(game, H2)

    def test_certificate_size_mismatch(self):
        zero = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
        with pytest.raises(SizeMismatch):
            block_difference_certificate(BimatrixGame(2, zero, zero), H2)


class TestRankBound:
    def test_bound_values(self):
        assert hadamard_minrank_bound(1) == 1
        assert hadamard_minrank_bound(2) == 2
        assert hadamard_minrank_bound(4) == 2
        assert hadamard_minrank_bound(8) == 3
        assert hadamard_minrank_bound(16) == 4
        assert hadamard_minrank_bound(64) == 8
        assert hadamard_minrank_bound(1024) == 32

    def test_rejects_non_powers(self):
        for bad in (0, 3, 6, 12, -4):
            with pytest.raises(NotPowerOfTwo):
                hadamard_minrank_bound(bad)

    def test_h2_pattern_needs_rank_two(self):
        # no rank-1 matrix with small integer factors matches the H_2 sign
        # pattern, while an all-ones pattern is trivially rank-1
        assert not rank_one_sign_realizable(((1, 1), (1, -1)))
        assert rank_one_sign_realizable(((1, 1), (1, 1)))
