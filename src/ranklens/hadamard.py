"""Hadamard-patterned datasets that force high rank.

A sign matrix of order m induces a 2-regular dataset on n = 2m: block
(i, j) is the 2x2 subgame on rows {2i-1, 2i} and columns {2j-1, 2j}, and
the block's two observed choices sit on its diagonal for +1 and off the
diagonal for -1. Any rationalizing game's A + B then reproduces the sign
matrix under blockwise differencing, and a Hadamard sign pattern is far
from low rank, so these datasets are adversarial for minimum-rank
rationalization.

The uniqueness variant trades each block's second observation for two
half-block observations with a shared choice. The traded observations
entail exactly the same four strict inequalities, but the variant
satisfies the uniqueness property and its crossing span is n/2.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product

from .errors import (
    InvalidSize,
    NotPowerOfTwo,
    NotTwoRegular,
    SizeLimitExceeded,
    SizeMismatch,
    ZeroSignEntry,
)
from .model import (
    BimatrixGame,
    DataSet,
    SignMatrix,
    StrategyProfile,
    Subgame,
    _integer_rows,
    _sign,
    validate_dataset,
)

# The largest order whose generate -> analyze -> rationalize -> verify CLI
# pipeline on the uniqueness variant ends within 25 s: order 128 (n = 256)
# takes about 8 s on a 2-core x86-64 host under Python 3.11, and order 256
# spends over 36 s in generate and analyze alone.
DEFAULT_ORDER_CAP = 2 ** 7


def sylvester_hadamard(k: int, size_cap: int = DEFAULT_ORDER_CAP) -> SignMatrix:
    """Hadamard matrix of order 2^k by Sylvester doubling.

    H_1 = [+1] and H_{2m} = [[H_m, H_m], [H_m, -H_m]].
    """
    if k < 0:
        raise InvalidSize(f"exponent must be nonnegative, got {k}")
    # 2^k > size_cap iff k reaches the cap's bit length (every k for a cap
    # below 1); comparing exponents never builds a huge order.
    if size_cap < 1 or k >= size_cap.bit_length():
        raise SizeLimitExceeded(f"order 2^{k} exceeds the size cap {size_cap}")
    rows: list[list[int]] = [[1]]
    for _ in range(k):
        rows = [row + row for row in rows] + [row + [-x for x in row] for row in rows]
    return SignMatrix(tuple(tuple(row) for row in rows))


def _block(i: int, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return (2 * i - 1, 2 * i), (2 * j - 1, 2 * j)


def two_regular_dataset(sign: SignMatrix) -> DataSet:
    """2-regular dataset induced by a zero-free sign matrix.

    Every 2x2 block appears as a subgame with two observations: the
    diagonal pair of the block for +1, the off-diagonal pair for -1.
    The result is laminar (blocks are disjoint) and violates uniqueness
    (two choices per block).
    """
    m = sign.order
    triples = []
    for i, j in product(range(1, m + 1), repeat=2):
        entry = sign.entries[i - 1][j - 1]
        if entry == 0:
            raise ZeroSignEntry(f"sign entry ({i},{j}) is zero")
        rows, cols = _block(i, j)
        if entry > 0:
            picks = ((rows[0], cols[0]), (rows[1], cols[1]))
        else:
            picks = ((rows[0], cols[1]), (rows[1], cols[0]))
        for pick in picks:
            triples.append((pick, rows, cols))
    return validate_dataset(triples, 2 * m)


def two_regular_sign_pattern(dataset: DataSet) -> SignMatrix:
    """Recover the sign matrix of a 2-regular dataset; the round-trip
    inverse of two_regular_dataset. Raises NotTwoRegular on any deviation
    from that shape."""
    n = dataset.n
    if n % 2 != 0:
        raise NotTwoRegular(f"n={n} is odd")
    m = n // 2
    expected = {Subgame(*_block(i, j)): (i, j) for i, j in product(range(1, m + 1), repeat=2)}
    choices_of: dict[Subgame, set[StrategyProfile]] = defaultdict(set)
    for obs in dataset.observations:
        choices_of[obs.subgame].add(obs.choice)
    if choices_of.keys() != expected.keys():
        raise NotTwoRegular("subgames are not exactly the 2x2 blocks")
    entries = [[0] * m for _ in range(m)]
    for subgame, (i, j) in expected.items():
        choices = choices_of[subgame]
        rows, cols = _block(i, j)
        diagonal = {StrategyProfile(rows[0], cols[0]), StrategyProfile(rows[1], cols[1])}
        off_diagonal = {StrategyProfile(rows[0], cols[1]), StrategyProfile(rows[1], cols[0])}
        if choices == diagonal:
            entries[i - 1][j - 1] = 1
        elif choices == off_diagonal:
            entries[i - 1][j - 1] = -1
        else:
            raise NotTwoRegular(f"block ({i},{j}) has choices {sorted(choices)}")
    return SignMatrix(tuple(tuple(row) for row in entries))


def uniqueness_variant(dataset: DataSet) -> DataSet:
    """Uniqueness-satisfying variant of a 2-regular dataset.

    Per block, the first observation keeps the whole block; the second is
    traded for two crossing half-block observations that share its choice:
    a two-row column strip and a one-row column pair. The entailed strict
    inequalities per block are unchanged, uniqueness holds, and the
    crossing span is n/2 (the strip choices occupy exactly the even rows).
    """
    sign = two_regular_sign_pattern(dataset)
    m = sign.order
    triples = []
    for i, j in product(range(1, m + 1), repeat=2):
        rows, cols = _block(i, j)
        if sign.entries[i - 1][j - 1] > 0:
            keep = (rows[0], cols[0])
            moved = (rows[1], cols[1])
            strip_col = cols[1]
        else:
            keep = (rows[0], cols[1])
            moved = (rows[1], cols[0])
            strip_col = cols[0]
        triples.append((keep, rows, cols))
        triples.append((moved, rows, (strip_col,)))
        triples.append((moved, (rows[1],), cols))
    return validate_dataset(triples, 2 * m)


def block_difference_certificate(game: BimatrixGame, sign: SignMatrix) -> bool:
    """Whether blockwise differencing of A + B reproduces the sign matrix.

    Each 2x2 block of C = A + B collapses to its alternating sum
    C[2i-1,2j-1] - C[2i-1,2j] - C[2i,2j-1] + C[2i,2j]; for a rationalizing
    game of a 2-regular dataset the result's sign pattern is the block
    pattern itself.

    The sums are taken on the integer rows of A + B that ``game_rank``
    reads (``_integer_rows``): with u = s * C[2i-1] and l = t * C[2i], the
    block's sum times s * t > 0 is t * (u[c] - u[c+1]) - s * (l[c] - l[c+1])
    for c = 2j-1, which has the same sign.
    """
    if game.n != 2 * sign.order:
        raise SizeMismatch(f"game is {game.n}x{game.n}, sign matrix of order {sign.order} needs n={2 * sign.order}")
    rows = _integer_rows(game)
    pattern = [
        tuple(_sign(t * (u[c] - u[c + 1]) - s * (l[c] - l[c + 1])) for c in range(0, game.n, 2))
        for (s, u), (t, l) in zip(rows[0::2], rows[1::2])
    ]
    return tuple(pattern) == sign.entries


def hadamard_minrank_bound(order: int) -> int:
    """Lower bound ceil(sqrt(order)) on the rank of any matrix whose sign
    pattern is a Hadamard matrix of that order."""
    if order < 1 or order & (order - 1):
        raise NotPowerOfTwo(f"order must be a power of two, got {order}")
    root = math.isqrt(order)
    return root if root * root == order else root + 1
