"""Desk-scale exhaustive search over small integer games.

(A, B) rationalizes a dataset iff A alone satisfies every row-player
inequality and B alone every column-player inequality. The row player
compares A only within a column and the column player B only within a
row, so the feasible A's are a product of per-column sets F_j and the
feasible B's a product of per-row sets G_i, each a subset of [-M, M]^n.
The search enumerates each line once and combines the lines exactly.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd
from typing import NamedTuple

from .errors import BudgetExceeded
from .graphs import _edge_ids, _sweep
from .model import DataSet

# Largest box the search admits: (2M+1)^(n^2) matrices per side. It
# admits radius 6 at n = 2 (28,561 matrices) and radius 1 at n = 3 (19,683).
BOX_ROW_BUDGET = 1 << 15


# A bare field tuple, subclassed so that __new__ can check (see model.Subgame).
class _SearchConfigFields(NamedTuple):
    max_abs_payoff: int
    max_n: int
    zero_sum_shortcut: bool


class SearchConfig(_SearchConfigFields):
    """Budget and behavior of brute_force_min_rank.

    max_abs_payoff bounds every matrix entry in absolute value and must be
    a nonnegative int (a bool is not). max_n caps the game size (each
    side's box holds (2M+1)^(n^2) matrices); above n = 2 only the answers
    None and 0 are exact, and a positive minimum rank raises
    BudgetExceeded instead. A box of more than BOX_ROW_BUDGET matrices
    raises BudgetExceeded before anything is enumerated.
    zero_sum_shortcut answers rank-0 queries from the revealed-preference
    graph before enumerating, when its level sweep shows a zero-sum game in
    the box; disable it to keep the enumeration fully independent of the
    graph machinery.
    """

    __slots__ = ()

    def __new__(cls, max_abs_payoff: int = 3, max_n: int = 2, zero_sum_shortcut: bool = True) -> "SearchConfig":
        if type(max_abs_payoff) is not int:
            raise BudgetExceeded(f"max_abs_payoff must be an int, got {max_abs_payoff!r}")
        if max_abs_payoff < 0:
            raise BudgetExceeded(f"max_abs_payoff must be nonnegative, got {max_abs_payoff}")
        return super().__new__(cls, max_abs_payoff, max_n, zero_sum_shortcut)


def _number(value: int) -> str:
    """value in decimal for an error message, or a power-of-two lower bound
    when it has more digits than the interpreter's limit lets str() print."""
    try:
        return str(value)
    except ValueError:
        return f"at least 2^{value.bit_length() - 1}"


def _plain_sweep(dataset: DataSet) -> tuple[dict[int, int], tuple[int, ...] | None]:
    """The sink-first levels of the plain revealed-preference graph, and its
    witness cycle (see graphs._sweep)."""
    rows, cols = _edge_ids(dataset.n, dataset.observations)
    return _sweep(rows | cols)


def zero_sum_feasible(dataset: DataSet) -> bool:
    """Whether a zero-sum game rationalizes the dataset.

    With B = -A every column-player inequality also constrains A, so every
    edge of the plain revealed-preference graph becomes an A-ordering;
    feasibility is that graph's acyclicity.
    """
    return _plain_sweep(dataset)[1] is None


def _feasible_lines(n: int, max_abs: int, orders: list[frozenset[tuple[int, int]]]) -> list[frozenset]:
    """For each line's strict orders {(hi, lo): v[hi] > v[lo]}, the vectors
    of [-max_abs, max_abs]^n that satisfy them all. Lines with equal orders
    are filtered once."""
    box = list(product(range(-max_abs, max_abs + 1), repeat=n))
    feasible: dict[frozenset, frozenset] = {}
    for pairs in orders:
        if pairs not in feasible:
            kept = box
            for hi, lo in pairs:
                kept = [v for v in kept if v[hi] > v[lo]]
            feasible[pairs] = frozenset(kept)
    return [feasible[pairs] for pairs in orders]


def _direction(x: int, y: int) -> tuple[int, int]:
    """(x, y) up to a nonzero rational factor; (0, 0) stays (0, 0)."""
    d = gcd(x, y) or 1
    x, y = x // d, y // d
    return (x, y) if x > 0 or (x == 0 and y >= 0) else (-x, -y)


def brute_force_min_rank(dataset: DataSet, config: SearchConfig = SearchConfig()) -> int | None:
    """Minimum game rank over all rationalizing integer games in the box,
    or None when the box holds no rationalizing game.

    Rank 0 is B = -A and None an empty side, exact at any n. A positive
    rank is exact for n <= 2 only: a 2x2 sum matrix has rank <= 1 iff a
    row is zero or its rows are parallel. (At n = 1 no strict inequality
    exists, so B = -A always rationalizes.) Larger n raises BudgetExceeded
    instead.
    """
    n, radius = dataset.n, config.max_abs_payoff
    if n > config.max_n:
        space = f"{_number(2 * radius + 1)}^{2 * n * n}"
        raise BudgetExceeded(f"n={n} exceeds max_n={config.max_n} (search space {space})")
    if config.zero_sum_shortcut:
        # A zero-sum game in the box prices a path of L vertices with L
        # distinct values of [-M, M]; pricing an acyclic graph by its
        # sink-first levels 1..L, shifted by -M-1, needs no more.
        levels, cycle = _plain_sweep(dataset)
        if cycle is None and max(levels.values(), default=1) <= 2 * radius + 1:
            return 0

    rows = (2 * radius + 1) ** (n * n)
    if rows > BOX_ROW_BUDGET:
        raise BudgetExceeded(
            f"max_abs_payoff={radius} at n={n} needs {_number(rows)} box rows, over the budget {BOX_ROW_BUDGET}"
        )
    # Column j of A and row i of B, each as strict orders between positions.
    col_orders: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    row_orders: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for (i, j), (subgame_rows, subgame_cols) in dataset.observations:
        col_orders[j - 1].update((i - 1, i2 - 1) for i2 in subgame_rows if i2 != i)
        row_orders[i - 1].update((j - 1, j2 - 1) for j2 in subgame_cols if j2 != j)
    # The box is symmetric, so -G_i is the line set under row i's reversed orders.
    reversed_orders = [{(lo, hi) for hi, lo in pairs} for pairs in row_orders]
    lines = _feasible_lines(n, radius, [frozenset(pairs) for pairs in col_orders + row_orders + reversed_orders])
    if not all(lines):
        return None
    a_cols, b_rows, minus_b_rows = lines[:n], lines[n : 2 * n], lines[2 * n :]

    # Rank 0: columns of A whose rows all lie in the -G_i.
    for columns in product(*a_cols):
        if all(row in minus for row, minus in zip(zip(*columns), minus_b_rows)):
            return 0
    if n > 2:
        raise BudgetExceeded(f"n={n}: the exact search finds a positive minimum rank for n <= 2 only")

    # n == 2: det(A + B) = 0 iff a row of A + B is zero or its two rows are
    # parallel, so compare the directions of A's rows translated by the G_i.
    @cache
    def directions(i: int, x: int, y: int) -> frozenset[tuple[int, int]]:
        return frozenset(_direction(x + u, y + v) for u, v in b_rows[i])

    for (a11, a21), (a12, a22) in product(*a_cols):
        first, second = directions(0, a11, a12), directions(1, a21, a22)
        if (0, 0) in first or (0, 0) in second or not first.isdisjoint(second):
            return 1
    return 2
