"""Desk-scale exhaustive search over small integer games.

The key reduction: (A, B) rationalizes a dataset iff A alone satisfies
every row-player inequality and B alone every column-player inequality,
so the two sides factor. The search enumerates the integer box once,
filters each side, and combines; integer numpy arithmetic keeps it exact
(entries are tiny) and deterministic. numpy is imported by the
functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, SizeMismatch
from .graphs import build_split_graph, is_acyclic
from .model import BimatrixGame, DataSet, StrategyProfile, Subgame, strict_equilibria

if TYPE_CHECKING:
    import numpy as np

# Largest box the search enumerates: (2M+1)^(n^2) matrices per side. It
# admits radius 6 at n = 2 (28,561 rows) and radius 1 at n = 3 (19,683).
BOX_ROW_BUDGET = 1 << 15

# Largest number of elements in one array of the n = 2 determinant scan
# (8 MB of int64); a chunk of rows of side A times all of side B stays under
# it. It exceeds BOX_ROW_BUDGET, so a chunk always holds at least one row.
ELEMENT_BUDGET = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """Budget and behavior of brute_force_min_rank.

    max_abs_payoff bounds every matrix entry in absolute value and must be
    nonnegative. max_n caps the game size (each side's box holds
    (2M+1)^(n^2) matrices); above n = 2 only the answers None and 0 are
    exact, and a positive minimum rank raises BudgetExceeded instead. A box
    of more than BOX_ROW_BUDGET rows raises BudgetExceeded before it is
    allocated.
    zero_sum_shortcut answers rank-0 queries through the revealed-preference
    graph's acyclicity test before enumerating; disable it to keep the
    enumeration fully independent of the graph machinery.
    """

    max_abs_payoff: int = 3
    max_n: int = 2
    zero_sum_shortcut: bool = True

    def __post_init__(self) -> None:
        if self.max_abs_payoff < 0:
            raise BudgetExceeded(f"max_abs_payoff must be nonnegative, got {self.max_abs_payoff}")


def zero_sum_feasible(dataset: DataSet) -> bool:
    """Whether a zero-sum game rationalizes the dataset.

    With B = -A every column-player inequality also constrains A, so every
    edge of the plain revealed-preference graph becomes an A-ordering;
    feasibility is that graph's acyclicity.
    """
    return is_acyclic(build_split_graph(dataset)).acyclic


def all_subgame_equilibria(game: BimatrixGame, dataset: DataSet) -> dict[Subgame, frozenset[StrategyProfile]]:
    """Strict equilibria of every distinct observed subgame."""
    if game.n != dataset.n:
        raise SizeMismatch(f"game is {game.n}x{game.n} but dataset expects n={dataset.n}")
    return {subgame: strict_equilibria(game, subgame) for subgame in dataset.subgames()}


def _enumerate_box(n: int, max_abs: int) -> np.ndarray:
    """All integer n x n matrices with entries in [-max_abs, max_abs],
    flattened row-major, in lexicographic order. Shape (count, n*n)."""
    import numpy as np

    values = range(-max_abs, max_abs + 1)
    return np.array(list(product(values, repeat=n * n)), dtype=np.int64)


def _feasible_sides(dataset: DataSet, box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    n = dataset.n

    def cell(i: int, j: int) -> int:
        return (i - 1) * n + (j - 1)

    mask_a = np.ones(len(box), dtype=bool)
    mask_b = np.ones(len(box), dtype=bool)
    for obs in dataset.observations:
        (i, j), subgame = obs.choice, obs.subgame
        own = box[:, cell(i, j)]
        for i2 in subgame.rows:
            if i2 != i:
                mask_a &= own > box[:, cell(i2, j)]
        for j2 in subgame.cols:
            if j2 != j:
                mask_b &= own > box[:, cell(i, j2)]
    return box[mask_a], box[mask_b]


def brute_force_min_rank(dataset: DataSet, config: SearchConfig = SearchConfig()) -> int | None:
    """Minimum game rank over all rationalizing integer games in the box,
    or None when the box holds no rationalizing game.

    Rank 0 is B = -A and None an empty side, exact at any n. A positive
    rank is exact for n <= 2 only: a 1x1 sum matrix has rank 1, and a 2x2
    one has rank <= 1 iff its determinant vanishes. Larger n raises
    BudgetExceeded instead.
    """
    n = dataset.n
    if n > config.max_n:
        space = (2 * config.max_abs_payoff + 1) ** (2 * n * n)
        raise BudgetExceeded(f"n={n} exceeds max_n={config.max_n} (search space {space})")
    if config.zero_sum_shortcut and zero_sum_feasible(dataset):
        return 0

    rows = (2 * config.max_abs_payoff + 1) ** (n * n)
    if rows > BOX_ROW_BUDGET:
        raise BudgetExceeded(
            f"max_abs_payoff={config.max_abs_payoff} at n={n} needs {rows} box rows, over the budget {BOX_ROW_BUDGET}"
        )
    box = _enumerate_box(n, config.max_abs_payoff)
    side_a, side_b = _feasible_sides(dataset, box)
    if len(side_a) == 0 or len(side_b) == 0:
        return None

    b_keys = {row.tobytes() for row in side_b}
    if any((-row).tobytes() in b_keys for row in side_a):
        return 0
    if n == 1:
        return 1
    if n > 2:
        raise BudgetExceeded(f"n={n}: the exact search finds a positive minimum rank for n <= 2 only")

    # n == 2: scan A + B determinants in chunks to bound memory.
    import numpy as np

    a0, a1, a2, a3 = (side_a[:, k] for k in range(4))
    b0, b1, b2, b3 = (side_b[:, k] for k in range(4))
    chunk = min(512, ELEMENT_BUDGET // len(side_b))
    for start in range(0, len(side_a), chunk):
        end = start + chunk
        s0 = a0[start:end, None] + b0[None, :]
        s1 = a1[start:end, None] + b1[None, :]
        s2 = a2[start:end, None] + b2[None, :]
        s3 = a3[start:end, None] + b3[None, :]
        if np.any(s0 * s3 == s1 * s2):
            return 1
    return 2
