"""Rationalizing-game synthesis and the rationalizability decision.

A dataset is rationalizable iff payoffs exist making every observed
choice a strict equilibrium of its subgame. The row-player inequalities
constrain A alone and live on row edges; the column-player inequalities
constrain B alone and live on column edges. Each side is satisfiable iff
its constraint graph is acyclic, and the two sides are independent, so
the decision reduces to two cycle checks.

Four synthesis routes, by structure:
  rank_one      full subgames, componentwise-distinct choices -> rank 1
  zero_sum      laminar + uniqueness -> rank 0, unique equilibria
  bounded_rank  uniqueness -> rank bounded by the crossing span
  general       any rationalizable dataset, no rank guarantee
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotLaminar, NotRationalizable, SubgameNotFull, UniquenessViolated
from .graphs import _cells, _coordinates, _cycle_text, _edge_ids, _payoffs, _strong_edge_ids, _sweep
from .model import (
    BimatrixGame,
    DataSet,
    StrategyProfile,
    full_subgame,
    game_rank,
    rationalizes,
)
from .structure import StructureReport, _classes, analyze


@dataclass(frozen=True)
class CycleWitness:
    """A cycle of strict preferences that cannot all hold at once."""

    player: str  # "row" or "column"
    cycle: tuple[StrategyProfile, ...]

    def inequalities(self) -> tuple[str, ...]:
        out = []
        k = len(self.cycle)
        for idx, vertex in enumerate(self.cycle):
            nxt = self.cycle[(idx + 1) % k]
            if self.player == "row":
                out.append(f"A[{vertex.row},{vertex.col}] > A[{nxt.row},{nxt.col}]")
            else:
                out.append(f"B[{nxt.row},{nxt.col}] > B[{vertex.row},{vertex.col}]")
        return tuple(out)


@dataclass(frozen=True)
class RationalizabilityResult:
    rationalizable: bool
    witness: CycleWitness | None

    def __bool__(self) -> bool:
        return self.rationalizable


def _profiles(n: int, cycle: tuple[int, ...]) -> tuple[StrategyProfile, ...]:
    """The profiles of a cycle of vertex ids."""
    return tuple(StrategyProfile(*_coordinates(n, vid)[:2]) for vid in cycle)


def _player_sweeps(dataset: DataSet) -> tuple[dict[int, int], dict[int, int], CycleWitness | None]:
    """Level sweeps of the row player's edges on R copies and the column
    player's on C copies (every profile split), and a cycle of the row
    player's, else of the column player's, when one of them stalls."""
    n = dataset.n
    witness = None
    levels = []
    for pairs, player in zip(_edge_ids(n, dataset.observations, range(n * n)), ("row", "column")):
        player_levels, cycle = _sweep(pairs)
        levels.append(player_levels)
        if cycle is not None and witness is None:
            witness = CycleWitness(player, _profiles(n, cycle))
    return levels[0], levels[1], witness


def is_rationalizable(dataset: DataSet) -> RationalizabilityResult:
    """Decide rationalizability; on failure, exhibit one player's cycle."""
    witness = _player_sweeps(dataset)[2]
    return RationalizabilityResult(witness is None, witness)


@dataclass(frozen=True)
class RationalizationCertificate:
    """A synthesized game plus what it guarantees.

    rank is exact; rank_bound is the method's a priori guarantee (None
    for the general method). uniqueness_guarantee means every observed
    subgame has the observed choice as its only strict equilibrium.
    """

    game: BimatrixGame
    method: str
    rank: int
    rank_bound: int | None
    uniqueness_guarantee: bool


def _certify(
    game: BimatrixGame,
    dataset: DataSet,
    method: str,
    rank_bound: int | None,
    uniqueness_guarantee: bool,
) -> RationalizationCertificate:
    # Soundness gate: every synthesis result must verify before it leaves.
    report = rationalizes(game, dataset)
    if not report.ok:
        raise AssertionError(
            f"internal error: {method} produced a non-rationalizing game: {report.failures[0].inequality}"
        )
    rank = game_rank(game)
    if rank_bound is not None and rank > rank_bound:
        raise AssertionError(f"internal error: {method} exceeded its rank bound {rank_bound} (rank {rank})")
    return RationalizationCertificate(game, method, rank, rank_bound, uniqueness_guarantee)


def rationalize_rank_one(dataset: DataSet) -> RationalizationCertificate:
    """Rank-1 rationalization when every subgame is the full game.

    Choices are relabeled onto the diagonal (sorted lexicographically, the
    k-th choice's row and column both map to k); in those coordinates
    A[i,j] = 2ij - i^2 + j^2 and B[i,j] = 2ij + i^2 - j^2 whenever i or j
    is at most the number of observations, else A = 0 and B = 4ij. Then
    A + B = [4ij], a rank-1 matrix, and the full game's strict equilibria
    are exactly the observed choices.
    """
    n = dataset.n
    full = full_subgame(n)
    for obs in dataset.observations:
        if obs.subgame != full:
            raise SubgameNotFull(f"observation {obs} is not on the full game")
    choices = sorted(obs.choice for obs in dataset.observations)
    rows_seen: dict[int, StrategyProfile] = {}
    cols_seen: dict[int, StrategyProfile] = {}
    for choice in choices:
        for seen, coord in ((rows_seen, choice.row), (cols_seen, choice.col)):
            if coord in seen:
                other = seen[coord]
                axis = "row" if seen is rows_seen else "column"
                raise NotRationalizable(
                    f"choices {other} and {choice} share a {axis}; "
                    "both cannot be strict equilibria of the full game",
                    witness=_shared_line_witness(other, choice),
                )
            seen[coord] = choice

    # Choice rows (columns) take labels 1..ell in choice order, the others follow.
    ell = len(choices)
    row_map, col_map = (
        {x: k for k, x in enumerate([*seen, *(x for x in range(1, n + 1) if x not in seen)], start=1)}
        for seen in (rows_seen, cols_seen)
    )

    # Each cell's A once, B = 4ij - A, and one int object per distinct value.
    labels = [col_map[c] for c in range(1, n + 1)]
    a, b, values = [], [], {}
    for r in range(1, n + 1):
        i = row_map[r]
        row_a = [2 * i * j - i * i + j * j if i <= ell or j <= ell else 0 for j in labels]
        row_b = [4 * i * j - x for j, x in zip(labels, row_a)]
        a.append(tuple(map(values.setdefault, row_a, row_a)))
        b.append(tuple(map(values.setdefault, row_b, row_b)))
    game = BimatrixGame(n, tuple(a), tuple(b))
    return _certify(game, dataset, "rank_one", rank_bound=1, uniqueness_guarantee=True)


def _shared_line_witness(first: StrategyProfile, second: StrategyProfile) -> CycleWitness:
    if first.row == second.row:
        return CycleWitness("column", (first, second))
    return CycleWitness("row", (first, second))


def _require_uniqueness(report: StructureReport) -> None:
    if not report.uniqueness:
        raise UniquenessViolated(f"uniqueness fails for pair {report.uniqueness_violation}")


def rationalize_zero_sum(dataset: DataSet) -> RationalizationCertificate:
    """Zero-sum rationalization of a laminar uniqueness dataset.

    Builds the strongly implementing graph on the dataset's containment
    forest and prices it by levels; the observed choice is then the unique
    strict equilibrium of every observed subgame. The graph is built and
    priced over the dataset's row and column classes, whose rows and
    columns every observation treats alike, so its size follows the
    number of classes rather than n; the game is then expanded to n x n.
    """
    report = analyze(dataset)
    if not report.laminar:
        raise NotLaminar("dataset has crossing subgames")
    _require_uniqueness(report)
    rows, cols = _classes(dataset)
    levels, cycle = _sweep(_strong_edge_ids(dataset, rows, cols))
    # The graph has edges beyond the inequalities that _certify tests, so
    # a cycle here would not be caught there. Its vertices are named by
    # the first row and column of their classes.
    if cycle is not None:
        width, n = max(cols) + 1, dataset.n
        cycle = tuple(3 * (rows.index(vid // 3 // width) * n + cols.index(vid // 3 % width)) + vid % 3 for vid in cycle)
        raise AssertionError(f"internal error: zero_sum's strong graph has cycle {_cycle_text(n, cycle)}")
    game = _payoffs(levels, rows, cols)
    return _certify(game, dataset, "zero_sum", rank_bound=0, uniqueness_guarantee=True)


def _split_cycle_witness(n: int, cycle: tuple[int, ...]) -> CycleWitness:
    # A split-graph cycle alternates row and column edges; report it as
    # profile coordinates. Player attribution is mixed, label by majority tag.
    tags = [_coordinates(n, vid)[2] for vid in cycle]
    player = "column" if tags.count("C") > tags.count("R") else "row"
    return CycleWitness(player, _profiles(n, cycle))


def rationalize_bounded_rank(dataset: DataSet) -> RationalizationCertificate:
    """Rationalization of a uniqueness dataset with rank at most the
    crossing span: the split graph splits exactly the crossing choices."""
    report = analyze(dataset)
    _require_uniqueness(report)
    n = dataset.n
    rows, cols = _edge_ids(n, dataset.observations, _cells(n, report.crossing_choices))
    levels, cycle = _sweep(rows | cols)
    if cycle is not None:
        raise NotRationalizable(
            f"split revealed-preference graph has cycle {_cycle_text(n, cycle)}",
            witness=_split_cycle_witness(n, cycle),
        )
    game = _payoffs(levels, range(n), range(n))
    # The crossing span is the span of the split crossing choices.
    return _certify(game, dataset, "bounded_rank", rank_bound=report.crossing_span, uniqueness_guarantee=False)


def rationalize_general(dataset: DataSet) -> RationalizationCertificate:
    """Rationalization of any rationalizable dataset.

    Every profile is split, so A is priced by levels on the row-player
    constraints alone and B on the column-player constraints alone
    (negated, so the choice's column payoff is largest in its row). No
    rank guarantee. The split graph is the two players' graphs side by
    side, so each is swept on its own, and it is cyclic exactly when one
    of them is; the witness is the row player's cycle when there is one.
    """
    row_levels, col_levels, witness = _player_sweeps(dataset)
    if witness is not None:
        ineqs = ", ".join(witness.inequalities())
        raise NotRationalizable(f"contradictory preferences: {ineqs}", witness=witness)
    n = dataset.n
    game = _payoffs({**row_levels, **col_levels}, range(n), range(n))
    return _certify(game, dataset, "general", rank_bound=None, uniqueness_guarantee=False)


def rationalize_auto(dataset: DataSet) -> RationalizationCertificate:
    """Dispatch to the strongest applicable method.

    Full subgames -> rank_one; laminar + uniqueness -> zero_sum;
    uniqueness -> bounded_rank; otherwise general. The dataset is
    classified once, and the chosen route reuses that classification.
    """
    full = full_subgame(dataset.n)
    if all(subgame == full for subgame in dataset.subgames()):
        return rationalize_rank_one(dataset)
    report = analyze(dataset)
    if report.uniqueness and report.laminar:
        return rationalize_zero_sum(dataset)
    if report.uniqueness:
        return rationalize_bounded_rank(dataset)
    return rationalize_general(dataset)
