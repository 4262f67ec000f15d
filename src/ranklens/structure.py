"""Structural classification of datasets: crossings, laminarity, spans.

Two subgames cross when their grids intersect but neither contains the
other. A dataset with no crossing pair is laminar; its subgames then form
a containment forest. The crossing span (min of row and column span of
the crossing subgames' observed choices) calibrates how far a dataset is
from admitting a zero-sum rationalization.

Classification works on set grids: every subgame's rows and columns
become two frozensets, shared by the subgames with the same axis, so
intersection and containment are set tests. One index of the subgames,
by row set and then column, answers two queries: which grids meet a
grid, and which grids contain it. `crossing_set` reads the first;
`satisfies_uniqueness` and the zero-sum route's nesting pass read the
second, so a subgame or an observation is tested only against the grids
that meet or contain its own, never against every pair. The grids, the
index, the containers and the report are computed once per dataset and
kept on it beside its fields (see ``_Classification``), so every helper
and route reuses one classification. The same memo keeps the row and
column classes (``_classes``): rows that every observation treats alike,
over which the zero-sum route builds and prices its graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .model import DataSet, Observation, StrategyProfile, Subgame


class _GridIndex:
    """The subgames' grids, indexed by row set, then column.

    Row sets are numbered in sorted order. ``rows_through[row]`` lists the
    numbers of the row sets that hold the row, and ``by_rows[number][col]``
    lists the positions of the subgames with that row set whose columns
    hold col.
    """

    def __init__(self, subgames: tuple[Subgame, ...]) -> None:
        self.rows_through: dict[int, list[int]] = defaultdict(list)
        self.by_rows: list[dict[int, list[int]]] = []
        for position, subgame in enumerate(subgames):
            # Sorted subgames hold each row set in one run.
            if not position or subgame.rows != subgames[position - 1].rows:
                for row in subgame.rows:
                    self.rows_through[row].append(len(self.by_rows))
                self.by_rows.append(defaultdict(list))
            by_col = self.by_rows[-1]
            for col in subgame.cols:
                by_col[col].append(position)

    def meeting(self, subgame: Subgame) -> set[int]:
        """Positions of the subgames whose grids meet this one's, itself
        included."""
        positions: set[int] = set()
        for number in {number for row in subgame.rows for number in self.rows_through[row]}:
            by_col = self.by_rows[number]
            for col in by_col.keys() & subgame.cols:
                positions.update(by_col[col])
        return positions


class _Classification:
    """What classifying a DataSet computes once: the sorted subgames, their
    grids as pairs of frozensets, the grid of each observation (as a
    subgame position), and, once asked, the grid index and each grid's
    strict containers. ``analyze`` stores the structure report on it, and
    ``_classes`` the row and column classes.

    One instance is kept on the dataset, beside its fields (see
    ``_classified``). It holds no reference to the dataset, so the two
    make no reference cycle and are freed together.
    """

    def __init__(self, dataset: DataSet) -> None:
        self.report: StructureReport | None = None
        self.classes: tuple[list[int], list[int]] | None = None
        self.subgames = subgames = dataset.subgames()
        axes: dict[tuple[int, ...], frozenset[int]] = {}
        for subgame in subgames:
            for axis in (subgame.rows, subgame.cols):
                if axis not in axes:
                    axes[axis] = frozenset(axis)
        self.grids = [(axes[s.rows], axes[s.cols]) for s in subgames]
        position = {s: p for p, s in enumerate(subgames)}
        self.positions = [position[obs.subgame] for obs in dataset.observations]

    @cached_property
    def index(self) -> _GridIndex:
        return _GridIndex(self.subgames)

    @cached_property
    def outer(self) -> list[list[int]]:
        """Positions of each grid's strict containers. A container holds
        the grid's first row and first column, so the index lists it."""
        index, grids = self.index, self.grids
        outer = []
        for position, subgame in enumerate(self.subgames):
            rows_s, cols_s = grids[position]
            outer.append([
                other
                for number in index.rows_through[subgame.rows[0]]
                for other in index.by_rows[number].get(subgame.cols[0], ())
                if other != position and rows_s <= grids[other][0] and cols_s <= grids[other][1]
            ])
        return outer


def _classified(dataset: DataSet) -> _Classification:
    """The dataset's classification memo, made on first use."""
    memo = getattr(dataset, "_classification", None)
    if memo is None:
        memo = _Classification(dataset)
        object.__setattr__(dataset, "_classification", memo)
    return memo


def crossing_set(dataset: DataSet) -> tuple[Subgame, ...]:
    """Subgames of the dataset that cross at least one other subgame.

    Grids that cross meet, so each subgame is tested only against the
    grids the index finds meeting it; a crossing marks both subgames.
    """
    memo = _classified(dataset)
    subgames, grids, index = memo.subgames, memo.grids, memo.index
    crossing = [False] * len(subgames)
    for position, subgame in enumerate(subgames):
        if crossing[position]:
            continue
        rows_s, cols_s = grids[position]
        for other in index.meeting(subgame):
            rows_t, cols_t = grids[other]
            if not (rows_s <= rows_t and cols_s <= cols_t) and not (rows_t <= rows_s and cols_t <= cols_s):
                crossing[position] = crossing[other] = True
                break
    return tuple(s for s, crosses in zip(subgames, crossing) if crosses)


@dataclass(frozen=True)
class StructureReport:
    laminar: bool
    uniqueness: bool
    crossing_subgames: tuple[Subgame, ...]
    crossing_choices: tuple[StrategyProfile, ...]
    row_span: int
    col_span: int
    crossing_span: int
    uniqueness_violation: tuple[Observation, Observation] | None


@dataclass(frozen=True)
class UniquenessCheck:
    ok: bool
    violation: tuple[Observation, Observation] | None

    def __bool__(self) -> bool:
        return self.ok


def satisfies_uniqueness(dataset: DataSet) -> UniquenessCheck:
    """Exactly one choice per subgame, and nested consistency.

    Nested consistency: whenever one observation's subgame contains
    another's grid and the outer choice lies in the inner grid, the inner
    observation must have picked that same choice. Returns the first
    violating pair when the check fails.
    """
    observations = dataset.observations
    memo = _classified(dataset)
    owner: dict[int, int] = {}
    for position, grid in enumerate(memo.positions):
        prior = owner.setdefault(grid, position)
        if prior != position:
            return UniquenessCheck(False, (observations[prior], observations[position]))
    # Each grid now has one observation, its owner, so the outer observations
    # of an inner one are the owners of its grid's strict containers. The
    # first violating pair in observation order is the least (outer, inner)
    # pair.
    first: tuple[int, int] | None = None
    for inner_position, (inner, grid) in enumerate(zip(observations, memo.positions)):
        rows_i, cols_i = memo.grids[grid]
        for container in memo.outer[grid]:
            outer_position = owner[container]
            row, col = choice = observations[outer_position].choice
            if choice != inner.choice and row in rows_i and col in cols_i:
                pair = (outer_position, inner_position)
                if first is None or pair < first:
                    first = pair
    if first is not None:
        return UniquenessCheck(False, (observations[first[0]], observations[first[1]]))
    return UniquenessCheck(True, None)


def analyze(dataset: DataSet) -> StructureReport:
    """One-stop structural report: laminarity, uniqueness, crossing data, spans.

    The report is computed once per dataset; later calls, and every
    structure helper and route, reuse it.
    """
    memo = _classified(dataset)
    if memo.report is None:
        memo.report = _report(dataset)
    return memo.report


def _report(dataset: DataSet) -> StructureReport:
    crossing = crossing_set(dataset)
    crossing_lookup = set(crossing)
    choices = tuple(
        sorted({obs.choice for obs in dataset.observations if obs.subgame in crossing_lookup})
    )
    row_span = len({profile.row for profile in choices})
    col_span = len({profile.col for profile in choices})
    uniqueness = satisfies_uniqueness(dataset)
    return StructureReport(
        laminar=not crossing,
        uniqueness=uniqueness.ok,
        crossing_subgames=crossing,
        crossing_choices=choices,
        row_span=row_span,
        col_span=col_span,
        crossing_span=min(row_span, col_span),
        uniqueness_violation=uniqueness.violation,
    )


def _classes(dataset: DataSet) -> tuple[list[int], list[int]]:
    """The row and column classes, as class maps: ``rows[r - 1]`` is the
    class of row r, ``cols[c - 1]`` the class of column c.

    Two rows are in one class when every observation treats them alike:
    both are in its row set or neither is, and neither is its choice row
    (so a choice row is a class of its own). Columns likewise. Classes
    are numbered in order of their first member, so the maps are the
    identity exactly when every class is a singleton. One pass over the
    observations' row and column sets marks each row and column with the
    observations that hold it, and the marks number the classes.
    """
    memo = _classified(dataset)
    if memo.classes is None:
        n = dataset.n
        marks = ([[] for _ in range(n)], [[] for _ in range(n)])
        for k, ((i, j), (rows, cols)) in enumerate(dataset.observations):
            for axis_marks, axis, chosen in zip(marks, (rows, cols), (i, j)):
                for x in axis:
                    axis_marks[x - 1].append(k)
                axis_marks[chosen - 1].append(~k)
        memo.classes = (_numbered(marks[0]), _numbered(marks[1]))
    return memo.classes


def _numbered(marks: list[list[int]]) -> list[int]:
    """The class number of each mark list: equal lists share a number, and
    numbers go in order of first appearance."""
    number: dict[tuple[int, ...], int] = {}
    return [number.setdefault(tuple(mark), len(number)) for mark in marks]


def _nesting(dataset: DataSet) -> list[tuple[Observation, list[Subgame]]]:
    """The containment forest that the zero-sum route prices: the
    observation of each kept grid, in subgame order, with the subgames of
    its kept children.

    A grid is skipped when a strict container holds the same choice, and
    a kept grid's parent is its smallest kept strict container. The
    caller guarantees laminarity and uniqueness, so each grid has one
    observation, the containers of a grid form a chain, and the kept
    choices are pairwise distinct.
    """
    memo = _classified(dataset)
    subgames, outer = memo.subgames, memo.outer
    owner = dict(zip(memo.positions, dataset.observations))
    children: dict[int, list[Subgame]] = {
        grid: [] for grid in range(len(subgames))
        if all(owner[other].choice != owner[grid].choice for other in outer[grid])
    }
    for grid in children:
        containers = [(subgames[other].grid_size(), other) for other in outer[grid] if other in children]
        if containers:
            children[min(containers)[1]].append(subgames[grid])
    return [(owner[grid], kids) for grid, kids in children.items()]
