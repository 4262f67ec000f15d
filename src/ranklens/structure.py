"""Structural classification of datasets: crossings, laminarity, spans.

Two subgames cross when their grids intersect but neither contains the
other. A dataset with no crossing pair is laminar; its subgames then form
a containment forest. The crossing span (min of row and column span of
the crossing subgames' observed choices) calibrates how far a dataset is
from admitting a zero-sum rationalization.

Classification works on bitmask grids: every subgame's rows and columns
become two int bitmasks, so intersection and containment are a few
integer operations. One int index of the subgames, by row set and then
column, answers two queries: which grids meet a grid, and which grids
contain it. `crossing_set` reads the first, and `satisfies_uniqueness`,
`laminar_forest` and `dedupe_nested` read the second, so a subgame or an
observation is tested only against the grids that meet or contain its
own, never against every pair. The masks, the index, the crossing set
and the report are computed once per dataset and kept on it beside its
fields (see ``_Classification``), so every helper and route reuses one
classification.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .model import DataSet, Observation, StrategyProfile, Subgame


def _bits(indices) -> int:
    """Bit i set for each index i, read by int() from one binary digit per
    index up to the largest, so the time is linear in that index."""
    top, one = max(indices), ord("1")
    digits = bytearray(b"0") * (top + 1)
    for index in indices:
        digits[top - index] = one
    return int(digits, 2)


def _masks(subgame: Subgame) -> tuple[int, int]:
    """The grid as two bitmasks: bit i is set for row (column) i."""
    return _bits(subgame.rows), _bits(subgame.cols)


class _GridIndex:
    """The subgames' grids, indexed by row set, then column.

    Row sets are numbered in sorted order. ``rows_through[row]`` lists the
    numbers of the row sets that hold the row, and ``by_rows[number][col]``
    lists the positions of the subgames with that row set whose columns
    hold col. ``masks[position]`` is the subgame's grid as two bitmasks.
    """

    def __init__(self, subgames: tuple[Subgame, ...], masks: list[tuple[int, int]]) -> None:
        self.masks = masks
        self.rows_through: dict[int, list[int]] = defaultdict(list)
        self.by_rows: list[dict[int, list[int]]] = []
        for position, subgame in enumerate(subgames):
            # Sorted subgames hold each row set in one run.
            if not position or masks[position][0] != masks[position - 1][0]:
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

    def containers(self, subgame: Subgame, position: int):
        """Positions of the subgames whose grids contain this one's, itself
        included. A container holds the first row and the first column."""
        rows_s, cols_s = self.masks[position]
        for number in self.rows_through[subgame.rows[0]]:
            for other in self.by_rows[number].get(subgame.cols[0], ()):
                rows, cols = self.masks[other]
                if rows & rows_s == rows_s and cols & cols_s == cols_s:
                    yield other


class _Classification:
    """What classifying a DataSet computes once: the sorted subgames, their
    bitmask grids, the grid of each observation (as a subgame position),
    and, once asked, the grid index, the crossing set and the structure
    report.

    One instance is kept on the dataset, beside its fields (see
    ``_classified``). It refers back to the dataset weakly, so a dataset
    and its memo make no reference cycle and are freed together.
    """

    def __init__(self, dataset: DataSet) -> None:
        self._dataset = weakref.ref(dataset)
        self.subgames = subgames = dataset.subgames()
        bits: dict[tuple[int, ...], int] = {}
        for subgame in subgames:
            for axis in (subgame.rows, subgame.cols):
                if axis not in bits:
                    bits[axis] = _bits(axis)
        self.masks = [(bits[s.rows], bits[s.cols]) for s in subgames]
        position = {(s.rows, s.cols): p for p, s in enumerate(subgames)}
        self.positions = [position[obs.subgame.rows, obs.subgame.cols] for obs in dataset.observations]

    @cached_property
    def index(self) -> _GridIndex:
        return _GridIndex(self.subgames, self.masks)

    @cached_property
    def crossing(self) -> tuple[Subgame, ...]:
        return crossing_set(self._dataset())

    @cached_property
    def report(self) -> StructureReport:
        return _report(self._dataset(), self.crossing)


def _classified(dataset: DataSet) -> _Classification:
    """The dataset's classification memo, made on first use."""
    memo = getattr(dataset, "_classification", None)
    if memo is None:
        memo = _Classification(dataset)
        object.__setattr__(dataset, "_classification", memo)
    return memo


def subgames_cross(first: Subgame, second: Subgame) -> bool:
    """Grids intersect and neither contains the other."""
    (rows_f, cols_f), (rows_s, cols_s) = _masks(first), _masks(second)
    rows, cols = rows_f & rows_s, cols_f & cols_s
    if not rows or not cols:
        return False
    first_inside = rows == rows_f and cols == cols_f
    second_inside = rows == rows_s and cols == cols_s
    return not first_inside and not second_inside


def crossing_set(dataset: DataSet) -> tuple[Subgame, ...]:
    """Subgames of the dataset that cross at least one other subgame.

    Grids that cross meet, so each subgame is tested only against the
    grids the index finds meeting it; a crossing marks both subgames.
    """
    memo = _classified(dataset)
    subgames, masks, index = memo.subgames, memo.masks, memo.index
    crossing = [False] * len(subgames)
    for position, subgame in enumerate(subgames):
        if crossing[position]:
            continue
        rows_s, cols_s = masks[position]
        for other in index.meeting(subgame):
            rows_t, cols_t = masks[other]
            rows, cols = rows_s & rows_t, cols_s & cols_t
            if (rows != rows_s or cols != cols_s) and (rows != rows_t or cols != cols_t):
                crossing[position] = crossing[other] = True
                break
    return tuple(s for s, crosses in zip(subgames, crossing) if crosses)


def is_laminar(dataset: DataSet) -> bool:
    return not _classified(dataset).crossing


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
    # of an inner one are the owners of its grid's containers. The first
    # violating pair in observation order is the least (outer, inner) pair.
    first: tuple[int, int] | None = None
    for inner_position, (inner, grid) in enumerate(zip(observations, memo.positions)):
        rows_i, cols_i = memo.masks[grid]
        for container in memo.index.containers(memo.subgames[grid], grid):
            outer_position = owner[container]
            row, col = choice = observations[outer_position].choice
            if choice != inner.choice and rows_i >> row & 1 and cols_i >> col & 1:
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
    return _classified(dataset).report


def _report(dataset: DataSet, crossing: tuple[Subgame, ...]) -> StructureReport:
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


def crossing_span(dataset: DataSet) -> int:
    return analyze(dataset).crossing_span


@dataclass(frozen=True)
class LaminarForest:
    """Containment forest of a laminar dataset's distinct subgames.

    The parent of a node is the smallest subgame strictly containing it;
    roots are the maximal subgames. Sibling grids are pairwise disjoint.
    """

    subgames: tuple[Subgame, ...]
    parent_index: tuple[int | None, ...]
    children_index: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    @cached_property
    def _positions(self) -> dict[Subgame, int]:
        return {subgame: index for index, subgame in enumerate(self.subgames)}

    def _index_of(self, subgame: Subgame) -> int:
        try:
            return self._positions[subgame]
        except KeyError:
            raise KeyError(f"subgame {subgame} is not a node of this forest") from None

    def parent_of(self, subgame: Subgame) -> Subgame | None:
        parent = self.parent_index[self._index_of(subgame)]
        return None if parent is None else self.subgames[parent]

    def children_of(self, subgame: Subgame) -> tuple[Subgame, ...]:
        return tuple(self.subgames[i] for i in self.children_index[self._index_of(subgame)])

    def root_subgames(self) -> tuple[Subgame, ...]:
        return tuple(self.subgames[i] for i in self.roots)

    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path (0 when empty)."""

        def depth(index: int) -> int:
            children = self.children_index[index]
            return 1 + (max(depth(c) for c in children) if children else 0)

        return max((depth(r) for r in self.roots), default=0)

    def __len__(self) -> int:
        return len(self.subgames)


def laminar_forest(dataset: DataSet) -> LaminarForest:
    """Build the containment forest of a laminar dataset.

    The caller guarantees laminarity; on crossing data the result is not a
    containment forest.
    """
    memo = _classified(dataset)
    subgames, index = memo.subgames, memo.index
    parent_index: list[int | None] = []
    for position, s in enumerate(subgames):
        containers = [(subgames[i].grid_size(), i) for i in index.containers(s, position) if i != position]
        # Laminarity makes the containers a chain, so the smallest is unique.
        parent_index.append(min(containers)[1] if containers else None)
    children: list[list[int]] = [[] for _ in subgames]
    roots = []
    for i, parent in enumerate(parent_index):
        if parent is None:
            roots.append(i)
        else:
            children[parent].append(i)
    return LaminarForest(
        subgames=subgames,
        parent_index=tuple(parent_index),
        children_index=tuple(tuple(c) for c in children),
        roots=tuple(roots),
    )


def dedupe_nested(dataset: DataSet) -> DataSet:
    """Drop observations subsumed by a same-choice observation on a larger grid.

    The caller guarantees laminarity and uniqueness. In the result,
    observed choices are pairwise distinct: same-choice subgames are nested
    under laminarity, and only the outermost survives.
    """
    memo = _classified(dataset)
    chosen: list[set[StrategyProfile]] = [set() for _ in memo.subgames]
    for obs, grid in zip(dataset.observations, memo.positions):
        chosen[grid].add(obs.choice)
    kept = []
    for obs, grid in zip(dataset.observations, memo.positions):
        subsumed = any(
            obs.choice in chosen[container]
            for container in memo.index.containers(memo.subgames[grid], grid)
            if container != grid
        )
        if not subsumed:
            kept.append(obs)
    return DataSet(dataset.n, tuple(kept))
