"""Structural classification of datasets: crossings, laminarity, spans.

Two subgames cross when their grids intersect but neither contains the
other. A dataset with no crossing pair is laminar; its subgames then form
a containment forest. The crossing span (min of row and column span of
the crossing subgames' observed choices) calibrates how far a dataset is
from admitting a zero-sum rationalization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DataSet, Observation, StrategyProfile, Subgame


def subgames_cross(first: Subgame, second: Subgame) -> bool:
    """Grids intersect and neither contains the other."""
    rows_f, cols_f = set(first.rows), set(first.cols)
    rows_s, cols_s = set(second.rows), set(second.cols)
    if not (rows_f & rows_s) or not (cols_f & cols_s):
        return False
    first_inside = rows_f <= rows_s and cols_f <= cols_s
    second_inside = rows_s <= rows_f and cols_s <= cols_f
    return not first_inside and not second_inside


def crossing_set(dataset: DataSet) -> tuple[Subgame, ...]:
    """Subgames of the dataset that cross at least one other subgame."""
    subgames = dataset.subgames()
    return tuple(
        s for s in subgames if any(subgames_cross(s, t) for t in subgames if t != s)
    )


def is_laminar(dataset: DataSet) -> bool:
    return not crossing_set(dataset)


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
    by_subgame: dict[Subgame, Observation] = {}
    for obs in dataset.observations:
        prior = by_subgame.get(obs.subgame)
        if prior is not None:
            return UniquenessCheck(False, (prior, obs))
        by_subgame[obs.subgame] = obs
    for outer in dataset.observations:
        for inner in dataset.observations:
            if inner.subgame == outer.subgame:
                continue
            if not outer.subgame.contains_subgame(inner.subgame):
                continue
            if inner.subgame.contains(outer.choice) and inner.choice != outer.choice:
                return UniquenessCheck(False, (outer, inner))
    return UniquenessCheck(True, None)


def analyze(dataset: DataSet) -> StructureReport:
    """One-stop structural report: laminarity, uniqueness, crossing data, spans."""
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

    def _index_of(self, subgame: Subgame) -> int:
        try:
            return self.subgames.index(subgame)
        except ValueError:
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
    subgames = dataset.subgames()
    parent_index: list[int | None] = []
    for s in subgames:
        containers = [
            (t.grid_size(), i)
            for i, t in enumerate(subgames)
            if t != s and t.contains_subgame(s)
        ]
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
    kept = []
    for obs in dataset.observations:
        subsumed = any(
            other.choice == obs.choice
            and other.subgame != obs.subgame
            and other.subgame.contains_subgame(obs.subgame)
            for other in dataset.observations
        )
        if not subsumed:
            kept.append(obs)
    return DataSet(dataset.n, tuple(kept))
