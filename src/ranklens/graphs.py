"""Revealed-preference graphs and payoff assignment by topological levels.

Vertices are strategy profiles. A row edge (i,j) -> (i',j) records the
strict preference A[i,j] > A[i',j]; a column edge (i,j') -> (i,j) records
B[i,j] > B[i,j']. In the zero-sum reading (B = -A) every edge v -> w
means A_v > A_w, so an acyclic graph can be priced by a sink-first level
sweep.

A graph may split some profiles: each split profile appears twice, once
carrying only row edges (pricing A) and once carrying only column edges
(pricing B), which confines any rank increase of A + B to the split rows
and columns. Splitting nothing gives the plain revealed-preference graph;
splitting every profile separates the row player's constraints from the
column player's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, NamedTuple

from .errors import CyclicGraph, NotDeduped
from .model import BimatrixGame, DataSet, Observation, StrategyProfile
from .structure import laminar_forest

ROW = "row"
COL = "col"


class SplitVertex(NamedTuple):
    row: int
    col: int
    tag: str = ""  # "" intact, "R" row-edge copy, "C" column-edge copy

    def __str__(self) -> str:
        base = f"{self.row},{self.col}"
        return base if not self.tag else f"{base},{self.tag}"


class Edge(NamedTuple):
    src: SplitVertex
    dst: SplitVertex
    kind: str


# Canonical vertex order: by (row, col), then intact before R before C.
_TAG_ORDER = {"": 0, "R": 1, "C": 2}


def _vertex_key(vertex: SplitVertex) -> tuple[int, int, int]:
    return (vertex.row, vertex.col, _TAG_ORDER[vertex.tag])


@dataclass(frozen=True)
class RPGraph:
    """Directed graph over the n*n profiles with row/column typed edges;
    each profile in ``split`` is duplicated into an R and a C copy."""

    n: int
    edges: frozenset[Edge]
    split: frozenset[StrategyProfile] = frozenset()

    def __post_init__(self) -> None:
        n, split = self.n, self.split
        for edge in self.edges:
            src, dst = edge.src, edge.dst
            for v in (src, dst):
                tags = ("R", "C") if split and (v.row, v.col) in split else ("",)
                if not (1 <= v.row <= n and 1 <= v.col <= n and v.tag in tags):
                    raise ValueError(f"edge endpoint not a vertex of this graph: {edge}")
            if edge.kind == ROW:
                if src.col != dst.col or src.row == dst.row:
                    raise ValueError(f"row edge must change row and keep column: {edge}")
                if src.tag == "C" or dst.tag == "C":
                    raise ValueError(f"row edge may not touch a C copy: {edge}")
            elif edge.kind == COL:
                if src.row != dst.row or src.col == dst.col:
                    raise ValueError(f"column edge must change column and keep row: {edge}")
                if src.tag == "R" or dst.tag == "R":
                    raise ValueError(f"column edge may not touch an R copy: {edge}")
            else:
                raise ValueError(f"unknown edge kind {edge.kind!r}")

    @property
    def vertices(self) -> tuple[SplitVertex, ...]:
        """All vertices, in canonical order."""
        return tuple(
            SplitVertex(i, j, tag)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            for tag in (("R", "C") if (i, j) in self.split else ("",))
        )

    @property
    def span(self) -> int:
        """The smaller of the split profiles' row count and column count."""
        return min(len({p.row for p in self.split}), len({p.col for p in self.split}))

    def to_dot(self) -> str:
        name = "split_revealed_preference" if self.split else "revealed_preference"
        lines = [f"digraph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for edge in sorted(self.edges, key=lambda e: (_vertex_key(e.src), _vertex_key(e.dst))):
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [kind={edge.kind}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _edges(observations: Iterable[Observation], split: frozenset) -> Iterator[Edge]:
    """The one edge rule: each observed choice beats its deviations.

    Row edges point from the choice to each row deviation and use the R
    copy of a split endpoint; column edges point from each column
    deviation to the choice and use the C copy.
    """

    def copy(profile: tuple[int, int], tag: str) -> SplitVertex:
        return SplitVertex(*profile, tag if profile in split else "")

    for obs in observations:
        (i, j), subgame = obs.choice, obs.subgame
        for i2 in subgame.rows:
            if i2 != i:
                yield Edge(copy((i, j), "R"), copy((i2, j), "R"), ROW)
        for j2 in subgame.cols:
            if j2 != j:
                yield Edge(copy((i, j2), "C"), copy((i, j), "C"), COL)


def build_split_graph(dataset: DataSet, split: Iterable[StrategyProfile] = frozenset()) -> RPGraph:
    """Revealed-preference graph of the dataset with the given profiles split.

    Lays down the minimal implementing edge set of every observation. An
    empty split gives the plain graph; the bounded-rank route splits the
    crossing choices (see ``analyze``).
    """
    split = frozenset(StrategyProfile(*p) for p in split)
    return RPGraph(dataset.n, frozenset(_edges(dataset.observations, split)), split)


def build_strong_laminar_graph(dataset: DataSet) -> RPGraph:
    """Strongly implementing graph for a laminar dataset with unique,
    deduplicated choices.

    The caller guarantees laminarity and uniqueness (``rationalize_zero_sum``
    checks both); deduplication is checked here. Per observation ((i,j), X, Y)
    with children taken from the containment forest: besides the implement
    edges, every vertex of a child containing row i gets a column edge toward
    column j, and every other off-choice vertex gets a row edge from row i.
    The result is acyclic and pins the observed choice as the unique strict
    equilibrium of each subgame once payoffs are assigned by levels.
    """
    seen_choices: dict[StrategyProfile, Observation] = {}
    for obs in dataset.observations:
        if obs.choice in seen_choices:
            raise NotDeduped(
                f"observations {seen_choices[obs.choice]} and {obs} share choice {obs.choice}"
            )
        seen_choices[obs.choice] = obs

    forest = laminar_forest(dataset)
    edges = set(_edges(dataset.observations, frozenset()))
    for obs in dataset.observations:
        (i, j) = obs.choice
        subgame = obs.subgame
        row_side: set[StrategyProfile] = set()
        col_side: set[StrategyProfile] = set()
        for child in forest.children_of(subgame):
            target = row_side if i in child.rows else col_side
            target.update(child.grid())
        # A child grid holding the choice would collide with uniqueness
        # plus deduplication.
        assert obs.choice not in row_side and obs.choice not in col_side
        # Sibling grids are disjoint, so no vertex is on both sides.
        for r in subgame.rows:
            for c in subgame.cols:
                if (r, c) in row_side:
                    edges.add(Edge(SplitVertex(r, c), SplitVertex(r, j), COL))
                elif (r, c) in col_side or (r != i and c != j):
                    edges.add(Edge(SplitVertex(i, c), SplitVertex(r, c), ROW))
    # Self-loops cannot arise: row-side vertices keep their own row for the
    # column edge, and the row-edge targets all avoid row i.
    return RPGraph(dataset.n, frozenset(edges))


class AcyclicityCheck(NamedTuple):
    acyclic: bool
    cycle: tuple | None


def _sweep(edges: Collection[Edge]) -> tuple[dict[SplitVertex, int], tuple | None]:
    """Sink-first levels of the vertices that edges touch, and the witness
    cycle when the sweep stalls (else None).

    Every other vertex is an isolated sink at level 1, so leaving it out
    changes no level and keeps the sweep proportional to the edges.

    The witness is the cycle that a depth-first search from every vertex
    in canonical order, successors in canonical order, finds first. A
    vertex the sweep removes reaches no cycle, so that search only ever
    finishes it. Each leftover vertex keeps a leftover successor, so no
    leftover vertex finishes before a cycle is found, and the search never
    backtracks on the leftover part: it starts at the least leftover vertex
    and always moves on to the least leftover successor. The walk below
    follows that path and returns the cycle from the first visit of the
    vertex that repeats.
    """
    out_degree: dict[SplitVertex, int] = {}
    predecessors: dict[SplitVertex, list] = {}
    for edge in edges:
        out_degree[edge.src] = out_degree.get(edge.src, 0) + 1
        out_degree.setdefault(edge.dst, 0)
        predecessors.setdefault(edge.dst, []).append(edge.src)

    levels: dict[SplitVertex, int] = {}
    current = [v for v, degree in out_degree.items() if degree == 0]
    level = 1
    while current:
        next_wave = []
        for vertex in current:
            levels[vertex] = level
            for pred in predecessors.get(vertex, ()):
                out_degree[pred] -= 1
                if out_degree[pred] == 0:
                    next_wave.append(pred)
        current = next_wave
        level += 1
    if len(levels) == len(out_degree):
        return levels, None

    successor: dict[SplitVertex, SplitVertex] = {}
    for edge in edges:
        if edge.src not in levels and edge.dst not in levels:
            best = successor.get(edge.src)
            if best is None or _vertex_key(edge.dst) < _vertex_key(best):
                successor[edge.src] = edge.dst
    path = [min(successor, key=_vertex_key)]
    first_visit = {path[0]: 0}
    while (vertex := successor[path[-1]]) not in first_visit:
        first_visit[vertex] = len(path)
        path.append(vertex)
    return levels, tuple(path[first_visit[vertex]:])


def _levels(graph: RPGraph) -> dict[SplitVertex, int]:
    """The sweep's levels; raises CyclicGraph, carrying the cycle, when it stalls."""
    levels, cycle = _sweep(graph.edges)
    if cycle is not None:
        raise CyclicGraph(f"level sweep stalled on cycle {cycle}", cycle)
    return levels


def is_acyclic(graph: RPGraph) -> AcyclicityCheck:
    """Cycle test by the level sweep, with its deterministic witness cycle."""
    cycle = _sweep(graph.edges)[1]
    return AcyclicityCheck(cycle is None, cycle)


def topological_levels(graph: RPGraph) -> dict[SplitVertex, int]:
    """Sink-first level sweep over every vertex of the graph.

    All current sinks (vertices without outgoing edges, isolated ones
    included) receive the current level, are removed, and the level
    increments; so every edge v -> w ends up with level(v) > level(w).
    A vertex's level is one more than the longest path from it to a sink.
    The result lists the vertices level by level, each level in canonical
    order. Raises CyclicGraph when the sweep stalls.
    """
    touched = _levels(graph)
    levels = [(v, touched.get(v, 1)) for v in graph.vertices]
    return dict(sorted(levels, key=lambda item: item[1]))


def assign_payoffs_split(graph: RPGraph) -> BimatrixGame:
    """Payoffs from levels.

    Intact vertices price both matrices (A = level, B = -level); an R copy
    prices only A and a C copy only B, so A + B can be nonzero only on
    split rows and columns, bounding its rank by the graph's span. A vertex
    no edge touches sits at level 1, so every cell starts at A = 1,
    B = -1 and only the touched vertices are priced; each level becomes
    one Fraction, shared by its cells.
    """
    n = graph.n
    prices = {1: (Fraction(1), Fraction(-1))}
    a = [[prices[1][0]] * n for _ in range(n)]
    b = [[prices[1][1]] * n for _ in range(n)]
    for vertex, level in _levels(graph).items():
        price = prices.get(level)
        if price is None:
            price = prices[level] = (Fraction(level), Fraction(-level))
        r, c = vertex.row - 1, vertex.col - 1
        if vertex.tag != "C":
            a[r][c] = price[0]
        if vertex.tag != "R":
            b[r][c] = price[1]
    return BimatrixGame(n, tuple(map(tuple, a)), tuple(map(tuple, b)))
