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

The core works on integer vertex ids and (source, target) id pairs; the
routes call it directly. ``RPGraph`` and the public functions over it
encode and decode at the boundary and run the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple

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


# Vertex id ((row-1)*n + (col-1))*3 + t, with t = 0 for an intact vertex,
# 1 for an R copy and 2 for a C copy. Integer order is the canonical vertex
# order: by (row, col), then intact before R before C.
_TAGS = ("", "R", "C")
_TAG_CODES = {tag: code for code, tag in enumerate(_TAGS)}


def _vertex_id(n: int, vertex: SplitVertex) -> int:
    return ((vertex.row - 1) * n + vertex.col - 1) * 3 + _TAG_CODES[vertex.tag]


def _coordinates(n: int, vid: int) -> tuple[int, int, str]:
    """(row, col, tag) of a vertex id."""
    cell, tag = divmod(vid, 3)
    row, col = divmod(cell, n)
    return row + 1, col + 1, _TAGS[tag]


def _vertex(n: int, vid: int) -> SplitVertex:
    return SplitVertex(*_coordinates(n, vid))


def _cells(n: int, profiles: Iterable[tuple[int, int]]) -> set[int]:
    """The profiles' cells: (row-1)*n + (col-1), the id of the intact vertex over 3."""
    return {(row - 1) * n + col - 1 for row, col in profiles}


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
        for src, dst in sorted(self._pairs()):
            edge = _edge(self.n, src, dst)
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [kind={edge.kind}];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _pairs(self) -> list[tuple[int, int]]:
        n = self.n
        return [(_vertex_id(n, edge.src), _vertex_id(n, edge.dst)) for edge in self.edges]


def _edge(n: int, src: int, dst: int) -> Edge:
    """The Edge of an id pair: a row edge keeps its column."""
    kind = ROW if (src // 3 - dst // 3) % n == 0 else COL
    return Edge(_vertex(n, src), _vertex(n, dst), kind)


def _graph(n: int, pairs: Iterable[tuple[int, int]], split: frozenset[StrategyProfile]) -> RPGraph:
    return RPGraph(n, frozenset(_edge(n, src, dst) for src, dst in pairs), split)


def _edge_ids(n: int, observations: Iterable[Observation], split: Collection[int] = ()) -> tuple[set, set]:
    """The one edge rule: each observed choice beats its deviations.

    Returns the row edges and the column edges as id pairs. Row edges
    point from the choice to each row deviation and use the R copy of an
    endpoint whose cell is in ``split``; column edges point from each
    column deviation to the choice and use the C copy.
    """
    rows: set[tuple[int, int]] = set()
    cols: set[tuple[int, int]] = set()
    for obs in observations:
        (i, j), subgame = obs.choice, obs.subgame
        choice = (i - 1) * n + j - 1
        is_split = choice in split
        src = 3 * choice + is_split
        for i2 in subgame.rows:
            if i2 != i:
                cell = choice + (i2 - i) * n
                rows.add((src, 3 * cell + (cell in split)))
        dst = 3 * choice + 2 * is_split
        for j2 in subgame.cols:
            if j2 != j:
                cell = choice + j2 - j
                cols.add((3 * cell + 2 * (cell in split), dst))
    return rows, cols


def build_split_graph(dataset: DataSet, split: Iterable[StrategyProfile] = frozenset()) -> RPGraph:
    """Revealed-preference graph of the dataset with the given profiles split.

    Lays down the minimal implementing edge set of every observation. An
    empty split gives the plain graph; the bounded-rank route splits the
    crossing choices (see ``analyze``).
    """
    n = dataset.n
    split = frozenset(StrategyProfile(*p) for p in split)
    rows, cols = _edge_ids(n, dataset.observations, _cells(n, split))
    return _graph(n, rows | cols, split)


def _strong_edge_ids(dataset: DataSet) -> list[tuple[int, int]]:
    """Id pairs of the strongly implementing graph; see build_strong_laminar_graph."""
    seen_choices: dict[StrategyProfile, Observation] = {}
    for obs in dataset.observations:
        if obs.choice in seen_choices:
            raise NotDeduped(
                f"observations {seen_choices[obs.choice]} and {obs} share choice {obs.choice}"
            )
        seen_choices[obs.choice] = obs

    n = dataset.n
    forest = laminar_forest(dataset)
    pairs: list[tuple[int, int]] = []
    for obs in dataset.observations:
        (i, j), subgame = obs.choice, obs.subgame
        # Cells and rows of the children that hold row i; sibling grids
        # are disjoint.
        row_side: set[int] = set()
        side_rows: set[int] = set()
        for child in forest.children_of(subgame):
            if i in child.rows:
                row_side |= _cells(n, child.grid())
                side_rows.update(child.rows)
        choice = (i - 1) * n + j - 1
        # A child grid holding the choice would collide with uniqueness
        # plus deduplication.
        assert choice not in row_side
        # Row i and the row side get column edges toward column j, every
        # other vertex a row edge from row i; row i's column edges and
        # column j's row edges are the implement edges. Neither makes a
        # self-loop. tops holds the ids of row i's vertices.
        tops = [3 * (choice + c - j) for c in subgame.cols]
        for r in subgame.rows:
            shift = 3 * (r - i) * n
            if r == i:
                pairs += [(top, 3 * choice) for top in tops if top != 3 * choice]
            elif r in side_rows:
                for top in tops:
                    vid = top + shift
                    pairs.append((vid, 3 * choice + shift) if vid // 3 in row_side else (top, vid))
            else:
                pairs += [(top, top + shift) for top in tops]
    return pairs


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
    return _graph(dataset.n, _strong_edge_ids(dataset), frozenset())


class AcyclicityCheck(NamedTuple):
    acyclic: bool
    cycle: tuple | None


def _sweep(pairs: Collection[tuple[int, int]]) -> tuple[dict[int, int], tuple[int, ...] | None]:
    """Sink-first levels of the vertices that the id pairs touch, and the
    witness cycle when the sweep stalls (else None).

    Every other vertex is an isolated sink at level 1, so leaving it out
    changes no level and keeps the sweep proportional to the edges. A
    repeated pair changes nothing either: it counts once more toward its
    source's out-degree and is discounted once more when its target goes.

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
    out_degree: dict[int, int] = {}
    predecessors: dict[int, list[int]] = {}
    for src, dst in pairs:
        out_degree[src] = out_degree.get(src, 0) + 1
        preds = predecessors.get(dst)
        if preds is None:
            predecessors[dst] = [src]
        else:
            preds.append(src)

    levels: dict[int, int] = {}
    current = [v for v in predecessors if v not in out_degree]
    sinks = len(current)
    level = 1
    while current:
        next_wave = []
        for vertex in current:
            levels[vertex] = level
            for pred in predecessors.get(vertex, ()):
                left = out_degree[pred] - 1
                out_degree[pred] = left
                if not left:
                    next_wave.append(pred)
        current = next_wave
        level += 1
    if len(levels) - sinks == len(out_degree):
        return levels, None

    successor: dict[int, int] = {}
    for src, dst in pairs:
        if src not in levels and dst not in levels:
            best = successor.get(src)
            if best is None or dst < best:
                successor[src] = dst
    path = [min(successor)]
    first_visit = {path[0]: 0}
    while (vertex := successor[path[-1]]) not in first_visit:
        first_visit[vertex] = len(path)
        path.append(vertex)
    return levels, tuple(path[first_visit[vertex]:])


def _decode(n: int, cycle: tuple[int, ...] | None) -> tuple[SplitVertex, ...] | None:
    return None if cycle is None else tuple(_vertex(n, vid) for vid in cycle)


def _cycle_text(n: int, cycle: tuple[int, ...]) -> str:
    """str() of the decoded cycle, a tuple of two or more SplitVertex,
    written without building them."""
    vertices = ("SplitVertex(row={}, col={}, tag={!r})".format(*_coordinates(n, vid)) for vid in cycle)
    return f"({', '.join(vertices)})"


def _levels(n: int, pairs: Collection[tuple[int, int]]) -> dict[int, int]:
    """The sweep's levels; raises CyclicGraph, carrying the cycle, when it stalls."""
    levels, cycle = _sweep(pairs)
    if cycle is not None:
        vertices = _decode(n, cycle)
        raise CyclicGraph(f"level sweep stalled on cycle {vertices}", vertices)
    return levels


def _payoffs(n: int, levels: dict[int, int]) -> BimatrixGame:
    """Payoffs from the levels of vertex ids; see assign_payoffs_split."""
    prices = {1: (Fraction(1), Fraction(-1))}
    a = [prices[1][0]] * (n * n)
    b = [prices[1][1]] * (n * n)
    for vid, level in levels.items():
        price = prices.get(level)
        if price is None:
            price = prices[level] = (Fraction(level), Fraction(-level))
        cell, tag = divmod(vid, 3)
        if tag != 2:
            a[cell] = price[0]
        if tag != 1:
            b[cell] = price[1]
    starts = range(0, n * n, n)
    return BimatrixGame(n, tuple(tuple(a[k:k + n]) for k in starts), tuple(tuple(b[k:k + n]) for k in starts))


def is_acyclic(graph: RPGraph) -> AcyclicityCheck:
    """Cycle test by the level sweep, with its deterministic witness cycle."""
    cycle = _sweep(graph._pairs())[1]
    return AcyclicityCheck(cycle is None, _decode(graph.n, cycle))


def topological_levels(graph: RPGraph) -> dict[SplitVertex, int]:
    """Sink-first level sweep over every vertex of the graph.

    All current sinks (vertices without outgoing edges, isolated ones
    included) receive the current level, are removed, and the level
    increments; so every edge v -> w ends up with level(v) > level(w).
    A vertex's level is one more than the longest path from it to a sink.
    The result lists the vertices level by level, each level in canonical
    order. Raises CyclicGraph when the sweep stalls.
    """
    n = graph.n
    touched = {_vertex(n, vid): level for vid, level in _levels(n, graph._pairs()).items()}
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
    return _payoffs(graph.n, _levels(graph.n, graph._pairs()))
