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

The zero-sum route's graph is built over row and column classes instead
(see ``structure._classes``): one vertex per block of profiles that every
observation treats alike, priced once and expanded to every cell of the
block.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .model import BimatrixGame, DataSet, Observation
from .structure import _nesting

# Vertex id ((row-1)*n + (col-1))*3 + t, with t = 0 for an intact vertex,
# 1 for an R copy and 2 for a C copy. Integer order is the canonical vertex
# order: by (row, col), then intact before R before C. Over classes, the
# row and column class numbers stand for row-1 and col-1, and the number of
# column classes for n.
_TAGS = ("", "R", "C")


def _coordinates(n: int, vid: int) -> tuple[int, int, str]:
    """(row, col, tag) of a vertex id."""
    cell, tag = divmod(vid, 3)
    row, col = divmod(cell, n)
    return row + 1, col + 1, _TAGS[tag]


def _cells(n: int, profiles: Iterable[tuple[int, int]]) -> set[int]:
    """The profiles' cells: (row-1)*n + (col-1), the id of the intact vertex over 3."""
    return {(row - 1) * n + col - 1 for row, col in profiles}


def _edge_ids(n: int, observations: Iterable[Observation], split: Collection[int] = ()) -> tuple[set, set]:
    """The one edge rule: each observed choice beats its deviations.

    Returns the row edges and the column edges as id pairs. Row edges
    point from the choice to each row deviation and use the R copy of an
    endpoint whose cell is in ``split``; column edges point from each
    column deviation to the choice and use the C copy.
    """
    rows: set[tuple[int, int]] = set()
    cols: set[tuple[int, int]] = set()
    for (i, j), (subgame_rows, subgame_cols) in observations:
        choice = (i - 1) * n + j - 1
        is_split = choice in split
        src = 3 * choice + is_split
        for i2 in subgame_rows:
            if i2 != i:
                cell = choice + (i2 - i) * n
                rows.add((src, 3 * cell + (cell in split)))
        dst = 3 * choice + 2 * is_split
        for j2 in subgame_cols:
            if j2 != j:
                cell = choice + j2 - j
                cols.add((3 * cell + 2 * (cell in split), dst))
    return rows, cols


def _strong_edge_ids(dataset: DataSet, rows: Sequence[int], cols: Sequence[int]) -> list[tuple[int, int]]:
    """Id pairs of the strongly implementing graph of a laminar dataset
    with unique choices, over row and column classes.

    The caller guarantees both (``rationalize_zero_sum`` checks them).
    Per observation ((i,j), X, Y) that the containment forest keeps, with
    its children there (see ``structure._nesting``): besides the implement
    edges, every vertex of a child containing row i gets a column edge
    toward column j, and every other off-choice vertex gets a row edge from
    row i. The result is acyclic and pins the observed choice as the unique
    strict equilibrium of each subgame once payoffs are assigned by levels.

    ``rows`` and ``cols`` are class maps (see ``structure._classes``): a
    vertex id is that of a profile with row class K and column class L,
    (K * width + L) * 3, where width is the number of column classes. Each
    observed row and column set is a union of classes, and a choice's row
    and column are classes of their own, so the rule above reads only
    classes. It joins no two cells of one block (row class x column
    class), and the levels of this graph are those of the full graph on
    every cell of the block. Identity maps give the full graph.
    """
    width = max(cols) + 1
    pairs: list[tuple[int, int]] = []
    for ((i, j), (subgame_rows, subgame_cols)), children in _nesting(dataset):
        # Cells and row classes of the children that hold row i; sibling
        # grids are disjoint.
        row_side: set[int] = set()
        side_rows: set[int] = set()
        for child_rows, child_cols in children:
            if i in child_rows:
                row_classes = {rows[r - 1] for r in child_rows}
                col_classes = {cols[c - 1] for c in child_cols}
                row_side.update(k * width + l for k in row_classes for l in col_classes)
                side_rows.update(row_classes)
        row_i = rows[i - 1]
        choice = row_i * width + cols[j - 1]
        # A child grid holding the choice would collide with uniqueness
        # plus the skip of same-choice grids.
        assert choice not in row_side
        # Row i and the row side get column edges toward column j, every
        # other vertex a row edge from row i; row i's column edges and
        # column j's row edges are the implement edges. Neither makes a
        # self-loop. tops holds the ids of row i's vertices.
        tops = [3 * (row_i * width + l) for l in dict.fromkeys(cols[c - 1] for c in subgame_cols)]
        for k in dict.fromkeys(rows[r - 1] for r in subgame_rows):
            shift = 3 * (k - row_i) * width
            if k == row_i:
                pairs += [(top, 3 * choice) for top in tops if top != 3 * choice]
            elif k in side_rows:
                for top in tops:
                    vid = top + shift
                    pairs.append((vid, 3 * choice + shift) if vid // 3 in row_side else (top, vid))
            else:
                pairs += [(top, top + shift) for top in tops]
    return pairs


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


def _cycle_text(n: int, cycle: tuple[int, ...]) -> str:
    """The text of a cycle of two or more vertex ids, as the refusal
    messages print it: a tuple of SplitVertex(row=…, col=…, tag=…)."""
    vertices = ("SplitVertex(row={}, col={}, tag={!r})".format(*_coordinates(n, vid)) for vid in cycle)
    return f"({', '.join(vertices)})"


def _payoffs(levels: dict[int, int], rows: Sequence[int], cols: Sequence[int]) -> BimatrixGame:
    """Payoffs from the levels of vertex ids over row and column classes.

    ``rows`` and ``cols`` are the class maps that the ids were made with
    (see ``_strong_edge_ids``); identity maps give one class per row and
    column, the graphs of the other routes. Every cell of a block takes
    the block's payoffs.

    Intact vertices price both matrices (A = level, B = -level); an R copy
    prices only A and a C copy only B, so A + B can be nonzero only on
    split rows and columns, bounding its rank by the span: the smaller of
    the split profiles' row count and column count. A vertex no edge
    touches sits at level 1, so every block starts at level 1 and only the
    touched vertices are priced. Each distinct row of payoffs becomes one
    tuple, shared by the rows that repeat it (every untouched row is all
    level 1, and every row of a class is one row), and each payoff one
    int, shared by its cells (a sweep shares one int per level).
    """
    width = max(cols) + 1
    size = (max(rows) + 1) * width
    a = [1] * size
    b = [-1] * size
    negated = {level: -level for level in levels.values()}
    for vid, level in levels.items():
        block, tag = divmod(vid, 3)
        if tag != 2:
            a[block] = level
        if tag != 1:
            b[block] = negated[level]
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    matrices = []
    for payoffs in (a, b):
        class_rows = []
        for k in range(0, size, width):
            row = tuple(map(payoffs[k:k + width].__getitem__, cols))
            class_rows.append(shared.setdefault(row, row))
        matrices.append(tuple(map(class_rows.__getitem__, rows)))
    return BimatrixGame(len(rows), *matrices)
