"""Seeded random dataset generators and independent reference oracles.

Everything here is deliberately written from the definitions, without
leaning on the package's own graph or elimination machinery, so the
property tests compare two genuinely different computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from random import Random

from ranklens import (
    DataSet,
    RanklensError,
    SizeMismatch,
    UniquenessCheck,
    satisfies_uniqueness,
    sylvester_hadamard,
    two_regular_dataset,
    uniqueness_variant,
    validate_dataset,
)


def all_two_by_two_observations():
    """Every (choice, subgame) pair on the 2x2 grid, 16 in all."""
    axis = [(1,), (2,), (1, 2)]
    out = []
    for rows, cols in product(axis, axis):
        for r, c in product(rows, cols):
            out.append(((r, c), rows, cols))
    return out


def two_by_two_sweep() -> list[DataSet]:
    """The 697 datasets of at most three observations on the 2x2 game."""
    pool = all_two_by_two_observations()
    datasets = [validate_dataset([], 2)]
    for size in (1, 2, 3):
        datasets += [validate_dataset(list(chosen), 2) for chosen in combinations(pool, size)]
    return datasets


def random_laminar_unique_dataset(rng: Random, n: int, max_depth: int = 3) -> DataSet:
    """Random laminar dataset satisfying the uniqueness property.

    Builds a containment forest top-down. Sibling grids are kept disjoint
    by splitting one axis into chunks; a child whose grid holds the
    parent's choice inherits that choice, which is exactly the nested
    consistency clause.
    """
    observations: list[tuple[tuple[int, int], tuple[int, ...], tuple[int, ...]]] = []

    def spawn_children(rows, cols, parent_choice, depth, count):
        if count < 1 or (len(rows) == 1 and len(cols) == 1) or depth > max_depth:
            return
        split_rows = rng.random() < 0.5
        axis = list(rows if split_rows else cols)
        other = list(cols if split_rows else rows)
        count = min(count, len(axis))
        rng.shuffle(axis)
        bounds = sorted(rng.sample(range(1, len(axis)), count - 1)) if count > 1 else []
        chunks, prev = [], 0
        for b in bounds + [len(axis)]:
            chunks.append(axis[prev:b])
            prev = b
        for chunk in chunks:
            sub_axis = tuple(sorted(rng.sample(chunk, rng.randint(1, len(chunk)))))
            sub_other = tuple(sorted(rng.sample(other, rng.randint(1, len(other)))))
            child_rows = sub_axis if split_rows else sub_other
            child_cols = sub_other if split_rows else sub_axis
            if child_rows == tuple(rows) and child_cols == tuple(cols):
                continue
            forced = None
            if parent_choice is not None and parent_choice[0] in child_rows and parent_choice[1] in child_cols:
                forced = parent_choice
            emit_node(child_rows, child_cols, forced, depth)

    def emit_node(rows, cols, forced_choice, depth):
        choice = forced_choice or (rng.choice(rows), rng.choice(cols))
        observations.append((choice, tuple(rows), tuple(cols)))
        spawn_children(rows, cols, choice, depth + 1, rng.choice([0, 0, 1, 1, 2]))

    full_rows = tuple(range(1, n + 1))
    full_cols = tuple(range(1, n + 1))
    if rng.random() < 0.4:
        emit_node(full_rows, full_cols, None, 0)
    else:
        spawn_children(full_rows, full_cols, None, 0, rng.choice([1, 1, 2, 3]))
    return validate_dataset(observations, n)


def random_uniqueness_dataset(rng: Random, n: int, attempts: int = 6) -> DataSet:
    """Random uniqueness dataset, usually with crossing subgames.

    Starts laminar and repeatedly proposes either a crossing strip pair
    around a pivot profile or a random subgame; proposals that would break
    uniqueness are discarded.
    """
    base = random_laminar_unique_dataset(rng, n)
    triples = [
        ((o.choice.row, o.choice.col), o.subgame.rows, o.subgame.cols)
        for o in base.observations
    ]
    for _ in range(attempts):
        if rng.random() < 0.55 and n >= 2:
            r = rng.randint(1, n)
            c = rng.randint(1, n)
            r2 = rng.choice([x for x in range(1, n + 1) if x != r])
            c2 = rng.choice([x for x in range(1, n + 1) if x != c])
            proposal = [
                ((r, c), tuple(sorted((r, r2))), (c,)),
                ((r, c), (r,), tuple(sorted((c, c2)))),
            ]
        else:
            rows = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))))
            cols = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))))
            proposal = [((rng.choice(rows), rng.choice(cols)), rows, cols)]
        trial = triples + proposal
        try:
            candidate = validate_dataset(trial, n)
        except RanklensError:
            continue
        if satisfies_uniqueness(candidate).ok:
            triples = trial
    return validate_dataset(triples, n)


def perturbed_laminar_dataset(rng: Random, n: int) -> DataSet:
    """A laminar uniqueness dataset plus one random observation, which often
    breaks nested consistency in several places at once."""
    base = random_laminar_unique_dataset(rng, n)
    rows = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    cols = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    triples = [((o.choice.row, o.choice.col), o.subgame.rows, o.subgame.cols) for o in base.observations]
    return validate_dataset(triples + [((rng.choice(rows), rng.choice(cols)), rows, cols)], n)


def reference_corpus():
    """The seeded corpus the index-based code is checked on: the 697-dataset
    sweep, 12 each of random uniqueness, laminar and perturbed laminar
    datasets at n = 2..8, and Hadamard k = 1..4 in both variants (957 in all)."""
    yield from two_by_two_sweep()
    rng = Random(29)
    for n in range(2, 9):
        for _ in range(12):
            yield random_uniqueness_dataset(rng, n)
            yield random_laminar_unique_dataset(rng, n)
            yield perturbed_laminar_dataset(rng, n)
    for k in range(1, 5):
        two_regular = two_regular_dataset(sylvester_hadamard(k))
        yield two_regular
        yield uniqueness_variant(two_regular)


def random_fraction_matrix(rng: Random, size: int, max_abs: int = 9, max_den: int = 12):
    return tuple(
        tuple(Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den)) for _ in range(size))
        for _ in range(size)
    )


# --- independent reference computations ---------------------------------


def grid_contains(outer, inner) -> bool:
    """Grid containment: inner's grid is a subset of outer's."""
    return set(inner.rows) <= set(outer.rows) and set(inner.cols) <= set(outer.cols)


def distinct_choices(dataset: DataSet) -> set:
    return {obs.choice for obs in dataset.observations}


def filled_slots(value) -> set[str]:
    """The slots of a DataSet, BimatrixGame or SignMatrix that hold a value:
    its fields and the private memos computed so far."""
    return {name for name in type(value).__slots__ if hasattr(value, name)}


def sum_matrix(game) -> list:
    """A + B, entry by entry."""
    return [[x + y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(game.a, game.b)]


def is_zero_sum(game) -> bool:
    return all(x + y == 0 for row_a, row_b in zip(game.a, game.b) for x, y in zip(row_a, row_b))


def determinant(matrix) -> Fraction:
    """Cofactor expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(size):
        entry = Fraction(matrix[0][j])
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * entry * determinant(minor)
    return total


def rational_matrix_rank(rows) -> int:
    """Exact rank over the rationals, by Gaussian elimination on Fractions
    of plain ints (a numpy integer's own numerator would wrap); a ragged
    matrix raises SizeMismatch. The reference that game_rank is compared
    with, and unlike minor_rank fast enough for the larger matrices."""
    matrix = [[Fraction(int(x.numerator), int(x.denominator)) for x in map(Fraction, row)] for row in rows]
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise SizeMismatch("ragged matrix")
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / top[col]
            matrix[r] = [x - factor * y for x, y in zip(matrix[r], top)]
        rank += 1
    return rank


def minor_rank(rows) -> int:
    """Largest k with a nonvanishing k x k minor."""
    matrix = [list(map(Fraction, row)) for row in rows]
    height = len(matrix)
    width = len(matrix[0]) if matrix else 0
    for k in range(min(height, width), 0, -1):
        for row_idx in combinations(range(height), k):
            for col_idx in combinations(range(width), k):
                sub = [[matrix[r][c] for c in col_idx] for r in row_idx]
                if determinant(sub) != 0:
                    return k
    return 0


def row_side_ok(flat, dataset: DataSet) -> bool:
    """A alone satisfies every row-player inequality (flat row-major)."""
    n = dataset.n
    for obs in dataset.observations:
        i, j = obs.choice
        own = flat[(i - 1) * n + (j - 1)]
        for i2 in obs.subgame.rows:
            if i2 != i and own <= flat[(i2 - 1) * n + (j - 1)]:
                return False
    return True


def col_side_ok(flat, dataset: DataSet) -> bool:
    n = dataset.n
    for obs in dataset.observations:
        i, j = obs.choice
        own = flat[(i - 1) * n + (j - 1)]
        for j2 in obs.subgame.cols:
            if j2 != j and own <= flat[(i - 1) * n + (j2 - 1)]:
                return False
    return True


def naive_min_rank(dataset: DataSet, max_abs: int):
    """Reference minimum rank over the integer box, via minor_rank."""
    n = dataset.n
    grids = list(product(range(-max_abs, max_abs + 1), repeat=n * n))
    feasible_a = [g for g in grids if row_side_ok(g, dataset)]
    feasible_b = [g for g in grids if col_side_ok(g, dataset)]
    best = None
    for fa in feasible_a:
        for fb in feasible_b:
            total = [
                [fa[r * n + c] + fb[r * n + c] for c in range(n)]
                for r in range(n)
            ]
            rank = minor_rank(total)
            if best is None or rank < best:
                best = rank
            if best == 0:
                return 0
    return best


def rank_one_sign_realizable(sign_rows, bound: int = 3) -> bool:
    """Whether some nonzero outer product u v^T over the integer box has the
    given sign pattern (entrywise)."""
    height = len(sign_rows)
    width = len(sign_rows[0])
    values = range(-bound, bound + 1)

    def sgn(x):
        return (x > 0) - (x < 0)

    for u in product(values, repeat=height):
        for v in product(values, repeat=width):
            if all(sgn(u[i] * v[j]) == sign_rows[i][j] for i in range(height) for j in range(width)):
                return True
    return False


# --- pairwise classification references ----------------------------------
# The package classifies through row and choice indexes over bitmask grids;
# these compare every pair of subgames or observations, straight from the
# definitions.


def naive_classes(dataset: DataSet) -> tuple[list[int], list[int]]:
    """Row and column class maps from the definition: two rows share a
    class when every observation holds both in its row set or neither, and
    picks neither as its choice row; classes are numbered in order of their
    first member. Columns likewise."""
    maps = []
    for axis in (0, 1):
        numbers: dict = {}
        signatures = [
            tuple((x in obs.subgame[axis], x == obs.choice[axis]) for obs in dataset.observations)
            for x in range(1, dataset.n + 1)
        ]
        maps.append([numbers.setdefault(signature, len(numbers)) for signature in signatures])
    return maps[0], maps[1]


def naive_subgames_cross(first, second) -> bool:
    rows_f, cols_f = set(first.rows), set(first.cols)
    rows_s, cols_s = set(second.rows), set(second.cols)
    if not (rows_f & rows_s) or not (cols_f & cols_s):
        return False
    first_inside = rows_f <= rows_s and cols_f <= cols_s
    second_inside = rows_s <= rows_f and cols_s <= cols_f
    return not first_inside and not second_inside


def naive_crossing_set(dataset: DataSet):
    subgames = dataset.subgames()
    return tuple(
        s for s in subgames if any(naive_subgames_cross(s, t) for t in subgames if t != s)
    )


def naive_satisfies_uniqueness(dataset: DataSet) -> UniquenessCheck:
    by_subgame = {}
    for obs in dataset.observations:
        prior = by_subgame.get(obs.subgame)
        if prior is not None:
            return UniquenessCheck(False, (prior, obs))
        by_subgame[obs.subgame] = obs
    for outer in dataset.observations:
        for inner in dataset.observations:
            if inner.subgame == outer.subgame:
                continue
            if not grid_contains(outer.subgame, inner.subgame):
                continue
            if inner.subgame.contains(outer.choice) and inner.choice != outer.choice:
                return UniquenessCheck(False, (outer, inner))
    return UniquenessCheck(True, None)


def naive_laminar_forest(dataset: DataSet) -> tuple:
    """The children of each position of ``dataset.subgames()``: a
    subgame's parent is its smallest strict container."""
    subgames = dataset.subgames()
    children = [[] for _ in subgames]
    for position, s in enumerate(subgames):
        containers = [
            (t.grid_size(), i)
            for i, t in enumerate(subgames)
            if t != s and grid_contains(t, s)
        ]
        if containers:
            children[min(containers)[1]].append(position)
    return tuple(tuple(c) for c in children)


def naive_dedupe_nested(dataset: DataSet) -> DataSet:
    kept = []
    for obs in dataset.observations:
        subsumed = any(
            other.choice == obs.choice
            and other.subgame != obs.subgame
            and grid_contains(other.subgame, obs.subgame)
            for other in dataset.observations
        )
        if not subsumed:
            kept.append(obs)
    return DataSet(dataset.n, tuple(kept))


# --- dense graph sweep references ------------------------------------------
# A graph is a vertex count n, (source, target) vertex id pairs and the set
# of split cells, (row-1)*n + (col-1). The package walks only the vertices
# that edges touch, in integer id order; these walk every vertex, isolated
# ones included, in canonical (row, col, tag) order, straight from the
# definitions.

_TAG_ORDER = {"": 0, "R": 1, "C": 2}


def _canonical(vertex):
    row, col, tag = vertex
    return (row, col, _TAG_ORDER[tag])


def vertex_id(n: int, row: int, col: int, tag: str = "") -> int:
    """The package's id of a vertex: three ids per profile, in the order
    intact, R copy, C copy."""
    return ((row - 1) * n + col - 1) * 3 + _TAG_ORDER[tag]


def naive_vertices(n: int, split_cells) -> dict:
    """Vertex id -> (row, col, tag) for every vertex, in canonical order: an
    R and a C copy of each split profile, one intact vertex of every other."""
    vertices = {}
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            for tag in ("R", "C") if (row - 1) * n + col - 1 in split_cells else ("",):
                vertices[vertex_id(n, row, col, tag)] = (row, col, tag)
    return vertices


def naive_is_acyclic(n: int, pairs, split_cells) -> tuple:
    """(acyclic, cycle): a depth-first cycle search from every vertex in
    canonical order, successors in canonical order; the cycle, as vertex
    ids, runs from the first vertex of the path that the search meets
    again."""
    vertices = naive_vertices(n, split_cells)
    adjacency = {v: [] for v in vertices}
    for src, dst in pairs:
        adjacency[src].append(dst)
    for neighbors in adjacency.values():
        neighbors.sort(key=lambda v: _canonical(vertices[v]))

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    for start in vertices:
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
        path = [start]
        color[start] = GRAY
        while stack:
            vertex, pointer = stack[-1]
            if pointer < len(adjacency[vertex]):
                stack[-1] = (vertex, pointer + 1)
                nxt = adjacency[vertex][pointer]
                if color[nxt] == GRAY:
                    return False, tuple(path[path.index(nxt):])
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[vertex] = BLACK
                stack.pop()
                path.pop()
    return True, None


def naive_topological_levels(n: int, pairs, split_cells) -> dict | None:
    """Sink-first sweep over every vertex, each wave in canonical order:
    vertex id -> level, level by level, or None when the sweep stalls."""
    vertices = naive_vertices(n, split_cells)
    out_degree = {v: 0 for v in vertices}
    predecessors = {v: [] for v in vertices}
    for src, dst in pairs:
        out_degree[src] += 1
        predecessors[dst].append(src)

    levels = {}
    current = [v for v in vertices if out_degree[v] == 0]
    level = 1
    while current:
        next_wave = []
        for vertex in current:
            levels[vertex] = level
            for pred in predecessors[vertex]:
                out_degree[pred] -= 1
                if out_degree[pred] == 0:
                    next_wave.append(pred)
        current = sorted(next_wave, key=lambda v: _canonical(vertices[v]))
        level += 1
    return levels if len(levels) == len(vertices) else None
