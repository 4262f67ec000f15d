"""Exact data model: observed play, bimatrix games, equilibrium tests, rank.

All indices are 1-based, matching the notation of the revealed-preference
literature this library serves. Payoffs are exact: an int when integral,
else a Fraction; nothing in this module touches floating point. Every type
is immutable and stored in a canonical form, so equal objects compare and
serialize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, is_
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import (
    ChoiceOutsideSubgame,
    EmptySubgame,
    IndexOutOfRange,
    InvalidSize,
    SizeMismatch,
)

RationalLike = Union[int, str, Fraction]


def _rational(value: RationalLike) -> int | Fraction:
    """The value as a plain int when integral, else as a Fraction of plain ints; floats are refused."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point payoffs are not supported; use Fraction, int, or 'p/q' strings")
    fraction = value if type(value) is Fraction else Fraction(value)
    numerator, denominator = int(fraction.numerator), int(fraction.denominator)
    if denominator == 1:
        return numerator
    # int() keeps a plain int as it is, so this asks whether both already were.
    if numerator is fraction.numerator and denominator is fraction.denominator:
        return fraction
    return Fraction(numerator, denominator)


def _rational_rows(matrix) -> tuple[tuple[int | Fraction, ...], ...]:
    """The matrix as tuples of _rational entries, each distinct row and entry
    object converted once, so what is shared on the way in stays shared; a
    row that already is a tuple of such entries is kept as it is."""
    rows, kept, entries = tuple(matrix), [], {}

    def rational_row(row):
        if type(row) is tuple and {int}.issuperset(map(type, row)):
            return row
        kept.append(row := tuple(row))  # entries maps ids, so the row's entries stay alive
        converted = tuple(_map_once(_rational, row, entries))
        return row if all(map(is_, converted, row)) else converted

    return tuple(_map_once(rational_row, rows, {}))


def _map_once(fn, items, memo: dict) -> list:
    """fn of every item of a sequence, as a list, with fn called once per
    distinct item object: memo maps id() to the result. The caller keeps
    the items alive while memo is in use, so no id is reused. Items that
    memo already knows are mapped without a Python-level loop.
    """
    ids = list(map(id, items))
    try:
        return list(map(memo.__getitem__, ids))
    except KeyError:
        memo.update({key: fn(x) for key, x in dict(zip(ids, items)).items() if key not in memo})
        return list(map(memo.__getitem__, ids))


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _field_state(obj) -> dict:
    """A dataclass's pickled state: its fields, without the private memos
    that it keeps beside them."""
    return {field.name: getattr(obj, field.name) for field in fields(obj)}


class StrategyProfile(NamedTuple):
    """A joint pure strategy (row, col)."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


def _check_ints(indices: tuple, where: Callable[[], str]) -> None:
    """Raise IndexOutOfRange naming the first index that is not an int (a
    bool is not); where() names the object, and is called only then."""
    if not {int}.issuperset(map(type, indices)):
        index = next(x for x in indices if type(x) is not int)
        raise IndexOutOfRange(f"index {index!r} is not an int in {where()}")


# typing.NamedTuple refuses a __new__ in the class body, so each value type
# below subclasses a bare field tuple and checks its arguments in __new__.
class _SubgameFields(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]


class Subgame(_SubgameFields):
    """Restriction of a game to row set x column set.

    Index sets are stored sorted ascending without duplicates, so equality
    is set equality and tuple order is canonical. The constructor checks
    and canonicalizes its arguments; ``_make`` and ``_replace`` store theirs
    as given, unchecked.
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[int], cols: Iterable[int]) -> "Subgame":
        rows, cols = tuple(rows), tuple(cols)
        _check_ints(rows + cols, lambda: f"subgame with rows {rows} and cols {cols}")
        if not rows or not cols:
            raise EmptySubgame("a subgame needs at least one row and one column")
        return super().__new__(cls, tuple(sorted(set(rows))), tuple(sorted(set(cols))))

    def contains(self, profile: StrategyProfile) -> bool:
        return profile.row in self.rows and profile.col in self.cols

    def grid(self) -> tuple[StrategyProfile, ...]:
        return tuple(StrategyProfile(i, j) for i in self.rows for j in self.cols)

    def grid_size(self) -> int:
        return len(self.rows) * len(self.cols)

    def __str__(self) -> str:
        fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
        return fmt(self.rows) + "x" + fmt(self.cols)


def full_subgame(n: int) -> Subgame:
    return Subgame(tuple(range(1, n + 1)), tuple(range(1, n + 1)))


class _ObservationFields(NamedTuple):
    choice: StrategyProfile
    subgame: Subgame


class Observation(_ObservationFields):
    """One observed outcome: a chosen profile within a subgame.

    The constructor checks that the choice is a pair of ints inside the
    subgame; ``_make`` and ``_replace`` store their fields as given,
    unchecked.
    """

    __slots__ = ()

    def __new__(cls, choice: Iterable[int], subgame: Subgame) -> "Observation":
        choice = StrategyProfile(*choice)
        _check_ints(choice, lambda: f"choice {tuple(choice)}")
        if not subgame.contains(choice):
            raise ChoiceOutsideSubgame(f"choice {choice} lies outside subgame {subgame}")
        return super().__new__(cls, choice, subgame)

    def __str__(self) -> str:
        return f"({self.choice},{self.subgame})"


@dataclass(frozen=True)
class DataSet:
    """A set of observations over an n x n strategy space.

    Set semantics: observations are deduplicated and kept sorted by
    (choice, subgame), so equal datasets have identical representations.

    What is derived from the observations (the sorted subgames here, the
    classification in ``structure``) is computed once and kept as private
    instance attributes beside the fields; equality, hashing, repr and
    pickling see only the fields.
    """

    n: int
    observations: tuple[Observation, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise InvalidSize(f"game size must be an int, got {self.n!r}")
        if self.n < 1:
            raise InvalidSize(f"game size must be at least 1, got {self.n}")
        observations = tuple(sorted(set(self.observations)))
        for obs in observations:
            for index in (*obs.subgame.rows, *obs.subgame.cols):
                if not 1 <= index <= self.n:
                    raise IndexOutOfRange(f"index {index} outside 1..{self.n} in observation {obs}")
        object.__setattr__(self, "observations", observations)

    __getstate__ = _field_state

    def subgames(self) -> tuple[Subgame, ...]:
        """Distinct subgames, in canonical order."""
        subgames = getattr(self, "_subgames", None)
        if subgames is None:
            subgames = tuple(sorted({obs.subgame for obs in self.observations}))
            object.__setattr__(self, "_subgames", subgames)
        return subgames


def _observations(triples: Sequence[tuple]) -> tuple[Observation, ...]:
    """Per-object construction of (choice, rows, cols) triples: the first
    triple that fails, in input order, raises its constructor's error."""
    return tuple(Observation(choice, Subgame(rows, cols)) for choice, rows, cols in triples)


def _checked_dataset(triples: Sequence[tuple], n: int) -> DataSet | None:
    """The DataSet of (choice, rows, cols) triples, checked in one bulk
    pass, or None when n or an index is not an int or a check fails.

    Each index set is canonicalized once per distinct input tuple and each
    grid numbered by its canonical order; the triples then become plain
    (choice, grid number) pairs, which are deduplicated and sorted at C
    speed. One Subgame is built per grid.
    """
    if type(n) is not int or n < 1:
        return None
    choices, row_sets, col_sets = zip(*triples) if triples else ((), (), ())
    if not {int}.issuperset(map(type, chain.from_iterable(chain(choices, row_sets, col_sets)))):
        return None
    canonical = {axis: tuple(sorted(set(axis))) for axis in {*row_sets, *col_sets}}
    if () in canonical or not all(1 <= axis[0] and axis[-1] <= n for axis in canonical.values()):
        return None
    grids = list(zip(map(canonical.__getitem__, row_sets), map(canonical.__getitem__, col_sets)))
    distinct = sorted(set(grids))
    number = {grid: index for index, grid in enumerate(distinct)}
    keys = sorted(set(zip(choices, map(number.__getitem__, grids))))
    if not all(row in distinct[grid][0] and col in distinct[grid][1] for (row, col), grid in keys):
        return None
    # The checks have passed, so the objects are made without them: _make
    # skips the value types' __new__, and the DataSet skips __init__ and
    # __post_init__. Its fields are set one by one in declaration order, as
    # __init__ sets them, which keeps the compact attribute layout.
    subgames = tuple(map(Subgame._make, distinct))
    observations = tuple(Observation._make((choice, subgames[grid])) for choice, grid in keys)
    dataset, set_field = object.__new__(DataSet), object.__setattr__
    set_field(dataset, "n", n)
    set_field(dataset, "observations", observations)
    set_field(dataset, "_subgames", subgames)
    return dataset


def validate_dataset(
    raw_triples: Iterable[tuple[tuple[int, int], Iterable[int], Iterable[int]]],
    n: int,
) -> DataSet:
    """Build a canonical DataSet from ((row, col), rows, cols) triples.

    Raises EmptySubgame, ChoiceOutsideSubgame, InvalidSize, or
    IndexOutOfRange on the first offending triple; n and every index must
    be an int.

    Each rows and cols iterable is read once. The data is checked and
    built in one bulk pass. When that pass fails, the per-object
    constructors run and raise their error.
    """
    triples = []
    failure = None
    try:
        for choice, rows, cols in raw_triples:
            triples.append((StrategyProfile(*choice), tuple(rows), tuple(cols)))
    except Exception as exc:
        failure = exc
    if failure is not None:
        _observations(triples)  # an earlier triple's error comes first
        raise failure
    return _checked_dataset(triples, n) or DataSet(n, _observations(triples))


@dataclass(frozen=True)
class BimatrixGame:
    """An n x n two-player game with exact payoffs (A, B): ints where integral, else Fractions.

    The integer rows of A + B (``_integer_rows``) are computed once and
    kept as a private instance attribute beside the fields; equality,
    hashing, repr and pickling see only the fields.
    """

    n: int
    a: tuple[tuple[int | Fraction, ...], ...]
    b: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self) -> None:
        a, b = _rational_rows(self.a), _rational_rows(self.b)
        for name, matrix in (("A", a), ("B", b)):
            if len(matrix) != self.n or any(len(row) != self.n for row in matrix):
                raise SizeMismatch(f"{name} must be {self.n}x{self.n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    __getstate__ = _field_state

    @classmethod
    def from_rows(
        cls,
        a: Sequence[Sequence[RationalLike]],
        b: Sequence[Sequence[RationalLike]],
    ) -> "BimatrixGame":
        return cls(len(a), tuple(map(tuple, a)), tuple(map(tuple, b)))


@dataclass(frozen=True)
class SignMatrix:
    """A square matrix over {-1, 0, +1}."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        m = len(entries)
        if any(len(row) != m for row in entries):
            raise SizeMismatch("sign matrix must be square")
        if any(x not in (-1, 0, 1) for row in entries for x in row):
            raise ValueError("sign matrix entries must be -1, 0, or +1")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return len(self.entries)


def strict_equilibria(game: BimatrixGame, subgame: Subgame) -> frozenset[StrategyProfile]:
    """All strict pure equilibria of the subgame: the profiles that
    ``rationalizes`` accepts as observed choices on it. Strictness is
    exact, so ties disqualify."""
    grid = subgame.grid()
    report = rationalizes(game, DataSet(game.n, tuple(Observation(p, subgame) for p in grid)))
    failed = {failure.observation.choice for failure in report.failures}
    return frozenset(p for p in grid if p not in failed)


@dataclass(frozen=True)
class ObservationFailure:
    """An observation whose choice is not a strict equilibrium, with the
    first violated inequality spelled out."""

    observation: Observation
    inequality: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[ObservationFailure, ...]


def rationalizes(game: BimatrixGame, dataset: DataSet) -> VerificationReport:
    """Check that every observed choice is a strict equilibrium of its subgame.

    Each failure spells out the first violated inequality, row player first.
    """
    if game.n != dataset.n:
        raise SizeMismatch(f"game is {game.n}x{game.n} but dataset expects n={dataset.n}")
    failures = []
    for obs in dataset.observations:
        (i, j), (rows, cols) = obs
        deviations = [("A", game.a, i2, j) for i2 in rows if i2 != i]
        deviations += [("B", game.b, i, j2) for j2 in cols if j2 != j]
        for name, matrix, r, c in deviations:
            own, other = matrix[i - 1][j - 1], matrix[r - 1][c - 1]
            if own <= other:
                failures.append(ObservationFailure(obs, f"{name}[{i},{j}]={own} <= {name}[{r},{c}]={other}"))
                break
    return VerificationReport(ok=not failures, failures=tuple(failures))


def rational_matrix_rank(rows: Sequence[Sequence[RationalLike]]) -> int:
    """Exact rank over the rationals.

    Each row is scaled to integers (rank-preserving), then eliminated by
    Bareiss fraction-free Gaussian elimination, pivoting on the first
    nonzero entry of each column. No floating point anywhere.
    """
    matrix = [list(map(_rational, row)) for row in rows]
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise SizeMismatch("ragged matrix")
    scales = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    return _bareiss_rank([[int(x * scale) for x in row] for row, scale in zip(matrix, scales)])


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination, in place."""
    width = len(m[0]) if m else 0
    n_rows = len(m)
    rank = 0
    prev_pivot = 1
    for col in range(width):
        pivot_row = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            row_r = m[r]
            row_p = m[rank]
            for c in range(col, width):
                row_r[c] = (row_r[c] * pivot - factor * row_p[c]) // prev_pivot
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


# The prime of game_rank's modular lower bound: large, so that a nonzero
# minor of a game's integer rows is rarely a multiple of it and the Bareiss
# fallback rarely runs.
_PRIME = 2**61 - 1


def _integer_rows(game: BimatrixGame) -> list[tuple[int, list[int]]]:
    """(scale, row) for every row of A + B, in order: scale is the lcm of
    the row's denominators and row is the row times scale, as ints.

    Each is built once per distinct pair of row objects and shared by the
    rows with that pair. A pair of int rows is summed at scale 1; in other
    pairs each distinct entry's numerator and denominator are read once.
    The list is kept on the game, so ``game_rank`` and
    ``block_difference_certificate`` scale a game once between them, and
    callers must change neither the list nor its rows.
    """
    integer_rows = getattr(game, "_integer_rows", None)
    if integer_rows is not None:
        return integer_rows
    memo: dict = {}
    ratio = attrgetter("numerator", "denominator")

    def integer_row(row_a, row_b) -> tuple[int, list[int]]:
        if {int}.issuperset(map(type, row_a)) and {int}.issuperset(map(type, row_b)):
            return 1, list(map(add, row_a, row_b))
        nums_a, dens_a = zip(*_map_once(ratio, row_a, memo))
        nums_b, dens_b = zip(*_map_once(ratio, row_b, memo))
        scale = math.lcm(*dens_a, *dens_b)
        terms = zip(nums_a, dens_a, nums_b, dens_b)
        return scale, [x * (scale // dx) + y * (scale // dy) for x, dx, y, dy in terms]

    keys = list(zip(map(id, game.a), map(id, game.b)))
    pairs = dict(zip(keys, zip(game.a, game.b)))
    rows = {key: integer_row(row_a, row_b) for key, (row_a, row_b) in pairs.items()}
    integer_rows = list(map(rows.__getitem__, keys))
    object.__setattr__(game, "_integer_rows", integer_rows)
    return integer_rows


def game_rank(game: BimatrixGame) -> int:
    """Rank of A + B over the rationals; zero iff the game is zero-sum.

    Exact in four steps, each of which keeps the rank:

    1. A + B is scaled to integers row by row (``_integer_rows``), and
       each distinct row is kept once: a repeated row of A + B adds
       nothing to the rank.
    2. Zero rows and zero columns are dropped; an empty support has rank 0.
       The rank is at most min(#rows, #cols) of the support.
    3. Rank 1 is decided exactly: every row is proportional to the first,
       by integer cross-multiplication. Otherwise the rank is at least 2,
       which is the rank when the support has a side of 2.
    4. Elimination mod a prime gives a lower bound, since a minor that is
       nonzero mod p is nonzero over the integers. When the bound reaches
       the support's min(#rows, #cols), it is the rank; otherwise Bareiss
       elimination of the support decides.
    """
    distinct = {id(row): row for _, row in _integer_rows(game)}
    total = [row for row in distinct.values() if any(row)]
    if not total:
        return 0
    support = [list(row) for row in zip(*(col for col in zip(*total) if any(col)))]
    first = support[0]
    pivot_col = next(c for c, x in enumerate(first) if x)
    pivot = first[pivot_col]
    if all([x * pivot for x in row] == [row[pivot_col] * y for y in first] for row in support):
        return 1
    bound = min(len(support), len(first))
    if bound == 2 or _modular_rank(support, bound) == bound:
        return bound
    return _bareiss_rank(support)


def _modular_rank(m: list[list[int]], limit: int) -> int:
    """Rank mod _PRIME of an integer matrix, by Gaussian elimination that
    stops once the rank reaches limit. The matrix is left as it is.

    The rows are kept from the current column on: each step drops that
    column, and the pivot row with it when the column has one.
    """
    rows = [[x % _PRIME for x in row] for row in m]
    rank = 0
    while rank < limit and rows and rows[0]:
        pivot = next((row for row in rows if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        inverse = pow(pivot[0], -1, _PRIME)
        tail = [x * inverse % _PRIME for x in pivot[1:]]
        rows = [
            [(x - row[0] * y) % _PRIME for x, y in zip(row[1:], tail)] if row[0] else row[1:]
            for row in rows
            if row is not pivot
        ]
        rank += 1
    return rank
