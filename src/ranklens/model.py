"""Exact data model: observed play, bimatrix games, equilibrium tests, rank.

All indices are 1-based, matching the notation of the revealed-preference
literature this library serves. Payoffs are exact rationals; nothing in
this module touches floating point. Every type is immutable and stored in
a canonical form, so equal objects compare and serialize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    ChoiceOutsideSubgame,
    EmptySubgame,
    IndexOutOfRange,
    InvalidSize,
    SizeMismatch,
)

RationalLike = Union[int, str, Fraction]


def _to_fraction(value: RationalLike) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point payoffs are not supported; use Fraction, int, or 'p/q' strings")
    return Fraction(value)


def _fraction_rows(matrix) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix as tuples of Fractions. A row that already is a tuple of
    Fractions is kept as it is; only the other rows are converted."""
    return tuple(
        row if type(row) is tuple and set(map(type, row)) == {Fraction} else tuple(map(_to_fraction, row))
        for row in matrix
    )


def _map_entries(fn, matrix, memo: dict) -> list[list]:
    """fn of every entry of the matrix, as a list per row, with fn called
    once per distinct entry object: memo maps id() to the result.

    Games share one object per value where they can (levels, the game
    document memo), so that is once per distinct value, and a row whose
    entries memo already knows is mapped without a Python-level loop.
    """
    rows = []
    for row in matrix:
        ids = list(map(id, row))
        try:
            rows.append(list(map(memo.__getitem__, ids)))
        except KeyError:
            memo.update({key: fn(x) for key, x in dict(zip(ids, row)).items() if key not in memo})
            rows.append(list(map(memo.__getitem__, ids)))
    return rows


def _sign(value) -> int:
    return (value > 0) - (value < 0)


class StrategyProfile(NamedTuple):
    """A joint pure strategy (row, col)."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


@dataclass(frozen=True, order=True)
class Subgame:
    """Restriction of a game to row set x column set.

    Index sets are stored sorted ascending without duplicates, so equality
    is set equality and the lexicographic dataclass order is canonical.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(sorted(set(self.rows)))
        cols = tuple(sorted(set(self.cols)))
        if not rows or not cols:
            raise EmptySubgame("a subgame needs at least one row and one column")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def contains(self, profile: StrategyProfile) -> bool:
        return profile.row in self.rows and profile.col in self.cols

    def contains_subgame(self, other: "Subgame") -> bool:
        """Grid containment: other's grid is a subset of this grid."""
        return set(other.rows) <= set(self.rows) and set(other.cols) <= set(self.cols)

    def grid(self) -> tuple[StrategyProfile, ...]:
        return tuple(StrategyProfile(i, j) for i in self.rows for j in self.cols)

    def grid_size(self) -> int:
        return len(self.rows) * len(self.cols)

    def __str__(self) -> str:
        fmt = lambda xs: "{" + ",".join(map(str, xs)) + "}"
        return fmt(self.rows) + "x" + fmt(self.cols)


def _subgame_key(subgame: Subgame) -> tuple:
    """The dataclass order of subgames as a plain tuple, which sorted()
    compares without calling the generated __lt__."""
    return (subgame.rows, subgame.cols)


def full_subgame(n: int) -> Subgame:
    return Subgame(tuple(range(1, n + 1)), tuple(range(1, n + 1)))


@dataclass(frozen=True, order=True)
class Observation:
    """One observed outcome: a chosen profile within a subgame."""

    choice: StrategyProfile
    subgame: Subgame

    def __post_init__(self) -> None:
        choice = StrategyProfile(*self.choice)
        object.__setattr__(self, "choice", choice)
        if not self.subgame.contains(choice):
            raise ChoiceOutsideSubgame(f"choice {choice} lies outside subgame {self.subgame}")

    def __str__(self) -> str:
        return f"({self.choice},{self.subgame})"


def _observation_key(obs: Observation) -> tuple:
    """The dataclass order of observations as a plain tuple."""
    return (obs.choice, obs.subgame.rows, obs.subgame.cols)


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
        if self.n < 1:
            raise InvalidSize(f"game size must be at least 1, got {self.n}")
        observations = tuple(sorted(set(self.observations), key=_observation_key))
        for obs in observations:
            for index in (*obs.subgame.rows, *obs.subgame.cols):
                if not 1 <= index <= self.n:
                    raise IndexOutOfRange(f"index {index} outside 1..{self.n} in observation {obs}")
        object.__setattr__(self, "observations", observations)

    def __getstate__(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def subgames(self) -> tuple[Subgame, ...]:
        """Distinct subgames, in canonical order."""
        subgames = getattr(self, "_subgames", None)
        if subgames is None:
            subgames = tuple(sorted({obs.subgame for obs in self.observations}, key=_subgame_key))
            object.__setattr__(self, "_subgames", subgames)
        return subgames

    def choices(self) -> tuple[StrategyProfile, ...]:
        """Distinct observed choices, in canonical order."""
        return tuple(sorted({obs.choice for obs in self.observations}))

    def __len__(self) -> int:
        return len(self.observations)


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
    choices, row_sets, col_sets = zip(*triples)
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
    # The checks have passed, so the instances are made without __init__ or
    # __post_init__. Fields are set one by one in declaration order, as
    # __init__ sets them, which keeps the compact attribute layout.
    new, set_field = object.__new__, object.__setattr__
    subgames = []
    for rows, cols in distinct:
        subgame = new(Subgame)
        set_field(subgame, "rows", rows)
        set_field(subgame, "cols", cols)
        subgames.append(subgame)
    observations = []
    for choice, grid in keys:
        obs = new(Observation)
        set_field(obs, "choice", choice)
        set_field(obs, "subgame", subgames[grid])
        observations.append(obs)
    dataset = new(DataSet)
    set_field(dataset, "n", n)
    set_field(dataset, "observations", tuple(observations))
    set_field(dataset, "_subgames", tuple(subgames))
    return dataset


def validate_dataset(
    raw_triples: Iterable[tuple[tuple[int, int], Iterable[int], Iterable[int]]],
    n: int,
) -> DataSet:
    """Build a canonical DataSet from ((row, col), rows, cols) triples.

    Raises EmptySubgame, ChoiceOutsideSubgame, InvalidSize, or
    IndexOutOfRange on the first offending triple.

    Each rows and cols iterable is read once. Integer data is checked in
    one bulk pass; when that pass fails, or the data holds anything but
    ints, the triples go through the per-object constructors, which raise
    the error (or build the dataset) that they always have.
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
    dataset = _checked_dataset(triples, n) if triples else None
    return dataset if dataset is not None else DataSet(n, _observations(triples))


@dataclass(frozen=True)
class BimatrixGame:
    """An n x n two-player game with exact rational payoffs (A, B)."""

    n: int
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        a, b = _fraction_rows(self.a), _fraction_rows(self.b)
        for name, matrix in (("A", a), ("B", b)):
            if len(matrix) != self.n or any(len(row) != self.n for row in matrix):
                raise SizeMismatch(f"{name} must be {self.n}x{self.n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_rows(
        cls,
        a: Sequence[Sequence[RationalLike]],
        b: Sequence[Sequence[RationalLike]],
    ) -> "BimatrixGame":
        return cls(len(a), tuple(map(tuple, a)), tuple(map(tuple, b)))

    def payoff_a(self, profile: StrategyProfile) -> Fraction:
        return self.a[profile.row - 1][profile.col - 1]

    def payoff_b(self, profile: StrategyProfile) -> Fraction:
        return self.b[profile.row - 1][profile.col - 1]

    def total(self) -> tuple[tuple[Fraction, ...], ...]:
        """The sum matrix A + B, whose rank classifies the game."""
        return tuple(
            tuple(x + y for x, y in zip(row_a, row_b))
            for row_a, row_b in zip(self.a, self.b)
        )

    @property
    def is_zero_sum(self) -> bool:
        return all(x + y == 0 for row_a, row_b in zip(self.a, self.b) for x, y in zip(row_a, row_b))


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

    def transpose(self) -> "SignMatrix":
        return SignMatrix(tuple(zip(*self.entries))) if self.entries else self


def sign_pattern(rows: Sequence[Sequence[RationalLike]]) -> SignMatrix:
    """Entrywise sign of a square rational matrix."""
    return SignMatrix(tuple(tuple(_sign(_to_fraction(x)) for x in row) for row in rows))


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
        (i, j), subgame = obs.choice, obs.subgame
        deviations = [("A", game.a, i2, j) for i2 in subgame.rows if i2 != i]
        deviations += [("B", game.b, i, j2) for j2 in subgame.cols if j2 != j]
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
    matrix = [[_to_fraction(x) for x in row] for row in rows]
    if not matrix or not matrix[0]:
        return 0
    width = len(matrix[0])
    if any(len(row) != width for row in matrix):
        raise SizeMismatch("ragged matrix")
    m: list[list[int]] = []
    for row in matrix:
        scale = math.lcm(*(x.denominator for x in row))
        m.append([int(x * scale) for x in row])
    return _bareiss_rank(m)


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


def game_rank(game: BimatrixGame) -> int:
    """Rank of A + B over the rationals; zero iff the game is zero-sum.

    Each row of A + B is scaled to integers straight from the entries'
    numerators and denominators (by the lcm of the row's denominators in
    A and B), so no Fraction is built. Numerators and denominators are
    read once per distinct entry object; a row whose scale is 1 is the
    sum of its numerators.
    """
    memo: dict = {}
    ratio = attrgetter("numerator", "denominator")
    total = []
    for row_a, row_b in zip(_map_entries(ratio, game.a, memo), _map_entries(ratio, game.b, memo)):
        (nums_a, dens_a), (nums_b, dens_b) = zip(*row_a), zip(*row_b)
        scale = math.lcm(*dens_a, *dens_b)
        if scale == 1:
            total.append(list(map(add, nums_a, nums_b)))
        else:
            total.append([
                x * (scale // dx) + y * (scale // dy) for x, dx, y, dy in zip(nums_a, dens_a, nums_b, dens_b)
            ])
    return _bareiss_rank(total)
