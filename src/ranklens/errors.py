"""Exception taxonomy.

Three families, mirroring the CLI exit codes: malformed input (exit 3),
violated operation preconditions (exit 2), and the one negative analytic
result that is an exception rather than a return value (exit 1).
"""

from __future__ import annotations


class RanklensError(Exception):
    """Base class for every error raised by this package."""


class DataError(RanklensError):
    """Input that cannot be turned into a valid domain object."""


class InvalidSize(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


class EmptySubgame(DataError):
    pass


class ChoiceOutsideSubgame(DataError):
    pass


class SizeMismatch(DataError):
    pass


class DocumentError(DataError):
    """A document that does not parse into the expected shape."""


class PreconditionError(RanklensError):
    """A well-formed input handed to an operation whose contract excludes it."""


class NotLaminar(PreconditionError):
    pass


class UniquenessViolated(PreconditionError):
    pass


class SubgameNotFull(PreconditionError):
    pass


class ZeroSignEntry(PreconditionError):
    pass


class NotTwoRegular(PreconditionError):
    pass


class NotPowerOfTwo(PreconditionError):
    pass


class SizeLimitExceeded(PreconditionError):
    pass


class BudgetExceeded(PreconditionError):
    pass


class NotRationalizable(RanklensError):
    """The dataset admits no rationalizing game (for the chosen method).

    Carries an optional witness: a cycle of contradictory strict
    inequalities, see ``ranklens.rationalize.CycleWitness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
