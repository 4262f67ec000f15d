"""Rationalizability and minimum-rank analysis of observed play in
two-player games: exact equilibrium checks, structural classification,
revealed-preference graphs, rationalizing-game synthesis, and
Hadamard-patterned adversarial instances."""

from .errors import (
    BudgetExceeded,
    ChoiceOutsideSubgame,
    DataError,
    DocumentError,
    EmptySubgame,
    IndexOutOfRange,
    InvalidSize,
    NotLaminar,
    NotPowerOfTwo,
    NotRationalizable,
    NotTwoRegular,
    PreconditionError,
    RanklensError,
    SizeLimitExceeded,
    SizeMismatch,
    SubgameNotFull,
    UniquenessViolated,
    ZeroSignEntry,
)
from .documents import (
    canonical_json,
    dataset_from_document,
    dataset_from_text,
    dataset_to_document,
    dataset_to_text,
    game_from_document,
    game_from_text,
    game_to_document,
    game_to_text,
    parse_json,
)
from .hadamard import (
    block_difference_certificate,
    hadamard_minrank_bound,
    sylvester_hadamard,
    two_regular_dataset,
    two_regular_sign_pattern,
    uniqueness_variant,
)
from .model import (
    BimatrixGame,
    DataSet,
    Observation,
    SignMatrix,
    StrategyProfile,
    Subgame,
    VerificationReport,
    full_subgame,
    game_rank,
    rational_matrix_rank,
    rationalizes,
    strict_equilibria,
    validate_dataset,
)
from .oracle import SearchConfig, brute_force_min_rank, zero_sum_feasible
from .rationalize import (
    CycleWitness,
    RationalizabilityResult,
    RationalizationCertificate,
    is_rationalizable,
    rationalize_auto,
    rationalize_bounded_rank,
    rationalize_general,
    rationalize_rank_one,
    rationalize_zero_sum,
)
from .structure import (
    StructureReport,
    UniquenessCheck,
    analyze,
    crossing_set,
    satisfies_uniqueness,
)

__version__ = "0.1.0"
