from types import ModuleType

import ranklens

PUBLIC_NAMES = {
    # errors
    "BudgetExceeded", "ChoiceOutsideSubgame", "DataError", "DocumentError", "EmptySubgame",
    "IndexOutOfRange", "InvalidSize", "NotLaminar", "NotPowerOfTwo", "NotRationalizable",
    "NotTwoRegular", "PreconditionError", "RanklensError", "SizeLimitExceeded", "SizeMismatch",
    "SubgameNotFull", "UniquenessViolated", "ZeroSignEntry",
    # documents
    "canonical_json", "dataset_from_document", "dataset_from_text", "dataset_to_document", "dataset_to_text",
    "game_from_document", "game_from_text", "game_to_document", "game_to_text", "parse_json",
    # hadamard
    "block_difference_certificate", "hadamard_minrank_bound", "sylvester_hadamard", "two_regular_dataset",
    "two_regular_sign_pattern", "uniqueness_variant",
    # model
    "BimatrixGame", "DataSet", "Observation", "SignMatrix", "StrategyProfile", "Subgame", "VerificationReport",
    "full_subgame", "game_rank", "rational_matrix_rank", "rationalizes", "strict_equilibria",
    "validate_dataset",
    # oracle
    "SearchConfig", "brute_force_min_rank", "zero_sum_feasible",
    # rationalize
    "CycleWitness", "RationalizabilityResult", "RationalizationCertificate", "is_rationalizable",
    "rationalize_auto", "rationalize_bounded_rank", "rationalize_general", "rationalize_rank_one",
    "rationalize_zero_sum",
    # structure
    "StructureReport", "UniquenessCheck", "analyze", "crossing_set", "satisfies_uniqueness",
}


def test_public_names_are_the_documented_surface():
    exported = {
        name for name, value in vars(ranklens).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(PUBLIC_NAMES) == 64
    assert exported == PUBLIC_NAMES
