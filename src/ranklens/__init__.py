"""Rationalizability and minimum-rank analysis of observed play in
two-player games: exact equilibrium checks, structural classification,
revealed-preference graphs, rationalizing-game synthesis, and
Hadamard-patterned adversarial instances.

``import ranklens`` loads none of the layer modules. The first access to
any exported name imports every layer and binds all of the exports at
once (PEP 562), so the package then reads as if it had imported them
eagerly; a CLI command imports only the layers it runs.
"""

_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ChoiceOutsideSubgame", "DataError", "DocumentError", "EmptySubgame",
        "IndexOutOfRange", "InvalidSize", "NotLaminar", "NotPowerOfTwo", "NotRationalizable",
        "NotTwoRegular", "PreconditionError", "RanklensError", "SizeLimitExceeded", "SizeMismatch",
        "SubgameNotFull", "UniquenessViolated", "ZeroSignEntry",
    ),
    "documents": (
        "canonical_json", "dataset_from_document", "dataset_from_text", "dataset_to_document",
        "dataset_to_text", "game_from_document", "game_from_text", "game_to_document", "game_to_text",
        "parse_json",
    ),
    "hadamard": (
        "block_difference_certificate", "hadamard_minrank_bound", "sylvester_hadamard",
        "two_regular_dataset", "two_regular_sign_pattern", "uniqueness_variant",
    ),
    "model": (
        "BimatrixGame", "DataSet", "Observation", "SignMatrix", "StrategyProfile", "Subgame",
        "VerificationReport", "full_subgame", "game_rank", "rationalizes", "strict_equilibria",
        "validate_dataset",
    ),
    "oracle": ("SearchConfig", "brute_force_min_rank", "zero_sum_feasible"),
    "rationalize": (
        "CycleWitness", "RationalizabilityResult", "RationalizationCertificate", "is_rationalizable",
        "rationalize_auto", "rationalize_bounded_rank", "rationalize_general", "rationalize_rank_one",
        "rationalize_zero_sum",
    ),
    "structure": ("StructureReport", "UniquenessCheck", "analyze", "crossing_set", "satisfies_uniqueness"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind every export on the first access to any of them. Any other name,
    a submodule's included, raises AttributeError, so ``from ranklens
    import oracle`` goes on to import the submodule."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for layer, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{layer}")
        namespace.update({export: getattr(module, export) for export in names})
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
