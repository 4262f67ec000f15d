"""The exported names, read in a fresh interpreter, so that no import made
by another test module can fill the package's namespace first."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    "full_subgame", "game_rank", "rationalizes", "strict_equilibria", "validate_dataset",
    # oracle
    "SearchConfig", "brute_force_min_rank", "zero_sum_feasible",
    # rationalize
    "CycleWitness", "RationalizabilityResult", "RationalizationCertificate", "is_rationalizable",
    "rationalize_auto", "rationalize_bounded_rank", "rationalize_general", "rationalize_rank_one",
    "rationalize_zero_sum",
    # structure
    "StructureReport", "UniquenessCheck", "analyze", "crossing_set", "satisfies_uniqueness",
}

NAMES_PROBE = """
import json, sys, types
import ranklens
report = {"loaded": sorted(name for name in sys.modules if name.startswith("ranklens."))}
report["all"] = list(ranklens.__all__)
report["dir"] = [name for name in dir(ranklens) if not name.startswith("_")]
ranklens.DataSet
report["bound"] = [
    name for name, value in vars(ranklens).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
print(json.dumps(report))
"""

SUBMODULE_PROBE = """
import ranklens
assert not hasattr(ranklens, "__wrapped__") and not hasattr(ranklens, "oracle")
from ranklens import oracle
from ranklens import rationalize
assert ranklens.oracle is oracle and ranklens.rationalize is rationalize
assert ranklens.SearchConfig is oracle.SearchConfig
"""


def _probe(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_public_names_are_the_documented_surface():
    # import ranklens loads no layer; the first access binds every export.
    proc = _probe(NAMES_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(PUBLIC_NAMES) == 63
    assert report["loaded"] == []
    assert len(report["all"]) == 63 and set(report["all"]) == PUBLIC_NAMES
    assert set(report["dir"]) == PUBLIC_NAMES
    assert set(report["bound"]) == PUBLIC_NAMES


def test_submodules_are_not_exports():
    # A submodule or dunder name raises AttributeError on the package, so
    # from-imports of submodules still import them.
    proc = _probe(SUBMODULE_PROBE)
    assert (proc.returncode, proc.stderr) == (0, "")
