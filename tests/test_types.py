"""The contract of the result records and the value types: repr, equality
with an equal instance, hashing, pickling and copying without memos, and
refused field assignment.

The eight records are named tuples; DataSet, BimatrixGame and SignMatrix
are slotted classes, not tuples."""

import copy
import pickle
from fractions import Fraction

import pytest

from ranklens import (
    BimatrixGame,
    BudgetExceeded,
    SearchConfig,
    SignMatrix,
    analyze,
    game_rank,
    is_rationalizable,
    rationalize_zero_sum,
    rationalizes,
    satisfies_uniqueness,
    validate_dataset,
)

from .generators import filled_slots

NESTED = [((1, 1), (1, 2), (1, 2)), ((2, 2), (2,), (2,))]
CONTRADICTORY = [((1, 1), (1, 2), (1, 2)), ((2, 1), (1, 2), (1,))]
GAME = ([[2, 7], [1, 8]], [[2, 1], [7, 8]])
NESTED_OBSERVATIONS = (
    "(Observation(choice=StrategyProfile(row=1, col=1), subgame=Subgame(rows=(1, 2), cols=(1, 2))), "
    "Observation(choice=StrategyProfile(row=2, col=2), subgame=Subgame(rows=(2,), cols=(2,))))"
)
FAILED_OBSERVATION = (
    "Observation(choice=StrategyProfile(row=1, col=1), subgame=Subgame(rows=(1, 2), cols=(1, 2)))"
)


def _dataset():
    dataset = validate_dataset(NESTED, 2)
    analyze(dataset)  # fills the subgame and classification memos
    return dataset


def _game():
    game = BimatrixGame.from_rows(*GAME)
    game_rank(game)  # fills the integer-row memo
    return game


def _failures():
    return rationalizes(BimatrixGame.from_rows([[0, 0], [0, 0]], [[0, 0], [0, 0]]), validate_dataset(NESTED, 2))


# (type name, a factory of equal fresh instances, the pinned repr)
CASES = [
    ("DataSet", _dataset, f"DataSet(n=2, observations={NESTED_OBSERVATIONS})"),
    ("BimatrixGame", _game, "BimatrixGame(n=2, a=((2, 7), (1, 8)), b=((2, 1), (7, 8)))"),
    ("SignMatrix", lambda: SignMatrix([[1, -1], [1, 1]]), "SignMatrix(entries=((1, -1), (1, 1)))"),
    ("ObservationFailure", lambda: _failures().failures[0],
     f"ObservationFailure(observation={FAILED_OBSERVATION}, inequality='A[1,1]=0 <= A[2,1]=0')"),
    ("VerificationReport", _failures,
     f"VerificationReport(ok=False, failures=(ObservationFailure(observation={FAILED_OBSERVATION}, "
     "inequality='A[1,1]=0 <= A[2,1]=0'),))"),
    ("StructureReport", lambda: analyze(validate_dataset(NESTED, 2)),
     "StructureReport(laminar=True, uniqueness=True, crossing_subgames=(), crossing_choices=(), "
     "row_span=0, col_span=0, crossing_span=0, uniqueness_violation=None)"),
    ("UniquenessCheck", lambda: satisfies_uniqueness(validate_dataset(NESTED, 2)),
     "UniquenessCheck(ok=True, violation=None)"),
    ("CycleWitness", lambda: is_rationalizable(validate_dataset(CONTRADICTORY, 2)).witness,
     "CycleWitness(player='row', cycle=(StrategyProfile(row=1, col=1), StrategyProfile(row=2, col=1)))"),
    ("RationalizabilityResult", lambda: is_rationalizable(validate_dataset(CONTRADICTORY, 2)),
     "RationalizabilityResult(rationalizable=False, witness=CycleWitness(player='row', "
     "cycle=(StrategyProfile(row=1, col=1), StrategyProfile(row=2, col=1))))"),
    ("RationalizationCertificate", lambda: rationalize_zero_sum(validate_dataset(NESTED, 2)),
     "RationalizationCertificate(game=BimatrixGame(n=2, a=((2, 3), (1, 1)), b=((-2, -3), (-1, -1))), "
     "method='zero_sum', rank=0, rank_bound=0, uniqueness_guarantee=True)"),
    ("SearchConfig", SearchConfig, "SearchConfig(max_abs_payoff=3, max_n=2, zero_sum_shortcut=True)"),
]
IDS = [name for name, _, _ in CASES]
VALUE_TYPES = {"DataSet", "BimatrixGame", "SignMatrix"}


def _fields(value) -> tuple:
    return tuple(getattr(value, field) for field in type(value)._fields)


@pytest.mark.parametrize("name, make, text", CASES, ids=IDS)
def test_repr_equality_and_hash(name, make, text):
    value, other = make(), make()
    assert type(value).__name__ == name
    assert value is not other
    assert repr(value) == text
    assert value == other and hash(value) == hash(other)
    assert not (value != other)


@pytest.mark.parametrize("name, make, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_carry_no_memo(name, make, text):
    # A value with its memos filled pickles to the bytes of one built
    # afresh from its fields, and its copies start without memos.
    value = make()
    data = pickle.dumps(value)
    assert data == pickle.dumps(type(value)(*_fields(value)))
    for copied in (pickle.loads(data), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value) and repr(copied) == text
        if name in VALUE_TYPES:
            assert filled_slots(copied) == set(type(value)._fields)


@pytest.mark.parametrize("name, make, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(name, make, text):
    value = make()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name, make, text", CASES, ids=IDS)
def test_records_are_tuples_and_value_types_are_not(name, make, text):
    value = make()
    fields = _fields(value)
    if name in VALUE_TYPES:
        assert not isinstance(value, tuple)
        assert value != fields
        with pytest.raises(TypeError):
            iter(value)
    else:
        assert tuple(value) == fields and value == fields


def test_a_dataset_has_no_length():
    with pytest.raises(TypeError):
        len(validate_dataset(NESTED, 2))


def test_a_rational_game_reprs_its_fractions():
    game = BimatrixGame.from_rows([["1/2", 2], [0, 0]], [[0, Fraction(3, 1)], [0, 0]])
    assert repr(game) == "BimatrixGame(n=2, a=((Fraction(1, 2), 2), (0, 0)), b=((0, 3), (0, 0)))"


def test_search_config_keeps_its_defaults_and_check():
    assert SearchConfig() == SearchConfig(3, 2, True)
    assert SearchConfig(max_n=3).max_abs_payoff == 3
    with pytest.raises(BudgetExceeded) as raised:
        SearchConfig(max_abs_payoff=-1)
    assert str(raised.value) == "max_abs_payoff must be nonnegative, got -1"


def test_checks_and_results_keep_their_truth_value():
    assert satisfies_uniqueness(validate_dataset(NESTED, 2))
    assert not satisfies_uniqueness(validate_dataset([((1, 1), (1, 2), (1, 2)), ((2, 2), (1, 2), (1, 2))], 2))
    assert is_rationalizable(validate_dataset(NESTED, 2))
    assert not is_rationalizable(validate_dataset(CONTRADICTORY, 2))
