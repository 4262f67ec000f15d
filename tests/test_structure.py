import copy
import gc
import pickle
import weakref
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from ranklens import (
    StrategyProfile,
    Subgame,
    analyze,
    crossing_set,
    crossing_span,
    dataset_from_text,
    dataset_to_text,
    dedupe_nested,
    is_laminar,
    laminar_forest,
    satisfies_uniqueness,
    subgames_cross,
    sylvester_hadamard,
    two_regular_dataset,
    uniqueness_variant,
    validate_dataset,
)
from .generators import (
    naive_crossing_set,
    naive_dedupe_nested,
    naive_laminar_forest,
    naive_satisfies_uniqueness,
    naive_subgames_cross,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    reference_corpus,
    two_by_two_sweep,
)

subgame_strategy = st.builds(
    Subgame,
    st.sets(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    st.sets(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
)


class TestCrossing:
    def test_crossing_strips(self):
        assert subgames_cross(Subgame((1, 2), (2,)), Subgame((2,), (1, 2)))

    def test_nested_do_not_cross(self):
        assert not subgames_cross(Subgame((1, 2), (1, 2)), Subgame((2,), (2,)))

    def test_disjoint_do_not_cross(self):
        assert not subgames_cross(Subgame((1,), (1,)), Subgame((2,), (2,)))

    @given(subgame_strategy, subgame_strategy)
    @settings(max_examples=120, deadline=None)
    def test_symmetric_and_irreflexive(self, s, t):
        assert subgames_cross(s, t) == subgames_cross(t, s)
        assert not subgames_cross(s, s)
        assert subgames_cross(s, t) == naive_subgames_cross(s, t)

    def test_crossing_set_and_span(self, crossing_strips_dataset):
        crossing = crossing_set(crossing_strips_dataset)
        assert crossing == (Subgame((1, 2), (2,)), Subgame((2,), (1, 2)))
        assert crossing_span(crossing_strips_dataset) == 1

    def test_laminar_dataset_has_empty_crossing_set(self, nested_dataset):
        assert crossing_set(nested_dataset) == ()
        assert is_laminar(nested_dataset)
        assert crossing_span(nested_dataset) == 0

    def test_variant_spans(self):
        variant = uniqueness_variant(two_regular_dataset(sylvester_hadamard(1)))
        report = analyze(variant)
        assert not report.laminar
        assert report.uniqueness
        # H_2 block column 1 is all +1, so its strips sit on even columns
        # only; block (2,2) is -1 and contributes column 3.
        assert report.row_span == 2
        assert report.col_span == 3
        assert report.crossing_span == 2
        assert set(report.crossing_choices) == {
            StrategyProfile(2, 2),
            StrategyProfile(2, 4),
            StrategyProfile(4, 2),
            StrategyProfile(4, 3),
        }

    def test_laminar_iff_span_zero(self):
        rng = Random(11)
        for _ in range(60):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 6))
            report = analyze(ds)
            assert report.laminar == (report.crossing_span == 0)
            assert report.laminar == (not report.crossing_subgames)

    def test_span_monotone_under_removal(self):
        rng = Random(13)
        for _ in range(40):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 6))
            if not ds.observations:
                continue
            full_span = crossing_span(ds)
            drop = rng.randrange(len(ds.observations))
            smaller = validate_dataset(
                [
                    ((o.choice.row, o.choice.col), o.subgame.rows, o.subgame.cols)
                    for k, o in enumerate(ds.observations)
                    if k != drop
                ],
                ds.n,
            )
            assert crossing_span(smaller) <= full_span


class TestUniqueness:
    def test_two_choices_on_one_subgame(self, diag_dataset):
        check = satisfies_uniqueness(diag_dataset)
        assert not check.ok
        assert check.violation is not None
        first, second = check.violation
        assert first.subgame == second.subgame

    def test_nested_consistency_violation(self):
        ds = validate_dataset([((2, 2), (1, 2), (1, 2)), ((1, 2), (1, 2), (2,))], 2)
        check = satisfies_uniqueness(ds)
        assert not check.ok
        outer, inner = check.violation
        assert outer.choice == StrategyProfile(2, 2)
        assert inner.choice == StrategyProfile(1, 2)

    def test_nested_consistency_satisfied(self):
        ds = validate_dataset([((2, 2), (1, 2), (1, 2)), ((2, 2), (1, 2), (2,))], 2)
        assert satisfies_uniqueness(ds).ok

    def test_variant_is_unique(self):
        variant = uniqueness_variant(two_regular_dataset(sylvester_hadamard(1)))
        assert satisfies_uniqueness(variant).ok

    def test_two_regular_is_not_unique(self):
        assert not satisfies_uniqueness(two_regular_dataset(sylvester_hadamard(1))).ok

    def test_generated_datasets_satisfy_uniqueness(self):
        rng = Random(17)
        for _ in range(50):
            ds = random_laminar_unique_dataset(rng, rng.randint(1, 7))
            assert is_laminar(ds)
            assert satisfies_uniqueness(ds).ok


class TestLaminarForest:
    def test_chain(self, nested_dataset):
        forest = laminar_forest(nested_dataset)
        assert len(forest) == 2
        assert forest.height() == 2
        outer = Subgame((1, 2), (1, 2))
        inner = Subgame((2,), (2,))
        assert forest.root_subgames() == (outer,)
        assert forest.children_of(outer) == (inner,)
        assert forest.parent_of(inner) == outer
        assert forest.parent_of(outer) is None

    def test_two_regular_blocks_are_roots(self):
        forest = laminar_forest(two_regular_dataset(sylvester_hadamard(1)))
        assert len(forest.roots) == 4
        assert forest.height() == 1

    def test_forest_invariants(self):
        rng = Random(19)
        for _ in range(40):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 7))
            forest = laminar_forest(ds)
            for subgame in forest.subgames:
                parent = forest.parent_of(subgame)
                if parent is not None:
                    assert parent.contains_subgame(subgame)
                    assert parent != subgame
                    # parent is the smallest strict container
                    for other in forest.subgames:
                        if other not in (subgame, parent) and other.contains_subgame(subgame):
                            assert other.contains_subgame(parent)
                children = forest.children_of(subgame)
                for a_idx in range(len(children)):
                    for b_idx in range(a_idx + 1, len(children)):
                        a, b = children[a_idx], children[b_idx]
                        assert not (set(a.rows) & set(b.rows)) or not (set(a.cols) & set(b.cols))


class TestDedupe:
    def test_nested_same_choice_keeps_outermost(self):
        ds = validate_dataset(
            [
                ((2, 2), (1, 2, 3), (1, 2, 3)),
                ((2, 2), (1, 2), (1, 2)),
                ((2, 2), (2,), (2,)),
            ],
            3,
        )
        deduped = dedupe_nested(ds)
        assert len(deduped.observations) == 1
        assert deduped.observations[0].subgame == Subgame((1, 2, 3), (1, 2, 3))

    def test_distinct_choices_unchanged(self, nested_dataset):
        assert dedupe_nested(nested_dataset) == nested_dataset

    def test_result_has_distinct_choices(self):
        rng = Random(23)
        for _ in range(40):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 7))
            deduped = dedupe_nested(ds)
            choices = [o.choice for o in deduped.observations]
            assert len(choices) == len(set(choices))
            # every dropped observation is nested in a kept one with the same choice
            kept = set(deduped.observations)
            for obs in ds.observations:
                if obs not in kept:
                    assert any(
                        k.choice == obs.choice and k.subgame.contains_subgame(obs.subgame)
                        for k in kept
                    )


class TestIndexedMatchesPairwise:
    def test_classification_equals_pairwise_reference(self):
        checked = violations = 0
        for ds in reference_corpus():
            assert crossing_set(ds) == naive_crossing_set(ds)
            check = satisfies_uniqueness(ds)
            assert check == naive_satisfies_uniqueness(ds)
            violations += not check.ok
            forest, reference = laminar_forest(ds), naive_laminar_forest(ds)
            assert forest.subgames == reference.subgames
            assert forest.parent_index == reference.parent_index
            assert forest.children_index == reference.children_index
            assert forest.roots == reference.roots
            for subgame in forest.subgames:
                assert forest.parent_of(subgame) == reference.parent_of(subgame)
            assert dedupe_nested(ds) == naive_dedupe_nested(ds)
            checked += 1
        assert checked == 697 + 7 * 12 * 3 + 8
        assert violations > 100


class TestClassificationMemo:
    """A dataset classifies once and keeps the result beside its fields,
    where no comparison, hash, repr, pickle or document can see it."""

    def test_an_analysed_dataset_looks_fresh(self):
        for ds in reference_corpus():
            text = dataset_to_text(ds)
            warmed, fresh = dataset_from_text(text), dataset_from_text(text)
            report = analyze(warmed)
            assert analyze(warmed) is report
            helpers = (is_laminar, crossing_span, crossing_set, satisfies_uniqueness, laminar_forest, dedupe_nested)
            for helper in helpers:
                helper(warmed)
            assert "_classification" in vars(warmed)
            assert warmed == fresh and hash(warmed) == hash(fresh)
            assert repr(warmed) == repr(fresh)
            assert pickle.dumps(warmed) == pickle.dumps(fresh)
            for copied in (pickle.loads(pickle.dumps(warmed)), copy.copy(warmed), copy.deepcopy(warmed)):
                assert copied == fresh
                assert set(vars(copied)) == {"n", "observations"}
                assert analyze(copied) == report  # classified afresh
            assert dataset_to_text(warmed) == text

    def test_a_classified_dataset_is_freed_without_the_cycle_collector(self):
        # The memo refers back to its dataset weakly: no reference cycle.
        ds = uniqueness_variant(two_regular_dataset(sylvester_hadamard(2)))
        analyze(ds)
        laminar_forest(ds)
        freed = weakref.ref(ds)
        gc.disable()
        try:
            del ds
            assert freed() is None
        finally:
            gc.enable()
