from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from ranklens import (
    COL,
    ROW,
    AcyclicityCheck,
    CycleWitness,
    CyclicGraph,
    Edge,
    NotDeduped,
    RanklensError,
    RPGraph,
    SplitVertex,
    StrategyProfile,
    analyze,
    assign_payoffs_split,
    build_split_graph,
    build_strong_laminar_graph,
    crossing_span,
    dedupe_nested,
    full_subgame,
    game_rank,
    is_acyclic,
    is_rationalizable,
    rationalize_auto,
    rationalize_bounded_rank,
    rationalize_general,
    rationalize_rank_one,
    rationalize_zero_sum,
    rationalizes,
    strict_equilibria,
    topological_levels,
    validate_dataset,
    zero_sum_feasible,
)
from ranklens import graphs
from ranklens.graphs import _cycle_text, _decode, _vertex, _vertex_id
from .generators import (
    _canonical,
    naive_is_acyclic,
    naive_topological_levels,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    reference_corpus,
)


def P(r, c):
    return StrategyProfile(r, c)


def V(r, c, tag=""):
    return SplitVertex(r, c, tag)


def crossing_split_graph(dataset):
    """The bounded-rank route's graph: the crossing choices split."""
    return build_split_graph(dataset, analyze(dataset).crossing_choices)


class TestImplementEdges:
    def test_column_strip(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        assert build_split_graph(ds).edges == {Edge(V(1, 1), V(2, 1), ROW)}

    def test_full_three_by_three(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        assert build_split_graph(ds).edges == {
            Edge(V(1, 1), V(2, 1), ROW),
            Edge(V(1, 1), V(3, 1), ROW),
            Edge(V(1, 2), V(1, 1), COL),
            Edge(V(1, 3), V(1, 1), COL),
        }

    def test_singleton_subgame_has_no_edges(self):
        ds = validate_dataset([((2, 2), (2,), (2,))], 2)
        assert build_split_graph(ds).edges == frozenset()


class TestGraphValidation:
    def test_row_edge_must_keep_column(self):
        with pytest.raises(ValueError):
            RPGraph(2, frozenset({Edge(V(1, 1), V(2, 2), ROW)}))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            RPGraph(2, frozenset({Edge(V(1, 1), V(3, 1), ROW)}))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RPGraph(2, frozenset({Edge(V(1, 1), V(2, 1), "diag")}))

    def test_split_row_edge_may_not_touch_col_copy(self):
        split = frozenset({P(2, 2)})
        bad = Edge(SplitVertex(2, 2, "C"), SplitVertex(1, 2, ""), ROW)
        with pytest.raises(ValueError):
            RPGraph(2, frozenset({bad}), split)

    def test_split_vertex_roster(self):
        graph = RPGraph(2, frozenset(), frozenset({P(2, 2)}))
        assert graph.vertices == (
            SplitVertex(1, 1, ""),
            SplitVertex(1, 2, ""),
            SplitVertex(2, 1, ""),
            SplitVertex(2, 2, "R"),
            SplitVertex(2, 2, "C"),
        )


class TestStrongLaminarGraph:
    def test_single_full_observation(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        graph = build_strong_laminar_graph(ds)
        assert graph.edges == {
            Edge(V(1, 1), V(2, 1), ROW),
            Edge(V(1, 1), V(3, 1), ROW),
            Edge(V(1, 2), V(1, 1), COL),
            Edge(V(1, 3), V(1, 1), COL),
            Edge(V(1, 2), V(2, 2), ROW),
            Edge(V(1, 2), V(3, 2), ROW),
            Edge(V(1, 3), V(2, 3), ROW),
            Edge(V(1, 3), V(3, 3), ROW),
        }

    def test_nested_dataset_edges_and_payoffs(self, nested_dataset):
        graph = build_strong_laminar_graph(nested_dataset)
        assert graph.edges == {
            Edge(V(1, 1), V(2, 1), ROW),
            Edge(V(1, 2), V(1, 1), COL),
            Edge(V(1, 2), V(2, 2), ROW),
        }
        game = assign_payoffs_split(graph)
        assert game.a == ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-3)), (Fraction(-1), Fraction(-1)))

    def test_preconditions(self):
        # Laminarity and uniqueness are the caller's to check; see
        # TestZeroSum::test_preconditions in test_rationalize.py.
        undeduped = validate_dataset([((2, 2), (1, 2), (1, 2)), ((2, 2), (2,), (2,))], 2)
        with pytest.raises(NotDeduped):
            build_strong_laminar_graph(undeduped)

    def test_strong_implementation(self):
        rng = Random(29)
        for _ in range(30):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 6))
            deduped = dedupe_nested(ds)
            graph = build_strong_laminar_graph(deduped)
            assert is_acyclic(graph).acyclic
            assert build_split_graph(deduped).edges <= graph.edges
            game = assign_payoffs_split(graph)
            assert game.is_zero_sum
            assert rationalizes(game, ds).ok
            for obs in ds.observations:
                assert strict_equilibria(game, obs.subgame) == {obs.choice}


class TestLevels:
    def test_single_edge(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        graph = build_strong_laminar_graph(ds)
        levels = topological_levels(graph)
        assert levels == {V(1, 1): 2, V(1, 2): 1, V(2, 1): 1, V(2, 2): 1}
        game = assign_payoffs_split(graph)
        assert game.a == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(-1)))

    def test_every_edge_descends(self):
        rng = Random(31)
        for _ in range(20):
            ds = dedupe_nested(random_laminar_unique_dataset(rng, rng.randint(2, 6)))
            graph = build_strong_laminar_graph(ds)
            levels = topological_levels(graph)
            for edge in graph.edges:
                assert levels[edge.src] > levels[edge.dst]

    def test_cycle_detection(self):
        cyclic = RPGraph(
            2, frozenset({Edge(V(1, 1), V(2, 1), ROW), Edge(V(2, 1), V(1, 1), ROW)})
        )
        check = is_acyclic(cyclic)
        assert check == AcyclicityCheck(False, (V(1, 1), V(2, 1)))
        with pytest.raises(CyclicGraph) as raised:
            topological_levels(cyclic)
        assert raised.value.cycle == check.cycle
        with pytest.raises(CyclicGraph) as raised:
            assign_payoffs_split(cyclic)
        assert raised.value.cycle == check.cycle

    def test_witness_starts_at_least_vertex_that_reaches_a_cycle(self):
        # (1,1) and (1,2) only lead into the cycle (2,2) -> (3,2) -> (2,2);
        # the search reports the cycle from its first vertex on the walk.
        edges = {
            Edge(V(1, 1), V(1, 2), COL),
            Edge(V(1, 2), V(2, 2), ROW),
            Edge(V(2, 2), V(3, 2), ROW),
            Edge(V(3, 2), V(2, 2), ROW),
            Edge(V(1, 1), V(3, 1), ROW),
        }
        check = is_acyclic(RPGraph(3, frozenset(edges)))
        assert check == AcyclicityCheck(False, (V(2, 2), V(3, 2)))

    def test_empty_graph_is_all_level_one(self):
        graph = RPGraph(2, frozenset())
        assert set(topological_levels(graph).values()) == {1}


class TestSplitGraph:
    def test_crossing_strips(self, crossing_strips_dataset):
        graph = crossing_split_graph(crossing_strips_dataset)
        assert graph.split == {P(2, 2)}
        assert graph.span == 1
        assert graph.edges == {
            Edge(SplitVertex(2, 2, "R"), SplitVertex(1, 2, ""), ROW),
            Edge(SplitVertex(2, 1, ""), SplitVertex(2, 2, "C"), COL),
        }

    def test_crossing_strips_payoffs(self, crossing_strips_dataset):
        game = assign_payoffs_split(crossing_split_graph(crossing_strips_dataset))
        assert game.a == ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
        assert game.b == ((Fraction(-1), Fraction(-1)), (Fraction(-2), Fraction(-1)))
        assert not game.is_zero_sum
        assert game_rank(game) == 1
        assert rationalizes(game, crossing_strips_dataset).ok

    def test_laminar_dataset_splits_nothing(self, nested_dataset):
        graph = crossing_split_graph(nested_dataset)
        assert graph.split == frozenset()
        assert graph.span == 0
        game = assign_payoffs_split(graph)
        assert game.is_zero_sum

    def test_empty_split_gives_plain_graph(self, crossing_strips_dataset):
        graph = build_split_graph(crossing_strips_dataset)
        assert graph.split == frozenset()
        assert graph.span == 0
        assert graph.edges == {Edge(V(2, 2), V(1, 2), ROW), Edge(V(2, 1), V(2, 2), COL)}
        assert graph.to_dot().startswith("digraph revealed_preference {")

    def test_span_matches_structure_report(self):
        rng = Random(37)
        for _ in range(40):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 7))
            assert crossing_split_graph(ds).span == crossing_span(ds)

    def test_acyclic_iff_rationalizable(self):
        rng = Random(41)
        checked_cyclic = 0
        for _ in range(60):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 7))
            graph = crossing_split_graph(ds)
            acyclic = is_acyclic(graph).acyclic
            assert acyclic == is_rationalizable(ds).rationalizable
            if acyclic:
                game = assign_payoffs_split(graph)
                assert rationalizes(game, ds).ok
                assert game_rank(game) <= graph.span
            else:
                checked_cyclic += 1
        # the generator occasionally emits contradictory crossing data;
        # nothing here requires it, so just record the split when present
        assert checked_cyclic >= 0


class TestDot:
    def test_rp_graph_dot(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        dot = build_strong_laminar_graph(ds).to_dot()
        assert dot.startswith("digraph revealed_preference {")
        assert '"1,1" -> "2,1" [kind=row];' in dot
        assert dot.endswith("}\n")

    def test_split_graph_dot(self, crossing_strips_dataset):
        dot = crossing_split_graph(crossing_strips_dataset).to_dot()
        assert dot.startswith("digraph split_revealed_preference {")
        assert '"2,2,R" -> "1,2" [kind=row];' in dot
        assert '"2,1" -> "2,2,C" [kind=col];' in dot


def _sweep_graphs():
    """Plain, crossing-split, all-split and strong laminar graphs of the
    reference corpus, each graph's row-edge and column-edge parts, and
    seeded random graphs, most of them cyclic."""
    for ds in reference_corpus():
        report = analyze(ds)
        graphs = [
            build_split_graph(ds),
            build_split_graph(ds, report.crossing_choices),
            build_split_graph(ds, full_subgame(ds.n).grid()),
        ]
        if report.laminar and report.uniqueness:
            graphs.append(build_strong_laminar_graph(dedupe_nested(ds)))
        for graph in graphs:
            yield graph
            for kind in (ROW, COL):
                yield RPGraph(graph.n, frozenset(e for e in graph.edges if e.kind == kind), graph.split)
    rng = Random(43)
    for index in range(400):
        n = rng.randint(1, 5)
        # Every other graph splits a random set of profiles, so the walk
        # meets R and C copies of one profile.
        split = frozenset(
            P(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if index % 2 and rng.random() < 0.5
        )

        def copy(r, c, tag):
            return V(r, c, tag if (r, c) in split else "")

        edges = set()
        for _ in range(rng.randint(0, 2 * n * n)):
            r, c = rng.randint(1, n), rng.randint(1, n)
            if rng.random() < 0.5:
                r2 = rng.randint(1, n)
                if r2 != r:
                    edges.add(Edge(copy(r, c, "R"), copy(r2, c, "R"), ROW))
            else:
                c2 = rng.randint(1, n)
                if c2 != c:
                    edges.add(Edge(copy(r, c, "C"), copy(r, c2, "C"), COL))
        yield RPGraph(n, frozenset(edges), split)


class TestSparseSweepsMatchDense:
    def test_acyclicity_and_levels_equal_dense_reference(self):
        graphs = cyclic = 0
        for graph in _sweep_graphs():
            check = is_acyclic(graph)
            assert check == naive_is_acyclic(graph)
            if check.acyclic:
                levels = topological_levels(graph)
                reference = naive_topological_levels(graph)
                assert levels == reference
                assert list(levels) == list(reference)
            else:
                cyclic += 1
                with pytest.raises(CyclicGraph) as raised:
                    topological_levels(graph)
                with pytest.raises(CyclicGraph) as expected:
                    naive_topological_levels(graph)
                assert str(raised.value) == str(expected.value)
                assert raised.value.cycle == check.cycle
            graphs += 1
        assert graphs > 10_000
        assert cyclic > 1_000

    def test_routes_never_list_the_vertices(self, monkeypatch, diag_dataset, nested_dataset,
                                            crossing_strips_dataset, contradictory_dataset):
        def refuse(graph):
            raise AssertionError(f"all {graph.n * graph.n} profiles were listed")

        monkeypatch.setattr(RPGraph, "vertices", property(refuse))
        assert is_rationalizable(diag_dataset)
        assert not is_rationalizable(contradictory_dataset)
        assert zero_sum_feasible(nested_dataset)
        assert not zero_sum_feasible(diag_dataset)
        assert rationalize_rank_one(diag_dataset).rank == 1
        assert rationalize_zero_sum(nested_dataset).rank == 0
        assert rationalize_bounded_rank(crossing_strips_dataset).rank == 1
        assert rationalize_general(diag_dataset).method == "general"
        for ds in (diag_dataset, nested_dataset, crossing_strips_dataset):
            assert rationalizes(rationalize_auto(ds).game, ds).ok


class TestVertexIds:
    def test_id_order_is_the_canonical_vertex_order(self):
        rng = Random(47)
        for _ in range(300):
            n = rng.randint(1, 40)
            vertices = [V(rng.randint(1, n), rng.randint(1, n), rng.choice(("", "R", "C"))) for _ in range(12)]
            for v in vertices:
                assert _vertex(n, _vertex_id(n, v)) == v
                for w in vertices:
                    assert (_vertex_id(n, v) < _vertex_id(n, w)) == (_canonical(v) < _canonical(w))

    def test_cycle_text_is_the_decoded_tuple_text(self):
        rng = Random(53)
        for _ in range(200):
            n = rng.randint(1, 9)
            cycle = tuple(rng.randrange(3 * n * n) for _ in range(rng.randint(2, 5)))
            assert _cycle_text(n, cycle) == str(_decode(n, cycle))


def _outcome(route, ds):
    try:
        cert = route(ds)
    except RanklensError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))
    return (cert.method, cert.rank, cert.rank_bound, cert.uniqueness_guarantee, cert.game)


ROUTES = (rationalize_rank_one, rationalize_zero_sum, rationalize_bounded_rank, rationalize_general, rationalize_auto)


def _route_results(ds):
    return (is_rationalizable(ds), zero_sum_feasible(ds), *(_outcome(route, ds) for route in ROUTES))


def _profiles(cycle):
    return tuple(P(v.row, v.col) for v in cycle)


def _check_against_public_graphs(ds, results):
    """The routes' results equal what the public graph functions give."""
    decision, feasible, _, zero_sum, bounded, general, _ = results
    plain = build_split_graph(ds)
    witness = None
    for kind, player in ((ROW, "row"), (COL, "column")):
        check = is_acyclic(RPGraph(ds.n, frozenset(e for e in plain.edges if e.kind == kind)))
        if not check.acyclic:
            witness = CycleWitness(player, _profiles(check.cycle))
            break
    assert (decision.rationalizable, decision.witness) == (witness is None, witness)
    assert feasible == is_acyclic(plain).acyclic
    if witness is None:
        assert general[4] == assign_payoffs_split(build_split_graph(ds, full_subgame(ds.n).grid()))
    else:
        assert general == ("NotRationalizable", f"contradictory preferences: {', '.join(witness.inequalities())}",
                           witness)
    report = analyze(ds)
    if report.laminar and report.uniqueness:
        assert zero_sum[4] == assign_payoffs_split(build_strong_laminar_graph(dedupe_nested(ds)))
    if report.uniqueness:
        split = crossing_split_graph(ds)
        check = is_acyclic(split)
        if check.acyclic:
            assert bounded[2] == split.span
            assert bounded[4] == assign_payoffs_split(split)
        else:
            tags = [v.tag for v in check.cycle]
            player = "column" if tags.count("C") > tags.count("R") else "row"
            assert bounded == ("NotRationalizable", f"split revealed-preference graph has cycle {check.cycle}",
                               CycleWitness(player, _profiles(check.cycle)))


class TestRoutesOnIds:
    def test_route_path_builds_no_graph_objects(self, monkeypatch):
        corpus = list(reference_corpus())
        expected = []
        for ds in corpus:
            expected.append(_route_results(ds))
            _check_against_public_graphs(ds, expected[-1])

        def refuse(*args, **kwargs):
            raise AssertionError("a graph object was built on the route path")

        monkeypatch.setattr(graphs, "Edge", refuse)
        monkeypatch.setattr(graphs, "SplitVertex", refuse)
        monkeypatch.setattr(RPGraph, "__post_init__", refuse)
        negatives = Counter()
        for ds, want in zip(corpus, expected):
            assert _route_results(ds) == want
            for outcome in want[2:]:
                negatives[outcome[0] == "NotRationalizable"] += 1
        # Positive and negative outcomes both took the route path.
        assert negatives[True] > 100 and negatives[False] > 1000
