import pickle
from collections import Counter
from fractions import Fraction
from functools import partial
from random import Random
from typing import NamedTuple

from ranklens import (
    BimatrixGame,
    CycleWitness,
    RanklensError,
    StrategyProfile,
    analyze,
    dedupe_nested,
    game_from_text,
    game_rank,
    game_to_text,
    is_rationalizable,
    laminar_forest,
    rationalize_auto,
    rationalize_bounded_rank,
    rationalize_general,
    rationalize_rank_one,
    rationalize_zero_sum,
    rationalizes,
    strict_equilibria,
    validate_dataset,
    zero_sum_feasible,
)
from ranklens.graphs import _cells, _coordinates, _cycle_text, _edge_ids, _payoffs, _strong_edge_ids, _sweep
from .generators import (
    _canonical,
    is_zero_sum,
    naive_is_acyclic,
    naive_topological_levels,
    naive_vertices,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    reference_corpus,
    vertex_id,
)


def P(r, c):
    return StrategyProfile(r, c)


V2 = partial(vertex_id, 2)
V3 = partial(vertex_id, 3)


class SplitVertex(NamedTuple):
    """The vertex class whose tuple text the cycle messages print."""

    row: int
    col: int
    tag: str


def cycle_text(n, cycle):
    """The text of a cycle of vertex ids, from a tuple of SplitVertex."""
    vertices = naive_vertices(n, range(n * n)) | naive_vertices(n, ())
    return str(tuple(SplitVertex(*vertices[vid]) for vid in cycle))


def crossing_split_pairs(dataset):
    """The bounded-rank route's graph: the crossing choices split."""
    split = _cells(dataset.n, analyze(dataset).crossing_choices)
    rows, cols = _edge_ids(dataset.n, dataset.observations, split)
    return rows | cols, split


def priced(n, levels, split):
    """The game of the levels of every vertex, from the definition: an
    intact vertex prices A = level and B = -level, an R copy only A and a
    C copy only B."""
    a = [[None] * n for _ in range(n)]
    b = [[None] * n for _ in range(n)]
    for vid, (row, col, tag) in naive_vertices(n, split).items():
        if tag != "C":
            a[row - 1][col - 1] = levels[vid]
        if tag != "R":
            b[row - 1][col - 1] = -levels[vid]
    return BimatrixGame.from_rows(a, b)


class TestImplementEdges:
    def test_column_strip(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        assert _edge_ids(2, ds.observations) == ({(V2(1, 1), V2(2, 1))}, set())

    def test_full_three_by_three(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        rows, cols = _edge_ids(3, ds.observations)
        assert rows == {(V3(1, 1), V3(2, 1)), (V3(1, 1), V3(3, 1))}
        assert cols == {(V3(1, 2), V3(1, 1)), (V3(1, 3), V3(1, 1))}

    def test_singleton_subgame_has_no_edges(self):
        ds = validate_dataset([((2, 2), (2,), (2,))], 2)
        assert _edge_ids(2, ds.observations) == (set(), set())


class TestStrongLaminarGraph:
    def test_single_full_observation(self):
        ds = validate_dataset([((1, 1), (1, 2, 3), (1, 2, 3))], 3)
        assert set(_strong_edge_ids(ds)) == {
            (V3(1, 1), V3(2, 1)),
            (V3(1, 1), V3(3, 1)),
            (V3(1, 2), V3(1, 1)),
            (V3(1, 3), V3(1, 1)),
            (V3(1, 2), V3(2, 2)),
            (V3(1, 2), V3(3, 2)),
            (V3(1, 3), V3(2, 3)),
            (V3(1, 3), V3(3, 3)),
        }

    def test_nested_dataset_edges_and_payoffs(self, nested_dataset):
        pairs = _strong_edge_ids(nested_dataset)
        assert set(pairs) == {(V2(1, 1), V2(2, 1)), (V2(1, 2), V2(1, 1)), (V2(1, 2), V2(2, 2))}
        game = _payoffs(2, _sweep(pairs)[0])
        assert game.a == ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-3)), (Fraction(-1), Fraction(-1)))

    def test_strong_graph_is_acyclic_on_laminar_uniqueness_data(self):
        """What the zero-sum route relies on without checking it at run
        time: on laminar uniqueness data, dedupe_nested leaves pairwise
        distinct choices, no child grid holds its parent's choice, and the
        strong graph is acyclic."""
        rng = Random(59)
        corpus = [ds for ds in reference_corpus() if analyze(ds).laminar and analyze(ds).uniqueness]
        draws = [random_laminar_unique_dataset(rng, n) for n in range(2, 13) for _ in range(20)]
        for ds in corpus + draws:
            assert analyze(ds).laminar and analyze(ds).uniqueness
            deduped = dedupe_nested(ds)
            choices = [obs.choice for obs in deduped.observations]
            assert len(set(choices)) == len(choices)
            subgames, children = deduped.subgames(), laminar_forest(deduped)
            for obs in deduped.observations:
                kids = children[subgames.index(obs.subgame)]
                assert not any(subgames[kid].contains(obs.choice) for kid in kids)
            assert _sweep(_strong_edge_ids(deduped))[1] is None
        assert len(corpus) > 100 and len(draws) >= 200

    def test_strong_implementation(self):
        rng = Random(29)
        for _ in range(30):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 6))
            deduped = dedupe_nested(ds)
            n, pairs = ds.n, _strong_edge_ids(deduped)
            assert _sweep(pairs)[1] is None
            rows, cols = _edge_ids(n, deduped.observations)
            assert rows | cols <= set(pairs)
            game = _payoffs(n, _sweep(pairs)[0])
            assert is_zero_sum(game)
            assert rationalizes(game, ds).ok
            for obs in ds.observations:
                assert strict_equilibria(game, obs.subgame) == {obs.choice}


class TestLevels:
    def test_single_edge(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        pairs = _strong_edge_ids(ds)
        levels = _sweep(pairs)[0]
        assert levels == {V2(1, 1): 2, V2(2, 1): 1}
        game = _payoffs(2, levels)
        assert game.a == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(-1)))

    def test_every_edge_descends(self):
        rng = Random(31)
        for _ in range(20):
            ds = dedupe_nested(random_laminar_unique_dataset(rng, rng.randint(2, 6)))
            pairs = _strong_edge_ids(ds)
            levels = _sweep(pairs)[0]
            for src, dst in pairs:
                assert levels[src] > levels[dst]

    def test_cycle_detection(self):
        pairs = [(0, 9), (9, 0)]  # (1,1) -> (2,2) -> (1,1)
        assert _sweep(pairs) == ({}, (0, 9))
        assert _cycle_text(2, (0, 9)) == "(SplitVertex(row=1, col=1, tag=''), SplitVertex(row=2, col=2, tag=''))"
        assert tuple(_coordinates(2, vid) for vid in (0, 9)) == ((1, 1, ""), (2, 2, ""))

    def test_witness_starts_at_least_vertex_that_reaches_a_cycle(self):
        # (1,1) and (1,2) only lead into the cycle (2,2) -> (3,2) -> (2,2);
        # the search reports the cycle from its first vertex on the walk.
        pairs = [
            (V3(1, 1), V3(1, 2)),
            (V3(1, 2), V3(2, 2)),
            (V3(2, 2), V3(3, 2)),
            (V3(3, 2), V3(2, 2)),
            (V3(1, 1), V3(3, 1)),
        ]
        assert _sweep(pairs)[1] == (V3(2, 2), V3(3, 2))

    def test_empty_graph_is_all_level_one(self):
        assert _sweep([]) == ({}, None)
        game = _payoffs(2, {})
        assert set(game.a[0] + game.a[1]) == {1}
        assert set(game.b[0] + game.b[1]) == {-1}


class TestSplitGraph:
    def test_crossing_strips(self, crossing_strips_dataset):
        assert analyze(crossing_strips_dataset).crossing_choices == (P(2, 2),)
        assert analyze(crossing_strips_dataset).crossing_span == 1
        pairs, _ = crossing_split_pairs(crossing_strips_dataset)
        assert pairs == {(V2(2, 2, "R"), V2(1, 2)), (V2(2, 1), V2(2, 2, "C"))}

    def test_crossing_strips_payoffs(self, crossing_strips_dataset):
        pairs, _ = crossing_split_pairs(crossing_strips_dataset)
        game = _payoffs(2, _sweep(pairs)[0])
        assert game.a == ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
        assert game.b == ((Fraction(-1), Fraction(-1)), (Fraction(-2), Fraction(-1)))
        assert not is_zero_sum(game)
        assert game_rank(game) == 1
        assert rationalizes(game, crossing_strips_dataset).ok

    def test_laminar_dataset_splits_nothing(self, nested_dataset):
        pairs, split = crossing_split_pairs(nested_dataset)
        assert split == set()
        assert analyze(nested_dataset).crossing_span == 0
        assert is_zero_sum(_payoffs(2, _sweep(pairs)[0]))

    def test_empty_split_gives_plain_graph(self, crossing_strips_dataset):
        rows, cols = _edge_ids(2, crossing_strips_dataset.observations)
        assert rows == {(V2(2, 2), V2(1, 2))}
        assert cols == {(V2(2, 1), V2(2, 2))}

    def test_span_matches_structure_report(self):
        rng = Random(37)
        for _ in range(40):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 7))
            split = analyze(ds).crossing_choices
            assert min(len({p.row for p in split}), len({p.col for p in split})) == analyze(ds).crossing_span

    def test_acyclic_iff_rationalizable(self):
        rng = Random(41)
        branches = Counter()
        for _ in range(60):
            ds = random_uniqueness_dataset(rng, rng.randint(2, 7))
            pairs, _ = crossing_split_pairs(ds)
            acyclic = _sweep(pairs)[1] is None
            assert acyclic == is_rationalizable(ds).rationalizable
            if acyclic:
                game = _payoffs(ds.n, _sweep(pairs)[0])
                assert rationalizes(game, ds).ok
                assert game_rank(game) <= analyze(ds).crossing_span
            branches[acyclic] += 1
        # The generator sometimes emits contradictory crossing data.
        assert branches[True] and branches[False]


def _sweep_graphs():
    """(n, pairs, split cells) of the plain, crossing-split, all-split and
    strong laminar graphs of the reference corpus, each graph's row-edge
    and column-edge parts, and seeded random graphs, most of them cyclic."""
    for ds in reference_corpus():
        n, report = ds.n, analyze(ds)
        splits = [set(), _cells(n, report.crossing_choices), set(range(n * n))]
        parts = [(_edge_ids(n, ds.observations, split), split) for split in splits]
        if report.laminar and report.uniqueness:
            strong = _strong_edge_ids(dedupe_nested(ds))
            # A row edge keeps its column.
            rows = {(src, dst) for src, dst in strong if (src // 3 - dst // 3) % n == 0}
            parts.append(((rows, set(strong) - rows), set()))
        for (rows, cols), split in parts:
            yield n, rows | cols, split
            yield n, rows, split
            yield n, cols, split
    rng = Random(43)
    for index in range(400):
        n = rng.randint(1, 5)
        # Every other graph splits a random set of cells, so the walk meets
        # R and C copies of one profile.
        split = {cell for cell in range(n * n) if index % 2 and rng.random() < 0.5}

        def copy(r, c, tag):
            return vertex_id(n, r, c, tag if (r - 1) * n + c - 1 in split else "")

        pairs = set()
        for _ in range(rng.randint(0, 2 * n * n)):
            r, c = rng.randint(1, n), rng.randint(1, n)
            if rng.random() < 0.5:
                r2 = rng.randint(1, n)
                if r2 != r:
                    pairs.add((copy(r, c, "R"), copy(r2, c, "R")))
            else:
                c2 = rng.randint(1, n)
                if c2 != c:
                    pairs.add((copy(r, c, "C"), copy(r, c2, "C")))
        yield n, pairs, split


class TestSparseSweepsMatchDense:
    def test_acyclicity_and_levels_equal_dense_reference(self):
        graphs = cyclic = 0
        for n, pairs, split in _sweep_graphs():
            levels, cycle = _sweep(pairs)
            assert (cycle is None, cycle) == naive_is_acyclic(n, pairs, split)
            reference = naive_topological_levels(n, pairs, split)
            if cycle is None:
                assert {vid: levels.get(vid, 1) for vid in reference} == reference
            else:
                cyclic += 1
                assert reference is None
                assert _cycle_text(n, cycle) == cycle_text(n, cycle)
                vertices = naive_vertices(n, split)
                assert tuple(_coordinates(n, vid) for vid in cycle) == tuple(vertices[vid] for vid in cycle)
            graphs += 1
        assert graphs > 10_000
        assert cyclic > 1_000

    def test_routes_never_list_the_vertices(self):
        """Every route prices through the sweep, whose levels hold only the
        vertices that some pair touches, so no route lists all n^2
        profiles: an acyclic graph's levels hold exactly the endpoints of
        its pairs, a cyclic graph's a part of them without the cycle."""
        for n, pairs, split in _sweep_graphs():
            levels, cycle = _sweep(pairs)
            endpoints = {vid for pair in pairs for vid in pair}
            if cycle is None:
                assert set(levels) == endpoints
            else:
                assert set(levels) <= endpoints - set(cycle)


class TestVertexIds:
    def test_id_order_is_the_canonical_vertex_order(self):
        rng = Random(47)
        for _ in range(300):
            n = rng.randint(1, 40)
            vids = [rng.randrange(3 * n * n) for _ in range(12)]
            for v in vids:
                assert vertex_id(n, *_coordinates(n, v)) == v
                for w in vids:
                    assert (v < w) == (_canonical(_coordinates(n, v)) < _canonical(_coordinates(n, w)))

    def test_cycle_text_is_the_decoded_tuple_text(self):
        rng = Random(53)
        for _ in range(200):
            n = rng.randint(1, 9)
            cycle = tuple(rng.randrange(3 * n * n) for _ in range(rng.randint(2, 5)))
            assert _cycle_text(n, cycle) == cycle_text(n, cycle)


def _outcome(route, ds):
    try:
        cert = route(ds)
    except RanklensError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))
    return (cert.method, cert.rank, cert.rank_bound, cert.uniqueness_guarantee, cert.game)


ROUTES = (rationalize_rank_one, rationalize_zero_sum, rationalize_bounded_rank, rationalize_general, rationalize_auto)


def _route_results(ds):
    return (is_rationalizable(ds), zero_sum_feasible(ds), *(_outcome(route, ds) for route in ROUTES))


def _check_against_dense_references(ds, results):
    """The routes' results equal what the dense references give."""
    decision, feasible, _, zero_sum, bounded, general, _ = results
    n, everything = ds.n, set(range(ds.n * ds.n))
    plain = naive_vertices(n, ())
    rows, cols = _edge_ids(n, ds.observations)
    witness = None
    for pairs, player in ((rows, "row"), (cols, "column")):
        acyclic, cycle = naive_is_acyclic(n, pairs, ())
        if not acyclic:
            witness = CycleWitness(player, tuple(P(*plain[vid][:2]) for vid in cycle))
            break
    assert (decision.rationalizable, decision.witness) == (witness is None, witness)
    assert feasible == naive_is_acyclic(n, rows | cols, ())[0]
    if witness is None:
        pairs = set().union(*_edge_ids(n, ds.observations, everything))
        assert general[4] == priced(n, naive_topological_levels(n, pairs, everything), everything)
    else:
        assert general == ("NotRationalizable", f"contradictory preferences: {', '.join(witness.inequalities())}",
                           witness)
    report = analyze(ds)
    if report.laminar and report.uniqueness:
        pairs = _strong_edge_ids(dedupe_nested(ds))
        assert zero_sum[4] == priced(n, naive_topological_levels(n, pairs, ()), ())
    if report.uniqueness:
        pairs, split = crossing_split_pairs(ds)
        acyclic, cycle = naive_is_acyclic(n, pairs, split)
        if acyclic:
            assert bounded[2] == report.crossing_span
            assert bounded[4] == priced(n, naive_topological_levels(n, pairs, split), split)
        else:
            vertices = [naive_vertices(n, split)[vid] for vid in cycle]
            tags = [tag for _, _, tag in vertices]
            player = "column" if tags.count("C") > tags.count("R") else "row"
            assert bounded == ("NotRationalizable", f"split revealed-preference graph has cycle {cycle_text(n, cycle)}",
                               CycleWitness(player, tuple(P(row, col) for row, col, _ in vertices)))


class TestRoutesOnIds:
    def test_routes_match_the_dense_references(self):
        outcomes = Counter()
        for ds in reference_corpus():
            results = _route_results(ds)
            _check_against_dense_references(ds, results)
            for outcome in results[2:]:
                outcomes[outcome[0] == "NotRationalizable"] += 1
        # Positive and negative outcomes both took the route path.
        assert outcomes[True] > 100 and outcomes[False] > 1000


class TestSharedRows:
    """_payoffs builds each distinct row of payoffs once and shares it, and
    the game document parser shares repeated rows; nothing else a caller
    can see tells a shared row from rows that are objects of their own."""

    def test_one_row_object_per_distinct_row(self):
        games = 0
        for ds in reference_corpus():
            for route in (rationalize_zero_sum, rationalize_bounded_rank, rationalize_general):
                try:
                    game = route(ds).game
                except RanklensError:
                    continue
                rows = game.a + game.b
                assert len(set(map(id, rows))) == len(set(rows))
                games += 1
        assert games > 1000

    def test_shared_rows_read_like_separate_rows(self):
        games = 0
        for ds in reference_corpus():
            try:
                cert = rationalize_auto(ds)
            except RanklensError:
                continue
            text = game_to_text(cert.game)
            for game in (cert.game, game_from_text(text)):
                fresh = BimatrixGame(game.n, *(
                    [[Fraction(x.numerator, x.denominator) for x in row] for row in matrix]
                    for matrix in (game.a, game.b)
                ))
                for other in (game, pickle.loads(pickle.dumps(game))):
                    assert other == fresh and hash(other) == hash(fresh)
                    assert game_to_text(other) == text
                    assert game_rank(other) == game_rank(fresh) == cert.rank
            games += 1
        assert games > 700
