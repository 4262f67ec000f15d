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
    game_from_text,
    game_rank,
    game_to_text,
    is_rationalizable,
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
from ranklens.structure import _classes, _nesting
from .generators import (
    _canonical,
    is_zero_sum,
    naive_dedupe_nested,
    naive_is_acyclic,
    naive_topological_levels,
    naive_classes,
    naive_vertices,
    random_laminar_unique_dataset,
    random_uniqueness_dataset,
    reference_corpus,
    vertex_id,
)


def strong_pairs(ds):
    """The strong graph over the identity class maps: the full graph."""
    return _strong_edge_ids(_nesting(ds), range(ds.n), range(ds.n))


def identity_payoffs(n, levels):
    """The game of levels of full vertex ids."""
    return _payoffs(levels, range(n), range(n))


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
        assert set(strong_pairs(ds)) == {
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
        pairs = strong_pairs(nested_dataset)
        assert set(pairs) == {(V2(1, 1), V2(2, 1)), (V2(1, 2), V2(1, 1)), (V2(1, 2), V2(2, 2))}
        game = identity_payoffs(2, _sweep(pairs)[0])
        assert game.a == ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-3)), (Fraction(-1), Fraction(-1)))

    def test_strong_graph_is_acyclic_on_laminar_uniqueness_data(self):
        """What the zero-sum route relies on without checking it at run
        time: on laminar uniqueness data, the grids that the nesting pass
        keeps have pairwise distinct choices, no child grid holds its
        parent's choice, and the strong graph is acyclic."""
        rng = Random(59)
        corpus = [ds for ds in reference_corpus() if analyze(ds).laminar and analyze(ds).uniqueness]
        draws = [random_laminar_unique_dataset(rng, n) for n in range(2, 13) for _ in range(20)]
        for ds in corpus + draws:
            assert analyze(ds).laminar and analyze(ds).uniqueness
            kept = _nesting(ds)
            choices = [obs.choice for obs, _ in kept]
            assert len(set(choices)) == len(choices)
            for obs, children in kept:
                assert not any(child.contains(obs.choice) for child in children)
            assert _sweep(strong_pairs(ds))[1] is None
        assert len(corpus) > 100 and len(draws) >= 200

    def test_strong_graph_of_the_deduplicated_dataset(self):
        """The nesting pass skips what deduplication drops: the strong
        graph has the edges of the deduplicated dataset's graph."""
        rng = Random(61)
        corpus = [ds for ds in reference_corpus() if analyze(ds).laminar and analyze(ds).uniqueness]
        draws = [random_laminar_unique_dataset(rng, n) for n in range(2, 13) for _ in range(20)]
        skipped = 0
        for ds in corpus + draws:
            deduped = naive_dedupe_nested(ds)
            assert set(strong_pairs(ds)) == set(strong_pairs(deduped))
            skipped += deduped != ds
        assert skipped > 50

    def test_strong_implementation(self):
        rng = Random(29)
        for _ in range(30):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 6))
            n, pairs = ds.n, strong_pairs(ds)
            assert _sweep(pairs)[1] is None
            rows, cols = _edge_ids(n, [obs for obs, _ in _nesting(ds)])
            assert rows | cols <= set(pairs)
            game = identity_payoffs(n, _sweep(pairs)[0])
            assert is_zero_sum(game)
            assert rationalizes(game, ds).ok
            for obs in ds.observations:
                assert strict_equilibria(game, obs.subgame) == {obs.choice}


class TestRowAndColumnClasses:
    """The zero-sum route builds and prices its strong graph over row and
    column classes (``structure._classes``). Swapping two rows of one class
    maps every observation to itself, so it maps the graph of each edge
    rule to itself; sink-first levels are longest-path lengths, so they are
    constant on each block (row class x column class), and the graph over
    the classes has the same levels."""

    @staticmethod
    def corpus():
        rng = Random(73)
        laminar = [random_laminar_unique_dataset(rng, rng.randint(2, 24)) for _ in range(150)]
        unique = [random_uniqueness_dataset(rng, rng.randint(2, 10)) for _ in range(150)]
        return [*reference_corpus(), *laminar, *unique]

    def test_classes_follow_the_definition(self):
        for ds in self.corpus():
            assert _classes(ds) == naive_classes(ds), ds

    def test_levels_are_constant_on_row_and_column_classes(self):
        """For the plain, crossing-split and strong laminar edge rules."""
        graphs = repeated = 0
        for ds in self.corpus():
            n, report = ds.n, analyze(ds)
            rows, cols = naive_classes(ds)
            rules = [
                set().union(*_edge_ids(n, ds.observations)),
                set().union(*_edge_ids(n, ds.observations, _cells(n, report.crossing_choices))),
            ]
            if report.laminar and report.uniqueness:
                rules.append(strong_pairs(ds))
            for pairs in rules:
                levels = _sweep(pairs)[0]
                touched = {vid for pair in pairs for vid in pair}
                block_level = {}
                for vid in range(3 * n * n):
                    (row, col), tag = divmod(vid // 3, n), vid % 3
                    level = levels.get(vid, "cycle" if vid in touched else 1)
                    assert block_level.setdefault((rows[row], cols[col], tag), level) == level, ds
                graphs += 1
            repeated += len(set(rows)) < n or len(set(cols)) < n
        assert graphs > 2500 and repeated > 200

    def test_class_route_prices_like_the_full_graph(self):
        """The route's game document is byte-identical to pricing the full
        strong graph, that is, the graph over identity class maps."""
        rng = Random(79)
        corpus = [ds for ds in reference_corpus() if analyze(ds).laminar and analyze(ds).uniqueness]
        draws = [random_laminar_unique_dataset(rng, n) for n in (96, 128, 192) for _ in range(3)]
        shrunk = 0
        for ds in corpus + draws:
            rows, cols = _classes(ds)
            full = identity_payoffs(ds.n, _sweep(strong_pairs(ds))[0])
            quotient = _payoffs(_sweep(_strong_edge_ids(_nesting(ds), rows, cols))[0], rows, cols)
            assert game_to_text(quotient) == game_to_text(full)
            assert game_to_text(rationalize_zero_sum(ds).game) == game_to_text(full)
            shrunk += (max(rows) + 1) * (max(cols) + 1) < ds.n ** 2
        assert all(max(_classes(ds)[0]) + 1 < ds.n for ds in draws)
        assert shrunk > 80

    def test_a_repeated_class_is_one_block(self):
        ds = validate_dataset([((1, 1), (1, 2, 3, 4), (1, 2, 3, 4)), ((2, 2), (2, 3, 4), (2, 3, 4))], 4)
        assert _classes(ds) == ([0, 1, 2, 2], [0, 1, 2, 2])
        game = rationalize_zero_sum(ds).game
        assert [[int(x) for x in row] for row in game.a] == [[2, 3, 4, 4], [1, 2, 3, 3], [1, 1, 1, 1], [1, 1, 1, 1]]
        assert game.b == tuple(tuple(-x for x in row) for row in game.a)
        assert game.a[2] is game.a[3]

    def test_the_graph_grows_with_the_classes_not_the_cells(self):
        n = 500
        ds = validate_dataset([((1, 1), range(1, n + 1), range(1, n + 1)), ((2, 2), range(2, n + 1), (2, n))], n)
        rows, cols = _classes(ds)
        assert (max(rows) + 1, max(cols) + 1) == (3, 4)
        pairs = _strong_edge_ids(_nesting(ds), rows, cols)
        assert {vid for pair in pairs for vid in pair} <= set(range(0, 3 * 3 * 4, 3))
        assert len(pairs) < 2 * 3 * 4
        cert = rationalize_zero_sum(ds)
        assert cert.rank == 0 and len({id(row) for row in cert.game.a}) == 3


class TestLevels:
    def test_single_edge(self):
        ds = validate_dataset([((1, 1), (1, 2), (1,))], 2)
        pairs = strong_pairs(ds)
        levels = _sweep(pairs)[0]
        assert levels == {V2(1, 1): 2, V2(2, 1): 1}
        game = identity_payoffs(2, levels)
        assert game.a == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        assert game.b == ((Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(-1)))

    def test_every_edge_descends(self):
        rng = Random(31)
        for _ in range(20):
            ds = random_laminar_unique_dataset(rng, rng.randint(2, 6))
            pairs = strong_pairs(ds)
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
        game = identity_payoffs(2, {})
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
        game = identity_payoffs(2, _sweep(pairs)[0])
        assert game.a == ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
        assert game.b == ((Fraction(-1), Fraction(-1)), (Fraction(-2), Fraction(-1)))
        assert not is_zero_sum(game)
        assert game_rank(game) == 1
        assert rationalizes(game, crossing_strips_dataset).ok

    def test_laminar_dataset_splits_nothing(self, nested_dataset):
        pairs, split = crossing_split_pairs(nested_dataset)
        assert split == set()
        assert analyze(nested_dataset).crossing_span == 0
        assert is_zero_sum(identity_payoffs(2, _sweep(pairs)[0]))

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
                game = identity_payoffs(ds.n, _sweep(pairs)[0])
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
            strong = strong_pairs(ds)
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
        pairs = strong_pairs(ds)
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
