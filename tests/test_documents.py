import json
import pickle
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklens import (
    BimatrixGame,
    ChoiceOutsideSubgame,
    DocumentError,
    canonical_json,
    dataset_from_text,
    dataset_to_text,
    game_from_document,
    game_from_text,
    game_rank,
    game_to_text,
    parse_json,
    validate_dataset,
)
from .generators import random_fraction_matrix, random_uniqueness_dataset


class TestCanonicalJson:
    def test_layout(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    def test_idempotent(self):
        text = dataset_to_text(validate_dataset([((1, 1), (1, 2), (1, 2))], 2))
        assert canonical_json(parse_json(text)) == text

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_arbitrary_objects(self, doc):
        once = canonical_json(doc)
        assert canonical_json(parse_json(once)) == once

    def test_single_line(self):
        text = game_to_text(BimatrixGame.from_rows([[1, 2], [3, 4]], [[0, 0], [0, 0]]))
        assert text.endswith("\n")
        assert "\n" not in text[:-1]
        assert " " not in text


class TestDatasetDocuments:
    def test_known_layout(self, nested_dataset):
        assert dataset_to_text(nested_dataset) == (
            '{"n":2,"observations":['
            '{"choice":[1,1],"cols":[1,2],"rows":[1,2]},'
            '{"choice":[2,2],"cols":[2],"rows":[2]}'
            "]}\n"
        )

    def test_round_trip(self):
        rng = Random(79)
        for _ in range(25):
            ds = random_uniqueness_dataset(rng, rng.randint(1, 7))
            assert dataset_from_text(dataset_to_text(ds)) == ds

    def test_parse_is_layout_insensitive(self):
        text = """
        {
          "observations": [
            {"rows": [2, 1], "cols": [1, 2], "choice": [1, 1]}
          ],
          "n": 2
        }
        """
        ds = dataset_from_text(text)
        assert ds == validate_dataset([((1, 1), (1, 2), (1, 2))], 2)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"observations":[]}',
            '{"n":true,"observations":[]}',
            '{"n":2,"observations":{}}',
            '{"n":2,"observations":[[1,1]]}',
            '{"n":2,"observations":[{"choice":[1],"rows":[1],"cols":[1]}]}',
            '{"n":2,"observations":[{"choice":[1,"1"],"rows":[1],"cols":[1]}]}',
            '{"n":2,"observations":[{"choice":[1,1],"rows":[1]}]}',
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(DocumentError):
            dataset_from_text(text)

    def test_semantic_errors_pass_through(self):
        with pytest.raises(ChoiceOutsideSubgame):
            dataset_from_text('{"n":2,"observations":[{"choice":[1,2],"rows":[1],"cols":[1]}]}')


class TestGameDocuments:
    def test_known_layout(self, known_rank_one_game):
        assert game_to_text(known_rank_one_game) == (
            '{"A":[["2","7"],["1","8"]],"B":[["2","1"],["7","8"]],"n":2}\n'
        )

    def test_fraction_entries(self):
        game = BimatrixGame.from_rows(
            [[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(5, 2)]],
            [[Fraction(0)] * 2] * 2,
        )
        text = game_to_text(game)
        assert '"1/3"' in text and '"-2"' in text and '"5/2"' in text
        assert game_from_text(text) == game

    def test_accepts_bare_integers(self):
        game = game_from_text('{"A":[[1,2],[3,4]],"B":[[0,0],[0,0]],"n":2}')
        assert game.a == ((1, 2), (3, 4))
        assert {type(x) for m in (game.a, game.b) for row in m for x in row} == {int}

    def test_round_trip(self):
        rng = Random(83)
        for _ in range(25):
            n = rng.randint(1, 5)
            game = BimatrixGame.from_rows(
                random_fraction_matrix(rng, n), random_fraction_matrix(rng, n)
            )
            assert game_from_text(game_to_text(game)) == game

    @pytest.mark.parametrize(
        "text",
        [
            '{"A":[[1]],"B":[[1]]}',
            '{"A":[[1]],"B":[[1]],"n":2}',
            '{"A":[[1,2]],"B":[[1],[2]],"n":2}',
            '{"A":[["1/0"]],"B":[["0"]],"n":1}',
            '{"A":[["x"]],"B":[["0"]],"n":1}',
            '{"A":[[1.5]],"B":[[0]],"n":1}',
            '{"A":[[true]],"B":[[0]],"n":1}',
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(DocumentError):
            game_from_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"A":[[1,"1"],[true,1]],"B":[[0,0],[0,0]],"n":2}',
             "A[2,1] must be an integer or a 'p/q' string"),
            ('{"A":[[1,"1"],["1",1]],"B":[["1",1],[0,true]],"n":2}',
             "B[2,2] must be an integer or a 'p/q' string"),
            ('{"A":[["2","1/0"],["1/0","x"]],"B":[[0,0],[0,0]],"n":2}',
             "A[1,2] is not a valid rational: Fraction(1, 0)"),
            ('{"A":[["2","x"],["1/0","x"]],"B":[[0,0],[0,0]],"n":2}',
             "A[1,2] is not a valid rational: Invalid literal for Fraction: 'x'"),
            # Repeated rows: a bad row fails at its first occurrence, and rows
            # equal in Python but not in type are not served from the row memo.
            ('{"A":[["1","x"],["1","x"]],"B":[[0,0],[0,0]],"n":2}',
             "A[1,2] is not a valid rational: Invalid literal for Fraction: 'x'"),
            ('{"A":[["1","2","3"],["1","2","3"],["1","2","3"]],"B":[[0,0,0],["5","x","5"],["5","x","5"]],"n":3}',
             "B[2,2] is not a valid rational: Invalid literal for Fraction: 'x'"),
            ('{"A":[[2,"1/0"],[0,0]],"B":[[2,"1/0"],[0,0]],"n":2}',
             "A[1,2] is not a valid rational: Fraction(1, 0)"),
            ('{"A":[[1,1],["1",1]],"B":[[1,1],[true,1]],"n":2}',
             "B[2,1] must be an integer or a 'p/q' string"),
        ],
    )
    def test_first_bad_cell_is_reported(self, text, message):
        # Entries are parsed once per distinct (type, value) and rows once
        # per distinct row of plain integers and strings: true, 1 and "1"
        # stay apart, and a repeated bad entry fails at its first cell.
        with pytest.raises(DocumentError) as raised:
            game_from_text(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "row, message",
        [
            # Two different bad entries in one row: the first in row order.
            (["1", "1/0", "x"], "A[1,2] is not a valid rational: Fraction(1, 0)"),
            (["1", "x", "1/0"], "A[1,2] is not a valid rational: Invalid literal for Fraction: 'x'"),
            ([1, "x", True], "A[1,2] is not a valid rational: Invalid literal for Fraction: 'x'"),
            ([1, True, "x"], "A[1,2] must be an integer or a 'p/q' string"),
            (["x", None, "x"], "A[1,1] is not a valid rational: Invalid literal for Fraction: 'x'"),
            # A bad entry after good duplicates, of the same or another type.
            (["2", "2", "x"], "A[1,3] is not a valid rational: Invalid literal for Fraction: 'x'"),
            ([1, "1", 1, "1/0"], "A[1,4] is not a valid rational: Fraction(1, 0)"),
            ([1, 1, 1.5], "A[1,3] must be an integer or a 'p/q' string"),
        ],
    )
    def test_first_bad_entry_of_a_row(self, row, message):
        n = len(row)
        good = [[0] * n for _ in range(n)]
        with pytest.raises(DocumentError) as raised:
            game_from_text(json.dumps({"A": [row] + good[1:], "B": good, "n": n}))
        assert str(raised.value) == message
        # The same row after a row that holds its good entries: the memo of
        # the earlier row does not hide the bad entry.
        earlier = [x for x in row if type(x) in (int, str) and x in ("1", "2", 1)] or [0]
        earlier = (earlier * n)[:n]
        with pytest.raises(DocumentError) as raised:
            game_from_text(json.dumps({"A": [earlier, row] + good[2:], "B": good, "n": n}))
        assert str(raised.value) == message.replace("A[1,", "A[2,")

    @pytest.mark.parametrize(
        "entry", ["1.5", " 2 ", "2 ", "1e3", "1e10000000", "1_000", "1/2.5", "1/-2", "- 1", "0x10", "inf", "nan",
                  "\u0668", "1/\u0662", "", "/2", "1/", "1,2"],
    )
    def test_entries_outside_the_grammar(self, entry):
        # Fraction itself accepts several of these (decimals, exponents,
        # spaces, underscores, non-ASCII digits); the documents do not.
        text = json.dumps({"A": [[entry]], "B": [["0"]], "n": 1})
        with pytest.raises(DocumentError) as raised:
            game_from_text(text)
        assert str(raised.value) == f"A[1,1] is not a valid rational: Invalid literal for Fraction: {entry!r}"

    def test_entries_inside_the_grammar(self):
        game = game_from_text('{"A":[["+3","-2/4"],["1","-0"]],"B":[["007","0/5"],[0,0]],"n":2}')
        assert game.a == ((Fraction(3), Fraction(-1, 2)), (Fraction(1), Fraction(0)))
        assert game.b[0] == (Fraction(7), Fraction(0))

    def test_equal_entries_of_different_types(self):
        game = game_from_text('{"A":[[1,"1"],["1/1",1]],"B":[["-1",-1],[-1,"-2/2"]],"n":2}')
        assert game.a == ((Fraction(1),) * 2,) * 2
        assert game.b == ((Fraction(-1),) * 2,) * 2

    def test_int_subclass_entries_read_as_integers(self):
        # A document built in Python may hold int subclasses; any but bool
        # reads as its integer value, beside plain ints and strings.
        class Payoff(int):
            pass

        game = game_from_document({"A": [[Payoff(2), "1"], [1, Payoff(1)]], "B": [[0, 0], [0, 0]], "n": 2})
        assert game.a == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        with pytest.raises(DocumentError) as raised:
            game_from_document({"A": [[Payoff(2), True], [0, 0]], "B": [[0, 0], [0, 0]], "n": 2})
        assert str(raised.value) == "A[1,2] must be an integer or a 'p/q' string"

    def test_repeated_rows_are_shared_but_read_as_separate_rows(self):
        # A row repeated in a document is parsed once and shared, in A and B
        # alike; the game reads, hashes, prints and pickles like one whose
        # every row and cell is an object of its own.
        rows = [["1", "-2/4", "3", 0], [1, 1, 1, 1], ["1", "-2/4", "3", 0], ["1", 1, 1, 1]]
        text = json.dumps({"A": rows, "B": rows[::-1], "n": 4})
        game = game_from_text(text)
        assert game.a[0] is game.a[2] is game.b[1] is game.b[3] and game.a[1] is game.b[2]
        assert game.a[1] is not game.a[3]  # equal values, but "1" is not 1
        assert [list(map(type, row)) for row in game.a] == [[int, Fraction, int, int], [int] * 4] * 2
        assert game.a[0][0] is game.a[3][0]  # one object per distinct entry
        fresh = BimatrixGame(4, *(
            tuple(tuple(Fraction(x) for x in row) for row in m) for m in (rows, rows[::-1])
        ))
        assert {type(x) for row in fresh.a for x in row} == {int, Fraction}
        for other in (game, pickle.loads(pickle.dumps(game))):
            assert other == fresh and hash(other) == hash(fresh)
            assert game_to_text(other) == game_to_text(fresh)
            assert game_rank(other) == game_rank(fresh)


class TestParseJson:
    def test_integer_over_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no integer digit limit")
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_json("1" * (limit + 1))

    def test_nesting_over_the_recursion_limit(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_json("[" * 100_000)
