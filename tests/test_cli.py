import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ranklens import game_to_text, oracle
from ranklens.cli import main

DIAG = '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]},{"choice":[2,2],"cols":[1,2],"rows":[1,2]}]}\n'
CONTRADICTORY = '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]},{"choice":[2,1],"cols":[1],"rows":[1,2]}]}\n'
STRIPS = '{"n":2,"observations":[{"choice":[2,2],"cols":[2],"rows":[1,2]},{"choice":[2,2],"cols":[1,2],"rows":[2]}]}\n'
NESTED = '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]},{"choice":[2,2],"cols":[2],"rows":[2]}]}\n'
# Uniqueness data whose crossing-split graph has a cycle of C copies.
SPLIT_CYCLE = (
    '{"n":3,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,3]},{"choice":[1,2],"cols":[2,3],"rows":[1]},'
    '{"choice":[1,2],"cols":[2],"rows":[1,2]},{"choice":[1,3],"cols":[1,3],"rows":[1]},'
    '{"choice":[1,3],"cols":[3],"rows":[1,2]},{"choice":[2,1],"cols":[1,2,3],"rows":[1,2,3]},'
    '{"choice":[3,1],"cols":[1,3],"rows":[3]}]}\n'
)
# Uniqueness fails on two nested pairs: the full grid's choice lies in both
# inner grids, and neither inner observation picked it.
NESTED_VIOLATION = (
    '{"n":3,"observations":[{"choice":[3,3],"cols":[1,3],"rows":[1,3]},{"choice":[2,2],"cols":[1,2],"rows":[1,2]},'
    '{"choice":[1,1],"cols":[1,2,3],"rows":[1,2,3]}]}\n'
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestValidate:
    def test_canonicalizes(self, write, capsys):
        path = write("ds.json", '{\n "observations": [ {"rows":[2,1],"cols":[1,2],"choice":[1,1]} ],\n "n": 2 }')
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert out == '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]}]}\n'

    def test_malformed_json(self, write, capsys):
        path = write("ds.json", "{nope")
        assert main(["validate", path]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DocumentError"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_observation_after_a_good_one(self, write, capsys):
        path = write("ds.json", '{"n":2,"observations":[{"choice":[1,1],"cols":[1],"rows":[1]},{"choice":[1],"cols":[1],"rows":[1]}]}')
        assert main(["validate", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error": "DocumentError", "message": "observation 1 field \'choice\' must have exactly two entries"}\n'
        )

    def test_semantic_error(self, write, capsys):
        path = write("ds.json", '{"n":1,"observations":[{"choice":[1,2],"rows":[1],"cols":[1]}]}')
        assert main(["validate", path]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ChoiceOutsideSubgame"


def _over_digit_limit(document: str) -> str:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    return document.replace("HUGE", "7" * (limit + 1))


class TestParseErrors:
    """Input json.loads rejects with ValueError or RecursionError, not
    JSONDecodeError, still exits 3 with one JSON line and no traceback."""

    DATASET = '{"n":HUGE,"observations":[]}'
    GAME = '{"A":[[HUGE]],"B":[[0]],"n":1}'
    DEEP = "[" * 100_000

    def _assert_malformed(self, capsys, argv):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DocumentError"
        assert record["message"].startswith("invalid JSON: ")

    def test_dataset_integer_over_digit_limit(self, write, capsys):
        self._assert_malformed(capsys, ["validate", write("ds.json", _over_digit_limit(self.DATASET))])

    def test_dataset_nested_too_deep(self, write, capsys):
        self._assert_malformed(capsys, ["analyze", write("ds.json", self.DEEP)])

    def test_game_integer_over_digit_limit(self, write, capsys):
        game = write("game.json", _over_digit_limit(self.GAME))
        self._assert_malformed(capsys, ["verify", game, write("ds.json", DIAG)])

    def test_game_nested_too_deep(self, write, capsys):
        game = write("game.json", self.DEEP)
        self._assert_malformed(capsys, ["verify", game, write("ds.json", DIAG)])


class TestEncodingErrors:
    """A byte that is not UTF-8 is a malformed document: exit 3, one JSON line."""

    def _assert_not_utf8(self, capsys, argv, path):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DocumentError"
        assert record["message"].startswith(f"{path} is not UTF-8 text: ")

    def test_dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        path.write_bytes(DIAG.encode() + b"\xff")
        self._assert_not_utf8(capsys, ["validate", str(path)], path)

    def test_game(self, tmp_path, write, capsys, known_rank_one_game):
        path = tmp_path / "game.json"
        path.write_bytes(b"\xfe" + game_to_text(known_rank_one_game).encode())
        self._assert_not_utf8(capsys, ["verify", str(path), write("ds.json", DIAG)], path)


class TestAnalyze:
    def test_crossing_strips(self, write, capsys):
        path = write("ds.json", STRIPS)
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            '{"col_span":1,"crossing_choices":[[2,2]],"crossing_span":1,'
            '"crossing_subgames":[{"cols":[2],"rows":[1,2]},{"cols":[1,2],"rows":[2]}],'
            '"laminar":false,"rationalizable":true,"row_span":1,"uniqueness":true}\n'
        )

    def test_diag(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["laminar"] is True
        assert report["uniqueness"] is False
        assert report["crossing_span"] == 0
        assert report["rationalizable"] is True


class TestRationalize:
    def test_auto_on_diag(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["rationalize", path]) == 0
        assert capsys.readouterr().out == (
            '{"A":[["2","7"],["1","8"]],"B":[["2","1"],["7","8"]],'
            '"method":"rank_one","n":2,"rank":1,"rank_bound":1,"uniqueness_guarantee":true}\n'
        )

    def test_not_rationalizable(self, write, capsys):
        path = write("ds.json", CONTRADICTORY)
        assert main(["rationalize", path, "--method", "general"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["rationalizable"] is False
        assert document["witness"]["player"] == "row"
        assert document["witness"]["cycle"] == [[1, 1], [2, 1]]
        assert set(document["witness"]["inequalities"]) == {
            "A[1,1] > A[2,1]",
            "A[2,1] > A[1,1]",
        }

    def test_method_precondition(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["rationalize", path, "--method", "zerosum"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UniquenessViolated"

    def test_uniqueness_violation_names_the_least_pair(self, write, capsys):
        # Two nested pairs violate; the observation-order least one is named.
        path = write("ds.json", NESTED_VIOLATION)
        assert main(["rationalize", path, "--method", "bounded"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error": "UniquenessViolated", "message": "uniqueness fails for pair '
            "(Observation(choice=StrategyProfile(row=1, col=1), subgame=Subgame(rows=(1, 2, 3), cols=(1, 2, 3))), "
            'Observation(choice=StrategyProfile(row=2, col=2), subgame=Subgame(rows=(1, 2), cols=(1, 2))))"}\n'
        )

    def test_bounded_on_strips(self, write, capsys):
        path = write("ds.json", STRIPS)
        assert main(["rationalize", path, "--method", "bounded"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["method"] == "bounded_rank"
        assert document["rank"] == 1
        assert document["rank_bound"] == 1
        assert document["uniqueness_guarantee"] is False

    def test_bounded_refusal_names_the_split_cycle(self, write, capsys):
        path = write("ds.json", SPLIT_CYCLE)
        assert main(["rationalize", path, "--method", "bounded"]) == 1
        out, err = capsys.readouterr()
        assert out == (
            '{"message":"split revealed-preference graph has cycle (SplitVertex(row=1, col=1, tag=\'C\'), '
            "SplitVertex(row=1, col=3, tag='C'), SplitVertex(row=1, col=2, tag='C'))\","
            '"rationalizable":false,"witness":{"cycle":[[1,1],[1,3],[1,2]],'
            '"inequalities":["B[1,3] > B[1,1]","B[1,2] > B[1,3]","B[1,1] > B[1,2]"],"player":"column"}}\n'
        )
        assert err == ""

    @pytest.mark.parametrize(
        "method, dataset", [("rank1", DIAG), ("zerosum", NESTED), ("bounded", STRIPS), ("general", DIAG)],
    )
    def test_output_file_holds_the_printed_bytes(self, write, tmp_path, capsys, method, dataset):
        path = write("ds.json", dataset)
        assert main(["rationalize", path, "--method", method]) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "game.json"
        assert main(["rationalize", path, "--method", method, "--output", str(target)]) == 0
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == printed.encode()

    def test_unknown_method_is_usage_error(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["rationalize", path, "--method", "magic"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "PreconditionError"

    def test_order_over_twice_the_size_cap(self, write, capsys, monkeypatch):
        huge = write("huge.json", '{"n":1000000000000000000000000000000,"observations":[]}')
        for method in ("auto", "rank1", "zerosum", "bounded", "general"):
            assert main(["rationalize", huge, "--method", method]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err) == {
                "error": "SizeLimitExceeded",
                "message": "order n=1000000000000000000000000000000 exceeds twice the size cap 128",
            }
        monkeypatch.setenv("RANKLENS_SIZE_CAP", "2")
        assert main(["rationalize", write("ds.json", '{"n":5,"observations":[]}')]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SizeLimitExceeded"
        assert main(["rationalize", write("ds.json", '{"n":4,"observations":[]}')]) == 0


class TestVerify:
    def test_game_row_of_the_wrong_length(self, write, capsys):
        game = write("game.json", '{"A":[[1,2],[3]],"B":[[0,0],[0,0]],"n":2}')
        assert main(["verify", game, write("ds.json", DIAG)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error": "DocumentError", "message": "field \'A\' row 1 must be a list of 2 entries"}\n'

    def test_accepts(self, write, capsys, known_rank_one_game):
        game = write("game.json", game_to_text(known_rank_one_game))
        data = write("ds.json", DIAG)
        assert main(["verify", game, data]) == 0
        assert capsys.readouterr().out == '{"failures":[],"rank":1,"rationalizes":true}\n'

    def test_rejects_with_failure_detail(self, write, capsys, known_rank_one_game):
        game = write("game.json", game_to_text(known_rank_one_game))
        extended = json.loads(DIAG)
        extended["observations"].append({"choice": [1, 2], "cols": [1, 2], "rows": [1, 2]})
        extended = json.dumps(extended)
        data = write("ds.json", extended)
        assert main(["verify", game, data]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["rationalizes"] is False
        assert document["failures"] == [
            {
                "choice": [1, 2],
                "cols": [1, 2],
                "rows": [1, 2],
                "inequality": "A[1,2]=7 <= A[2,2]=8",
            }
        ]

    def test_entry_outside_the_grammar(self, write, capsys):
        game = write("game.json", '{"A":[["1.5","0"],["0","1"]],"B":[["1","0"],["0","1"]],"n":2}')
        assert main(["verify", game, write("ds.json", DIAG)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "DocumentError",
            "message": "A[1,1] is not a valid rational: Invalid literal for Fraction: '1.5'",
        }

    def test_integer_string_over_the_digit_limit(self, write, capsys):
        # The bare JSON literal fails in json.loads (TestParseErrors); the
        # same digits as a string, in a row of integer strings, fail at
        # their cell.
        game = write("game.json", _over_digit_limit('{"A":[["HUGE","1"],["2","3"]],"B":[["1","0"],["0","1"]],"n":2}'))
        assert main(["verify", game, write("ds.json", DIAG)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DocumentError"
        assert record["message"].startswith("A[1,1] is not a valid rational: Exceeds the limit ")

    def test_size_mismatch(self, write, capsys, known_rank_one_game):
        game = write("game.json", game_to_text(known_rank_one_game))
        data = write("ds.json", '{"n":3,"observations":[]}')
        assert main(["verify", game, data]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "SizeMismatch"


# sha256 prefixes of `generate hadamard --k K --variant V` stdout for K = 0..6.
GENERATE_DIGESTS = {
    "laminar": ("2d28092c1787210b", "f8c83a2c0bb0f8c7", "4f5fafc88cc1f7a7", "e832e7dd2498549e",
                "942a33280e19499d", "6ad12227c1429204", "06d3f619091277cc"),
    "unique": ("df06f83463dcb356", "99204ba7593dc552", "d973313128dff377", "397f0cc58bff5d5d",
               "d28ac80ea0955d2e", "249224ef6de0bfcd", "c127fe00b9cde2ef"),
}


def _generate_digest(capsys, k: int, variant: str) -> str:
    assert main(["generate", "hadamard", "--k", str(k), "--variant", variant]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest()[:16]


class TestGenerate:
    def test_order_two(self, write, capsys):
        assert main(["generate", "hadamard", "--k", "0"]) == 0
        assert capsys.readouterr().out == DIAG

    def test_order_four_laminar(self, capsys):
        assert main(["generate", "hadamard", "--k", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n"] == 4
        assert len(document["observations"]) == 8

    def test_order_four_unique(self, capsys):
        assert main(["generate", "hadamard", "--k", "1", "--variant", "unique"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n"] == 4
        assert len(document["observations"]) == 12

    @pytest.mark.parametrize("variant", sorted(GENERATE_DIGESTS))
    def test_pinned_bytes(self, capsys, variant):
        digests = tuple(_generate_digest(capsys, k, variant) for k in range(7))
        assert digests == GENERATE_DIGESTS[variant]

    def test_unique_variant_comes_straight_from_the_sign_matrix(self, capsys, monkeypatch):
        def no_round_trip(dataset):
            raise AssertionError("generate recovered the sign matrix from a dataset")

        monkeypatch.setattr("ranklens.hadamard.two_regular_sign_pattern", no_round_trip)
        assert _generate_digest(capsys, 3, "unique") == GENERATE_DIGESTS["unique"][3]

    def test_size_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RANKLENS_SIZE_CAP", "4")
        assert main(["generate", "hadamard", "--k", "3"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SizeLimitExceeded"

    def test_size_cap_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("RANKLENS_SIZE_CAP", "plenty")
        assert main(["generate", "hadamard", "--k", "0"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "RANKLENS_SIZE_CAP" in record["message"]

    def test_default_cap(self, capsys):
        # The default cap is order 2^7; one doubling past it is refused.
        for k in ("8", "11"):
            assert main(["generate", "hadamard", "--k", k]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "SizeLimitExceeded"

    def test_exponent_beyond_order_digits(self, capsys):
        # 2^20000 has 6,021 digits, more than str() prints by default.
        assert main(["generate", "hadamard", "--k", "20000"]) == 2
        assert capsys.readouterr().err == (
            '{"error": "SizeLimitExceeded", "message": "order 2^20000 exceeds the size cap 128"}\n'
        )

    def test_negative_exponent(self, capsys):
        assert main(["generate", "hadamard", "--k", "-1"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidSize"


class TestMinrank:
    def test_diag(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["minrank", path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_infeasible(self, write, capsys):
        path = write("ds.json", CONTRADICTORY)
        assert main(["minrank", path]) == 1
        assert capsys.readouterr().out == "none\n"

    def test_small_radius(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["minrank", path, "--max-abs", "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_zero_sum_answer_fits_the_box(self, write, capsys):
        # A zero-sum game needs three distinct payoffs here, which radius 0 lacks.
        path = write("ds.json", '{"n":2,"observations":[{"choice":[1,1],"cols":[1,2],"rows":[1,2]}]}')
        assert main(["minrank", path, "--max-abs", "0"]) == 1
        assert capsys.readouterr().out == "none\n"
        for radius in ("1", "2"):
            assert main(["minrank", path, "--max-abs", radius]) == 0
            assert capsys.readouterr().out == "0\n"

    def test_negative_radius(self, write, capsys):
        path = write("ds.json", DIAG)
        assert main(["minrank", path, "--max-abs", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "BudgetExceeded"

    def test_radius_over_box_budget(self, write, capsys, monkeypatch):
        def enumerate_lines(n, max_abs, orders):
            raise AssertionError(f"the radius-{max_abs} lines were enumerated")

        monkeypatch.setattr(oracle, "_feasible_lines", enumerate_lines)
        path = write("ds.json", DIAG)
        # The last radius prints, but its box of (2M+1)^4 matrices has too many digits to.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        for radius in ("7", "20", str(10 ** (limit // 4 + 1))):
            assert main(["minrank", path, "--max-abs", radius]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.count("\n") == 1
            assert json.loads(err)["error"] == "BudgetExceeded"

    def test_order_beyond_search_space_digits(self, write, capsys):
        path = write("ds.json", '{"n":64,"observations":[]}')
        assert main(["minrank", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == '{"error": "BudgetExceeded", "message": "n=64 exceeds max_n=2 (search space 7^8192)"}\n'

    def test_budget(self, write, capsys):
        path = write("ds.json", '{"n":3,"observations":[{"choice":[1,1],"cols":[1,2,3],"rows":[1,2,3]}]}')
        assert main(["minrank", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"


def _usage_record(capsys, prefix):
    """A usage error leaves one JSON line on stderr and nothing on stdout."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "PreconditionError"
    assert record["message"].startswith(prefix), record


class TestHarness:
    def test_output_file(self, write, tmp_path, capsys):
        path = write("ds.json", DIAG)
        target = tmp_path / "result.json"
        assert main(["validate", path, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == DIAG

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        _usage_record(capsys, "ranklens: argument command: invalid choice: ")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        _usage_record(capsys, "ranklens: the following arguments are required: command")

    def test_non_integer_option(self, write, capsys):
        assert main(["minrank", write("ds.json", DIAG), "--max-abs", "abc"]) == 2
        _usage_record(capsys, "ranklens minrank: argument --max-abs: invalid int value: 'abc'")

    def test_unknown_flag(self, write, capsys):
        assert main(["analyze", write("ds.json", DIAG), "--frobnicate"]) == 2
        _usage_record(capsys, "ranklens: unrecognized arguments: --frobnicate")

    def test_help_exits_zero(self, capsys):
        assert main(["minrank", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: ranklens minrank")
        assert err == ""

    def test_round_trip_through_files(self, write, tmp_path, capsys):
        data = write("ds.json", STRIPS)
        game_path = str(tmp_path / "game.json")
        assert main(["rationalize", data, "--output", game_path]) == 0
        assert main(["verify", game_path, data]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["rationalizes"] is True


STARTUP_PROBE = """
import sys
from ranklens.cli import main

dataset, game, diag = sys.argv[1], sys.argv[2], sys.argv[3]
codes = [
    main(["generate", "hadamard", "--k", "1", "--variant", "unique", "--output", dataset]),
    main(["validate", dataset, "--output", dataset]),
    main(["analyze", dataset]),
    main(["rationalize", dataset, "--output", game]),
    main(["verify", game, dataset]),
    main(["minrank", diag]),
]
assert codes == [0, 0, 0, 0, 0, 0], codes
assert "numpy" not in sys.modules, "numpy was loaded"
"""

# One command in a fresh process: its exit code, then the package modules
# and the slow-to-import standard modules that the process holds.
LOADED_PROBE = """
import json, sys
from ranklens.cli import main

code = main(sys.argv[1:])
heavy = ("dataclasses", "inspect", "fractions")
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("ranklens.")),
                  sorted(name for name in heavy if name in sys.modules)]))
"""
# What an interpreter holds of those standard modules before the package
# runs: Python versions differ in what argparse, json, re and typing load.
BASELINE_PROBE = """
import argparse, json, re, sys, typing

print(json.dumps(sorted(name for name in ("dataclasses", "inspect", "fractions") if name in sys.modules)))
"""
RATIONAL_GAME = '{"n":2,"A":[["1/2","4/2"],["-0",1]],"B":[["-1","+3/6"],[2,"-1"]]}\n'


class TestStartup:
    def test_no_command_loads_numpy(self, write, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [str(tmp_path / "variant.json"), str(tmp_path / "game.json"), write("diag.json", DIAG)]
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.endswith('{"failures":[],"rank":2,"rationalizes":true}\n1\n')

    @staticmethod
    def _run(code: str, *argv: str):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.stderr == ""
        return json.loads(proc.stdout)

    def test_each_command_loads_only_its_layers(self, write, tmp_path):
        diag, out = write("diag.json", DIAG), str(tmp_path / "out.json")
        game = str(tmp_path / "game.json")
        assert main(["rationalize", diag, "--output", game]) == 0
        baseline = set(self._run(BASELINE_PROBE))
        lean = {"ranklens.cli", "ranklens.documents", "ranklens.model", "ranklens.errors"}
        runs = {
            "validate": ["validate", diag],
            "verify": ["verify", game, diag],
            "generate": ["generate", "hadamard", "--k", "2", "--variant", "unique"],
            "analyze": ["analyze", diag],
            "rationalize": ["rationalize", diag],
            "minrank": ["minrank", diag],
        }
        for command, argv in runs.items():
            code, layers, heavy = self._run(LOADED_PROBE, *argv, "--output", out)
            assert code == 0, command
            assert set(heavy) <= baseline, (command, heavy)
            layers = set(layers)
            if command in ("validate", "verify"):
                assert layers == lean, command
            elif command == "generate":
                assert layers == lean | {"ranklens.hadamard"}
            elif command == "minrank":
                assert layers == lean | {"ranklens.graphs", "ranklens.oracle"}, layers
            else:
                assert not layers & {"ranklens.hadamard", "ranklens.oracle"}, (command, layers)

    def test_a_rational_game_loads_fractions_and_keeps_its_bytes(self, write, tmp_path):
        out = tmp_path / "out.json"
        argv = ["verify", write("rational.json", RATIONAL_GAME), write("nested.json", NESTED), "--output", str(out)]
        code, _, heavy = self._run(LOADED_PROBE, *argv)
        assert code == 1 and "fractions" in heavy
        assert out.read_text() == (
            '{"failures":[{"choice":[1,1],"cols":[1,2],"inequality":"B[1,1]=-1 <= B[1,2]=1/2","rows":[1,2]}],'
            '"rank":2,"rationalizes":false}\n'
        )


class TestHugeIndices:
    def test_a_huge_index_is_classified_in_little_memory(self, write):
        # Classification memory follows the indices used, not the largest
        # index: under a 1 GB address-space cap, a grid at row 10^12
        # analyzes as laminar, unique and rationalizable.
        resource = pytest.importorskip("resource")
        data = write("huge.json", '{"n":1000000000000,"observations":[{"choice":[1000000000000,1],'
                                  '"rows":[1000000000000],"cols":[1]}]}')
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-c", "from ranklens.cli import run; run()", "analyze", data],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (
            '{"col_span":0,"crossing_choices":[],"crossing_span":0,"crossing_subgames":[],'
            '"laminar":true,"rationalizable":true,"row_span":0,"uniqueness":true}\n'
        )
