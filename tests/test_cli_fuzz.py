"""Fuzzing of main(): whatever the documents, options and size cap, a run
ends with a documented exit code (0-3), and a run that fails with exit 2
or 3 writes exactly one JSON line on stderr, never a traceback.

Option values are mostly integers argparse accepts, so most runs get past
argument parsing; the rest are strings argparse refuses (a usage error,
exit 2), as are unknown methods and flags. Games stay small: dataset
orders are tiny (or 64 and 100 with few observations), and a `generate`
exponent is either at most 4 or refused by every size cap drawn here.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ranklens.cli import SIZE_CAP_ENV, main

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
OVER_LIMIT = "OVER_DIGIT_LIMIT"  # replaced by an integer literal json.loads refuses
# An interpreter without a digit limit would parse that literal as a valid integer.
OVER = st.just(OVER_LIMIT) if getattr(sys, "get_int_max_str_digits", lambda: 0)() else st.nothing()

# Integers that parse but index nothing and build nothing.
HUGE = st.integers(10**30, 10**DIGIT_LIMIT - 1)
SMALL = st.integers(-2, 6)
NOT_AN_INT = st.one_of(
    OVER, st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)
)
SCALAR = st.one_of(SMALL, HUGE, HUGE.map(lambda x: -x), NOT_AN_INT)
INT_LIST = st.one_of(st.lists(SMALL, min_size=1, max_size=3), st.lists(SCALAR, max_size=3), SCALAR)
# A dataset of order n asks for an n x n game, so n stays far below any size cap.
ORDER = st.one_of(st.integers(1, 3), st.sampled_from([0, -1, 64, 100]), NOT_AN_INT)

OBSERVATION = st.one_of(
    st.fixed_dictionaries({"choice": INT_LIST, "rows": INT_LIST, "cols": INT_LIST}),
    st.dictionaries(st.sampled_from(["choice", "rows", "cols", "x"]), SCALAR, max_size=3),
    SCALAR,
)
DATASET = st.one_of(
    st.fixed_dictionaries({"n": ORDER, "observations": st.lists(OBSERVATION, max_size=3)}),
    st.dictionaries(st.sampled_from(["n", "observations", "x"]), st.one_of(ORDER, SCALAR), max_size=2),
)

ENTRY = st.one_of(
    SMALL, HUGE, OVER, st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda p, q: f"{p}/{q}", st.one_of(SMALL, HUGE), st.one_of(SMALL, HUGE)), st.text(max_size=4),
)
MATRIX = st.one_of(st.lists(st.lists(ENTRY, max_size=3), max_size=3), SCALAR)
GAME = st.one_of(
    st.fixed_dictionaries({"n": st.one_of(st.integers(1, 3), SCALAR), "A": MATRIX, "B": MATRIX}),
    st.dictionaries(st.sampled_from(["n", "A", "B"]), SCALAR, max_size=2),
)


def _json_bytes(value) -> bytes:
    return json.dumps(value).replace(f'"{OVER_LIMIT}"', "7" * (DIGIT_LIMIT + 1)).encode()


@st.composite
def _not_utf8(draw, document):
    """A document with a byte that never occurs in UTF-8 text inserted."""
    text = draw(document)
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.sampled_from([b"\xff", b"\xfe", b"\xc0", b"\x80"])) + text[cut:]


def _documents(shape):
    json_text = shape.map(_json_bytes)
    return st.one_of(
        json_text,
        _not_utf8(json_text),
        st.binary(max_size=40),
        st.text(max_size=40).map(str.encode),
        st.sampled_from([100, 100_000]).map(lambda depth: b"[" * depth),
    )


# Option strings int() refuses, some of them flag-like.
NOT_AN_INT_OPTION = st.one_of(
    st.sampled_from(["abc", "1.5", "", "1e3", "0x10", " 8_0", "--k", "-x", "9" * (DIGIT_LIMIT + 1)]),
    st.text(max_size=4).filter(lambda text: not text.strip().lstrip("+-").isdigit()),
)
RADIUS = st.one_of(st.integers(-3, 6), HUGE, HUGE.map(lambda x: -x), NOT_AN_INT_OPTION)
EXPONENT = st.one_of(
    st.integers(-3, 4), st.integers(2**20, 10**DIGIT_LIMIT - 1), HUGE.map(lambda x: -x), NOT_AN_INT_OPTION
)
METHOD = st.one_of(st.sampled_from(["auto", "rank1", "zerosum", "bounded", "general"]), st.just("magic"))
CAP_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4)
SIZE_CAP = st.one_of(
    st.none(), st.integers(-3, 16).map(str), CAP_TEXT,
    st.sampled_from(["", "plenty", "1e3", "0x10", " 8 ", "٨", "9" * (DIGIT_LIMIT + 1)]),
)


@st.composite
def runs(draw):
    """(argv with {dataset} and {game} placeholders, file contents, size cap)."""
    command = draw(st.sampled_from(["validate", "analyze", "rationalize", "verify", "minrank", "generate"]))
    files = {}
    if command == "generate":
        variant = draw(st.sampled_from(["laminar", "unique"]))
        argv = ["generate", "hadamard", "--k", str(draw(EXPONENT)), "--variant", variant]
    else:
        files["dataset"] = draw(_documents(DATASET))
        argv = [command, "{dataset}"]
        if command == "verify":
            files["game"] = draw(_documents(GAME))
            argv = [command, "{game}", "{dataset}"]
        elif command == "rationalize":
            argv += ["--method", draw(METHOD)]
        elif command == "minrank":
            argv += ["--max-abs", str(draw(RADIUS))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--frobnicate", "-q", "extra"])))
    return argv, files, draw(SIZE_CAP)


@settings(max_examples=250, deadline=None)
@given(runs())
def test_every_run_ends_with_a_documented_exit(run):
    argv, files, size_cap = run
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for name, content in files.items():
            paths[name] = Path(scratch) / f"{name}.json"
            paths[name].write_bytes(content)
        # Only the exact placeholders are replaced: a drawn option may hold braces.
        argv = [str(paths[arg[1:-1]]) if arg in ("{dataset}", "{game}") else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop(SIZE_CAP_ENV, None)
            if size_cap is not None:
                os.environ[SIZE_CAP_ENV] = size_cap
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err.getvalue() == ""
        return
    lines = err.getvalue().split("\n")
    assert len(lines) == 2 and lines[1] == "", err.getvalue()
    record = json.loads(lines[0])
    assert sorted(record) == ["error", "message"]
    assert out.getvalue() == ""
