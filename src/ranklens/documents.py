"""Canonical JSON documents for datasets, games, and reports.

Canonical form is a single line: sorted keys, no insignificant
whitespace, trailing newline. Parsing accepts any JSON layout;
canonicalization is byte-idempotent. Rationals render as decimal integer
strings or 'p/q' strings in lowest terms; a string entry must have the
form [+-]?[0-9]+(/[0-9]+)?, so no decimal point, exponent, space or
underscore reaches Fraction.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from typing import Any

from .errors import DocumentError
from .model import BimatrixGame, DataSet, _map_once, validate_dataset

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def canonical_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(text: str) -> Any:
    """Parse JSON text. Besides syntax errors, an integer literal over the
    interpreter's digit limit (ValueError) and nesting deeper than the
    recursion limit (RecursionError) are malformed documents too."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _int_list(value: Any, context: str) -> list[int]:
    _expect(isinstance(value, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in value),
            f"{context} must be a list of integers")
    return value


def dataset_to_document(dataset: DataSet) -> dict:
    return {
        "n": dataset.n,
        "observations": [
            {
                "choice": [obs.choice.row, obs.choice.col],
                "rows": list(obs.subgame.rows),
                "cols": list(obs.subgame.cols),
            }
            for obs in dataset.observations
        ],
    }


def dataset_from_document(document: Any) -> DataSet:
    _expect(isinstance(document, dict), "dataset document must be a JSON object")
    _expect(isinstance(document.get("n"), int) and not isinstance(document.get("n"), bool),
            "field 'n' must be an integer")
    observations = document.get("observations")
    _expect(isinstance(observations, list), "field 'observations' must be a list")
    return validate_dataset(_observation_fields(observations), document["n"])


def _observation_fields(observations: list) -> list[tuple]:
    """(choice, rows, cols) of every observation object. When every
    observation is a dict whose fields are lists of ints, a few passes at C
    speed show it; otherwise the entries are read one by one, which reports
    the first malformed one."""
    if {dict}.issuperset(map(type, observations)):
        fields = [list(map(dict.get, observations, repeat(key))) for key in ("choice", "rows", "cols")]
        if (
            {list}.issuperset(map(type, chain.from_iterable(fields)))
            and {2}.issuperset(map(len, fields[0]))
            and {int}.issuperset(map(type, chain.from_iterable(chain.from_iterable(fields))))
        ):
            return list(zip(*fields))
    return [_observation(idx, entry) for idx, entry in enumerate(observations)]


def _observation(idx: int, entry: Any) -> tuple:
    """(choice, rows, cols) of observation idx, or the DocumentError of its
    first malformed part."""
    context = f"observation {idx}"
    _expect(isinstance(entry, dict), f"{context} must be an object")
    choice = _int_list(entry.get("choice"), f"{context} field 'choice'")
    _expect(len(choice) == 2, f"{context} field 'choice' must have exactly two entries")
    rows = _int_list(entry.get("rows"), f"{context} field 'rows'")
    cols = _int_list(entry.get("cols"), f"{context} field 'cols'")
    return choice, rows, cols


def dataset_to_text(dataset: DataSet) -> str:
    return canonical_json(dataset_to_document(dataset))


def dataset_from_text(text: str) -> DataSet:
    return dataset_from_document(parse_json(text))


def _memoize(memo: dict, entries, row: list, name: str, r: int) -> None:
    """Parse each new entry of entries, in order, into memo; a bad one is
    reported at its first cell in row r (0-based) of matrix name. An
    integer string goes through int, not Fraction's own string parser."""
    for entry in dict.fromkeys(entries):
        if entry in memo:
            continue
        value = entry
        try:
            if isinstance(value, str):
                match = _RATIONAL.fullmatch(value)
                if not match:
                    raise ValueError(f"Invalid literal for Fraction: {value!r}")
                if not match[1]:
                    value = int(value)
            memo[entry] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{name}[{r + 1},{row.index(entry) + 1}] is not a valid rational: {exc}") from None


def _row_from_document(row: list, memo: dict, row_memo: dict, name: str, r: int) -> tuple[Fraction, ...]:
    """Parse row r (0-based) of matrix name.

    The row's types are checked first. At a cell that is not an integer or
    a string, the new entries before it are parsed, so an earlier bad
    rational is still the one reported, and then the cell is. Otherwise
    each distinct entry of the document is parsed once, memoized under
    itself (1 and "1" stay apart; true never gets here), and the row's
    tuple is kept in row_memo under tuple(row), so a row repeated in the
    document is parsed once and shared.
    """
    if not set(map(type, row)) <= {int, str}:
        bad = next((c for c, x in enumerate(row) if isinstance(x, bool) or not isinstance(x, (int, str))), None)
        if bad is not None:
            _memoize(memo, row[:bad], row, name, r)
            raise DocumentError(f"{name}[{r + 1},{bad + 1}] must be an integer or a 'p/q' string")
    line = tuple(row)
    parsed = row_memo.get(line)
    if parsed is None:
        _memoize(memo, row, row, name, r)
        parsed = row_memo[line] = tuple(map(memo.__getitem__, row))
    return parsed


def game_to_document(game: BimatrixGame) -> dict:
    """Each distinct row object and each distinct entry object is rendered
    once; every row of the document is its own list."""
    texts: dict = {}
    rows: dict = {}
    row_texts = partial(_map_once, str, memo=texts)
    return {
        "n": game.n,
        "A": list(map(list.copy, _map_once(row_texts, game.a, rows))),
        "B": list(map(list.copy, _map_once(row_texts, game.b, rows))),
    }


def game_from_document(document: Any) -> BimatrixGame:
    _expect(isinstance(document, dict), "game document must be a JSON object")
    n = document.get("n")
    _expect(isinstance(n, int) and not isinstance(n, bool), "field 'n' must be an integer")
    matrices = {}
    memo: dict = {}
    row_memo: dict = {}
    for name in ("A", "B"):
        rows = document.get(name)
        _expect(isinstance(rows, list) and len(rows) == n, f"field '{name}' must be a list of {n} rows")
        parsed = []
        for r, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == n,
                    f"field '{name}' row {r} must be a list of {n} entries")
            parsed.append(_row_from_document(row, memo, row_memo, name, r))
        matrices[name] = tuple(parsed)
    return BimatrixGame(n, matrices["A"], matrices["B"])


def game_to_text(game: BimatrixGame) -> str:
    return canonical_json(game_to_document(game))


def game_from_text(text: str) -> BimatrixGame:
    return game_from_document(parse_json(text))
