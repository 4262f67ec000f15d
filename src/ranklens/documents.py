"""Canonical JSON documents for datasets, games, and reports.

Canonical form is a single line: sorted keys, no insignificant
whitespace, trailing newline. Parsing accepts any JSON layout;
canonicalization is byte-idempotent. Rationals render as decimal integer
strings or 'p/q' strings in lowest terms; a string entry must have the
form [+-]?[0-9]+(/[0-9]+)?, so no decimal point, exponent, space or
underscore reaches int or Fraction. An integral entry parses to an int,
any other to a Fraction.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any

from .errors import DocumentError
from .model import BimatrixGame, DataSet, _map_once, _rational, validate_dataset

if TYPE_CHECKING:
    from fractions import Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGERS = re.compile(r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*")


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
    """Parse each new entry of entries into memo; a bad one is reported at
    its first cell in row r (0-based) of matrix name. New integer strings
    are checked by one match of their comma-joined text (whose commas must
    all be joins) and go through int in bulk; anything else, or an int over
    the digit limit, is parsed in order, so the first bad entry is named."""
    new = set(entries).difference(memo)
    if not new:
        return
    if {str}.issuperset(map(type, new)):
        joined = ",".join(new)
        if joined.count(",") == len(new) - 1 and _INTEGERS.fullmatch(joined):
            try:
                memo.update(zip(new, map(int, new)))
                return
            except ValueError:
                pass
    for entry in [x for x in dict.fromkeys(entries) if x in new]:
        try:
            if isinstance(entry, str) and not _RATIONAL.fullmatch(entry):
                raise ValueError(f"Invalid literal for Fraction: {entry!r}")
            memo[entry] = _rational(entry) if isinstance(entry, str) and "/" in entry else int(entry)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{name}[{r + 1},{row.index(entry) + 1}] is not a valid rational: {exc}") from None


def _row_from_document(row: list, memo: dict, row_memo: dict, name: str, r: int) -> tuple[int | Fraction, ...]:
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


def _entry_texts(game: BimatrixGame) -> tuple[dict, dict]:
    """The game's distinct row objects, by id, and the text of each
    distinct value in them, by value; each value is rendered once."""
    rows = {id(row): row for row in chain(game.a, game.b)}
    texts = {value: str(value) for value in set(chain.from_iterable(rows.values()))}
    return rows, texts


def game_to_document(game: BimatrixGame) -> dict:
    """Each distinct value is rendered once, and each distinct row object
    is mapped to those texts once; every row of the document is its own
    list."""
    _, texts = _entry_texts(game)
    rows: dict = {}
    row_texts = lambda row: list(map(texts.__getitem__, row))
    return {
        "n": game.n,
        "A": list(map(list.copy, _map_once(row_texts, game.a, rows))),
        "B": list(map(list.copy, _map_once(row_texts, game.b, rows))),
    }


def _game_text(game: BimatrixGame, **fields: Any) -> str:
    """The canonical text of game_to_document(game) with fields added,
    built per distinct row.

    Each distinct row object's JSON array is built once from its entries'
    texts, which are digits, signs and slashes and need no escaping. Every
    key of fields must sort after "B", as a lower-case key does, so that
    "n" and the fields follow the matrices as canonical_json renders them
    alone.
    """
    distinct_rows, texts = _entry_texts(game)
    arrays = {key: '["' + '","'.join(map(texts.__getitem__, row)) + '"]' for key, row in distinct_rows.items()}
    matrix = lambda rows: ",".join(map(arrays.__getitem__, map(id, rows)))
    tail = canonical_json({"n": game.n, **fields})
    return "".join(('{"A":[', matrix(game.a), '],"B":[', matrix(game.b), "],", tail[1:]))


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
            if not (isinstance(row, list) and len(row) == n):
                raise DocumentError(f"field '{name}' row {r} must be a list of {n} entries")
            parsed.append(_row_from_document(row, memo, row_memo, name, r))
        matrices[name] = tuple(parsed)
    return BimatrixGame(n, matrices["A"], matrices["B"])


def game_to_text(game: BimatrixGame) -> str:
    return _game_text(game)


def game_from_text(text: str) -> BimatrixGame:
    return game_from_document(parse_json(text))
