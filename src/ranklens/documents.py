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
from typing import Any

from .errors import DocumentError
from .model import BimatrixGame, DataSet, validate_dataset

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
    triples = []
    for idx, entry in enumerate(observations):
        context = f"observation {idx}"
        _expect(isinstance(entry, dict), f"{context} must be an object")
        choice = _int_list(entry.get("choice"), f"{context} field 'choice'")
        _expect(len(choice) == 2, f"{context} field 'choice' must have exactly two entries")
        rows = _int_list(entry.get("rows"), f"{context} field 'rows'")
        cols = _int_list(entry.get("cols"), f"{context} field 'cols'")
        triples.append(((choice[0], choice[1]), rows, cols))
    return validate_dataset(triples, document["n"])


def dataset_to_text(dataset: DataSet) -> str:
    return canonical_json(dataset_to_document(dataset))


def dataset_from_text(text: str) -> DataSet:
    return dataset_from_document(parse_json(text))


def _fraction_from_document(value: Any, memo: dict, name: str, r: int, c: int) -> Fraction:
    """Parse the entry of matrix name at 0-based (r, c). Valid entries are
    memoized under (type, value), so that true, 1 and "1" stay apart and
    each distinct entry of a document is parsed once."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentError(f"{name}[{r + 1},{c + 1}] must be an integer or a 'p/q' string")
    key = (type(value), value)
    fraction = memo.get(key)
    if fraction is None:
        try:
            if isinstance(value, str) and not _RATIONAL.fullmatch(value):
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            fraction = memo[key] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{name}[{r + 1},{c + 1}] is not a valid rational: {exc}") from None
    return fraction


def game_to_document(game: BimatrixGame) -> dict:
    return {
        "n": game.n,
        "A": [list(map(str, row)) for row in game.a],
        "B": [list(map(str, row)) for row in game.b],
    }


def game_from_document(document: Any) -> BimatrixGame:
    _expect(isinstance(document, dict), "game document must be a JSON object")
    n = document.get("n")
    _expect(isinstance(n, int) and not isinstance(n, bool), "field 'n' must be an integer")
    matrices = {}
    memo: dict = {}
    for name in ("A", "B"):
        rows = document.get(name)
        _expect(isinstance(rows, list) and len(rows) == n, f"field '{name}' must be a list of {n} rows")
        parsed = []
        for r, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == n,
                    f"field '{name}' row {r} must be a list of {n} entries")
            parsed.append(tuple(_fraction_from_document(x, memo, name, r, c) for c, x in enumerate(row)))
        matrices[name] = tuple(parsed)
    return BimatrixGame(n, matrices["A"], matrices["B"])


def game_to_text(game: BimatrixGame) -> str:
    return canonical_json(game_to_document(game))


def game_from_text(text: str) -> BimatrixGame:
    return game_from_document(parse_json(text))
