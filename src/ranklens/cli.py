"""Command-line interface.

Exit codes: 0 positive result, 1 negative analytic result (not
rationalizable, verification failure, no game found), 2 precondition or
usage violation, 3 malformed input. Results go to stdout (or --output);
error records are one-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .documents import (
    canonical_json,
    dataset_from_text,
    dataset_to_document,
    game_from_text,
    game_to_document,
)
from .errors import (
    DataError,
    DocumentError,
    NotRationalizable,
    PreconditionError,
    SizeLimitExceeded,
)
from .hadamard import DEFAULT_ORDER_CAP, sylvester_hadamard, two_regular_dataset, uniqueness_variant
from .model import game_rank, rationalizes
from .oracle import SearchConfig, brute_force_min_rank
from .rationalize import (
    is_rationalizable,
    rationalize_auto,
    rationalize_bounded_rank,
    rationalize_general,
    rationalize_rank_one,
    rationalize_zero_sum,
)
from .structure import analyze

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PRECONDITION = 2
EXIT_MALFORMED = 3

SIZE_CAP_ENV = "RANKLENS_SIZE_CAP"

_METHODS = {
    "auto": rationalize_auto,
    "rank1": rationalize_rank_one,
    "zerosum": rationalize_zero_sum,
    "bounded": rationalize_bounded_rank,
    "general": rationalize_general,
}


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{path} is not UTF-8 text: {exc}") from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _witness_document(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "player": witness.player,
        "cycle": [[p.row, p.col] for p in witness.cycle],
        "inequalities": list(witness.inequalities()),
    }


def cmd_validate(args: argparse.Namespace) -> int:
    dataset = dataset_from_text(_read_file(args.dataset))
    _emit(args, canonical_json(dataset_to_document(dataset)))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    dataset = dataset_from_text(_read_file(args.dataset))
    report = analyze(dataset)
    document = {
        "laminar": report.laminar,
        "uniqueness": report.uniqueness,
        "crossing_span": report.crossing_span,
        "row_span": report.row_span,
        "col_span": report.col_span,
        "rationalizable": is_rationalizable(dataset).rationalizable,
        "crossing_subgames": [
            {"rows": list(s.rows), "cols": list(s.cols)} for s in report.crossing_subgames
        ],
        "crossing_choices": [[p.row, p.col] for p in report.crossing_choices],
    }
    _emit(args, canonical_json(document))
    return EXIT_OK


def cmd_rationalize(args: argparse.Namespace) -> int:
    dataset = dataset_from_text(_read_file(args.dataset))
    # A route builds an n x n game; the largest generated dataset has n = 2 * cap.
    cap = _size_cap()
    if dataset.n > 2 * cap:
        raise SizeLimitExceeded(f"order n={dataset.n} exceeds twice the size cap {cap}")
    method = _METHODS[args.method]
    try:
        certificate = method(dataset)
    except NotRationalizable as exc:
        document = {
            "rationalizable": False,
            "witness": _witness_document(exc.witness),
            "message": str(exc),
        }
        _emit(args, canonical_json(document))
        return EXIT_NEGATIVE
    document = game_to_document(certificate.game)
    document.update(
        {
            "method": certificate.method,
            "rank": certificate.rank,
            "rank_bound": certificate.rank_bound,
            "uniqueness_guarantee": certificate.uniqueness_guarantee,
        }
    )
    _emit(args, canonical_json(document))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    game = game_from_text(_read_file(args.game))
    dataset = dataset_from_text(_read_file(args.dataset))
    report = rationalizes(game, dataset)
    document = {
        "rationalizes": report.ok,
        "rank": game_rank(game),
        "failures": [
            {
                "choice": [f.observation.choice.row, f.observation.choice.col],
                "rows": list(f.observation.subgame.rows),
                "cols": list(f.observation.subgame.cols),
                "inequality": f.inequality,
            }
            for f in report.failures
        ],
    }
    _emit(args, canonical_json(document))
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _size_cap() -> int:
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(raw)
    except ValueError:
        raise SizeLimitExceeded(f"{SIZE_CAP_ENV} must be an integer, got {raw!r}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    sign = sylvester_hadamard(args.k, size_cap=_size_cap())
    dataset = two_regular_dataset(sign)
    if args.variant == "unique":
        dataset = uniqueness_variant(dataset)
    _emit(args, canonical_json(dataset_to_document(dataset)))
    return EXIT_OK


def cmd_minrank(args: argparse.Namespace) -> int:
    dataset = dataset_from_text(_read_file(args.dataset))
    config = SearchConfig(max_abs_payoff=args.max_abs)
    result = brute_force_min_rank(dataset, config)
    if result is None:
        _emit(args, "none\n")
        return EXIT_NEGATIVE
    _emit(args, f"{result}\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors become one JSON error record (exit 2), not usage text.
    Subparsers inherit this class."""

    def error(self, message: str):
        raise PreconditionError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ranklens",
        description="Rationalizability and minimum-rank analysis of observed play in two-player games.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_output(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--output", help="write the result to this file instead of stdout")

    sub = commands.add_parser("validate", help="canonicalize a dataset document")
    sub.add_argument("dataset")
    add_output(sub)
    sub.set_defaults(func=cmd_validate)

    sub = commands.add_parser("analyze", help="structural report: laminarity, uniqueness, spans, rationalizability")
    sub.add_argument("dataset")
    add_output(sub)
    sub.set_defaults(func=cmd_analyze)

    sub = commands.add_parser("rationalize", help="synthesize a rationalizing game")
    sub.add_argument("dataset")
    sub.add_argument("--method", choices=sorted(_METHODS), default="auto")
    add_output(sub)
    sub.set_defaults(func=cmd_rationalize)

    sub = commands.add_parser("verify", help="check a game against a dataset")
    sub.add_argument("game")
    sub.add_argument("dataset")
    add_output(sub)
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("generate", help="generate an adversarial dataset")
    sub.add_argument("kind", choices=["hadamard"])
    sub.add_argument("--k", type=int, required=True, help="Hadamard exponent; the order is 2^k")
    sub.add_argument("--variant", choices=["laminar", "unique"], default="laminar")
    add_output(sub)
    sub.set_defaults(func=cmd_generate)

    sub = commands.add_parser("minrank", help="exhaustive minimum rank over a small integer box")
    sub.add_argument("dataset")
    sub.add_argument("--max-abs", type=int, default=3, dest="max_abs")
    add_output(sub)
    sub.set_defaults(func=cmd_minrank)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except DataError as exc:
        _error_record(exc)
        return EXIT_MALFORMED
    except PreconditionError as exc:
        _error_record(exc)
        return EXIT_PRECONDITION
    except OSError as exc:
        _error_record(exc)
        return EXIT_MALFORMED


def run() -> None:
    raise SystemExit(main())
