"""Digests of the CLI's bytes on a fixed set of inputs (tests/cli_digests.txt).

The inputs are the datasets of ``reference_corpus()`` and the outputs of
``generate hadamard --k 2..4`` in both variants. Each input gets these
runs of ``cli.main``, in process:

- ``validate``, ``analyze`` and ``minrank`` (default ``--max-abs 3``) of
  the dataset;
- ``rationalize`` with each ``--method`` value;
- ``verify`` of each distinct game that ``rationalize`` printed, against
  the dataset (a byte-identical game verifies identically, so it is
  verified once);
- for a generated input, the ``generate`` run that made it.

A run's record is its argv, with the file names replaced by the fixed
placeholders DATASET and GAME, its stdout, its stderr and its exit code.
The records of each command's runs are hashed together into one short
sha256, and the file holds one line per input: its name, then the digest
of each command in ``COMMANDS`` order. ``tests/test_cli_digests.py``
recomputes the digests and names the first input and command that differ.

Rewrite the file, from the root of the repository, only when a change of
the CLI's bytes is intended:

    PYTHONPATH=src python -m tests.cli_digests
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

from ranklens import dataset_to_text
from ranklens.cli import main

from .generators import reference_corpus

DIGESTS = Path(__file__).with_name("cli_digests.txt")
COMMANDS = ("validate", "analyze", "minrank", "rationalize", "verify", "generate")
METHODS = ("auto", "bounded", "general", "rank1", "zerosum")
GENERATED = [(k, variant) for k in (2, 3, 4) for variant in ("laminar", "unique")]
HEX_DIGITS = 10


class _Runner:
    """Runs the CLI in process on argv whose placeholders stand for files
    in one directory, and hashes each run into its command's digest."""

    def __init__(self, directory: Path) -> None:
        self.files = {"DATASET": str(directory / "dataset.json"), "GAME": str(directory / "game.json")}
        self.hashes: dict = {}

    def write(self, placeholder: str, text: str) -> None:
        Path(self.files[placeholder]).write_text(text, encoding="utf-8")

    def run(self, *argv: str) -> tuple[str, int]:
        """The run's stdout and exit code."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([self.files.get(arg, arg) for arg in argv])
        stdout, stderr = out.getvalue(), err.getvalue()
        for placeholder, path in self.files.items():
            stdout, stderr = stdout.replace(path, placeholder), stderr.replace(path, placeholder)
        record = json.dumps([list(argv), stdout, stderr, code]).encode()
        self.hashes.setdefault(argv[0], hashlib.sha256()).update(record)
        return stdout, code

    def digests(self, dataset_text: str) -> list[str]:
        """Every run on the dataset; the digest of each command that ran."""
        self.write("DATASET", dataset_text)
        self.run("validate", "DATASET")
        self.run("analyze", "DATASET")
        self.run("minrank", "DATASET")
        games = {}
        for method in METHODS:
            stdout, code = self.run("rationalize", "DATASET", "--method", method)
            if code == 0:
                games.setdefault(stdout)
        for game in games:
            self.write("GAME", game)
            self.run("verify", "GAME", "DATASET")
        hashes, self.hashes = self.hashes, {}
        return [hashes[command].hexdigest()[:HEX_DIGITS] for command in COMMANDS if command in hashes]


def compute() -> Iterator[tuple[str, list[str]]]:
    """(input name, digests) of every input, in file order."""
    with tempfile.TemporaryDirectory() as directory:
        runner = _Runner(Path(directory))
        for number, dataset in enumerate(reference_corpus()):
            yield f"corpus-{number:04d}", runner.digests(dataset_to_text(dataset))
        for k, variant in GENERATED:
            text, _ = runner.run("generate", "hadamard", "--k", str(k), "--variant", variant)
            yield f"generate-k{k}-{variant}", runner.digests(text)


def recorded() -> dict[str, list[str]]:
    """The digests in the file, by input name."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: hashes for name, *hashes in (line.split() for line in lines if not line.startswith("#"))}


def write() -> None:
    header = [
        "# CLI byte digests, one line per input: its name, then one short sha256 per command",
        f"# ({', '.join(COMMANDS)}). Written by tests/cli_digests.py, checked by test_cli_digests.py.",
    ]
    lines = [" ".join([name, *hashes]) for name, hashes in compute()]
    DIGESTS.write_text("\n".join(header + lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
