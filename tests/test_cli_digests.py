"""The CLI's stdout, stderr and exit codes on every recorded input match
tests/cli_digests.txt (see tests/cli_digests.py)."""

from .cli_digests import COMMANDS, compute, recorded


def test_cli_bytes_match_the_recorded_digests():
    expected = recorded()
    names = []
    for name, hashes in compute():
        names.append(name)
        assert name in expected, f"{name} has no line in tests/cli_digests.txt"
        for command, got, want in zip(COMMANDS, hashes, expected[name]):
            assert got == want, f"{name}: the bytes of `{command}` differ from tests/cli_digests.txt"
        assert len(hashes) == len(expected[name]), f"{name}: a different set of commands ran"
    assert names == list(expected)
