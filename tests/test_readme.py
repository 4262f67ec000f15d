"""README's library example runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    tree = ast.parse(library_example())
    last = tree.body.pop()
    namespace: dict = {}
    exec(compile(tree, str(README), "exec"), namespace)
    report, cert = namespace["report"], namespace["cert"]
    assert report.laminar and report.uniqueness and report.crossing_span == 0
    assert cert.method == "zero_sum"
    assert cert.game.a == ((2, 3), (1, 1))
    assert {type(x) for m in (cert.game.a, cert.game.b) for row in m for x in row} == {int}
    assert cert.rank == 0
    assert eval(compile(ast.Expression(last.value), str(README), "eval"), namespace) is True
