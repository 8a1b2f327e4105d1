"""The README's examples against the code: the quick start runs and gives
the value in each of its comments, and the sample ``verify`` report and
``map`` line are what the package prints."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from derangetree import verify_bijection
from derangetree.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quick_start_values():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comments.pop(node.lineno), ast.unparse(node)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert comments == {}  # every comment was a checked value


def test_verify_report_lines():
    (sample,) = re.findall(r"^n=5 derangements=.*\nn=5 cases .*$", README, re.M)

    def strip(text):
        return re.sub(r"elapsed=[0-9.]+s", "elapsed=", text)

    assert strip(sample) == strip(verify_bijection(5).to_text())


def test_map_example(capsys):
    (line,) = [line for line in README.splitlines() if line.startswith("derangetree map ")]
    command, expected = line.split("# -> ")
    assert run(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected.strip() + "\n"
