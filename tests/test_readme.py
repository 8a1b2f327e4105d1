"""The README's examples against the code: the quick start runs and gives
the value in each of its comments, the sample ``verify`` report, ``map``
line and recurrence rows are what the package prints, every command of
the "Command line" block runs, and each quoted size refusal is the
diagnostic its command prints."""

import ast
import io
import itertools
import re
import shlex
import tokenize
from pathlib import Path

import pytest

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


def command_lines():
    """The argument lists of the "Command line" block, each ``{a|b|c}``
    expanded into its alternatives and the ``[...]`` parts dropped."""
    (block,) = re.findall(r"^## Command line\n\n```\n(.*?)```", README, re.S | re.M)
    for line in block.splitlines():
        pieces = re.split(r"\{(.*?)\}", re.sub(r"\[.*?\]", "", line))
        for choice in itertools.product(*(p.split("|") for p in pieces[1::2])):
            text = "".join(itertools.chain.from_iterable(zip(pieces[::2], (*choice, ""))))
            yield shlex.split(text, comments=True)[1:]


@pytest.mark.parametrize("argv", list(command_lines()), ids=" ".join)
def test_command_line_block_runs(argv):
    assert run(argv) == 0


# the commands whose refusals the README quotes, in its order
REFUSALS = [
    ["verify", "--max-size", "9"],
    ["stats", "rank-counts", "--max-size", "301"],
    ["stats", "rank-counts", "--max-size", "8", "--k", "-1"],
    ["stats", "cases", "--size", "10"],
    ["map", "--size", "0", "(0 1)"],
]


def test_size_refusals_are_quoted_exactly(capsys):
    section = README[README.index("Sizes are checked"):README.index("`enumerate` has no ceiling")]
    quoted = [" ".join(q.split()) for q in re.findall(r"`(error: [^`]*)`", section)]
    printed = []
    for argv in REFUSALS:
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        printed.append(err)
    assert printed == [q + "\n" for q in quoted]


def test_recurrence_sample_rows(capsys):
    (block,) = re.findall(r"```\n(n count residual.*?)```", README, re.S)
    rows = [line for line in block.splitlines() if line != "..."]
    assert run(["stats", "recurrence", "--max-size", "5"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and all(row in printed for row in rows)
