import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import derangetree.cli
import derangetree.enumeration
from derangetree import InternalInvariantError
from derangetree.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_map_worked_example(capsys):
    code = run(["map", "--size", "6", "(0 5 3)(1 4 2)"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "size=6;parents=0,1,0,1,0;mark=0\n"


def test_map_accepts_compact_digits(capsys):
    code = run(["map", "--size", "6", "(053)(142)"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out.strip() == "size=6;parents=0,1,0,1,0;mark=0"


def test_unmap_trivial(capsys):
    code = run(["unmap", "size=2;parents=0;mark=0"])
    out, _ = out_of(capsys)
    assert code == 0
    assert out == "(0 1)\n"


def test_map_unmap_round_trip(capsys):
    assert run(["map", "--size", "4", "(0 1)(2 3)"]) == 0
    tree_text = out_of(capsys)[0].strip()
    assert run(["unmap", tree_text]) == 0
    assert out_of(capsys)[0].strip() == "(0 1)(2 3)"


def test_tree2perm_and_back(capsys):
    assert run(["tree2perm", "size=8;parents=0,0,1,0,4,2,4"]) == 0
    word_text = out_of(capsys)[0].strip()
    assert word_text == "4 7 5 2 6 1 3"
    assert run(["perm2tree", word_text]) == 0
    assert out_of(capsys)[0].strip() == "size=8;parents=0,0,1,0,4,2,4"


def test_perm2tree_compact(capsys):
    assert run(["perm2tree", "4752613"]) == 0
    assert out_of(capsys)[0].strip() == "size=8;parents=0,0,1,0,4,2,4"


def test_enumerate_trees(capsys):
    assert run(["enumerate", "trees", "--size", "4"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert len(lines) == 6
    assert len(set(lines)) == 6
    assert all(line.startswith("size=4;parents=") for line in lines)


def test_enumerate_derangements(capsys):
    assert run(["enumerate", "derangements", "--size", "3"]) == 0
    assert out_of(capsys)[0].splitlines() == ["(0 1 2)", "(0 2 1)"]


def test_enumerate_marked(capsys):
    assert run(["enumerate", "marked", "--size", "2"]) == 0
    assert out_of(capsys)[0].splitlines() == ["size=2;parents=0;mark=0"]


def test_closed_stdout_ends_quietly_with_exit_0():
    # as in `derangetree enumerate derangements --size 11 | head -1`
    src = os.path.dirname(os.path.dirname(derangetree.cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "derangetree.cli", "enumerate", "derangements", "--size", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"(0 1)(2 3)(4 5)(6 7)(8 9 10)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_verify_reports_and_exit_zero(capsys):
    assert run(["verify", "--max-size", "4"]) == 0
    out = out_of(capsys)[0]
    assert "n=2 derangements=1 marked_trees=1 failures=0" in out
    assert "n=4 derangements=9 marked_trees=9 failures=0" in out


def test_verify_json(capsys):
    assert run(["verify", "--max-size", "3", "--json"]) == 0
    data = json.loads(out_of(capsys)[0])
    assert [d["n"] for d in data] == [2, 3]
    assert all(d["ok"] for d in data)
    assert data[1]["case_histogram"] == {"Base3": 2}


def test_verify_respects_ceiling(capsys):
    assert run(["verify", "--max-size", "9"]) == 2
    _, err = out_of(capsys)
    assert "ceiling" in err


def test_verify_needs_size_two(capsys):
    assert run(["verify", "--max-size", "1"]) == 2
    assert out_of(capsys) == ("", "error: --max-size must be at least 2\n")


def test_verify_refuses_before_running_any_size(capsys, monkeypatch):
    ran = []

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(derangetree.enumeration, "verify_bijection", lambda n, **kw: ran.append(n))
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["verify", "--max-size", "9", "--json"]) == 2
    assert ran == []
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: n=9 exceeds the verification ceiling 8; refusing to run\n"


def test_stats_rank_counts(capsys):
    assert run(["stats", "rank-counts", "--max-size", "4", "--k", "1"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert lines[0] == "n k count"
    assert lines[1:] == ["1 1 0", "2 1 1", "3 1 2", "4 1 9"]


def test_stats_cases(capsys):
    assert run(["stats", "cases", "--size", "4"]) == 0
    out = out_of(capsys)[0]
    assert "total 9" in out
    assert "top-attached-to-mark 6" in out


def test_stats_recurrence(capsys):
    assert run(["stats", "recurrence", "--max-size", "5"]) == 0
    lines = out_of(capsys)[0].splitlines()
    assert lines[1] == "1 0 - -"
    assert lines[4] == "4 9 0 -3"
    assert lines[5] == "5 44 0 -11"  # 44 - 5*9 - 5*2


def test_render_marked_tree(capsys):
    assert run(["render", "size=6;parents=0,1,0,1,0;mark=0"]) == 0
    out = out_of(capsys)[0]
    assert out.startswith("digraph tree {")
    assert out.rstrip().endswith("}")
    nodes = re.findall(r'^\s*(\d+) \[label="\1"', out, re.M)
    edges = re.findall(r"^\s*(\d+) -> (\d+);$", out, re.M)
    assert len(nodes) == 6
    assert len(edges) == 5
    assert '0 [label="0", shape=box, color=red, fontcolor=red];' in out
    # children of each parent come out ascending
    for parent in set(a for a, _ in edges):
        kids = [int(b) for a, b in edges if a == parent]
        assert kids == sorted(kids)


def test_render_plain_tree_has_no_box(capsys):
    assert run(["render", "size=3;parents=0,1", "--format", "dot"]) == 0
    out = out_of(capsys)[0]
    assert "shape=box" not in out
    assert out.count("shape=circle") == 3


@pytest.mark.parametrize("argv", [
    ["map", "--size", "6", "(0 5 3)(1 4 2)"],
    ["unmap", "size=6;parents=0,1,0,1,0;mark=0"],
    ["stats", "cases", "--size", "6"],
    ["render", "size=6;parents=0,1,0,1,0;mark=0"],
], ids=lambda argv: argv[0])
def test_command_is_clean_in_dev_mode(argv, capsys):
    # -X dev shows, among others, the ResourceWarning of a file left unclosed
    src = os.path.dirname(os.path.dirname(derangetree.cli.__file__))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "derangetree.cli",
                           *argv], capture_output=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert run(argv) == 0
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout.decode() == out_of(capsys)[0]


# -- error handling and exit codes --

def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["map", "(0 1)"]) == 1  # missing --size
    assert out_of(capsys)[1].count("usage error") == 3


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "derangetree" in out_of(capsys)[0]


def test_later_runs_build_no_parser_and_share_no_state(capsys, monkeypatch):
    run(["--help"])  # the parser exists from here on
    out_of(capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    assert run(["stats", "rank-counts", "--max-size", "4", "--k", "2"]) == 0
    assert out_of(capsys)[0].splitlines()[1:] == ["1 2 0", "2 2 0", "3 2 1", "4 2 2"]
    assert run(["stats", "rank-counts", "--max-size", "4"]) == 0
    assert out_of(capsys)[0].splitlines()[1:] == ["1 1 0", "2 1 1", "3 1 2", "4 1 9"]

    assert run(["verify", "--max-size", "3", "--json"]) == 0
    json.loads(out_of(capsys)[0])
    assert run(["verify", "--max-size", "3"]) == 0
    assert out_of(capsys)[0].startswith("n=2 derangements=1 marked_trees=1 failures=0")

    assert run(["map", "(0 1)"]) == 1
    assert out_of(capsys)[1].startswith("usage error: ")
    assert run(["map", "--size", "2", "(0 1)"]) == 0
    assert out_of(capsys) == ("size=2;parents=0;mark=0\n", "")

    assert run(["--help"]) == 0
    assert out_of(capsys)[0].startswith("usage: derangetree")
    assert run(["unmap", "size=2;parents=0;mark=0"]) == 0
    assert out_of(capsys) == ("(0 1)\n", "")

    assert built == []


def test_fixed_point_exits_2(capsys):
    assert run(["map", "--size", "3", "(0)(1 2)"]) == 2
    _, err = out_of(capsys)
    assert err == "error: fixed point: 0\n"


def test_syntax_error_exits_2(capsys):
    assert run(["map", "--size", "2", "(0 1"]) == 2
    assert "column 1" in out_of(capsys)[1]


def test_size_mismatch_exits_2(capsys):
    assert run(["map", "--size", "4", "(0 1)"]) == 2
    assert "missing label: 2" in out_of(capsys)[1]


def test_bad_tree_text_exits_2(capsys):
    assert run(["unmap", "size=2;parents=0"]) == 2
    assert "mark" in out_of(capsys)[1]


def test_bad_mark_exits_2(capsys):
    assert run(["unmap", "size=3;parents=0,1;mark=2"]) == 2
    assert out_of(capsys) == ("", "error: marked vertex 2 has rank 0, need rank 1\n")


def test_negative_rank_prints_nothing_and_exits_2(capsys):
    assert run(["stats", "rank-counts", "--max-size", "3", "--k", "-1"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: k must be nonnegative\n"
    # a negative k is named even past the size ceiling, as before the ceiling existed
    assert run(["stats", "rank-counts", "--max-size", "301", "--k", "-1"]) == 2
    assert out_of(capsys) == ("", "error: k must be nonnegative\n")


def test_short_recurrence_prints_nothing_and_exits_2(capsys):
    assert run(["stats", "recurrence", "--max-size", "2"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: max_n must be at least 3\n"


@pytest.mark.parametrize("argv, message", [
    (["map", "--size", "0", "(0 1)"], "--size must be at least 1"),
    (["map", "--size", "-2", "(0 1)"], "--size must be at least 1"),
    (["map", "--size", "-2", "(0 1"], "--size must be at least 1"),
    (["stats", "rank-counts", "--max-size", "301"],
     "--max-size 301 exceeds the ceiling 300; refusing to run"),
    (["stats", "rank-counts", "--max-size", "1000000000000", "--k", "0"],
     "--max-size 1000000000000 exceeds the ceiling 300; refusing to run"),
    (["stats", "recurrence", "--max-size", "301"],
     "--max-size 301 exceeds the ceiling 300; refusing to run"),
    (["stats", "cases", "--size", "10"], "--size 10 exceeds the ceiling 9; refusing to run"),
])
def test_size_refusals_come_before_any_work(argv, message, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("parse_cycles", "rank_count_table", "case_counts", "recurrence_check"):
        monkeypatch.setattr(derangetree.cli, name, no_work)
    assert run(argv) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == f"error: {message}\n"


def test_stats_tables_run_at_their_ceiling(capsys):
    assert run(["stats", "rank-counts", "--max-size", "300", "--k", "2"]) == 0
    assert len(out_of(capsys)[0].splitlines()) == 301
    assert run(["stats", "recurrence", "--max-size", "300"]) == 0
    assert out_of(capsys)[0].splitlines()[-1].split()[2] == "0"


def test_internal_error_is_one_line_exit_3(capsys, monkeypatch):
    def broken(p):
        raise InternalInvariantError("injected")

    monkeypatch.setattr(derangetree.cli, "forward", broken)
    assert run(["map", "--size", "2", "(0 1)"]) == 3
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: internal invariant violated: injected\n"


def test_bad_word_exits_2(capsys):
    assert run(["perm2tree", "1 3"]) == 2
    assert "permutation" in out_of(capsys)[1]
