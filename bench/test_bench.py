"""Tests of the benchmark's own checks and tracer.

Each output check accepts the program's real output and rejects a
corrupted copy of it.  Run from the repository root with

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from derangetree import cli  # noqa: E402


def program(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return out.getvalue()


def replace_line(text, index, new):
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


class ReferenceTest(unittest.TestCase):
    def test_enumeration_agrees_with_closed_forms(self):
        hists = checks.rank_histograms(7)
        d = checks.derangement_numbers(7)
        self.assertEqual(d[2:], [1, 2, 9, 44, 265, 1854])
        for n in range(1, 8):
            self.assertEqual(hists[n].get(1, 0), d[n])
            self.assertEqual(hists[n][0], 1 if n == 1 else math.factorial(n) // 2)


class VerifyCheckTest(unittest.TestCase):
    def setUp(self):
        self.out = program("verify", "--max-size", "5", "--json")

    def test_accepts_real_output(self):
        checks.check_verify(self.out, 5)

    def corrupted(self, edit):
        reports = json.loads(self.out)
        edit(reports)
        return json.dumps(reports)

    def test_rejects_corruptions(self):
        edits = {
            "not ok": lambda r: r[2].update(ok=False),
            "derangement_count": lambda r: r[1].update(derangement_count=3),
            "marked_tree_count": lambda r: r[3].update(marked_tree_count=43),
            "case histogram": lambda r: r[3]["case_histogram"].update(C1a=0),
            "every size": lambda r: r.pop(),
        }
        for message, edit in edits.items():
            with self.subTest(message), self.assertRaisesRegex(checks.CheckFailed, message):
                checks.check_verify(self.corrupted(edit), 5)


class CensusCheckTest(unittest.TestCase):
    MAX = 6

    def test_rank_counts(self):
        hists = checks.rank_histograms(self.MAX)
        for k in (0, 1, 2):
            want = checks.rank_count_column(k, self.MAX, hists)
            out = program("stats", "rank-counts", "--max-size", str(self.MAX), "--k", str(k))
            checks.check_rank_counts(out, k, want)
            row = out.splitlines()[4].split()
            bad = replace_line(out, 4, f"{row[0]} {row[1]} {int(row[2]) + 1}")
            for text in (bad, out.replace("n k count", "n k total"),
                         "\n".join(out.splitlines()[:-1])):
                with self.subTest(k=k, text=text), self.assertRaises(checks.CheckFailed):
                    checks.check_rank_counts(text, k, want)

    def test_recurrence(self):
        out = program("stats", "recurrence", "--max-size", str(self.MAX))
        checks.check_recurrence(out, self.MAX)
        n, count, rd, rv = out.splitlines()[5].split()
        for line in (f"{n} {count} 1 {rv}", f"{n} {count} {rd} {int(rv) - 1}",
                     f"{n} {int(count) + 1} {rd} {rv}"):
            with self.subTest(line), self.assertRaises(checks.CheckFailed):
                checks.check_recurrence(replace_line(out, 5, line), self.MAX)


class MapCheckTest(unittest.TestCase):
    N = 12

    def cases(self):
        rng = random.Random(7)
        shapes = [[tuple(range(self.N))], [(i, i + 1) for i in range(0, self.N, 2)],
                  [(i, self.N - 1 - i) for i in range(self.N // 2)]]
        shapes += [run.random_derangement(rng, self.N) for _ in range(20)]
        for cycles in shapes:
            text = checks.cycle_text(cycles)
            yield cycles, text, program("map", "--size", str(self.N), text)

    @staticmethod
    def tree_text(parent, mark):
        return f"size={len(parent)};parents={','.join(map(str, parent[1:]))};mark={mark}"

    def test_accepts_real_round_trips(self):
        for cycles, text, out in self.cases():
            checks.check_map(out, self.N, cycles)
            checks.check_unmap(program("unmap", out.strip()), text)

    def test_rejects_corrupted_maps(self):
        top = self.N - 1
        seen = set()
        for cycles, text, out in self.cases():
            parent, mark = checks.parse_marked_tree(out)
            bad = {"not a marked tree": out.replace("mark=", "mk="),
                   "not smaller": self.tree_text(parent[:1] + [5] + parent[2:], mark),
                   "no leaf child": self.tree_text(parent, top)}
            if len(next(c for c in cycles if top in c)) >= 3:
                # hang top elsewhere, keeping a leaf child under the mark
                for u in range(top):
                    moved = parent[:top] + [u]
                    if u != parent[top] and any(moved[v] == mark and v not in moved
                                                for v in range(1, self.N)):
                        bad["p^-1"] = self.tree_text(moved, mark)
                        break
            else:
                # mark another vertex that has a leaf child
                other = next(parent[v] for v in range(1, self.N)
                             if v not in parent and parent[v] != mark)
                bad["2-cycle"] = self.tree_text(parent, other)
            for message, corrupt in bad.items():
                seen.add(message)
                with self.subTest(input=text, check=message), \
                        self.assertRaisesRegex(checks.CheckFailed, message.replace("^", r"\^")):
                    checks.check_map(corrupt, self.N, cycles)
            with self.assertRaises(checks.CheckFailed):
                checks.check_unmap(checks.cycle_text(cycles[::-1]) + "(99 98)", text)
        self.assertEqual(seen, {"not a marked tree", "not smaller", "no leaf child",
                                "p^-1", "2-cycle"})

    def test_derangement_text(self):
        checks.check_derangement_text("(0 2 1)(3 4)", 5)
        for bad in ("(0 2 1)(3)(4)", "(2 1 0)(3 4)", "(0 2 1)(3 5)", "0 1 2 3 4", "(3 4)(0 2 1)"):
            with self.subTest(bad), self.assertRaises(checks.CheckFailed):
                checks.check_derangement_text(bad, 5)


class RunTest(unittest.TestCase):
    def test_failed_commands_are_counted_and_not_checked(self):
        fake = type(sys)("fake_cli")

        def fake_run(argv):
            if argv[0] == "raise":
                raise RecursionError
            print(argv[0])
            return int(argv[1])

        fake.run = fake_run
        seen = []
        r = run.Run(fake)
        r.untimed([run.Op(kind, [kind, code], seen.append)
                   for kind, code in (("ok", "0"), ("exit", "2"), ("raise", "0"))])
        self.assertEqual((r.attempted, r.failed, seen, r.problems), (3, 2, ["ok\n"], []))
        r.untimed([run.Op("bad", ["bad", "0"], lambda out: checks.check_derangement_text(out, 2))])
        self.assertEqual((r.attempted, r.failed, len(r.problems)), (4, 2, 1))


class TracerTest(unittest.TestCase):
    def test_self_time_calls_and_restore(self):
        mod = type(sys)("fake")

        def rec(k):
            return 0 if k == 0 else 1 + mod.rec(k - 1)

        def gen(n):
            yield from range(n)

        mod.rec, mod.gen, other = rec, gen, type(sys)("other")
        other.rec = rec
        tracer = spans.Tracer()
        tracer.install([mod, other], [(mod, "rec", "rec"), (mod, "gen", "gen", "items")], [])
        self.assertIsNot(other.rec, rec)
        self.assertEqual(mod.rec(4), 4)
        self.assertEqual(list(mod.gen(3)), [0, 1, 2])
        summary = tracer.summary()
        self.assertEqual(summary["rec"]["calls"], 5)
        self.assertEqual(summary["gen"]["calls"], 4)
        self.assertEqual(tracer.counts["items"], 3)
        self.assertLessEqual(summary["rec"]["self_ns"], summary["rec"]["incl_ns"])
        self.assertGreater(summary["rec"]["self_ns"], 0)
        tracer.uninstall()
        self.assertIs(mod.rec, rec)
        self.assertIs(other.rec, rec)

    def test_benchmark_json_names_every_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(m, u) for m, u, *_ in run.PER_LAYER] + run.TRACE_METRICS)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
