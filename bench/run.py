"""Benchmark for derangetree, driven through ``derangetree.cli.run``.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

runs one workload in this process for about ``--seconds`` seconds, as whole
rounds of the same commands, one command at a time.  Every output is
checked against ``checks.py``.  The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Results and span dumps go to ``.bench_out/``.  Without
``--workload`` every workload runs, each in its own process.  See
README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_ROUND = 5
EXIT_NO_PROGRAM = 2
EXIT_BAD_RUN = 3

VERIFY_MAX = 8
CENSUS_MAX = 9
MAP_N = 400
MAP_RANDOM = 10
DEEP_MAP_N = 600
DEEP_UNMAP_N = 1100
DEEP_SEED = 600  # the deep inputs do not depend on --seed

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms")]

# (metric, unit, span or counter name, what to take from it)
PER_LAYER = [
    ("cli.run_calls", "count", "cli.run", "calls"),
    ("cli.run_self_ms", "ms", "cli.run", "self_ms"),
    ("enumeration.derangements_generated", "count", "enumeration.derangements_generated", "count"),
    ("enumeration.gen_derangements_s", "s", "enumeration.gen_derangements", "incl_s"),
    ("enumeration.marked_trees_generated", "count", "enumeration.marked_trees_generated", "count"),
    ("enumeration.gen_marked_trees_s", "s", "enumeration.gen_marked_trees", "incl_s"),
    ("enumeration.trees_generated", "count", "enumeration.trees_generated", "count"),
    ("enumeration.gen_increasing_trees_s", "s", "enumeration.gen_increasing_trees", "incl_s"),
    ("enumeration.verify_self_s", "s", "enumeration.verify_bijection", "self_s"),
    ("enumeration.count_rank_k_self_s", "s", "enumeration.count_rank_k", "self_s"),
    ("bijection.forward_calls", "count", "bijection.forward", "calls"),
    ("bijection.forward_self_s", "s", "bijection.forward", "self_s"),
    ("bijection.inverse_calls", "count", "bijection.inverse", "calls"),
    ("bijection.inverse_self_s", "s", "bijection.inverse", "self_s"),
    ("bijection.classify_tree_calls", "count", "bijection.classify_tree", "calls"),
    ("bijection.classify_tree_s", "s", "bijection.classify_tree", "incl_s"),
    ("bijection.case2a_calls", "count", "bijection.case2a_restructure", "calls"),
    ("bijection.case2a_s", "s", "bijection.case2a_restructure", "incl_s"),
    ("bijection.relabelings", "count", "bijection.Relabeling", "calls"),
    ("trees.tree_inits", "count", "trees.IncreasingTree", "calls"),
    ("trees.tree_init_s", "s", "trees.IncreasingTree", "incl_s"),
    ("trees.marked_inits", "count", "trees.MarkedTree", "calls"),
    ("trees.marked_init_s", "s", "trees.MarkedTree", "incl_s"),
    ("trees.rank_calls", "count", "trees.rank", "calls"),
    ("trees.rank_s", "s", "trees.rank", "incl_s"),
    ("trees.parse_s", "s", "trees.parse", "incl_s"),
    ("trees.serialize_s", "s", "trees.serialize", "incl_s"),
    ("cycles.parse_s", "s", "cycles.parse", "incl_s"),
    ("cycles.serialize_s", "s", "cycles.serialize", "incl_s"),
    ("cycles.cycle_inits", "count", "cycles.CycleDecomposition", "calls"),
    ("cycles.cycle_init_s", "s", "cycles.CycleDecomposition", "incl_s"),
]
TRACE_METRICS = [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]


class NoProgram(Exception):
    """The checkout holds no importable derangetree under src/."""


def import_program():
    """Import derangetree afresh from this checkout; return its cli module."""
    for name in [m for m in sys.modules if m == "derangetree" or m.startswith("derangetree.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("derangetree.cli")
    except ImportError as exc:
        raise NoProgram(f"cannot import derangetree from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise NoProgram(f"derangetree was imported from {cli.__file__}, not from {SRC}")
    return cli


def install_tracer(tracer, cli):
    """Wrap the public functions and constructors named by PER_LAYER."""
    pkg = [m for name, m in sys.modules.items()
           if name == "derangetree" or name.startswith("derangetree.")]
    enum, bij = sys.modules["derangetree.enumeration"], sys.modules["derangetree.bijection"]
    trees, cyc = sys.modules["derangetree.trees"], sys.modules["derangetree.cycles"]
    functions = [
        (cli, "run", "cli.run"),
        (enum, "gen_derangements", "enumeration.gen_derangements",
         "enumeration.derangements_generated"),
        (enum, "gen_marked_trees", "enumeration.gen_marked_trees",
         "enumeration.marked_trees_generated"),
        (enum, "gen_increasing_trees", "enumeration.gen_increasing_trees",
         "enumeration.trees_generated"),
        (enum, "verify_bijection", "enumeration.verify_bijection"),
        (enum, "count_rank_k", "enumeration.count_rank_k"),
        # forward() and classify_derangement() are one-line views of it
        (bij, "forward_with_case", "bijection.forward"),
        (bij, "inverse", "bijection.inverse"),
        (bij, "classify_tree", "bijection.classify_tree"),
        (bij, "case2a_restructure", "bijection.case2a_restructure"),
        (trees, "parse_tree_text", "trees.parse"),
        (cyc, "parse_cycles", "cycles.parse"),
    ]
    methods = [
        (bij.Relabeling, "__init__", "bijection.Relabeling"),
        (trees.IncreasingTree, "__init__", "trees.IncreasingTree"),
        (trees.MarkedTree, "__init__", "trees.MarkedTree"),
        (trees.IncreasingTree, "rank", "trees.rank"),
        (trees.IncreasingTree, "parse", "trees.parse"),
        (trees.MarkedTree, "parse", "trees.parse"),
        (trees.IncreasingTree, "serialize", "trees.serialize"),
        (trees.MarkedTree, "serialize", "trees.serialize"),
        (cyc.CycleDecomposition, "__init__", "cycles.CycleDecomposition"),
        (cyc.CycleDecomposition, "serialize", "cycles.serialize"),
    ]
    tracer.install(pkg, functions, methods)


# -- commands --

class Op:
    """One command line for ``cli.run`` and the check of its output.

    ``then``, when given, makes the next command of the same request from
    this command's output.  ``expect_error`` names the exception the
    command is known to raise today.
    """

    def __init__(self, kind, argv, check, then=None, expect_error=None):
        self.kind, self.argv, self.check = kind, argv, check
        self.then, self.expect_error = then, expect_error


def call(cli, argv):
    """Run one command with stdout and stderr captured.

    Returns (exit code, stdout, stderr, seconds, exception); the exit code
    is None when an exception escaped ``cli.run``.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as e:  # an error escaping run() is a failed operation
            exc = e
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds, exc


# -- workloads --
# Each workload has a reference, made once per process outside every
# timing, and a builder that makes the timed requests and the untimed deep
# commands from the seed and the reference.

def no_reference():
    return None


def verify_workload(seed, ref):
    return [Op("verify", ["verify", "--max-size", str(VERIFY_MAX), "--json"],
               lambda out: checks.check_verify(out, VERIFY_MAX))], []


def census_reference():
    return checks.rank_histograms(CENSUS_MAX)


def census_workload(seed, hists):
    ops = []
    for k in (0, 1, 2):
        want = checks.rank_count_column(k, CENSUS_MAX, hists)
        ops.append(Op("rank-counts",
                      ["stats", "rank-counts", "--max-size", str(CENSUS_MAX), "--k", str(k)],
                      lambda out, k=k, want=want: checks.check_rank_counts(out, k, want)))
    ops.append(Op("recurrence", ["stats", "recurrence", "--max-size", str(CENSUS_MAX)],
                  lambda out: checks.check_recurrence(out, CENSUS_MAX)))
    return ops, []


def random_derangement(rng, n):
    while True:
        word = list(range(n))
        rng.shuffle(word)
        if all(word[i] != i for i in range(n)):
            return checks.cycles_of_word(word)


def map_op(n, cycles, round_trip=True):
    """``map`` of a derangement, followed by ``unmap`` of its output when
    ``round_trip`` is set."""
    text = checks.cycle_text(cycles)
    checks.check_derangement_text(text, n)

    def unmap(out):
        return Op("unmap", ["unmap", out.strip()],
                  lambda back: checks.check_unmap(back, text))

    return Op("map", ["map", "--size", str(n), text],
              lambda out: checks.check_map(out, n, cycles),
              then=unmap if round_trip else None)


def map_large_workload(seed, ref):
    """Round trips at n = MAP_N, and deep commands that exceed the default
    recursion limit today."""
    n = MAP_N
    rng = random.Random(seed)
    shapes = [[tuple(range(n))],                          # all case C1
              [(i, i + 1) for i in range(0, n, 2)],       # all C2b, relabeling at each level
              [(i, n - 1 - i) for i in range(n // 2)]]    # case2a_restructure at each level
    shapes += [random_derangement(rng, n) for _ in range(MAP_RANDOM)]
    requests = [map_op(n, c) for c in shapes]
    m = DEEP_UNMAP_N
    chain = f"size={m};parents={','.join(map(str, range(m - 1)))};mark={m - 2}"
    deep = [map_op(DEEP_MAP_N, [tuple(range(DEEP_MAP_N))], round_trip=False),
            map_op(DEEP_MAP_N, random_derangement(random.Random(DEEP_SEED), DEEP_MAP_N),
                   round_trip=False),
            Op("unmap", ["unmap", chain], lambda out: checks.check_derangement_text(out, m))]
    for op in deep:
        op.expect_error = RecursionError
    return requests, deep


WORKLOADS = {
    "verify": (no_reference, verify_workload),
    "census": (census_reference, census_workload),
    "map_large": (no_reference, map_large_workload),
}


# -- running --

class Run:
    """Attempted and failed commands, output problems and latencies of one run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.command_seconds: dict[str, list[float]] = {}
        self.request_seconds: list[float] = []

    def execute(self, op):
        """Run one command; returns (stdout, seconds), or None when it
        failed: it raised, or it exited with a code other than 0."""
        self.attempted += 1
        rc, out, err, seconds, exc = call(self.cli, op.argv)
        if exc is None and rc == 0:
            return out, seconds
        self.failed += 1
        if not isinstance(exc, op.expect_error or ()):
            print(f"{op.kind} failed: exit {rc}, {exc!r}, {err.strip()[:200]}", file=sys.stderr)
        return None

    def check(self, op, out):
        try:
            op.check(out)
        except Exception as exc:  # an output the check cannot even read is wrong too
            self.problems.append(f"{op.kind} {' '.join(op.argv)[:60]}: {exc!r}")

    def timed(self, requests):
        """Run every request back to back; returns the seconds they took.

        Outputs are checked after the clock stops.
        """
        gc.collect()
        done = []
        start = time.perf_counter()
        for op in requests:
            seconds = 0.0
            while op is not None:
                got = self.execute(op)
                if got is None:
                    break
                done.append((op, got[0]))
                seconds += got[1]
                self.command_seconds.setdefault(op.kind, []).append(got[1])
                op = op.then(got[0]) if op.then else None
            else:
                self.request_seconds.append(seconds)
        wall = time.perf_counter() - start
        for op, out in done:
            self.check(op, out)
        return wall

    def untimed(self, ops):
        for op in ops:
            got = self.execute(op)
            if got is not None:
                self.check(op, got[0])


def layer_metrics(tracer):
    """PER_LAYER values from the spans and counters of one traced round."""
    summary = tracer.summary()
    out = {}
    for metric, unit, source, field in PER_LAYER:
        row = summary.get(source, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        out[metric] = {
            "calls": row["calls"],
            "count": tracer.counts.get(source, 0),
            "incl_s": row["incl_ns"] / 1e9,
            "self_s": row["self_ns"] / 1e9,
            "self_ms": row["self_ns"] / 1e6,
        }[field]
    out["trace.spans"] = tracer.span_count
    return out


def measure(workload, seed, seconds, trace):
    """One run; returns the result object printed as the last line."""
    reference, build = WORKLOADS[workload]
    import_program()  # untimed: imports the standard-library modules derangetree needs
    # From here on no bytecode cache is found, so every set-up compiles
    # derangetree from source, whatever cache the checkout holds.
    sys.pycache_prefix = str(OUT / "no-bytecode")
    OUT.mkdir(exist_ok=True)
    ref = reference()
    setup = []
    run = Run(None)
    tracer = spans.Tracer() if trace else None
    limit = sys.getrecursionlimit()
    walls, traced_walls, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # set-up is repeated before every round, so that its median spans the run
        for _ in range(SETUP_PER_ROUND):
            start = time.perf_counter()
            cli = import_program()
            requests, deep = build(seed, ref)
            setup.append(time.perf_counter() - start)
        run.cli = cli
        # with --trace 1 the first round runs untraced, as the overhead baseline
        if tracer is not None and walls:
            install_tracer(tracer, cli)
            # each wrapper frame sits on top of a program frame, so traced
            # recursion needs at most twice the default limit
            sys.setrecursionlimit(2 * limit)
            try:
                traced_walls.append(run.timed(requests))
            finally:
                sys.setrecursionlimit(limit)
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
            if len(layers) == 1:
                tracer.dump(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
            tracer.clear()
        else:
            walls.append(run.timed(requests))
            if len(walls) == 1:  # before any deep command, whose stacks would dominate
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.untimed(deep)  # past the default recursion limit: never traced or timed
        now = time.perf_counter()
        if (tracer is None or traced_walls) and now - t0 + (now - round_start) > seconds:
            break

    if tracer is not None:
        # median_low keeps each count a whole number
        metrics = {metric: {"value": statistics.median_low(r[metric] for r in layers), "unit": unit}
                   for metric, unit, _, _ in PER_LAYER}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls), "unit": "ratio"}
        metrics["trace.spans"] = {
            "value": statistics.median_low(r["trace.spans"] for r in layers), "unit": "count"}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": statistics.median(run.request_seconds) * 1e3,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for kind, times in sorted(run.command_seconds.items()):
        print(f"{workload} {kind}_p50_ms {statistics.median(times) * 1e3:.3f} ms"
              f" (n={len(times)})")
    print(f"{workload} round walls s: untraced {' '.join(f'{w:.3f}' for w in walls)}"
          f" traced {' '.join(f'{w:.3f}' for w in traced_walls)}")
    for problem in run.problems:
        print(f"{workload} CHECK FAILED {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def run_all(args):
    """Every workload, one process each, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return EXIT_BAD_RUN
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}"
          f" correct {result['correct']}")
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
