"""Measure the working tree against a parent commit with the benchmark harness.

    python3 tools/bench_pairs.py --parent <rev> --first-seed <S> --out BENCH_<n>.json

For each of the benchmark's three workloads, runs ``benchmarks/run.py
--trace 0`` for the benchmark's run length on both trees in ten pairs,
alternating which side runs first (the parent first in pairs 1, 3, 5, ...),
and reports each side's runs, medians and quartiles per metric, with the
pairs the change won and a verdict against the bound that
``BENCHMARK.json`` fixes.  Then places the saving per geometry: a process
in each tree imports that tree's ``RelabelSearch`` from
``benchmarks/run.py`` and times its operation, ``relabel_ok``, on the
operations of seeded rounds, the two sides alternating per seed.  It counts
the rounds in which each geometry holds the round's median rank, and reports
the geometry at the workload's p80 rank, the rank ``op_tail_s`` reads, with
how many operations of each geometry lie at or beyond it.  Each round's
times are rescaled to the reference host speed by the harness's ``bitmask``
kernel, probed just before the round in the same process, as the harness
rescales its in-process workloads.  Places ``cli_warm``'s time per command
kind the same way: a process in each tree times ``CliWarm.run`` on seeded
rounds of the 147 golden argv, rescaled by the ``import`` kernel, and
reports the median of each kind (each ``tables`` call, and each sector's
``export`` as dot, dot ``--line-nodes`` and json) with the kind that holds
the workload's p99.5 rank and how many operations of each kind lie at or
beyond it.  One helper, ``tail_at_rank``, counts both tails.  Places
``verify_all``'s time per phase: fresh processes in each tree, batches of
them per side with the sides alternating, each time one cold ``verify all
--format structured`` phase by phase (the import, the parser, each suite,
``build_magic_line`` and the JSON render), rescaled by the ``import`` kernel
probed in the same process.  Counts, for
each side, the non-blank lines of each ``src/doilyspace/*.py`` and their
total.  The parent tree is ``git archive <rev>``, extracted into a
temporary directory; the change is this checkout as it stands.  Every seed
is drawn from ``--first-seed``, so each comparison can run on seeds not
used before.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("relabel_search", "verify_all", "cli_warm")
PAIRS = 10
ATTRIBUTION_SEEDS = 6
ATTRIBUTION_ROUNDS = 300
CLI_ATTRIBUTION_ROUNDS = 100
# run in a tree: relabel_search's operation, relabel_ok, timed on the
# operations of seeded rounds of the harness's workload, each round rescaled
# by the host-speed kernel probed just before it; prints the timed rounds as
# lists of [seconds, geometry] and the workload's p80 nearest rank over all
# of them; the first round warms the process and is not timed
ATTRIBUTION_CODE = """\
import json, random, sys, time
sys.path.insert(0, "benchmarks")
import hostspeed, run
seed, rounds = int(sys.argv[1]), int(sys.argv[2])
workload = run.RelabelSearch()
rng = random.Random(seed)
timed = []
for r in range(rounds + 1):
    scale = hostspeed.scale(hostspeed.probe(workload.kernel), workload.kernel)
    ops = []
    for name, perm in workload.round(rng):
        t0 = time.perf_counter()
        ok = workload.relabel_ok(name, perm)
        ops.append([(time.perf_counter() - t0) * scale, name])
        if not ok:
            sys.exit(f"{name} not recovered under seed {seed}")
    if r:
        timed.append(ops)
n = sum(map(len, timed))
print(json.dumps({"rounds": timed,
                  "tail_rank": run.tail_rank(n, run.TAIL_PERCENTILE["relabel_search"])}))
"""
# run in a tree: cli_warm's operation timed on seeded rounds of the 147
# golden argv, each round rescaled by the host-speed kernel probed just
# before it; prints the timed rounds as lists of [seconds, command kind] (the
# argv without its point label) and the workload's p99.5 nearest rank over
# all of them; the first round warms the process and is not timed
CLI_ATTRIBUTION_CODE = """\
import json, random, sys
sys.path.insert(0, "benchmarks")
import hostspeed, run
seed, rounds = int(sys.argv[1]), int(sys.argv[2])
workload = run.CliWarm(run.load_goldens())
rng = random.Random(seed)
def kind(argv):
    if argv[0] == "tables":
        return " ".join(argv)
    point = argv.index("--point")
    return " ".join(["export", argv[argv.index("--figure") + 1], *argv[point + 2:]])
timed = []
for r in range(rounds + 1):
    scale = hostspeed.scale(hostspeed.probe(workload.kernel), workload.kernel)
    ops = []
    for argv in workload.round(rng):
        result = workload.run(argv)
        if not result.ok:
            sys.exit(f"{' '.join(argv)} failed under seed {seed}")
        ops.append([result.wall * scale, kind(argv)])
    if r:
        timed.append(ops)
n = sum(map(len, timed))
print(json.dumps({"rounds": timed,
                  "tail_rank": run.tail_rank(n, run.TAIL_PERCENTILE["cli_warm"])}))
"""


VERIFY_BATCHES = 6
VERIFY_PROCESSES = 15
# run in a tree with its src/ on PYTHONPATH, one fresh process per cold
# `verify all --format structured`: times its phases in the order the
# command runs them (importing the CLI, building its parser and parsing the
# argv, each suite, the magic-line suite without its build_magic_line call,
# which is timed on its own, and the JSON render), checks the rendered
# output against the tree's golden digest, and prints the phases in seconds,
# rescaled by the harness's import kernel probed after them in the same process
VERIFY_ATTRIBUTION_CODE = """\
import sys, time
t0 = time.perf_counter()
from doilyspace import checks, cli
phases = {"import": time.perf_counter() - t0}
t0 = time.perf_counter()
cli.build_parser().parse_args(["verify", "all", "--format", "structured"])
phases["parser"] = time.perf_counter() - t0
build, built = checks.build_magic_line, []
def timed_build():
    t0 = time.perf_counter()
    try:
        return build()
    finally:
        built.append(time.perf_counter() - t0)
checks.build_magic_line = timed_build
reports = []
for name in checks.SUITES:
    before, t0 = sum(built), time.perf_counter()
    reports.append(checks.run_suite(name))
    phases[f"suite {name}"] = time.perf_counter() - t0 - (sum(built) - before)
phases["build_magic_line"] = sum(built)
t0 = time.perf_counter()
import json
payload = json.dumps([r.to_structured() for r in reports], indent=2) + "\\n"
phases["render"] = time.perf_counter() - t0
sys.path.insert(0, "benchmarks")
import hostspeed, run
if run.digest(payload.encode()) != run.load_goldens()["verify all --format structured"]["sha256"]:
    sys.exit("verify all: the rendered output does not match its golden digest")
scale = hostspeed.scale(hostspeed.probe("import"), "import")
print(json.dumps({name: t * scale for name, t in phases.items()}))
"""


def phase_medians(children: list[dict[str, float]]) -> dict[str, float]:
    """Per phase, the median milliseconds over one batch of children's
    phase seconds, and under ``total`` the median of their sums."""
    ms = {name: round(statistics.median(c[name] for c in children) * 1e3, 3)
          for name in children[0]}
    ms["total"] = round(statistics.median(sum(c.values()) for c in children) * 1e3, 3)
    return ms


def attribute_verify(trees: dict[str, Path], batches: int, processes: int) -> dict:
    """Run VERIFY_ATTRIBUTION_CODE in fresh processes, batches of them per
    side, the sides alternating which runs its batch first.  Per phase: each
    side's batch medians in milliseconds, and the change's median relative step."""
    ms: dict[str, list[dict[str, float]]] = {side: [] for side in trees}
    for i in range(batches):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                       PYTHONPATH=str(trees[side] / "src"))
            ms[side].append(phase_medians([json.loads(subprocess.run(
                [sys.executable, "-c", VERIFY_ATTRIBUTION_CODE], cwd=trees[side], env=env,
                check=True, capture_output=True, text=True).stdout) for _ in range(processes)]))
    return {name: {
        "parent_ms": [b[name] for b in ms["parent"]],
        "change_ms": [b[name] for b in ms["change"]],
        "change_vs_parent": round(statistics.median(
            c[name] / p[name] - 1 for p, c in zip(ms["parent"], ms["change"])), 4),
    } for name in ms["change"][0]}


def tail_at_rank(ops: list[tuple[float, str]], rank: int) -> tuple[str, dict[str, int]]:
    """The name of the operation at the 1-based rank of ops ordered by time,
    and, for every name in ops, how many operations lie at or beyond it."""
    ranked = sorted(ops)
    counts = dict.fromkeys((name for _, name in ops), 0)
    for _, name in ranked[rank - 1:]:
        counts[name] += 1
    return ranked[rank - 1][1], counts


def extract(rev: str, into: Path) -> str:
    """Extract the tree of rev into a directory; return the commit's hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(into, filter="data")
    return sha


def src_nonblank_lines(tree: Path) -> dict:
    """The non-blank lines of each src/doilyspace/*.py of a tree, by file name, and their total."""
    files = {path.name: sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                            if line.strip())
             for path in sorted((tree / "src" / "doilyspace").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced harness run; its last line, with the metrics flattened."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True,
                         text=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    run = {k: last[k] for k in ("attempted", "failed", "correct")}
    run.update({name: round(m["value"], 7) for name, m in last["metrics"].items()})
    return run


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 7), round(q3, 7)]


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    """Lower is better for every end-to-end metric the benchmark declares."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    spread = (max(parent + change) - min(parent + change)) / p_med
    rel = (c_med - p_med) / p_med
    better = sum(c < p for p, c in zip(parent, change))
    if max(change) < min(parent):
        verdict = "better on every run"
    elif spread > bound:
        verdict = "unresolved: the runs spread wider than the bound"
    elif rel <= bound:
        verdict = "within the bound"
    else:
        verdict = "worse than the bound"
    return {
        "parent_median": round(p_med, 7), "change_median": round(c_med, 7),
        "change_vs_parent": round(rel, 6), "change_better_pairs": better,
        "pairs": len(parent), "parent_quartiles": p_q, "change_quartiles": quartiles(change),
        "median_difference": round(p_med - c_med, 7),
        "parent_interquartile_range": round(p_q[1] - p_q[0], 7),
        # the rule for claiming a gain: nine tenths of the pairs, and a median
        # difference wider than the parent's interquartile range
        "gain": better * 10 >= 9 * len(parent) and p_med - c_med > p_q[1] - p_q[0],
        "run_spread_vs_parent_median": round(spread, 4), "verdict": verdict,
    }


def measure_workload(trees: dict[str, Path], workload: str, seeds: list[int], seconds: int,
                     bounds: dict[str, float]) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            run = run_once(trees[side], workload, seed, seconds)
            runs[side].append(run)
            print(f"{workload} seed {seed} {side}: op_p50_s {run['op_p50_s']} "
                  f"correct {run['correct']}", file=sys.stderr, flush=True)
    return {
        "seeds": seeds, "runs": runs,
        "metrics": {name: compare([r[name] for r in runs["parent"]],
                                  [r[name] for r in runs["change"]], bound)
                    for name, bound in bounds.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
    }


def attribute(trees: dict[str, Path], seeds: list[int], code: str, rounds: int) -> dict:
    """Run code in one process per side and seed, the sides alternating
    which runs first.  Per name: the median microseconds of each run, the
    change's median relative step and, per side and summed over the seeds,
    ``<side>_tail_ops``, the operations at or beyond the tail rank that code
    reports, and ``<side>_median_rank_rounds``, the rounds in which the name
    held the round's median rank.  Per side, the name at the tail rank of
    each run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    us: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    tail_ops = {side: Counter() for side in trees}
    median_rounds = {side: Counter() for side in trees}
    tail_names: dict[str, list[str]] = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = json.loads(subprocess.run(
                [sys.executable, "-c", code, str(seed), str(rounds)],
                cwd=trees[side], env=env, check=True, capture_output=True, text=True).stdout)
            ops = [(t, name) for timed in out["rounds"] for t, name in timed]
            times: dict[str, list[float]] = {}
            for t, name in ops:
                times.setdefault(name, []).append(t)
            for name, ts in times.items():
                us[side].setdefault(name, []).append(round(statistics.median(ts) * 1e6, 1))
            tail_name, counts = tail_at_rank(ops, out["tail_rank"])
            tail_names[side].append(tail_name)
            tail_ops[side].update(counts)
            median_rounds[side].update(sorted(timed)[len(timed) // 2][1]
                                       for timed in out["rounds"])
    return {"names": {name: {
        "parent_us": us["parent"][name], "change_us": us["change"][name],
        "change_vs_parent": round(statistics.median(
            c / p - 1 for p, c in zip(us["parent"][name], us["change"][name])), 4),
        **{f"{side}_tail_ops": tail_ops[side][name] for side in trees},
        **{f"{side}_median_rank_rounds": median_rounds[side][name] for side in trees},
    } for name in us["change"]}, "tail_names": tail_names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", required=True, type=int,
                        help="workload k runs seeds first + 100 k, first + 100 k + 1, ...; "
                             "the attributions run first + 300, first + 301, ... "
                             "(relabel_search) and first + 400, first + 401, ... (cli_warm)")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        parent = extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        report = {
            "command": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None
                                                                  else argv),
            "run_command": "PYTHONDONTWRITEBYTECODE=1 python3 benchmarks/run.py --workload <W> "
                           f"--seed <S> --seconds {seconds} --trace 0",
            "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}; times are rescaled to the "
                    "reference host speed by the harness",
            "parent": parent,
            "change": f"the working tree over {head}",
            "order": "pairs alternate which side runs first: parent first in pairs 1, 3, 5, ...",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over one side's runs; "
                         "run_spread_vs_parent_median is (max - min over both sides' runs) "
                         "/ parent median; lower is better for every metric",
            "src_nonblank_lines": {side: src_nonblank_lines(tree)
                                   for side, tree in trees.items()},
            "workloads": {},
        }
        for k, workload in enumerate(WORKLOADS):
            seeds = [args.first_seed + 100 * k + i for i in range(PAIRS)]
            report["workloads"][workload] = measure_workload(
                trees, workload, seeds, seconds, bounds)
        seeds = [args.first_seed + 300 + i for i in range(ATTRIBUTION_SEEDS)]
        geometries = attribute(trees, seeds, ATTRIBUTION_CODE, ATTRIBUTION_ROUNDS)
        report["attribution"] = {
            "what": "median microseconds of relabel_search's operation (RelabelSearch."
                    "relabel_ok, imported from each tree's benchmarks/run.py) per geometry, "
                    f"over the operations of {ATTRIBUTION_ROUNDS} seeded rounds of the "
                    "workload after one untimed round, each round rescaled by the harness's "
                    "bitmask kernel probed just before it in the same process, as run.py "
                    "rescales in-process workloads; one process per side and "
                    "seed, the sides alternating which runs first; one list entry per seed; "
                    "change_vs_parent is the median over seeds of change / parent - 1; "
                    "*_median_rank_rounds counts, over all seeds, the rounds in which the "
                    "geometry's operation was the 6th fastest of the round's 11, the rank "
                    "the workload's op_p50_s falls on; *_tail_ops counts, over all seeds, "
                    "the operations of the geometry at or beyond the p80 nearest rank of all "
                    "of a process's timed operations, the rank op_tail_s falls on; "
                    "tail_geometry lists per side the geometry at that rank, one entry per seed",
            "seeds": seeds,
            "geometries": geometries["names"],
            "tail_geometry": geometries["tail_names"],
        }
        seeds = [args.first_seed + 400 + i for i in range(ATTRIBUTION_SEEDS)]
        commands = attribute(trees, seeds, CLI_ATTRIBUTION_CODE, CLI_ATTRIBUTION_ROUNDS)
        report["cli_warm_attribution"] = {
            "what": "median microseconds of cli_warm's operation (CliWarm.run, imported "
                    "from each tree's benchmarks/run.py) per command kind, the argv "
                    f"without its point label, over the operations of {CLI_ATTRIBUTION_ROUNDS} "
                    "seeded rounds of the workload after one untimed round, each round "
                    "rescaled by the harness's import kernel probed just before it in the "
                    "same process; one process per side and seed, the sides alternating "
                    "which runs first; one list entry per seed; change_vs_parent is the "
                    "median over seeds of change / parent - 1; *_median_rank_rounds counts, "
                    "over all seeds, the rounds in which the kind held the 74th fastest of "
                    "the round's 147 operations; *_tail_ops counts, over all "
                    "seeds, the operations of the kind at or beyond the p99.5 nearest rank "
                    "of all of a process's timed operations, the rank op_tail_s falls on; "
                    "tail_kind lists per side the kind at that rank, one entry per seed",
            "seeds": seeds,
            "kinds": commands["names"],
            "tail_kind": commands["tail_names"],
        }
        report["verify_all_attribution"] = {
            "what": "median milliseconds of each phase of a cold `verify all --format "
                    f"structured`, over {VERIFY_PROCESSES} fresh processes per batch under "
                    "PYTHONDONTWRITEBYTECODE=1, each with its tree's src/ on PYTHONPATH: "
                    "import is `from doilyspace import checks, cli`, parser builds the "
                    "parser and parses the argv, each suite is checks.run_suite (the "
                    "magicline suite without its build_magic_line call, timed on its own), "
                    "render is the JSON dump; each process checks its output against the "
                    "golden digest and rescales its phases by the harness's import kernel "
                    "probed after them; total is the median of the processes' sums; "
                    f"{VERIFY_BATCHES} batches per side, the sides alternating which runs "
                    "first, one list entry per batch; change_vs_parent is the median over "
                    "batches of change / parent - 1",
            "phases": attribute_verify(trees, VERIFY_BATCHES, VERIFY_PROCESSES),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
