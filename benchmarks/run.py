"""The doilyspace benchmark: three closed-loop workloads, one client each.

    python3 benchmarks/run.py --workload verify_all --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  README.md
beside this file describes the workloads, the metrics and how to read a
traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

VERIFY_ARGV = ["verify", "all", "--format", "structured"]

# op_tail_s is taken at this percentile (nearest rank), and a run goes on past
# --seconds until at least 10 operations lie beyond it.  For cli_warm it sits
# inside the 2-in-147 `tables veldkamp_lines` population (the slowest 1.36 %
# of a round), away from that population's lower edge.  verify_all has 50 to
# 100 operations in a 36 s run; p75 leaves 12 or more beyond it.  For
# relabel_search, p80 lies in PG(3,2)'s population (see RelabelSearch).
TAIL_PERCENTILE = {"verify_all": 75.0, "cli_warm": 99.5, "relabel_search": 80.0}
MAX_MEASURE_S = 120.0
CHILD_TIMEOUT_S = 60.0
RSS_POLL_S = 0.01
SETUP_REPEATS = 30
TRACED_SETUP_REPEATS = 9  # the traced run reports import_s, not setup_s
INTERPRETER_EVERY = 3  # a bare-interpreter control beside every third set-up sample

# Run at the end of a fresh child, once its timed part is over: times the
# host-speed kernel in the same process (see hostspeed.py).  The child's
# stdout is closed first, so the parent sees the timed part end there.
CHILD_PROBE = f"""\
import os, sys, time
cpu0 = time.process_time()
sys.stdout.flush()
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
sys.path.insert(0, {str(HERE)!r})
import hostspeed
hostspeed.report(cpu0)
"""

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import doilyspace.cli
t1 = time.perf_counter()
from doilyspace import build_doily, build_magic_line, build_w52
build_doily(); build_w52(); build_magic_line()
import json
print(json.dumps({"import_s": t1 - t0, "build_s": time.perf_counter() - t1,
                  "module": doilyspace.cli.__file__}), flush=True)
""" + CHILD_PROBE

# `python -m doilyspace.cli ARG...` as runpy runs it, then the probe
VERIFY_CODE = f"""\
import runpy, sys
sys.argv = ["doilyspace", *{VERIFY_ARGV!r}]
try:
    runpy.run_module("doilyspace.cli", run_name="__main__", alter_sys=True)
finally:
""" + "".join("    " + line + "\n" for line in CHILD_PROBE.splitlines())


class BenchError(Exception):
    """The checkout cannot be benchmarked: no sources, another package, no goldens."""


@dataclass(slots=True)  # one per operation; keeps the harness's own memory small
class OpResult:
    wall: float
    cpu: float
    ok: bool
    out_bytes: int
    rss_mb: float = 0.0
    probe: float | None = None  # host-speed kernel timed in the operation's own child
    scale: float = 1.0  # host-speed factor; see measure()


@dataclass
class Child:
    wall: float
    ready: float
    done: float  # when its stdout closed
    stdout: bytes
    stderr: bytes
    returncode: int
    usage: resource.struct_rusage
    peak_rss_kb: int


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live process, or 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_child(argv, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion.

    ``ready`` is when its first line arrived and ``done`` when its stdout
    closed.  The child is reaped with ``wait4``, so its own CPU time comes
    back with it.  Its peak RSS is its ``VmHWM``, sampled every
    ``RSS_POLL_S`` while it runs: ``ru_maxrss`` also counts the image of the
    parent it was forked from.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    ready = done = None
    peak = 0
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(argv, timeout)
                events = sel.select(min(remaining, RSS_POLL_S))
                peak = max(peak, peak_rss_kb(proc.pid))
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fd)
                        if key.fd == out_fd:
                            done = time.perf_counter() - start
                        continue
                    chunks[key.fd].append(data)
                    if ready is None and key.fd == out_fd and b"\n" in data:
                        ready = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(wall, wall if ready is None else ready, wall if done is None else done,
                 b"".join(chunks[out_fd]),
                 b"".join(chunks[err_fd]), proc.returncode, usage, peak)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens(path: Path = GOLDENS) -> dict[str, dict]:
    """``{" ".join(argv): {"argv", "exit", "sha256"}}`` from ``goldens.json``."""
    if not path.is_file():
        raise BenchError(f"missing golden digests: {path}")
    with open(path, encoding="utf-8") as fh:
        return {" ".join(g["argv"]): g for g in json.load(fh)["outputs"]}


def check_sources() -> None:
    if not (SRC / "doilyspace" / "cli.py").is_file():
        raise BenchError(f"no doilyspace sources under {SRC}")


def import_package():
    """Import ``doilyspace`` from this checkout's ``src/`` and nowhere else."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import doilyspace
    import doilyspace.cli

    if Path(doilyspace.__file__).resolve().parent != SRC / "doilyspace":
        raise BenchError(f"doilyspace imported from {doilyspace.__file__}, not {SRC}")
    return doilyspace


# --------------------------------------------------------------- workloads
#
# A workload hands out rounds of operation inputs drawn from the seed and
# runs one input at a time.  A round fixes the share of each kind of
# operation, and runs always stop at a round boundary.


class VerifyAll:
    """One fresh ``python -m doilyspace.cli verify all --format structured`` per operation.

    The child runs the CLI module as ``-m`` does, through ``runpy``, and then
    times the host-speed kernel.  The operation's wall time ends when the
    child's stdout closes, before the kernel runs, and the kernel's CPU time
    is taken out of the child's.
    """

    name = "verify_all"
    in_process = False
    kernel = "import"

    def __init__(self, goldens: dict[str, dict]):
        check_sources()
        self.golden = goldens[" ".join(VERIFY_ARGV)]

    def round(self, rng: random.Random) -> list:
        return [None]

    def traced_rounds(self, seconds: int) -> int:
        return max(2, seconds // 3)

    def run(self, item, trace: tracer.Tracer | None = None) -> OpResult:
        if trace is None:
            child = run_child([sys.executable, "-c", VERIFY_CODE])
        else:
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"child-{os.getpid()}-{trace.op}.json"
            child = run_child([sys.executable, str(HERE / "traced_cli.py"),
                               str(spans_file), *VERIFY_ARGV])
            if spans_file.exists():  # a child killed before its finally wrote none
                with open(spans_file, encoding="utf-8") as fh:
                    merge_child_spans(trace, json.load(fh))
                spans_file.unlink()
        probe, probe_cpu = hostspeed.parse(child.stderr) or (None, 0.0)
        ok = (child.returncode == self.golden["exit"]
              and digest(child.stdout) == self.golden["sha256"]
              and (probe is not None or trace is not None))
        if not ok:
            print(f"verify_all: exit {child.returncode}, stderr {child.stderr[-300:]!r}",
                  file=sys.stderr)
        usage = child.usage
        return OpResult(child.done, usage.ru_utime + usage.ru_stime - probe_cpu, ok,
                        len(child.stdout), child.peak_rss_kb / 1024, probe)

    def peak_rss_mb(self, results: list[OpResult]) -> float:
        return statistics.median(r.rss_mb for r in results)


def merge_child_spans(trace: tracer.Tracer, data: dict) -> None:
    """Append a traced child's spans under the current operation id."""
    offset = len(trace.spans)
    for span in data["spans"]:
        parent = span[tracer.PARENT]
        span[tracer.PARENT] = parent + offset if parent >= 0 else -1
        span[tracer.OP] = trace.op
        trace.spans.append(span)
    for key, (hits, misses) in data["caches"].items():
        total = trace.caches.setdefault(key, [0, 0])
        total[0] += hits
        total[1] += misses


class CliWarm:
    """``doilyspace.cli.main(argv)`` in one warmed process, stdout captured.

    A round is the 147 golden argv (47 off points x {dot, dot --line-nodes,
    json} exports and 3 tables x {text, structured}) in seed order.
    """

    name = "cli_warm"
    in_process = True
    kernel = "import"

    def __init__(self, goldens: dict[str, dict]):
        self.cli = import_package().cli
        self.goldens = goldens
        self.argvs = [g["argv"] for key, g in goldens.items()
                      if key != " ".join(VERIFY_ARGV)]
        for argv in self.argvs:  # fill every cache the calls use
            self.run(argv)

    def round(self, rng: random.Random) -> list:
        items = list(self.argvs)
        rng.shuffle(items)
        return items

    def traced_rounds(self, seconds: int) -> int:
        return max(1, seconds // 4)

    def run(self, argv, trace: tracer.Tracer | None = None) -> OpResult:
        golden = self.goldens[" ".join(argv)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit with 2
                code = exc.code
            except Exception as exc:  # a crash is one failed operation
                code = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        out = buf.getvalue().encode("utf-8")
        ok = code == golden["exit"] and digest(out) == golden["sha256"]
        if not ok:
            print(f"cli_warm: {' '.join(argv)} -> {code!r}", file=sys.stderr)
        return OpResult(wall, cpu, ok, len(out))

    def peak_rss_mb(self, results: list[OpResult]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pg32(ds):
    """PG(3,2): the 15 points of GF(2)^4 \\ {0} and the 35 lines {x, y, x+y}."""
    points = ds.gf2.projective_points(4)
    lines = {frozenset((i, j, (points[i] ^ points[j]).to_int() - 1))
             for i in range(len(points)) for j in range(i + 1, len(points))}
    return ds.IncidenceStructure.from_lines(len(points), lines)


class RelabelSearch:
    """Relabel a geometry by a seeded point permutation and find it again.

    A round holds the doily four times, PG(3,2) three times and Q-, the
    cone, Q+ and W(5,2) once each.  The weights put the median inside the
    doily population (hyperplane scan, search and Veldkamp space).  PG(3,2)'s
    isomorphism search has a long tail over permutations, from 15 ms to more
    than 10 s, so a higher percentile depends on the few permutations a seed
    draws.  The p80 tail is set mostly by PG(3,2): of the operations beyond
    it, about 84 % are PG(3,2) operations and 14 % doily ones.
    """

    name = "relabel_search"
    in_process = True
    kernel = "bitmask"
    ROUND = ("doily",) * 4 + ("pg32",) * 3 + ("q_minus", "cone", "q_plus", "w52")
    VELDKAMP_MAX_POINTS = 25

    def __init__(self, search=None):
        self.ds = ds = import_package()
        self.search = search
        ml = ds.build_magic_line()
        self.geometries = {
            "doily": ds.build_doily(), "pg32": pg32(ds),
            "q_minus": ml.q_minus.structure, "cone": ml.cone.structure,
            "q_plus": ml.q_plus.structure, "w52": ds.build_w52().structure,
        }
        self.expected = {name: self.invariants(g) for name, g in self.geometries.items()}

    def invariants(self, g) -> tuple:
        """Gamma-space flag, and Veldkamp point and line counts for small geometries."""
        counts = None
        if g.point_count <= self.VELDKAMP_MAX_POINTS:
            space = self.ds.build_veldkamp_space(g)
            counts = (len(space.points), len(space.lines))
        return self.ds.check_gamma_space(g), counts

    def round(self, rng: random.Random) -> list:
        items = []
        for name in self.ROUND:
            n = self.geometries[name].point_count
            items.append((name, rng.sample(range(n), n)))
        rng.shuffle(items)
        return items

    def traced_rounds(self, seconds: int) -> int:
        return max(2, seconds // 3)

    def run(self, item, trace: tracer.Tracer | None = None) -> OpResult:
        name, perm = item
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ok = self.relabel_ok(name, perm)
        return OpResult(time.perf_counter() - wall0, time.process_time() - cpu0, ok, 0)

    def relabel_ok(self, name: str, perm: list[int]) -> bool:
        ds = self.ds
        g = self.geometries[name]
        h = ds.IncidenceStructure.from_lines(
            g.point_count, ([perm[p] for p in line] for line in g.lines))
        mapping = (self.search or ds.find_isomorphism)(h, g)
        if mapping is None or not ds.is_isomorphism(h, g, mapping):
            print(f"relabel_search: {name} not recovered under {perm}", file=sys.stderr)
            return False
        if self.invariants(h) != self.expected[name]:
            print(f"relabel_search: {name} invariants changed under {perm}", file=sys.stderr)
            return False
        return True

    def peak_rss_mb(self, results: list[OpResult]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {
    "verify_all": VerifyAll,
    "cli_warm": CliWarm,
    "relabel_search": lambda goldens: RelabelSearch(),
}


# ------------------------------------------------------------- measurement


def tail_rank(n: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` samples."""
    return max(1, -(-int(percentile * 10) * n // 1000))


def min_samples(percentile: float) -> int:
    """Fewest samples that leave at least 10 beyond the tail rank."""
    n = 11
    while n - tail_rank(n, percentile) < 10:
        n += 1
    return n


def run_rounds(workload, rounds: list[list], trace: tracer.Tracer | None = None):
    """Run the given rounds; returns results and each operation's round."""
    results, round_of_op = [], {}
    for r, items in enumerate(rounds):
        for item in items:
            if trace is not None:
                trace.op = len(results)
            round_of_op[len(results)] = r
            results.append(workload.run(item, trace))
    if trace is not None:
        trace.op = -1
    return results, round_of_op


class Calibration:
    """Fresh-process samples: set-up to ready, import time, bare interpreter.

    The samples are spread over the run, so that their medians see the same
    phases of a shared host as the operations do.  Each set-up child times
    the ``import`` kernel once it is ready, and its time to ready is rescaled
    by that timing.
    """

    def __init__(self) -> None:
        run_child([sys.executable, "-c", "import doilyspace.cli"])  # write bytecode caches
        self.ready: list[float] = []
        self.probes: list[float] = []
        self.imports: list[float] = []
        self.interpreter: list[float] = []

    def sample(self) -> None:
        if len(self.ready) % INTERPRETER_EVERY == 0:
            self.interpreter.append(run_child([sys.executable, "-c", "pass"]).wall)
        child = run_child([sys.executable, "-c", SETUP_CODE])
        probe = hostspeed.parse(child.stderr)
        if child.returncode != 0 or probe is None:
            raise BenchError(f"set-up child failed: {child.stderr.decode(errors='replace')}")
        self.probes.append(probe[0])
        info = json.loads(child.stdout)
        if Path(info["module"]).resolve().parent != SRC / "doilyspace":
            raise BenchError(f"set-up child imported {info['module']}, not {SRC}")
        self.ready.append(child.ready)
        self.imports.append(info["import_s"])

    @property
    def setup_s(self) -> float:
        """Median time to ready, rescaled to the reference host speed."""
        return statistics.median(r * hostspeed.scale(p, "import")
                                 for r, p in zip(self.ready, self.probes))

    @property
    def raw_setup_s(self) -> float:
        return statistics.median(self.ready)

    @property
    def import_s(self) -> float:
        return statistics.median(self.imports)

    @property
    def interpreter_s(self) -> float:
        """Median wall of ``python -c pass``: a control that no change to src/ moves."""
        return statistics.median(self.interpreter)


def measure(workload, rng: random.Random, seconds: float,
            calib: Calibration) -> tuple[list[OpResult], float]:
    """Closed loop for ``seconds`` in whole rounds, extended for the tail's sample count.

    ``SETUP_REPEATS`` calibration samples are taken between rounds, evenly
    over ``seconds``; their time counts towards the run.  Each operation is
    rescaled by its workload's kernel, timed just before its round in this
    process, or for a child process in the child itself.  Neighbouring
    timings are not pooled: phases flip within a second, and a timing next
    to the operation tracks it better than a median over a few rounds.
    """
    need = min_samples(TAIL_PERCENTILE[workload.name])
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        due = len(calib.ready) * seconds / SETUP_REPEATS
        if len(calib.ready) < SETUP_REPEATS and elapsed >= due:
            calib.sample()
        elif (elapsed >= seconds and len(results) >= need) or elapsed >= MAX_MEASURE_S:
            break
        else:
            probe = hostspeed.probe(workload.kernel) if workload.in_process else None
            for r in run_rounds(workload, [workload.round(rng)])[0]:
                op_probe = r.probe if probe is None else probe
                if op_probe is not None:
                    r.scale = hostspeed.scale(op_probe, workload.kernel)
                results.append(r)
    return results, elapsed


def src_nonblank_lines() -> int:
    return sum(1 for path in sorted(SRC.rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def op_stats(name: str, results: list[OpResult], scaled: bool) -> dict:
    """Median, tail and median CPU, each time rescaled by its round's factor if ``scaled``."""
    walls = sorted(r.wall * (r.scale if scaled else 1.0) for r in results)
    pct = TAIL_PERCENTILE[name]
    rank = tail_rank(len(walls), pct)
    return {
        "p50": statistics.median(walls),
        "tail": walls[rank - 1],
        "tail_pct": pct,
        "beyond": len(walls) - rank,
        "cpu": statistics.median(r.cpu * (r.scale if scaled else 1.0) for r in results),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, rng, seconds, calib: Calibration) -> tuple[dict, list[OpResult]]:
    results, elapsed = measure(workload, rng, seconds, calib)
    setup_s = calib.setup_s
    stats = op_stats(workload.name, results, scaled=True)
    raw = op_stats(workload.name, results, scaled=False)
    rss = workload.peak_rss_mb(results)
    n = len(results)
    print(f"closed loop, 1 client: {n} operations in {elapsed:.1f} s; host-speed factor "
          f"median {statistics.median(r.scale for r in results):.4f} "
          f"({workload.kernel} kernel)")
    print("times at the reference host speed (as measured in brackets):")
    print(f"op_p50_s     {stats['p50']:.6f} s   ({raw['p50']:.6f})   median of {n} operations")
    print(f"op_tail_s    {stats['tail']:.6f} s   ({raw['tail']:.6f})   p{stats['tail_pct']:g}, "
          f"{stats['beyond']} operations beyond")
    print(f"op_cpu_s     {stats['cpu']:.6f} s   ({raw['cpu']:.6f})   median CPU (user+sys) "
          f"of {n} operations")
    print(f"setup_s      {setup_s:.6f} s   ({calib.raw_setup_s:.6f})   median of "
          f"{SETUP_REPEATS} fresh processes")
    print(f"peak_rss_mb  {rss:.3f} MB")
    if stats["beyond"] < 10:
        print(f"warning: only {stats['beyond']} operations beyond the tail percentile")
    metrics = {
        "op_p50_s": metric(stats["p50"], "s"),
        "op_tail_s": metric(stats["tail"], "s"),
        "op_cpu_s": metric(stats["cpu"], "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return metrics, results


UNITS = {"calls": "count", "found": "count", "line_tests": "count", "busy_s": "s",
         "self_s": "s", "yield": "ratio", "found_ratio": "ratio",
         "distinct_ratio": "ratio", "hit_ratio": "ratio", "cache_hit_ratio": "ratio",
         "cache_calls": "count"}


def traced(workload, rng, seconds, seed, calib: Calibration) -> tuple[dict, list]:
    """Same operations untraced, then traced; per-layer metrics per round."""
    rounds = [workload.round(rng) for _ in range(workload.traced_rounds(seconds))]
    plain, _ = run_rounds(workload, rounds)
    trace = tracer.Tracer()
    if workload.in_process:
        uninstall = tracer.install(trace)
        before = tracer.cache_counts()
        try:
            spans_results, round_of_op = run_rounds(workload, rounds, trace)
        finally:
            uninstall()
        trace.caches = tracer.cache_delta(before, tracer.cache_counts())
    else:  # the children install the wrappers and report their spans
        spans_results, round_of_op = run_rounds(workload, rounds, trace)
    layers = tracer.summarize(trace.spans, round_of_op, len(rounds), trace.caches)
    p50_plain = statistics.median(r.wall for r in plain)
    p50_traced = statistics.median(r.wall for r in spans_results)
    print(f"traced run: {len(rounds)} rounds of {len(rounds[0])} operations, "
          f"run untraced then traced; {len(trace.spans)} spans")
    print(f"op_p50_s untraced {p50_plain:.6f} s, traced {p50_traced:.6f} s")

    metrics = {
        "process.interpreter_s": metric(calib.interpreter_s, "s"),
        "process.import_s": metric(calib.import_s, "s"),
    }
    for name, value in layers.items():
        metrics[name] = metric(value, UNITS[name.rsplit(".", 1)[1]])
    metrics["cli.output_bytes"] = metric(
        sum(r.out_bytes for r in spans_results) / len(rounds), "bytes")
    metrics["trace.overhead_s"] = metric(p50_traced - p50_plain, "s")
    metrics["src.nonblank_lines"] = metric(src_nonblank_lines(), "count")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "rounds": len(rounds),
                   "round_of_op": round_of_op, "spans": trace.spans}, fh)
    return metrics, plain + spans_results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workload = WORKLOADS[args.workload](load_goldens())
        calib = Calibration()
        rng = random.Random(args.seed)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        if args.trace:
            for _ in range(TRACED_SETUP_REPEATS):
                calib.sample()
            metrics, results = traced(workload, rng, args.seconds, args.seed, calib)
        else:
            metrics, results = end_to_end(workload, rng, args.seconds, calib)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"calibration: process.interpreter_s {calib.interpreter_s:.6f} s, "
          f"process.import_s {calib.import_s:.6f} s, "
          f"src.nonblank_lines {src_nonblank_lines()}  "
          f"(medians of {len(calib.ready)} fresh processes)")
    failed = sum(1 for r in results if not r.ok)
    print(f"fail_ratio   {failed / len(results):.6g}   ({failed} failed / "
          f"{len(results)} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
