"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s benchmarks -p 'test_*.py'
"""

import ast
import contextlib
import gc
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import hostspeed
import run
import tracer

run.import_package()

HERE = Path(__file__).resolve().parent


def failures(results) -> int:
    return sum(1 for r in results if not r.ok)


class GoldenDigestTest(unittest.TestCase):
    def corrupted(self, key: str) -> dict:
        goldens = {k: dict(v) for k, v in run.load_goldens().items()}
        goldens[key]["sha256"] = "0" * 64
        return goldens

    def test_corrupted_cli_digest_fails_its_operation(self):
        key = "tables hyperplanes --format structured"
        workload = run.CliWarm(self.corrupted(key))
        results, _ = run.run_rounds(workload, [workload.round(random.Random(1))])
        self.assertEqual(len(results), 147)
        self.assertEqual(failures(results), 1)

    def test_corrupted_verify_digest_fails_the_process(self):
        workload = run.VerifyAll(self.corrupted(" ".join(run.VERIFY_ARGV)))
        results, _ = run.run_rounds(workload, [workload.round(random.Random(1))])
        self.assertEqual(failures(results), 1)

    def test_verify_child_matches_and_reports_its_probe(self):
        workload = run.VerifyAll(run.load_goldens())
        results, _ = run.run_rounds(workload, [workload.round(random.Random(1))])
        self.assertEqual(failures(results), 0)
        self.assertGreater(results[0].probe, 0.0)
        self.assertGreater(results[0].cpu, 0.0)

    def test_seed_outputs_match_their_digests(self):
        workload = run.CliWarm(run.load_goldens())
        results, _ = run.run_rounds(workload, [workload.round(random.Random(2))])
        self.assertEqual(failures(results), 0)


class RelabelTest(unittest.TestCase):
    def test_wrong_mapping_counts_as_one_failure(self):
        import doilyspace

        calls = []

        def search(h, g):
            mapping = doilyspace.find_isomorphism(h, g)
            calls.append(g)
            if len(calls) == 1:  # swap two images in the first answer only
                mapping[0], mapping[1] = mapping[1], mapping[0]
            return mapping

        workload = run.RelabelSearch(search=search)
        results, _ = run.run_rounds(workload, [workload.round(random.Random(3))])
        self.assertEqual(len(results), len(run.RelabelSearch.ROUND))
        self.assertEqual(failures(results), 1)

    def test_pg32_is_the_projective_space(self):
        import doilyspace

        g = run.pg32(doilyspace)
        self.assertEqual((g.point_count, len(g.lines)), (15, 35))
        self.assertEqual({g.degree(p) for p in range(15)}, {7})


class SpanTest(unittest.TestCase):
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # b's child b1 [8, 11] runs past b's end and is clipped to [8, 9].
    SPANS = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a1", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["b1", 8.0, 11.0, 3, 0, None],
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracer.self_times(self.SPANS), [3.0, 2.0, 1.0, 3.0, 3.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            ["p", 0.0, 10.0, -1, 0, None],
            ["c", 2.0, 6.0, 0, 0, None],
            ["c", 4.0, 8.0, 0, 0, None],
        ]
        self.assertEqual(tracer.self_times(spans)[0], 4.0)

    def test_busy_and_self_per_round(self):
        spans = [
            ["cli.cmd_tables", 0.0, 10.0, -1, 0, None],
            ["doily.classify_hyperplane", 1.0, 3.0, 0, 0, 5],
            ["doily.classify_hyperplane", 4.0, 5.0, 0, 0, 5],
            ["cli.cmd_tables", 20.0, 26.0, -1, 1, None],
            ["doily.classify_hyperplane", 21.0, 22.0, 3, 1, 6],
        ]
        caches = {k: [0, 0] for k in ("doily.build_doily", "magicline.build_w52",
                                       "magicline.build_magic_line")}
        layers = tracer.summarize(spans, {0: 0, 1: 1}, 2, caches)
        self.assertEqual(layers["doily.classify_hyperplane.calls"], 1.5)
        self.assertEqual(layers["doily.classify_hyperplane.self_s"], 2.0)  # median of 3 and 1
        self.assertEqual(layers["doily.classify_hyperplane.distinct_ratio"], 2 / 3)
        self.assertEqual(layers["cli.render.self_s"], 6.0)  # median of 7 and 5


class TracedCountsTest(unittest.TestCase):
    def counts(self) -> dict:
        workload = run.CliWarm(run.load_goldens())
        rounds = [workload.round(random.Random(4))]
        trace = tracer.Tracer()
        uninstall = tracer.install(trace)
        before = tracer.cache_counts()
        try:
            _, round_of_op = run.run_rounds(workload, rounds, trace)
        finally:
            uninstall()
        caches = tracer.cache_delta(before, tracer.cache_counts())
        layers = tracer.summarize(trace.spans, round_of_op, len(rounds), caches)
        return {k: v for k, v in layers.items() if not k.endswith("_s")}

    def test_counts_repeat_and_wrappers_come_off(self):
        import doilyspace.cli

        original = doilyspace.cli.cmd_export
        first = self.counts()
        self.assertEqual(first, self.counts())
        self.assertGreater(first["magicline.doily_trace.calls"], 0)
        self.assertIs(doilyspace.cli.cmd_export, original)


class LineTestCountTest(unittest.TestCase):
    def test_scan_line_tests_are_counted_not_derived(self):
        import doilyspace
        from doilyspace import incidence

        doily = doilyspace.build_doily()
        original = incidence.popcount
        trace = tracer.Tracer()
        uninstall = tracer.install(trace)
        try:
            incidence.enumerate_hyperplanes(doily)
        finally:
            uninstall()
        self.assertIs(incidence.popcount, original)
        (found, tests), = [s[tracer.VALUE] for s in trace.spans
                           if s[tracer.NAME] == "incidence.enumerate_hyperplanes"]
        subsets = (1 << doily.point_count) - 2
        self.assertEqual(found, 31)
        # every subset is tested against one line at least, and most stop early
        self.assertGreaterEqual(tests, subsets)
        self.assertLess(tests, len(doily.lines) * subsets // 2)


class HostSpeedTest(unittest.TestCase):
    def test_report_round_trips_through_stderr(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            hostspeed.report(time.process_time())
        probe, cpu = hostspeed.parse(("noise\n" + err.getvalue()).encode())
        self.assertGreater(probe, 0.0)
        self.assertGreaterEqual(cpu, 0.0)
        self.assertIsNone(hostspeed.parse(b"Traceback ...\n"))

    def test_every_kernel_runs_and_leaves_the_collector_as_it_was(self):
        for name in hostspeed.KERNELS:
            self.assertGreater(hostspeed.probe(name), 0.0)
            self.assertTrue(gc.isenabled())


class ContractTest(unittest.TestCase):
    def result(self, trace: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "relabel_search", "--seed", "5",
                             "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_result_line_names_every_declared_metric(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.result(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            units = {m["name"]: m["unit"] for m in declared[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_fails_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            bench = Path(tmp) / HERE.name
            shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                                   "cli_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertNotIn('"metrics"', proc.stdout)


class StdlibOnlyTest(unittest.TestCase):
    def test_harness_imports_only_the_stdlib(self):
        own = {p.stem for p in HERE.glob("*.py")}
        allowed = set(sys.stdlib_module_names) | own | {"doilyspace"}
        for path in HERE.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    self.assertIn(name.split(".")[0], allowed, f"{path.name} imports {name}")


if __name__ == "__main__":
    unittest.main()
