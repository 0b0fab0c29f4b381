"""Self-tests of the benchmark's own tooling.

    python3 -m unittest discover -s perfbench/tests

Covers the PC -> file -> layer mapper (on a fixture binary with an inlined
frame, and on a sample whose leaf is in libc), metric-name validation, the
agreement between BENCHMARK.json and the metrics run.py reports, and — through
the C++ perfbench_selftest — the rule that a dropped query counts as beyond
every latency limit.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(PERFBENCH)
FIXTURE = os.path.join(TESTS, "fixture")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import run  # noqa: E402


def symbol_address(binary, name):
    out = subprocess.run(["nm", binary], capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] == name:
            return int(parts[0], 16)
    raise AssertionError("symbol %s not in %s" % (name, binary))


class LayerForPathTest(unittest.TestCase):
    def test_modules(self):
        cases = {
            "src/sim/simulator.h": "sim",
            "src/sim/simulator.cc": "sim",
            "src/sim/machine.cc": "machine",
            "src/util/cpu_set.h": "cpu_set",
            "src/util/stats.cc": "stats",
            "src/util/rng.cc": "util",
            "src/disk/io_scheduler.cc": "disk",
            "src/perfiso/controller.cc": "perfiso",
            "src/platform/sim_platform.cc": "platform",
            "src/net/fabric.cc": "net",
            "src/indexserve/index_server.cc": "indexserve",
            "src/cluster/cluster.cc": "cluster",
            "src/workload/query_trace.cc": "workload",
            "src/fault/invariant_checker.cc": "other",
            "bench/harness.cc": "other",
            "perfbench/driver.cc": "other",
        }
        for rel, layer in cases.items():
            self.assertEqual(layers.layer_for_path(os.path.join(ROOT, rel), ROOT), layer, rel)

    def test_outside_the_repository(self):
        for path in ("/usr/include/c++/12/bits/stl_heap.h", "??", "",
                     os.path.join(ROOT, "README.md")):
            self.assertIsNone(layers.layer_for_path(path, ROOT), path)

    def test_every_layer_is_reported(self):
        mapped = set(layers.MODULE_LAYERS.values()) | set(layers.FILE_LAYERS.values())
        self.assertLessEqual(mapped | {"other"}, set(layers.LAYERS))


class FixtureMapperTest(unittest.TestCase):
    """Resolves real PCs of a small binary laid out like the repository."""

    @classmethod
    def setUpClass(cls):
        base = os.path.dirname(run.build_dir())
        os.makedirs(base, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=base)
        cls.binary = os.path.join(cls.tmp, "fixture")
        subprocess.run(
            ["g++", "-O2", "-g", "-I", FIXTURE,
             os.path.join(FIXTURE, "src", "sim", "machine.cc"),
             os.path.join(FIXTURE, "main.cc"), "-o", cls.binary],
            check=True)
        cls.tick = symbol_address(cls.binary, "FixtureMachineTick")
        cls.inlined = symbol_address(cls.binary, "fixture_inlined_pc")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def chains(self, addresses):
        return layers.lookup_addresses(self.binary, set(addresses))

    def test_inlined_frame_is_charged_to_the_inlined_header(self):
        chain = self.chains([self.inlined])[self.inlined]
        self.assertGreaterEqual(len(chain), 2)
        self.assertTrue(chain[0].endswith("src/util/cpu_set.h"), chain)
        self.assertTrue(chain[1].endswith("src/sim/machine.cc"), chain)
        counts, runtime, unattributed = layers.attribute(
            [[self.inlined]], self.chains([self.inlined]), FIXTURE)
        self.assertEqual(counts, {"cpu_set": 1})
        self.assertEqual((runtime, unattributed), (0, 0))

    def test_libc_leaf_is_charged_to_its_caller(self):
        # Leaf outside the binary; the caller frame holds a return address
        # one byte into FixtureMachineTick.
        sample = [layers.OUTSIDE, self.tick + 1]
        chains = self.chains([self.tick])
        counts, runtime, unattributed = layers.attribute([sample], chains, FIXTURE)
        self.assertEqual(counts, {"machine": 1})
        self.assertEqual((runtime, unattributed), (1, 0))

    def test_sample_without_a_repository_frame_is_unattributed(self):
        counts, runtime, unattributed = layers.attribute(
            [[layers.OUTSIDE, layers.OUTSIDE]], {}, FIXTURE)
        self.assertEqual(sum(counts.values()), 0)
        self.assertEqual((runtime, unattributed), (1, 1))

    def test_sample_file_round_trip(self):
        path = os.path.join(self.tmp, "fixture.samples")
        with open(path, "w") as f:
            f.write("b%x\n" % self.inlined)
            f.write("x b%x\n" % (self.tick + 1))
        shares, total = layers.layer_shares(self.binary, [path], FIXTURE)
        self.assertEqual(total, 2)
        self.assertEqual(shares["cpu_set.self_share"], 0.5)
        self.assertEqual(shares["machine.self_share"], 0.5)
        self.assertEqual(shares["runtime.self_share"], 0.5)
        self.assertEqual(shares["trace.unattributed_share"], 0.0)


class MetricNameTest(unittest.TestCase):
    def test_validation(self):
        for good in ("wall_s", "p99_ms", "sim.events", "cpu_set.self_share", "a-b", "9x",
                     "x" * 64):
            self.assertTrue(run.valid_metric_name(good), good)
        for bad in ("", ".events", "_x", "sim events", "p99/ms", "x" * 65, "naïve",
                    "sim:events"):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "frac", "MB"):
            self.assertTrue(run.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17, "µs"):
            self.assertFalse(run.valid_unit(bad), bad)

    def test_report_rejects_an_invalid_name(self):
        with self.assertRaises(ValueError):
            run.result(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})

    def test_benchmark_json_matches_the_report(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(run.valid_metric_name(name), name)


class PercentileRuleTest(unittest.TestCase):
    def test_drops_count_as_beyond_every_limit(self):
        out = run.build_dir()
        if run.build() is None:
            self.fail("perfbench build failed")
        subprocess.run(["cmake", "--build", out, "--target", "perfbench_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        proc = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
