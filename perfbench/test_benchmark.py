#!/usr/bin/env python3
"""Self-tests of the benchmark's Python side and of BENCHMARK.json.

Run through `python3 perfbench/run.py --self-test`, which builds the
benchmark first and passes its build directory in PERFBENCH_BUILD_DIR.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def result_for(names, unit="ms"):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": unit} for n in names}}


class SpecShape(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(sorted(SPEC), sorted(["command", "paths", "run_seconds", "workloads",
                                               "end_to_end", "per_layer"]))
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], ["ingest", "serve", "window"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for n in names:
            self.assertRegex(n, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class PrintedNamesAreInSpec(unittest.TestCase):
    def test_binary_catalogue_matches_spec(self):
        bdir = os.environ.get("PERFBENCH_BUILD_DIR")
        if not bdir:
            self.skipTest("PERFBENCH_BUILD_DIR not set (run through run.py --self-test)")
        out = subprocess.run([os.path.join(bdir, "perfbench"), "--list-metrics"],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        listed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit, better = line.split()
            listed[kind].append({"name": name, "unit": unit, "better": better})
        for kind in listed:
            spec = [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC[kind]]
            self.assertEqual(listed[kind], spec, kind)

    def test_stray_printed_name_is_rejected(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        res = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {n: {"value": 2.0, "unit": units[n]} for n in e2e}}
        self.assertEqual(run.validate([], res, SPEC, False), [])
        lines = ["metric not.in.spec = 1.0 ms"]
        self.assertTrue(any("not.in.spec" in p for p in run.validate(lines, res, SPEC, False)))

    def test_unit_mismatch_is_rejected(self):
        name = SPEC["end_to_end"][0]["name"]
        lines = ["metric %s = 1.0 furlongs" % name]
        res = result_for([m["name"] for m in SPEC["end_to_end"]])
        self.assertTrue(any("furlongs" in p for p in run.validate(lines, res, SPEC, False)))

    def test_missing_or_extra_result_metric_is_rejected(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        self.assertTrue(run.validate([], result_for(names[1:]), SPEC, True))
        self.assertTrue(run.validate([], result_for(names + ["extra"]), SPEC, True))

    def test_log_line_parser(self):
        lines = ["metric a.b = 1.25 ms  # n=3", "traced c = 2 count", "split x", "metric bad"]
        self.assertEqual(run.parse_metric_lines(lines), [("a.b", "ms"), ("c", "count")])


if __name__ == "__main__":
    unittest.main(verbosity=2)
