#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ingest|serve|window --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the library and
the benchmark from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
The benchmark process runs with the fork-join pool pinned to
POOL_THREADS workers. Its log lines are passed through; the last line
of standard output is one JSON object with "correct", "attempted",
"failed" and "metrics" -- the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Every metric name the
benchmark prints must appear in BENCHMARK.json, and its unit must match.

Exit status: 0 ok; 1 an answer disagreed with the oracle; 2 build,
usage or validation error; 3 the run could not sustain its offered
rate (invalid, no result printed).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_THREADS = 2
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configure (once) and build; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "sld_service.hpp")):
        raise RuntimeError("library sources not found at %s/src" % ROOT)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return bdir


def parse_metric_lines(lines):
    """(name, unit) of every 'metric'/'traced' log line."""
    out = []
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] in ("metric", "traced") and parts[2] == "=":
            out.append((parts[1], parts[4]))
    return out


def validate(lines, result, spec, trace):
    """Problems with one run's output against BENCHMARK.json (empty = ok)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    for name, unit in parse_metric_lines(lines):
        if name not in units:
            problems.append("printed metric %s is not in BENCHMARK.json" % name)
        elif units[name] != unit:
            problems.append("metric %s printed in %s, BENCHMARK.json says %s"
                            % (name, unit, units[name]))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        problems.append("result metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(m["name"] for m in want) - set(got)),
                           sorted(set(got) - set(m["name"] for m in want))))
    for m in want:
        v = got.get(m["name"])
        if v is not None and (v.get("unit") != m["unit"] or
                              not isinstance(v.get("value"), (int, float))):
            problems.append("metric %s has value %r" % (m["name"], v))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and
            isinstance(result["failed"], int) and isinstance(result["correct"], bool)):
        problems.append("bad correct/attempted/failed: %r" % (result,))
    return problems


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    bdir = build()
    env = dict(os.environ, DYNSLD_NUM_THREADS=str(POOL_THREADS))
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(bdir, "out")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines))
        log("benchmark exited with status %d" % proc.returncode)
        return proc.returncode if proc.returncode in (2, 3) else 2
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    problems = validate(lines[:-1], result, spec, args.trace == 1)
    if problems:
        for p in problems:
            log(p)
        return 2
    print(json.dumps(result), flush=True)
    return proc.returncode


def self_test():
    """Self-tests of the benchmark's own logic (C++ and this file)."""
    bdir = build()
    ok = subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode == 0
    env = dict(os.environ, PERFBENCH_BUILD_DIR=bdir)
    ok &= subprocess.run([sys.executable, os.path.join(HERE, "test_benchmark.py")],
                         env=env).returncode == 0
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        return run(args)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
