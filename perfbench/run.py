#!/usr/bin/env python3
"""Builds and runs the GradGCL repository benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload train_graph --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (and with it the
libraries under src/) into .bench_build/; later runs only rebuild what
changed. The benchmark binary's output is passed through unchanged: a
host record, the correctness gates, one `metric <name> <value> <unit>`
line per metric and, last, a one-line JSON result. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.

Check the benchmark itself:

    python3 perfbench/run.py --smoke

runs every workload of BENCHMARK.json once per mode and checks that each
metric BENCHMARK.json names is emitted with its unit, that every
correctness gate fires when a mismatch is injected on purpose, that a
GRADGCL_* variable in the environment is refused, and that
perfbench/layers.json covers every per-layer metric.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# Gates the smoke test breaks on purpose, and a workload that runs each.
INJECTED_GATES = [
    ("train_graph", 0, "rounds_equal"),
    ("train_graph", 0, "loss_finite"),
    ("train_graph", 1, "loop_bitwise"),
    ("train_dp4", 0, "rank_equal"),
    ("serve_query", 0, "serve_equal"),
    ("serve_query", 0, "recall_floor"),
]


def build():
    """Configures and builds the benchmark; False (log on stderr) on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return False
    return True


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_binary(workload, seed, seconds, trace, inject=None, env=None,
               capture=False):
    """Runs one benchmark pass; returns (exit code, stdout or None)."""
    work_dir = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work_dir, "--commit", commit_id()]
    if inject:
        args += ["--inject", inject]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, proc.stdout if capture else None


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    workloads = [w["name"] for w in bench["workloads"]]
    tables = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for name in workloads:
        for trace, table in tables.items():
            code, out = run_binary(name, 1, 1, trace, capture=True)
            result = last_json(out)
            where = "%s --trace %d" % (name, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, result %r" % (where, code, result))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: not correct" % where)
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in table}
            if set(metrics) != set(expected):
                problems.append("%s: metrics %s != BENCHMARK.json %s" %
                                (where, sorted(metrics), sorted(expected)))
            for metric, unit in expected.items():
                got = metrics.get(metric, {})
                if got.get("unit") != unit:
                    problems.append("%s: %s unit %r != %r" %
                                    (where, metric, got.get("unit"), unit))
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s value %r" % (where, metric, value))
                elif trace == 0 and value == 0:
                    problems.append("%s: end-to-end %s is 0" % (where, metric))
            print("smoke: %-32s ok" % where, flush=True)

    for name, trace, gate in INJECTED_GATES:
        code, out = run_binary(name, 1, 1, trace, inject=gate, capture=True)
        result = last_json(out)
        fired = ("gate %-14s FAIL" % gate) in (out or "")
        if code != 1 or result is None or result.get("correct") is not False \
                or not fired:
            problems.append("injected %s on %s: exit %d, gate fired %s" %
                            (gate, name, code, fired))
        else:
            print("smoke: injected %-14s fails the run" % gate, flush=True)

    env = dict(os.environ, GRADGCL_NUM_THREADS="1")
    code, out = run_binary(workloads[0], 1, 1, 0, env=env, capture=True)
    if code != 2 or last_json(out) is not None:
        problems.append("GRADGCL_NUM_THREADS was not refused (exit %d)" % code)
    else:
        print("smoke: GRADGCL_* environment refused", flush=True)

    per_layer = {m["name"] for m in bench["per_layer"]}
    documented = set(layers["per_layer"])
    if per_layer != documented:
        problems.append("layers.json metrics differ from BENCHMARK.json: %s" %
                        sorted(per_layer ^ documented))
    for metric, entry in layers["per_layer"].items():
        for key in ("moves", "on", "not_on"):
            if key not in entry:
                problems.append("layers.json %s lacks %r" % (metric, key))
        for w in entry.get("on", []) + entry.get("not_on", []):
            if w not in workloads:
                problems.append("layers.json %s names workload %r" % (metric, w))

    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, _ = run_binary(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
