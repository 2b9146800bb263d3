#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload,
check its result against BENCHMARK.json and print the result line.

Run from the repository root:

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare A.json B.json

The build goes to .bench_build/perfbench, each result set (metrics plus
the environment it ran in) to .bench_build/results/, and the traced
run's spans to .bench_build/spans/. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when the build fails, a correctness check fails or the
result does not match BENCHMARK.json. --compare refuses two result sets
that ran on different crypto backends.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORKLOADS = ("paper_grid", "datapath_h3", "kv_zipf")
# Seed used while the benchmark was written, and one kept back so later
# claims can be re-checked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_result(result, spec, traced):
    """Exact result keys; metric names and units exactly as declared."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s extra %s " \
               "unit %s" % (missing, extra, wrong)
    return None


def parse_env(line):
    return dict(kv.split("=", 1) for kv in line.split()[1:])


def run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    spec = load_spec()
    binary = build()
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, "spans", tag + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("perfbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    env = next((parse_env(l) for l in lines if l.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object")
    problem = check_result(result, spec, args.trace)
    if problem:
        fail(problem)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        sys.exit(1)


def compare(path_a, path_b):
    sets = []
    for path in (path_a, path_b):
        try:
            with open(path) as f:
                sets.append(json.load(f))
        except (OSError, ValueError) as e:
            fail("cannot read %s: %s" % (path, e))
    a, b = sets
    for key in ("crypto_backend", "workload", "trace"):
        if a["env"].get(key) != b["env"].get(key):
            fail("incomparable result sets: %s %r vs %r" % (
                key, a["env"].get(key), b["env"].get(key)))
    for name, m in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            print("%-34s only in %s" % (name, path_a))
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print("%-34s %16.6g %16.6g  x%.4f %s" % (
            name, m["value"], other["value"], ratio, m["unit"]))


def main():
    p = argparse.ArgumentParser(
        description="Build perfbench, run one workload and print its "
        "result line.")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default %d; %d is held out for "
                   "re-checking claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload is None:
        fail("--workload is required")
    elif not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    elif args.seed < 0:
        fail("--seed must be >= 0")
    else:
        run(args)


if __name__ == "__main__":
    main()
