#!/usr/bin/env python3
"""End-to-end benchmark of the ElasticFlow reproduction.

Builds the e2e_bench program (and the repo's libraries under src/) in
Release mode, runs one workload and forwards its output; the last
stdout line is the result object {correct, attempted, failed, metrics}.

    python3 e2ebench/run.py --workload fig08|large|service|churn \\
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run it from the root of a checkout. Build products, journals and span
files stay under .bench_build/ there. --selftest runs every workload at
a tiny size, traced and untraced, and checks the emitted metrics
against BENCHMARK.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_build", "e2ebench-out")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("fig08", "large", "service", "churn")
TIMING_UNITS = ("s", "ms", "us")


def build():
    """Configure and build e2e_bench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no src/ next to the benchmark; run it from the "
              "root of a full checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "e2e_bench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


# Mounts a private tmpfs on $0 inside a user+mount namespace, then runs
# e2e_bench there; the mount disappears with the namespace.
TMPFS_WRAPPER = ["unshare", "-Urm", "sh", "-c",
                 'mount -t tmpfs -o size=1g tmpfs "$0" && exec "$@"']


def tmpfs_prefix(journal):
    """Command prefix that puts @journal on tmpfs, or [] if impossible.

    fsync on a shared disk adds wall time that measures the disk, not
    the program. The journal stays inside the checkout either way.
    """
    probe = TMPFS_WRAPPER + [journal, "true"]
    try:
        ok = subprocess.run(probe, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    return TMPFS_WRAPPER + [journal] if ok else []


def run_bench(args):
    """Run e2e_bench; returns (exit code, stdout lines)."""
    journal = os.path.join(OUT, "journal")
    os.makedirs(journal, exist_ok=True)
    cmd = tmpfs_prefix(journal) + [BINARY] + args + ["--journal", journal]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def selftest():
    """Tiny runs of every workload; returns a list of problems."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    declared = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    if set(layers) != layer_names:
        problems.append("layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(layers) ^ layer_names)}")
    workload_names = {w["name"] for w in spec["workloads"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layers.items():
        # moves is null only for the tracing's own cost.
        moves = (entry["moves"] or "/").split("/")
        if (entry["moves"] is not None and (
                len(moves) != 2 or moves[0] not in workload_names
                or moves[1] not in e2e_names)) \
                or entry["flat"] not in workload_names:
            problems.append(f"layers.json {name}: bad moves/flat")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            tag = f"{workload} --trace {trace}"
            code, lines = run_bench(
                ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--out", OUT, "--tiny"])
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[trace]}
            if set(got) != set(want):
                problems.append(f"{tag}: metrics differ from BENCHMARK."
                                f"json: {sorted(set(got) ^ set(want))}")
            timings = {}
            for name, m in got.items():
                value = m["value"]
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{tag}: {name} is not finite")
                if name in want and m["unit"] != want[name]:
                    problems.append(f"{tag}: {name} unit {m['unit']}, "
                                    f"declared {want[name]}")
                if m["unit"] in TIMING_UNITS and value != 0:
                    timings.setdefault(value, []).append(name)
            for names in timings.values():
                if len(names) > 1:
                    problems.append(f"{tag}: timings alias: {names}")
            if trace == "1" and got["sched.allocate_calls"]["value"] > 0:
                parts = sum(got[n]["value"] for n in (
                    "sched.admit_s", "sched.allocate_s", "sim.self_s",
                    "bench.probe_s"))
                traced = got["bench.traced_run_s"]["value"]
                if got["sim.self_s"]["value"] <= 0 or \
                        abs(parts - traced) > 1e-6 * traced:
                    problems.append(f"{tag}: layers do not account for "
                                    f"the traced run ({parts} vs {traced})")
            if trace == "0":
                for m in spec["end_to_end"]:
                    if got.get(m["name"], {}).get("value", 0) <= 0:
                        problems.append(f"{tag}: {m['name']} is not > 0")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        problems = selftest()
        for problem in problems:
            print("selftest:", problem, file=sys.stderr)
        print("selftest:", "FAIL" if problems else "ok")
        return 1 if problems else 0
    code, lines = run_bench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", OUT])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
