#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

trace_65k is a diagnostic workload, run by hand; BENCHMARK.json declares
the other two.

Run from the repository root. Builds the library, manetd and the perfbench
binary from source into $CARGO_TARGET_DIR (default .bench_build), then runs
one workload. The binary's last stdout line is the result JSON. Exits nonzero
when the build fails, a correctness gate fails, or the tree has no sources.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_figs", "trace_65k", "campaign_query")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench + manetd; returns their paths."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: no CMakeLists.txt / src here to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ".", "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")])
        steps.append(["cmake", "--build", out, "--target", "perfbench", "manetd",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(out, "perfbench"), os.path.join(out, "tools", "manetd", "manetd"))


def run(binary, manetd, workload, seed, seconds, trace, extra=(), capture=False):
    """Runs one workload in its own process group, killed on timeout."""
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--manetd", manetd,
               "--work-dir", os.path.join(build_dir(), "perfbench-work"), *extra]
    process = subprocess.Popen(command, start_new_session=True,
                               stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail("workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return process.returncode, (stdout.decode() if capture else "")


def self_test(binary, manetd):
    """Smoke size of every workload BENCHMARK.json declares, untraced and
    traced: every declared metric present with its unit, no failed
    operation, and the traced run's output digests equal to the untraced
    run's."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        failures = len(problems)
        digests = {}
        for trace in (0, 1):
            code, out = run(binary, manetd, workload, 7, 1, trace, ["--smoke"], capture=True)
            lines = out.strip().splitlines()
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: error_rate is not 0" % where)
            for name, unit in wanted[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append("%s: metric %s missing or not in %s" % (where, name, unit))
            extra = set(result["metrics"]) - set(wanted[trace])
            if extra:
                problems.append("%s: undeclared metrics %s" % (where, sorted(extra)))
            digests[trace] = [l for l in lines if l.startswith("digest ")]
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("%s: traced digests %s differ from untraced %s"
                            % (workload, digests[1], digests[0]))
        print("self-test %s: %s" % (workload, "ok" if len(problems) == failures else "FAILED"))
    for problem in problems:
        print("  " + problem)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at smoke size and check its output")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary, manetd = build()
    if args.self_test:
        return self_test(binary, manetd)
    code, _ = run(binary, manetd, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
