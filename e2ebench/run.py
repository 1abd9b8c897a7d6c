#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

The first form builds the repository's libraries and the benchmark in
Release (CMake, under .bench_build/e2ebench), runs the workload, and passes
its output through: the last line of standard output is the result JSON.
Build output goes to .bench_build/e2ebench/build.log, and to standard error
when the build fails.

--self-test runs the output checks' own tests, then a small smoke run of
every workload, untraced and traced, and checks that each prints every
metric BENCHMARK.json names with correct=true.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
CHECKS_TEST = os.path.join(BUILD, "e2ebench_checks_test")
WORKLOADS = ["bulk-id-18k", "trickle-id-18k", "transformer-2k"]
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "e2ebench",
         "e2ebench_checks_test"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                sys.stderr.write("error: build step failed: %s\n" %
                                 " ".join(step))
                return False
    return True


def binary_key():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, smoke=False,
                 capture=False):
    """Run the benchmark binary once; returns (exit code, stdout text)."""
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (workload, seed,
                                                        os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--run-dir", run_dir,
           "--state-dir", os.path.join(BUILD, "counts"),
           "--state-key", binary_key()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("error: %s did not finish in %d s\n" %
                         (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        traces = os.path.join(BUILD, "traces")
        for name in os.listdir(run_dir):
            if name.startswith("trace-"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(run_dir, name),
                            os.path.join(traces, name))
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, (out or b"").decode()


def self_test():
    ok = True
    scratch = os.path.join(BUILD, "checks-test")
    code = subprocess.run([CHECKS_TEST, scratch]).returncode
    print("checks test: %s" % ("PASS" if code == 0 else "FAIL"))
    ok = ok and code == 0

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    for workload in WORKLOADS:
        for trace in (False, True):
            code, out = run_workload(workload, 7, 1, trace, smoke=True,
                                     capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            names = list(result.get("metrics", {}))
            good = (code == 0 and result.get("correct") is True and
                    result.get("failed") == 0 and
                    result.get("attempted", 0) >= 1 and
                    sorted(names) == sorted(expected[trace]))
            print("smoke %s trace=%d: %s" % (workload, trace,
                                             "PASS" if good else "FAIL"))
            if not good:
                print("  exit %d, metrics %s" % (code, names))
            ok = ok and good
    print("self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every check, seconds to run")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    code, _ = run_workload(args.workload, args.seed, args.seconds,
                           args.trace == 1, smoke=args.smoke)
    return code


if __name__ == "__main__":
    sys.exit(main())
