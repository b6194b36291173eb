#!/usr/bin/env python3
"""Build and run the Ursa pipeline benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --self-test

The first form builds the `pipebench` binary from the checkout's own
sources (into .bench_build/pipebench; later runs rebuild incrementally),
runs one workload and passes its output through. The last line of
standard output is the JSON result: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics. Spans of a traced run go
to .bench_out/. Exit status is 0 when every correctness check passed, 1
when one failed (the result still says so), 2 when nothing could be
measured.

The self-test runs each workload of BENCHMARK.json at a tiny size, traced
and untraced, and fails unless every declared metric is printed with its
unit and the self-time table is written; it also fails unless a
deliberately wrong expected event count trips the correctness check.
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
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def exec_threads():
    """URSA_THREADS for the binary: the caller's value, at most nproc."""
    nproc = os.cpu_count() or 1
    try:
        wanted = int(os.environ.get("URSA_THREADS", ""))
    except ValueError:
        wanted = 4
    return max(1, min(wanted, nproc))


def source_id():
    """Git commit when there is one, plus a digest of the built sources."""
    h = hashlib.sha256()
    for top in ("src", "pipebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    sid = "src-sha256:" + h.hexdigest()[:16]
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            sid = "git:" + rev.stdout.strip() + " " + sid
    return sid


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no Ursa sources under {ROOT}/src; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return os.access(BINARY, os.X_OK)


def run_binary(args, sid):
    """Run the binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, URSA_THREADS=str(exec_threads()))
    cmd = [BINARY, "--out", OUT, "--source-id", sid] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("pipebench timed out")
        return 2, []
    return p.returncode, p.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def missing_metrics(res, specs):
    """Declared metrics absent from the result or printed with another unit."""
    got = res["metrics"]
    return [s["name"] for s in specs
            if s["name"] not in got or got[s["name"]].get("unit") != s["unit"]]


def self_test():
    if not build():
        return 2
    bench = declared()
    sid = source_id()
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_binary(["--workload", name, "--seed", "1",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--tiny"], sid)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                failures.append(f"{name} trace {trace}: exit {code}, "
                                f"result {lines[-1] if lines else None}")
                continue
            lost = missing_metrics(res, bench[kind])
            if lost:
                failures.append(f"{name} trace {trace}: missing {lost}")
            if trace and not any(l.startswith("# per-layer self time")
                                 for l in lines):
                failures.append(f"{name}: no self-time table")
            if trace and not os.path.isfile(
                    os.path.join(OUT, f"trace_{name}_1.json")):
                failures.append(f"{name}: no span file")
            log(f"{name} trace {trace}: ok")
    # A wrong expected count must fail the run, not pass silently.
    name = bench["workloads"][0]["name"]
    code, lines = run_binary(["--workload", name, "--seed", "1", "--seconds",
                              "1", "--trace", "0", "--tiny",
                              "--corrupt-count"], sid)
    res = parse_result(lines)
    if code != 1 or res is None or res["correct"] or \
            res["failed"] != res["attempted"]:
        failures.append(f"{name}: a wrong expected count was not caught "
                        f"(exit {code})")
    else:
        log(f"{name}: wrong expected count caught")
    for f in failures:
        log("FAIL " + f)
    log("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    if not build():
        return 2
    code, lines = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds), "--trace",
                              str(a.trace)], source_id())
    res = parse_result(lines)
    if code not in (0, 1) or res is None:
        log(f"pipebench failed (exit {code}) without a result")
        for line in lines:
            print(line, file=sys.stderr)
        return 2
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
