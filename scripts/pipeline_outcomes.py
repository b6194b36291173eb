#!/usr/bin/env python3
"""Check that the pipeline benchmark's deterministic outcomes are unchanged.

    python3 scripts/pipeline_outcomes.py [--binary PATH] [--reference PATH]
    python3 scripts/pipeline_outcomes.py --update-reference

Runs the already-built pipebench binary (`python3 pipebench/run.py
--self-test` builds it) once per workload of BENCHMARK.json at its tiny
size, traced, at seed 2024, and compares the outcomes a pure speed change
must not move against a checked-in reference: event, request, sample,
level and step counts, allocated cores, SLA and request-miss rates, and
each baseline's cores and violations. Values are compared exactly. The
benchmark's own self-test only checks that counts repeat within one run;
this check catches a change that moves them consistently.

Exit status: 0 when every outcome matches, 1 when one differs or a run
fails its own correctness check, 2 when the binary cannot be run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2024

# Deterministic per-layer outcomes; wall-clock metrics are left out.
OUTCOMES = (
    "sim.events",
    "sim.requests",
    "workload.submitted",
    "core.explorer.samples",
    "core.explorer.levels",
    "core.bp_profiler.steps",
    "baselines.sinan.samples",
    "baselines.sinan.events",
    "baselines.firm.steps",
    "baselines.firm.events",
    "cpu_cores",
    "sla_violation_pct",
    "req_miss_pct",
    "baselines.sinan.cpu_cores",
    "baselines.sinan.violation_pct",
    "baselines.firm.cpu_cores",
    "baselines.firm.violation_pct",
    "baselines.auto-b.cpu_cores",
    "baselines.auto-b.violation_pct",
)


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def outcomes(binary, workload):
    """Run one tiny traced workload; returns (error, {metric: value})."""
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1", "--tiny",
           "--out", os.path.join(ROOT, ".bench_out")]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = p.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"exit {p.returncode}, no result", {}
    if p.returncode != 0 or not res["correct"] or res["failed"]:
        return (f"exit {p.returncode}, correct {res['correct']}, "
                f"failed {res['failed']}"), {}
    got = res["metrics"]
    return None, {k: got[k]["value"] for k in OUTCOMES if k in got}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary", default=os.path.join(
        ROOT, ".bench_build", "pipebench", "pipebench"))
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "pipeline_outcomes.json"))
    ap.add_argument("--update-reference", action="store_true")
    a = ap.parse_args()
    if not os.access(a.binary, os.X_OK):
        print(f"no pipebench binary at {a.binary}; build it with "
              "`python3 pipebench/run.py --self-test`", file=sys.stderr)
        return 2

    measured, failures = {}, []
    for w in workloads():
        err, got = outcomes(a.binary, w)
        if err:
            failures.append(f"{w}: {err}")
        measured[w] = got

    if a.update_reference:
        if failures:
            for f in failures:
                print("FAIL " + f, file=sys.stderr)
            return 1
        with open(a.reference, "w") as f:
            json.dump({"seed": SEED, "tiny": True, "outcomes": measured}, f,
                      indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {a.reference}")
        return 0

    with open(a.reference) as f:
        reference = json.load(f)["outcomes"]
    for w, want in sorted(reference.items()):
        got = measured.get(w, {})
        for k in sorted(set(want) | set(got)):
            if got.get(k) != want.get(k):
                failures.append(f"{w}: {k} = {got.get(k)!r}, "
                                f"reference {want.get(k)!r}")
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    n = sum(len(v) for v in reference.values())
    print(f"pipeline outcomes: {n} values over {len(reference)} workloads, "
          + ("all match" if not failures else f"{len(failures)} differ"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
