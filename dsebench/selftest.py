#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 dsebench/selftest.py

For every workload in BENCHMARK.json it runs one tiny pass (the seeded
instances only) untraced and traced, and checks that the result line names
exactly the declared end-to-end / per-layer metrics, each with its declared
unit, and that the run is correct.  It then corrupts one reference front
per workload and checks that the gate trips: the run must exit nonzero and
report correct = false.  Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result = run(name, trace)
            where = f"{name} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no JSON result line (exit {code})")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if code != 0 or result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: exit {code}, correct={result.get('correct')}, "
                                f"failed={result.get('failed')}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, "
                                f"wrong unit {wrong}")
            for k, v in result.get("metrics", {}).items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{where}: {k} has no numeric value")
            print(f"{where}: exit {code}, {len(got)} metrics", flush=True)
        code, result = run(name, 0, "--corrupt-reference")
        tripped = code != 0 and result is not None and result["correct"] is False \
            and result["failed"] > 0
        print(f"{name}: corrupted reference {'trips' if tripped else 'DOES NOT trip'} the gate",
              flush=True)
        if not tripped:
            problems.append(f"{name}: corrupted reference front went unnoticed")
    for p in problems:
        print("FAIL:", p)
    print("self-test", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
