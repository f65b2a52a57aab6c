#!/usr/bin/env python3
"""Smoke test of the benchmark: one workload, one mode, one seed.

    smoke.py <perfbench binary> <BENCHMARK.json> <workload> <trace 0|1> <seed>

Runs the workload at short horizons (--smoke) and checks that the
correctness gate passed (exit code 0, "correct": true, no failed runs) and
that the result line carries exactly the metrics BENCHMARK.json lists for the
mode, each with its declared unit.
"""

import json
import subprocess
import sys


def main():
    binary, contract_path, workload, trace, seed = sys.argv[1:6]
    with open(contract_path) as f:
        contract = json.load(f)
    declared = contract["per_layer" if trace == "1" else "end_to_end"]
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", seed, "--seconds", "1",
         "--trace", trace, "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    sys.stdout.write(proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"gate: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
    if trace == "0":
        zero = [name for name, m in metrics.items() if m["value"] == 0]
        if zero:
            problems.append(f"end-to-end metrics read 0: {zero}")
    for p in problems:
        print(f"SMOKE FAIL {workload} trace={trace} seed={seed}: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
