#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program it measures).

Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke mode: every workload in BENCHMARK.json runs for a short timed
   phase, untraced and traced; each run must pass verification and emit
   exactly the BENCHMARK.json metrics (end_to_end untraced, per_layer
   traced) with their units, and a traced run must write a Chrome trace.
2. A deliberately corrupted reference digest must be reported as a failure:
   `correct` false, `failed` >= 1 and a non-zero exit status.
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the command must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SECONDS = "2"


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def check(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc, result = run(["--workload", workload, "--seed", "7",
                                "--seconds", SMOKE_SECONDS, "--trace", trace])
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0 and result is not None
                  and result.get("correct") is True
                  and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  f"{tag}: runs and verifies (rc={proc.returncode})", failures)
            if result is None:
                print(proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four result keys", failures)
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{tag}: every BENCHMARK.json metric with its unit", failures)
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  f"{tag}: every value is a number", failures)
            if trace == "1":
                path = os.path.join(ROOT, ".bench_out",
                                    f"trace-{workload}.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                check(any(e.get("name") == "client.window" for e in events)
                      and any(e.get("name") == "sketch_service.HandleFrames"
                              for e in events),
                      f"{tag}: Chrome trace with client and replay spans",
                      failures)

    first = spec["workloads"][0]["name"]
    proc, result = run(["--workload", first, "--seconds", "1",
                        "--corrupt-reference"])
    check(proc.returncode != 0 and result is not None
          and result["correct"] is False and result["failed"] >= 1,
          "corrupted reference digest is reported as a failure", failures)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", first, "--seconds", "1"], cwd=bare)
    check(proc.returncode != 0 and result is None,
          "fails without a result outside a full checkout", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
