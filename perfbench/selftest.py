"""Quick self-test of the benchmark (a few seconds):

    python3 perfbench/selftest.py

Runs every workload's tiny variant untraced and traced, and checks that
  - the last output line holds exactly correct/attempted/failed/metrics, and
    every metric BENCHMARK.json names, with its unit and a numeric value;
  - in each traced invocation the layer self-times (plus the tracer's own
    counter work) sum to no more than the invocation's wall time;
  - without the fracdim source tree the benchmark exits non-zero and prints
    no result.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def last_json(cmd, cwd) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(name: str, result: dict, spec: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        errors.append(f"{name}: a tiny run failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{name}: metrics {sorted(set(got) ^ set(want))} "
                      "differ from BENCHMARK.json")
    for k, m in got.items():
        if m.get("unit") != want.get(k):
            errors.append(f"{name}: {k} has unit {m.get('unit')!r}, "
                          f"BENCHMARK.json says {want.get(k)!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: {k} = {m.get('value')!r} is not a number")
    return errors


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if set(WORKLOADS) != {w["name"] for w in bench["workloads"]}:
        print("FAIL: BENCHMARK.json workloads differ from workloads.py")
        return 1
    script = os.path.join(run.ROOT, "perfbench", "run.py")
    errors = []
    t0 = time.perf_counter()
    for name in WORKLOADS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = last_json([sys.executable, script, "--workload", name,
                                "--tiny", "--seconds", "0", "--seed", "1",
                                "--trace", str(trace)], run.ROOT)
            errors += check_result(f"{name} --trace {trace}", result, spec)
        recs = run.run_block(name + "-tiny", WORKLOADS[name].tiny_argv, None,
                             True, 0.0, random.Random(1),
                             time.perf_counter() + run.RUN_LIMIT_S)
        for rec in recs:
            if rec["traced"] and not rec["error"]:
                layers = sum(rec["self_s"].values()) + rec["hook_s"]
                if layers > rec["wall_s"]:
                    errors.append(f"{name}: layer self-times {layers:.4f} s "
                                  f"exceed wall {rec['wall_s']:.4f} s")

    # a directory holding only BENCHMARK.json and perfbench/ must be refused
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "converge-1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("without src/ the benchmark did not fail cleanly")

    for e in errors:
        print("FAIL:", e)
    print(f"selftest: {len(errors)} failures in "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
