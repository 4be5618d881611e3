"""fracdim benchmark: runs workloads, checks outputs, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each invocation of the CLI is a fresh child process (perfbench/child.py),
started one at a time from this process, so every run pays imports and
memory as a user does.  `--trace 0` runs untraced invocations back to back
for about S seconds and reports the end-to-end metrics; `--trace 1` runs
untraced/traced pairs (their order drawn from the seed) and reports the
per-layer metrics.  `--workload all` runs both phases of every workload, in
a seed-shuffled order, and prints every metric.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, parse_output  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SRC = os.path.join(ROOT, "src", "fracdim")
WORK = os.path.join(ROOT, ".perfbench")  # results, spans, cross-run state

# whole-run budget: every child is killed once this many seconds have passed
RUN_LIMIT_S = 170.0
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; not in os.sysconf_names

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "bracket_width": "1"}
PER_LAYER = {
    "process.import_s": "s", "process.cpu_s": "s",
    "constants.s": "s", "constants.calls": "count",
    "assembly.builds": "count", "assembly.build_s": "s",
    "assembly.N": "count", "assembly.nnz": "count",
    "assembly.operator_mb_computed": "MB",
    "assembly.rebuilds": "count", "assembly.rebuild_s": "s",
    "assembly.matvecs": "count", "assembly.matvec_s": "s",
    "assembly.W_apply_s": "s", "assembly.G_matvec_s": "s",
    "assembly.G_gbps_computed": "GB/s", "assembly.G_array_mb": "MB",
    "host.l3_mb": "MB",
    "spectral.power_calls": "count", "spectral.power_iters": "count",
    "spectral.iters_per_probe": "1", "spectral.power_self_s": "s",
    "spectral.unconverged": "count", "spectral.decided_iter_share": "1",
    "spectral.cone_s": "s", "spectral.bracket_s": "s",
    "solver.solves": "count", "solver.probe_calls": "count",
    "solver.probes": "count", "solver.probe_hit_share": "1",
    "trace.overhead_s": "s",
}
# counters that must repeat exactly between traced invocations of one commit
EXACT_COUNTS = ("builds", "N", "nnz", "rebuilds", "matvecs", "power_calls",
                "power_iters", "decided_iters", "unconverged", "probe_calls",
                "probes", "solves", "constants_calls")


def invoke(argv, traced: bool, deadline: float, tag: str) -> dict:
    """Run one CLI invocation in a child; wall time is from spawn to exit
    and peak RSS and CPU come from the child's own rusage."""
    result_path = os.path.join(WORK, f"child-{tag}.json")
    spans_path = os.path.join(WORK, f"spans-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, result_path, "1" if traced else "0"]
    cmd += [spans_path] if traced else []
    cmd += ["--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    reaped = False
    try:
        timeout = max(deadline - time.perf_counter(), 0.0)
        killed = not select.select([pidfd], [], [], timeout)[0]
        if killed:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"traced": traced, "wall_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "error": None}
    if killed:
        rec["error"] = "killed at the run's time limit"
    elif proc.returncode != 0:
        rec["error"] = f"child exited {proc.returncode}"
    else:
        with open(result_path) as fh:
            rec.update(json.load(fh))
        os.remove(result_path)
        if rec["exit_code"] != 0:
            rec["error"] = f"fracdim exited {rec['exit_code']}"
    return rec


def source_digest(argv) -> str:
    h = hashlib.sha256(json.dumps(list(argv)).encode())
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()


class Consistency:
    """Outputs and counts of one commit, kept in the checkout across runs,
    so that every run of that commit is compared with the first one."""

    def __init__(self, name: str, argv):
        self.path = os.path.join(WORK, f"state-{name}.json")
        self.digest = source_digest(argv)
        self.state = {"digest": self.digest}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                stored = json.load(fh)
            if stored.get("digest") == self.digest:
                self.state = stored

    def same(self, key: str, value) -> bool:
        if key not in self.state:
            self.state[key] = value
            with open(self.path, "w") as fh:
                json.dump(self.state, fh)
        return self.state[key] == value


def judge(rec: dict, argv, check, consistency: Consistency) -> None:
    """Set rec['error'] when the output is wrong or differs from the
    commit's other runs; keep the parsed output in rec['out']."""
    if rec["error"]:
        return
    try:
        out = parse_output(argv, rec["stdout"])
    except (ValueError, KeyError, IndexError) as exc:
        rec["error"] = f"unparseable output: {exc!r}"
        return
    rec["out"] = out
    bits = {k: [float(x).hex() for x in (v if isinstance(v, list) else [v])]
            for k, v in out.items() if k != "width"}
    if check is not None:
        rec["error"] = check(out)
    if not rec["error"] and not consistency.same("outputs", bits):
        rec["error"] = "output differs from an earlier run of this commit"
    if not rec["error"] and rec["traced"]:
        counts = {k: rec["counts"][k] for k in EXACT_COUNTS}
        if not consistency.same("counts", counts):
            rec["error"] = f"counts differ from an earlier run: {counts}"


def run_block(name: str, argv, check, traced_phase: bool, seconds: float,
              rng: random.Random, deadline: float) -> list[dict]:
    """Invocations back to back until the next one would end past
    `seconds`; at least one (one untraced/traced pair when traced)."""
    consistency = Consistency(name, argv)
    recs: list[dict] = []
    t_start = time.perf_counter()
    while True:
        order = [False, True] if traced_phase else [False]
        rng.shuffle(order)
        t_unit = time.perf_counter()
        for traced in order:
            rec = invoke(argv, traced, deadline, f"{name}-{len(recs)}")
            judge(rec, argv, check, consistency)
            if rec["error"]:
                print(f"# {name}: FAILED: {rec['error']}",
                      file=sys.stderr)
            recs.append(rec)
        now = time.perf_counter()
        unit = now - t_unit
        if now - t_start + unit > seconds or now + unit > deadline:
            return recs


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(recs: list[dict]) -> dict:
    ok = [r for r in recs if not r["error"] and not r["traced"]]
    return {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "bracket_width": ok[0]["out"]["width"] if ok else None,
    }


def per_layer(recs: list[dict]) -> dict:
    plain = [r for r in recs if not r["error"] and not r["traced"]]
    traced = [r for r in recs if not r["error"] and r["traced"]]
    if not traced:
        return {}

    def med(fn):
        return _median([fn(r) for r in traced])

    def self_s(name):
        return lambda r: r["self_s"].get(name, 0.0)

    def total_s(name):
        return lambda r: r["total_s"].get(name, 0.0)

    c = traced[0]["counts"]
    g_s = med(self_s("assembly.matvec"))
    try:
        l3 = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        l3 = 0
    return {
        "process.import_s": _median([r["import_s"] for r in plain]),
        "process.cpu_s": _median([r["cpu_s"] for r in plain]),
        "constants.s": med(total_s("constants")),
        "constants.calls": c["constants_calls"],
        "assembly.builds": c["builds"],
        "assembly.build_s": med(total_s("assembly.build")),
        "assembly.N": c["N"],
        "assembly.nnz": c["nnz"],
        "assembly.operator_mb_computed": c["operator_bytes"] / 1e6,
        "assembly.rebuilds": c["rebuilds"],
        "assembly.rebuild_s": med(total_s("assembly.rebuild")),
        "assembly.matvecs": c["matvecs"],
        "assembly.matvec_s": med(total_s("assembly.matvec")),
        "assembly.W_apply_s": med(total_s("assembly.W_apply")),
        "assembly.G_matvec_s": g_s,
        "assembly.G_gbps_computed": (c["G_bytes_moved"] / g_s / 1e9
                                     if g_s else 0.0),
        "assembly.G_array_mb": c["G_bytes_max"] / 1e6,
        "host.l3_mb": l3 / 1e6 if l3 > 0 else 0.0,
        "spectral.power_calls": c["power_calls"],
        "spectral.power_iters": c["power_iters"],
        "spectral.iters_per_probe": (c["power_iters"] / c["power_calls"]
                                     if c["power_calls"] else 0.0),
        "spectral.power_self_s": med(self_s("spectral.power")),
        "spectral.unconverged": c["unconverged"],
        "spectral.decided_iter_share": (c["decided_iters"] / c["power_iters"]
                                        if c["power_iters"] else 0.0),
        "spectral.cone_s": med(total_s("spectral.cone")),
        "spectral.bracket_s": med(self_s("spectral.bracket")),
        "solver.solves": c["solves"],
        "solver.probe_calls": c["probe_calls"],
        "solver.probes": c["probes"],
        "solver.probe_hit_share": ((c["probe_calls"] - c["probes"])
                                   / c["probe_calls"] if c["probe_calls"]
                                   else 0.0),
        "trace.overhead_s": (med(lambda r: r["wall_s"])
                             - _median([r["wall_s"] for r in plain])
                             if plain else None),
    }


def metric_block(values: dict, units: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": values.get(k), "unit": u}
            for k, u in units.items()}


def report(title: str, recs: list[dict], metrics: dict) -> None:
    n_plain = sum(not r["traced"] for r in recs)
    print(f"## {title}: {len(recs)} invocations ({n_plain} untraced), "
          f"{sum(bool(r['error']) for r in recs)} failed; values are "
          "medians over invocations")
    for i, r in enumerate(recs):
        print(f"#   {i}: {'traced  ' if r['traced'] else 'untraced'} "
              f"wall {r['wall_s']:.3f} s  cpu {r['cpu_s']:.3f} s  "
              f"rss {r['peak_rss_mb']:.1f} MB  {r['error'] or 'ok'}")
    for name, m in metrics.items():
        v = m["value"]
        text = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"{name:<40} {text:>14} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run each workload's tiny variant (self-test only; "
                         "no correctness reference)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        print(f"error: no fracdim source tree under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)

    rng = random.Random(args.seed)
    if args.workload == "all":
        blocks = [(n, t) for n in WORKLOADS for t in (False, True)]
        rng.shuffle(blocks)
    else:
        blocks = [(args.workload, bool(args.trace))]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(blocks)
    prefix = "{}/" if args.workload == "all" else ""
    metrics: dict = {}
    attempted = failed = 0
    for name, traced_phase in blocks:
        w = WORKLOADS[name]
        if args.tiny:
            recs = run_block(name + "-tiny", w.tiny_argv, None, traced_phase,
                             args.seconds, rng, deadline)
        else:
            recs = run_block(name, w.argv, w.check, traced_phase,
                             args.seconds, rng, deadline)
        attempted += len(recs)
        failed += sum(bool(r["error"]) for r in recs)
        block = (metric_block(per_layer(recs), PER_LAYER, prefix.format(name))
                 if traced_phase else
                 metric_block(end_to_end(recs), END_TO_END,
                              prefix.format(name)))
        report(f"{name} {'traced' if traced_phase else 'untraced'}", recs,
               block)
        metrics.update(block)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
