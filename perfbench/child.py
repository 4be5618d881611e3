"""One benchmark invocation in a fresh process: import fracdim from the
checkout, run `fracdim.cli.run(argv)` and write a result file.

    python3 perfbench/child.py RESULT.json 0 -- CLI ARGS...
    python3 perfbench/child.py RESULT.json 1 SPANS.json -- CLI ARGS...

Untraced (TRACE=0), the only hooks are the boundary timestamps `setup_s`
needs: the start of each `solve_dimension` and the first `ProbeEngine.probe`
after it.  Traced (TRACE=1), timing wrappers from this file go around the
public names `fracdim.solver` calls and around the operator methods; spans
stay in memory and are written to SPANS.json at exit.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# span names; the per-layer metrics are reduced from these
CONSTANTS = "constants"
BUILD = "assembly.build"
REBUILD = "assembly.rebuild"
MATVEC = "assembly.matvec"
W_APPLY = "assembly.W_apply"
POWER = "spectral.power"
CONE = "spectral.cone"
BRACKET = "spectral.bracket"
PROBE = "solver.probe"
SOLVE = "solver.solve"


class SetupClock:
    """Boundary timestamps: setup is the time from the CLI call to the first
    solve plus, per solve, the time from its start to its first probe."""

    def __init__(self):
        self.t_cli = 0.0  # set just before the CLI call
        self.solve_starts: list[float] = []
        self.first_probes: list[float] = []

    def solve_started(self) -> None:
        self.solve_starts.append(time.perf_counter())

    def probe_called(self) -> None:
        if len(self.first_probes) < len(self.solve_starts):
            self.first_probes.append(time.perf_counter())

    def setup_s(self, t_end: float) -> float:
        if not self.solve_starts:
            return t_end - self.t_cli
        total = self.solve_starts[0] - self.t_cli
        for i, t0 in enumerate(self.solve_starts):
            t1 = self.first_probes[i] if i < len(self.first_probes) else t_end
            total += t1 - t0
        return total


class Tracer:
    """In-memory spans [name, start, end, parent index, child time] plus the
    counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"builds": 0, "N": 0, "nnz": 0, "operator_bytes": 0,
                       "G_bytes_max": 0, "G_bytes_moved": 0,
                       "matvecs": 0, "power_calls": 0, "power_iters": 0,
                       "decided_iters": 0, "unconverged": 0,
                       "probe_calls": 0, "probes": 0, "solves": 0,
                       "constants_calls": 0}
        self.hook_s = 0.0     # time spent in the counters below
        self.err = 0.0        # err of the probe in progress
        self.power = None     # [matvecs so far, first decided matvec] in power

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if before is not None:
                h0 = clock()
                before(args)
                self._charge(parent, clock() - h0)
            span = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if after is not None:
                h0 = clock()
                after(args, out)
                self._charge(parent, clock() - h0)
            return out

        return wrapper

    def _charge(self, parent: int, dt: float) -> None:
        """Book a hook's own time as tracing work, outside every layer."""
        self.hook_s += dt
        if parent >= 0:
            self.spans[parent][4] += dt

    # -- counters -------------------------------------------------------
    def on_constants(self, args):
        self.counts["constants_calls"] += 1

    def on_build(self, args, out):
        import numpy as np
        from scipy import sparse
        cache = args[0]
        c = self.counts
        c["builds"] += 1
        c["N"] = max(c["N"], int(cache.N))
        c["nnz"] = max(c["nnz"], int(cache.nnz))
        nbytes = 0
        for v in vars(cache).values():
            for a in (v if isinstance(v, tuple) else (v,)):
                if isinstance(a, np.ndarray):
                    nbytes += a.nbytes
                elif sparse.issparse(a):
                    nbytes += a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        c["operator_bytes"] = max(c["operator_bytes"], nbytes)

    def on_matvec(self, args, y):
        op, v = args[0], args[1]
        c = self.counts
        c["matvecs"] += 1
        G = op.G
        gbytes = (G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
                  + 8 * (G.shape[0] + G.shape[1]))
        c["G_bytes_moved"] += gbytes
        c["G_bytes_max"] = max(c["G_bytes_max"], gbytes)
        p = self.power
        if p is not None:
            p[0] += 1
            if p[1] is None:
                r = y / v
                if ((1.0 - self.err) * r.min() >= 1.0
                        or (1.0 + self.err) * r.max() <= 1.0):
                    p[1] = p[0]

    def before_power(self, args):
        self.power = [0, None]

    def after_power(self, args, res):
        c = self.counts
        c["power_calls"] += 1
        c["power_iters"] += res.iterations
        c["unconverged"] += 0 if res.converged else 1
        decided = self.power[1]
        c["decided_iters"] += min(decided or res.iterations, res.iterations)
        self.power = None

    def before_probe(self, args):
        engine, s = args[0], float(args[1])
        self.counts["probe_calls"] += 1
        if s not in engine.records:
            self.counts["probes"] += 1
        self.err = engine.err

    def on_solve(self, args):
        self.counts["solves"] += 1

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t0, t1, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0 - child)
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t0, t1, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out


def install(solver, cli, assembly, clock: SetupClock,
            tracer: Tracer | None) -> None:
    """Put the setup hooks, and with a tracer the timing wrappers, on the
    names `fracdim.solver` and `fracdim.cli` call."""
    solve = solver.solve_dimension
    probe = solver.ProbeEngine.probe

    def solve_hook(*args, **kwargs):
        clock.solve_started()
        return solve(*args, **kwargs)

    def probe_hook(*args, **kwargs):
        clock.probe_called()
        return probe(*args, **kwargs)

    if tracer is None:
        solver.solve_dimension = cli.solve_dimension = solve_hook
        solver.ProbeEngine.probe = probe_hook
        return
    t = tracer
    solver.solve_dimension = cli.solve_dimension = t.wrap(
        SOLVE, solve_hook, before=t.on_solve)
    solver.ProbeEngine.probe = t.wrap(PROBE, probe_hook, before=t.before_probe)
    for name in ("make_profile", "admissible_h", "cone_image_parameter"):
        setattr(solver, name, t.wrap(CONSTANTS, getattr(solver, name),
                                     before=t.on_constants))
    cache_cls = assembly.OperatorCache
    cache_cls.__init__ = t.wrap(BUILD, cache_cls.__init__, after=t.on_build)
    cache_cls.evaluation_matrix = t.wrap(REBUILD, cache_cls.evaluation_matrix)
    op_cls = assembly.TransferOperator
    op_cls.__matmul__ = t.wrap(MATVEC, op_cls.__matmul__, after=t.on_matvec)
    op_cls.coefficients = t.wrap(W_APPLY, op_cls.coefficients)
    solver.power_iteration = t.wrap(POWER, solver.power_iteration,
                                    before=t.before_power,
                                    after=t.after_power)
    solver.cone_membership = t.wrap(CONE, solver.cone_membership)
    solver.spectral_bracket = t.wrap(BRACKET, solver.spectral_bracket)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    head, cli_argv = argv[:sep], argv[sep + 1:]
    result_path, traced = head[0], head[1] == "1"
    spans_path = head[2] if traced else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fracdim.assembly as assembly
    import fracdim.cli as cli
    import fracdim.solver as solver
    t_imported = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise ImportError(f"fracdim imported from {cli.__file__}, not the checkout")

    tracer = Tracer() if traced else None
    clock = SetupClock()
    install(solver, cli, assembly, clock, tracer)
    buf = io.StringIO()
    clock.t_cli = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.run(cli_argv)
    t_end = time.perf_counter()

    result = {"exit_code": code, "stdout": buf.getvalue(),
              "import_s": t_imported - T_START,
              "setup_s": clock.setup_s(t_end)}
    if tracer is not None:
        tracer.counts["rebuilds"] = sum(sp[0] == REBUILD for sp in tracer.spans)
        result["counts"] = tracer.counts
        result["self_s"] = tracer.self_times()
        result["total_s"] = tracer.totals()
        result["hook_s"] = tracer.hook_s
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "child_s"], "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
