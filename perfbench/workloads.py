"""The benchmark's fixed workloads: CLI arguments, output parsing and checks.

Each workload is one `fracdim` CLI invocation.  Inputs are fixed published
cases (scaled to fit the run budget, see README.md); the benchmark seed never
changes them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

ALPHABET_2D = "(1,0),(1,1),(1,-1),(2,0)"

# interval pinned by tests/test_acceptance.py for the 4-letter 2D set
CERT_2D_CORE = (1.1495767, 1.1495775)

# point estimate of dim E for the primes below 3000, from
#   fracdim estimate --alphabet "primes<3000" --h 1/12000
# (the 1/6000 estimate prints the same digits; see README.md)
PRIMES_REF = 0.6704226674704807

# finest s_h of `converge --reproduce table5` (alphabet 1..100, h = 1/6400
# nodes), as the table5 preset reproduces it
TABLE5_FINEST = 0.993661110810628


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    tiny_argv: tuple[str, ...]  # same output path at a mesh that runs in ~1 s
    check: Callable[[dict], str | None]  # parsed output -> error or None


def parse_output(argv, text: str) -> dict:
    """Numbers a workload's output is judged by.

    certify/estimate print a JSON record: s_lo and s_hi.  converge prints TSV
    rows: the s_h column, coarsest mesh first.  `width` is s_hi - s_lo for a
    bracket and the spread (max - min) of the s_h column for a study.
    """
    if argv[0] == "converge":
        rows = [ln.split("\t") for ln in text.splitlines()
                if ln and not ln.startswith("#")]
        s_h = [float(r[1]) for r in rows]
        return {"s_h": s_h, "width": max(s_h) - min(s_h)}
    rec = json.loads(text)
    return {"s_lo": rec["s_lo"], "s_hi": rec["s_hi"],
            "width": rec["s_hi"] - rec["s_lo"]}


def _check_core_2d(out: dict) -> str | None:
    lo, hi = CERT_2D_CORE
    if out["s_lo"] <= lo and hi <= out["s_hi"]:
        return None
    return f"bracket [{out['s_lo']!r}, {out['s_hi']!r}] misses [{lo}, {hi}]"


def _check_primes(out: dict) -> str | None:
    if out["s_lo"] <= PRIMES_REF <= out["s_hi"]:
        return None
    return f"bracket [{out['s_lo']!r}, {out['s_hi']!r}] misses {PRIMES_REF!r}"


def _check_table5(out: dict) -> str | None:
    finest = out["s_h"][-1]
    if abs(finest - TABLE5_FINEST) <= 1e-12:
        return None
    return f"finest s_h {finest!r} is not within 1e-12 of {TABLE5_FINEST!r}"


WORKLOADS = {w.name: w for w in (
    Workload(
        "certify-2d",
        ("certify", "--alphabet", ALPHABET_2D, "--h", "1/500",
         "--s-cap", "1.15", "--alpha", "0.2", "--beta", "0.2"),
        # 2D certification is inadmissible below h = 1/483, so the tiny run
        # takes the 2D point-estimate path with the same output format
        ("estimate", "--alphabet", ALPHABET_2D, "--h", "1/40", "--unsafe-h"),
        _check_core_2d),
    Workload(
        "certify-1d-primes",
        ("certify", "--alphabet", "primes<3000", "--h", "1/3000"),
        ("certify", "--alphabet", "primes<50", "--h", "1/50"),
        _check_primes),
    Workload(
        "converge-1d",
        ("converge", "--reproduce", "table5"),
        ("converge", "--alphabet", "1..10", "--mesh", "nodes",
         "--h-list", "1/25..1/100"),
        _check_table5),
)}
