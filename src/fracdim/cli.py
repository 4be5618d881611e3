"""Command-line front end: certify | estimate | converge.

Exit codes: 0 success, 1 usage error, 2 inadmissible mesh, one too large
for the memory available, or (estimate, converge) one too coarse to keep
power iteration positive, 3 certification failure.  h may be a literal
("1e-4") or an exact fraction ("1/3200"); --h-list takes "a..b" (halving
from a to b) or a comma-separated list.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import shutil
import sys
from fractions import Fraction

from .assembly import PaddedRangeError
from .maps import parse_alphabet
from .solver import (CertificationError, InadmissibleMeshError,
                     MonotonicityError, OversizedMeshError, SolveConfig,
                     check_spec_size, convergence_study, mebibytes,
                     mesh_intervals, solve_dimension)
from .spectral import PositivityError

# what the imports made lives as long as the process: frozen, it is left
# out of every later collection, which otherwise walks numpy's and scipy's
# module objects wherever the allocation count happens to trigger one
gc.freeze()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_CERTIFICATION = 3

# presets reproducing the published experiment tables; the 1D tables count
# mesh NODES (1/h points, 1/h - 1 subintervals, hence mesh="nodes"), the 2D
# tables count subintervals (the default)
REPRODUCTIONS = {
    "table2": {"subcommand": "certify", "alphabet": "1,2", "h": "1e-5",
               "mesh": "nodes"},
    # dim E_{1,2} rounded to double, from the Chebyshev collocation oracle in
    # tests/test_acceptance.py (0.53128050627720514162...); a 100-digit value
    # is published in Jenkinson-Pollicott, Adv. Math. 325 (2018)
    "table3": {"subcommand": "converge", "alphabet": "1,2", "mesh": "nodes",
               "h_list": "1/25..1/3200", "reference": 0.5312805062772051},
    "table4": {"subcommand": "converge", "alphabet": "1..34", "mesh": "nodes",
               "h_list": "1/25..1/3200", "reference": 0.980419625226980},
    "table5": {"subcommand": "converge", "alphabet": "1..100", "mesh": "nodes",
               "h_list": "1/25..1/6400"},
    "table6": {"subcommand": "certify",
               "alphabet": "(1,0),(1,1),(1,-1),(2,0)", "h": "1/1250",
               "s_cap": 1.15, "alpha": 0.2, "beta": 0.2},
    "table7": {"subcommand": "converge",
               "alphabet": "(1,0),(1,1),(1,-1),(2,0)",
               "h_list": "1/25..1/1600"},
    "table8": {"subcommand": "converge",
               "alphabet": "(1,0),(1,1),(1,-1),(1,2),(1,-2),(2,0),(2,1),(2,-1),(3,0)",
               "h_list": "1/25..1/1600"},
    "table9": {"subcommand": "converge",
               "alphabet": "(1,0),(1,1),(1,-1),(1,2),(1,-2),(1,3),(1,-3),(1,4),(1,-4)",
               "h_list": "1/25..1/1600"},
}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def parse_h(text: str) -> float:
    """Exact parse of a mesh size: fraction '1/3200' or literal '1e-4'."""
    text = str(text).strip()
    if "/" in text:
        return float(_fraction(text))
    return float(text)


def parse_h_list(text: str) -> list[float]:
    text = text.strip()
    if ".." in text:
        ends = [t.strip() for t in text.split("..")]
        if len(ends) != 2 or not all(ends):
            raise ValueError(f"--h-list {text!r} is not a range a..b of two "
                             "mesh widths, e.g. 1/25..1/100")
        a, b = _fraction(ends[0]), _fraction(ends[1])
        if not 0 < b <= a:
            raise ValueError("--h-list a..b needs 0 < b <= a (halving downward)")
        seq = [a]
        while seq[-1] > b:
            seq.append(seq[-1] / 2)
        if seq[-1] != b:
            raise ValueError(f"{b} is not reached from {a} by halving")
        return [float(x) for x in seq]
    hs = [parse_h(tok) for tok in text.split(",") if tok.strip()]
    if not hs:
        raise ValueError(f"--h-list {text!r} names no mesh width")
    return hs


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _build_parser() -> argparse.ArgumentParser:
    # argparse makes a help formatter for each option it adds, and each
    # asks the terminal for its width: ask once
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="fracdim", formatter_class=formatter,
        description="Certified Hausdorff dimension bounds for continued-fraction limit sets")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--alphabet", help="alphabet DSL, e.g. '1,2', '1..34', "
                                          "'primes<10000', '(1,0),(1,1)'")
        p.add_argument("--dim", type=int, choices=(1, 2),
                       help="dimension (checked against the alphabet)")
        p.add_argument("--degree", type=int, default=None, help="spline degree (default 2)")
        p.add_argument("--mesh", choices=("intervals", "nodes"), default=None,
                       help="how 1/h counts the mesh: subintervals (default) "
                            "or nodes (J = 1/h - 1, as in the published tables)")
        p.add_argument("--M", type=float, default=None, help="cone parameter override")
        p.add_argument("--alpha", type=float, default=None,
                       help="slack alpha in (0,1) of the cone parameter "
                            "M = ceil((1+alpha)/(1-beta) DB/A) and of the "
                            "admissible h (default 0.05 in 1D, 0.01 in 2D)")
        p.add_argument("--beta", type=float, default=None,
                       help="slack beta in (0,1) of the cone parameter "
                            "M = ceil((1+alpha)/(1-beta) DB/A) and of the "
                            "admissible h (default 0.05 in 1D, 0.01 in 2D)")
        p.add_argument("--s-cap", dest="s_cap", type=float, default=None,
                       help="upper bound on s used in the rigor constants")
        p.add_argument("--tol-s", dest="tol_s", type=float, default=None,
                       help="width in s to solve to (default: 4 ulp for "
                            "a point estimate, 1e-14 in 1D and 1e-10 in 2D "
                            "for a certified solve)")
        p.add_argument("--format", dest="fmt", choices=("table", "json", "tsv"),
                       default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--reproduce", choices=sorted(REPRODUCTIONS),
                       default=None, help="run a published-table preset")

    p_cert = sub.add_parser("certify", help="certified dimension bracket",
                            formatter_class=formatter)
    common(p_cert)
    p_cert.add_argument("--h", default=None)

    p_est = sub.add_parser("estimate", help="point estimate of the dimension",
                           formatter_class=formatter)
    common(p_est)
    p_est.add_argument("--h", default=None)
    p_est.add_argument("--unsafe-h", dest="unsafe_h", action="store_true",
                       default=None, help="allow an inadmissible h")

    p_conv = sub.add_parser("converge", help="mesh-refinement convergence study",
                            formatter_class=formatter)
    common(p_conv)
    p_conv.add_argument("--h-list", dest="h_list", default=None,
                        help="'a..b' halving or comma-separated values")
    p_conv.add_argument("--reference", type=float, default=None,
                        help="known dimension for delta/rate columns")
    # keys a --config file may set: any subcommand's option (by its dest),
    # or the subcommand itself, as the presets do
    parser.config_actions = {
        action.dest: action for p in (parser, p_cert, p_est, p_conv)
        for action in p._actions
        if action.dest not in ("help", "config", "reproduce")}
    return parser


# the JSON type a --config value must have, by its flag's converter: any
# number for a float option, true/false for a switch, else a string
_JSON_KINDS = {float: ("a number", (int, float)), int: ("an integer", int),
               str: ("a string", str), bool: ("true or false", bool)}


def _check_config_value(key: str, val, action: argparse.Action) -> None:
    """Refuse a --config value that its flag's converter or choices would:
    argparse checks only what is typed on the command line."""
    if val is None:
        return
    kind = bool if action.nargs == 0 else action.type or str
    name, types = _JSON_KINDS[kind]
    if not isinstance(val, types) or isinstance(val, bool) != (kind is bool):
        raise ValueError(f"{key} must be {name}, not {val!r}")
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"{key} must be one of "
                         f"{', '.join(map(str, action.choices))}, not {val!r}")


def _merge_settings(args: argparse.Namespace, config_actions: dict) -> dict:
    """Priority: explicit flags > --config file > --reproduce preset.
    A config key that no subcommand accepts or whose value has the wrong
    type, or a preset or config made for another subcommand than the one
    typed, is a usage error."""
    settings: dict = {}

    def claim(source: dict, name: str, kind: str) -> None:
        sub = source.get("subcommand", args.subcommand)
        if sub != args.subcommand:
            raise ValueError(f"{name} is a `{sub}` {kind}, "
                             f"not `{args.subcommand}`")
        settings.update(source)

    if getattr(args, "reproduce", None):
        claim(REPRODUCTIONS[args.reproduce], args.reproduce, "preset")
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(config_actions))
        if unknown:
            raise ValueError(f"unknown key(s) in {args.config}: "
                             f"{', '.join(unknown)}")
        for key, val in loaded.items():
            _check_config_value(key, val, config_actions[key])
        claim(loaded, args.config, "config")
    for key, val in vars(args).items():
        if key in ("config", "reproduce"):
            continue
        if val is not None:
            settings[key] = val
    return settings


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bracket_output(bracket, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(bracket.to_record(), indent=2, default=str) + "\n"
    if fmt == "tsv":
        lines = [f"# alphabet={bracket.alphabet} d={bracket.d} n={bracket.n} "
                 f"h={_fmt(bracket.h)} mode={bracket.mode}",
                 "# s_lo\ts_hi\terr\twall_ms",
                 f"{_fmt(bracket.s_lo)}\t{_fmt(bracket.s_hi)}\t"
                 f"{_fmt(bracket.err)}\t{_fmt(bracket.wall_ms)}"]
        return "\n".join(lines) + "\n"
    lines = [
        f"alphabet : {bracket.alphabet}",
        f"mode     : {bracket.mode}",
        f"h        : {_fmt(bracket.h)}   (n={bracket.n}, d={bracket.d})",
        f"s_lo     : {_fmt(bracket.s_lo)}",
        f"s_hi     : {_fmt(bracket.s_hi)}",
        f"width    : {_fmt(bracket.width)}",
        f"err      : {_fmt(bracket.err)}",
        f"probes   : {len(bracket.probes)}",
        f"wall_ms  : {bracket.wall_ms:.1f}",
    ]
    return "\n".join(lines) + "\n"


def emit_plot_data(rows, header_extra: str = "") -> str:
    """Convergence rows as TSV: h, s_h, delta, rate."""
    lines = []
    if header_extra:
        lines.append(f"# {header_extra}")
    lines.append("# h\ts_h\tdelta\trate")
    for r in rows:
        lines.append(f"{_fmt(r['h'])}\t{_fmt(r['s_h'])}\t"
                     f"{_fmt(r['delta'])}\t{_fmt(r['rate'])}")
    return "\n".join(lines) + "\n"


def _study_output(rows, fmt: str, alphabet_desc: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "table":
        lines = [f"{'h':>12}  {'s_h':<22} {'delta':<14} {'rate':>7}"]
        for r in rows:
            delta = f"{r['delta']:.6e}" if r["delta"] is not None else ""
            rate = f"{r['rate']:.3f}" if r["rate"] is not None else ""
            lines.append(f"{r['h']:>12.6g}  {r['s_h']:<22.15f} {delta:<14} {rate:>7}")
        return "\n".join(lines) + "\n"
    return emit_plot_data(rows, header_extra=f"alphabet={alphabet_desc}")


def _make_config(settings: dict, mode: str, hs: list[float]) -> SolveConfig:
    """The solve's config at the mesh widths hs (its own h first, if any).
    An alphabet whose largest item alone is too large for the finest mesh
    is refused before it is expanded (check_spec_size)."""
    if not settings.get("alphabet"):
        raise ValueError("--alphabet is required (or supply --reproduce/--config)")
    degree = settings.get("degree")
    n = 2 if degree is None else int(degree)
    mesh = settings.get("mesh") or "intervals"
    check_spec_size(settings["alphabet"], mode, n,
                    [mesh_intervals(h, mesh) for h in hs])
    alphabet = parse_alphabet(settings["alphabet"])
    dim = settings.get("dim")
    if dim is not None and dim != alphabet.d:
        raise ValueError(f"--dim {dim} does not match the alphabet (d={alphabet.d})")
    return SolveConfig(
        alphabet=alphabet,
        n=n,
        h=parse_h(settings["h"]) if settings.get("h") is not None else None,
        mode=mode,
        tol_s=settings.get("tol_s"),
        s_cap=settings.get("s_cap"),
        alpha=settings.get("alpha"),
        beta=settings.get("beta"),
        M=settings.get("M"),
        unsafe_h=bool(settings.get("unsafe_h")),
        mesh=mesh,
    )


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        settings = _merge_settings(args, parser.config_actions)
        subcommand = args.subcommand
        fmt = settings.get("fmt") or ("tsv" if subcommand == "converge" else "json")
        out_path = settings.get("out")

        if subcommand == "converge":
            if not settings.get("h_list"):
                raise ValueError("--h-list is required for converge")
            hs = parse_h_list(settings["h_list"])
            cfg = _make_config(settings, "point-estimate", hs)
            rows = convergence_study(cfg, hs,
                                     reference=settings.get("reference"))
            _emit(_study_output(rows, fmt, cfg.alphabet.describe()), out_path)
            return EXIT_OK

        mode = "certified" if subcommand == "certify" else "point-estimate"
        if settings.get("h") is None:
            raise ValueError("--h is required")
        cfg = _make_config(settings, mode, [parse_h(settings["h"])])
        _emit(_bracket_output(solve_dimension(cfg), fmt), out_path)
        return EXIT_OK
    except InadmissibleMeshError as exc:
        print(f"inadmissible mesh: {exc}", file=sys.stderr)
        for k, v in exc.breakdown.items():
            print(f"  {k:>12}: h < {v:.6g}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except OversizedMeshError as exc:
        print(f"mesh too large: {exc}", file=sys.stderr)
        for k, v in exc.breakdown.items():
            print(f"  {k:>12}: {mebibytes(v)} MiB", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except PaddedRangeError as exc:
        print(f"mesh too coarse: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (CertificationError, PositivityError, MonotonicityError) as exc:
        if isinstance(exc, PositivityError) and args.subcommand != "certify":
            print(f"mesh too coarse: {exc}", file=sys.stderr)
            return EXIT_INADMISSIBLE
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
