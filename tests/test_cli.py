"""CLI parsing, subcommands, output formats, exit codes, and setting merges."""
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim import solver
from fracdim.cli import (EXIT_CERTIFICATION, EXIT_INADMISSIBLE, EXIT_OK,
                         EXIT_USAGE, REPRODUCTIONS, parse_h, parse_h_list, run)


class TestParseH:
    def test_fraction(self):
        assert parse_h("1/3200") == 1.0 / 3200
        assert parse_h(" 1/25 ") == 0.04

    def test_literal(self):
        assert parse_h("1e-4") == 1e-4
        assert parse_h("0.01") == 0.01

    def test_list_halving(self):
        assert parse_h_list("1/25..1/100") == [0.04, 0.02, 0.01]

    def test_list_commas(self):
        assert parse_h_list("1/25, 1/50") == [0.04, 0.02]

    def test_list_bad_range(self):
        with pytest.raises(ValueError):
            parse_h_list("1/100..1/25")
        with pytest.raises(ValueError):
            parse_h_list("1/25..1/75")
        # halving never reaches a non-positive end
        for text in ("1/25..0", "1/25..-1/50", "0..0"):
            with pytest.raises(ValueError):
                parse_h_list(text)
        # a list must name at least one mesh width
        with pytest.raises(ValueError, match="no mesh width"):
            parse_h_list(",")
        # a range names exactly two ends
        for text in ("1/25..1/50..1/100", "..1/50", "1/25..", " .. "):
            with pytest.raises(ValueError, match="not a range a..b"):
                parse_h_list(text)
        # a zero denominator is a usage error, not a ZeroDivisionError
        for text in ("1/0..1/50", "1/25..1/0", "1/25,1/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_h_list(text)


class TestEstimate:
    def test_json_output(self, capsys):
        code = run(["estimate", "--alphabet", "1,2", "--h", "1/50",
                    "--unsafe-h"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["mode"] == "point-estimate"
        assert rec["s_lo"] == rec["s_hi"]
        assert abs(rec["s_lo"] - 0.5312805) < 1e-5
        assert rec["err"] == 0.0

    def test_table_format(self, capsys):
        code = run(["estimate", "--alphabet", "1,2", "--h", "1/50",
                    "--unsafe-h", "--format", "table"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "s_lo" in out and "alphabet : 1,2" in out

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "result.json"
        code = run(["estimate", "--alphabet", "1,2", "--h", "1/50",
                    "--unsafe-h", "--out", str(dest)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        rec = json.loads(dest.read_text())
        assert rec["alphabet"] == "1,2"

    def test_deterministic(self, capsys):
        args = ["estimate", "--alphabet", "1,2", "--h", "1/64"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        assert capsys.readouterr().out.split('"wall_ms"')[0] == \
            first.split('"wall_ms"')[0]

    def test_missing_h(self, capsys):
        assert run(["estimate", "--alphabet", "1,2"]) == EXIT_USAGE
        for h in ("0", "0/1"):
            assert run(["estimate", "--alphabet", "1,2", "--h", h]) == EXIT_USAGE
            assert "not positive" in capsys.readouterr().err
        assert run(["estimate", "--alphabet", "1,2", "--h", "1/0"]) == EXIT_USAGE
        assert "zero denominator" in capsys.readouterr().err

    def test_missing_alphabet(self, capsys):
        assert run(["estimate", "--h", "1/50"]) == EXIT_USAGE

    def test_dim_mismatch(self, capsys):
        assert run(["estimate", "--alphabet", "1,2", "--h", "1/50",
                    "--dim", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("alphabet, mesh", [
        ("1,2", ["--h", "1/4"]),
        ("(1,0),(1,1),(1,-1),(2,0)", ["--h", "1/4"]),
        ("1,3", ["--degree", "4", "--h", "1/27"]),
        ("(1,0),(2,0)", ["--h", "1/4"]),
    ], ids=["1,2", "(1,0),(1,1),(1,-1),(2,0)", "1,3-degree4", "(1,0),(2,0)"])
    def test_coarse_mesh_refused(self, alphabet, mesh, capsys):
        # on these meshes the padding of n subintervals no longer covers
        # the images of the exterior midpoints (in 1D with letter 1, when
        # J <= 2n^2 - n): a mesh too coarse, like every other (exit 2)
        assert run(["estimate", "--alphabet", alphabet, *mesh,
                    "--unsafe-h"]) == EXIT_INADMISSIBLE
        err = capsys.readouterr().err
        assert "leave the padded spline range" in err
        assert "refine the mesh" in err

    @pytest.mark.parametrize("h", ["1/2", "1/1"])
    def test_mesh_too_coarse_for_images(self, h, capsys):
        # images past the knot span and images inside it but past the
        # padded spline range get the same error
        assert run(["estimate", "--alphabet", "1,2", "--h", h,
                    "--unsafe-h"]) == EXIT_INADMISSIBLE
        err = capsys.readouterr().err
        assert "mapped points of letter 1 leave the padded spline range" in err
        assert "refine the mesh" in err

    def test_inadmissible_exit(self, capsys):
        assert run(["estimate", "--alphabet", "1,2", "--h", "1/25"]) == \
            EXIT_INADMISSIBLE
        assert "inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--alphabet", "(2,0),(3,0)", "--h", "1/1", "--unsafe-h"],
        ["converge", "--alphabet", "(2..3,0..0)", "--h-list", "1/1",
         "--reference", "0.5"],
    ], ids=["estimate", "converge"])
    def test_positivity_loss_is_a_coarse_mesh(self, argv, capsys):
        # on one subinterval power iteration loses positivity; a point
        # estimate claims nothing to certify, so this is a mesh too coarse
        # (exit 2), not a certification failure (it exited 3)
        assert run(argv) == EXIT_INADMISSIBLE
        assert "mesh too coarse: matrix image lost positivity" in \
            capsys.readouterr().err


class TestCertify:
    def test_certified_bracket(self, capsys):
        code = run(["certify", "--alphabet", "1,2", "--h", "1/64",
                    "--tol-s", "1e-8"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["mode"] == "certified"
        assert rec["s_lo"] <= 0.531280506277205 <= rec["s_hi"]
        assert rec["err"] > 0

    def test_certified_inadmissible(self, capsys):
        assert run(["certify", "--alphabet", "1,2", "--h", "1/25"]) == \
            EXIT_INADMISSIBLE

    def test_resolution_is_strict(self, capsys):
        # h < 1/max component: the double 1/100 lies above the exact 1/100,
        # so comparing it with the double bound 1.0/100 admitted J = 100
        assert run(["certify", "--alphabet", "1..100", "--h", "1/100"]) == \
            EXIT_INADMISSIBLE
        assert "resolution: h < 0.01" in capsys.readouterr().err
        assert run(["certify", "--alphabet", "1..100", "--h", "1/101",
                    "--tol-s", "1e-6"]) == EXIT_OK

    def test_cap_below_dimension_refused(self, capsys):
        # the search mesh (J // 4 = 500) finds no root below the cap and
        # hands the cap itself to the fine straddle test, which refuses
        assert run(["certify", "--alphabet", "1,2", "--h", "1/2000",
                    "--s-cap", "0.5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not straddle" in captured.err

    def test_2d_degree_4_refused(self, capsys):
        # the degree refusal comes before the admissibility check (exit 2);
        # degree 0 must not fall back to the default 2
        for degree in ("0", "4"):
            code = run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                        "--h", "1/30", "--degree", degree])
            assert code == EXIT_USAGE
            assert "needs spline degree n = 2" in capsys.readouterr().err
        # every entry point refuses an odd, too small or too large degree
        # (6 has no weight table) before the rigor constants are computed
        for degree in ("0", "3", "6"):
            code = run(["estimate", "--alphabet", "1,2", "--h", "1/40",
                        "--degree", degree, "--unsafe-h"])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "even spline degree >= 2" in err
            assert f"2 or 4, not {degree}" in err

    def test_tsv_format(self, capsys):
        code = run(["certify", "--alphabet", "1,2", "--h", "1/64",
                    "--tol-s", "1e-6", "--format", "tsv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[1].startswith("# s_lo")
        lo, hi, err, _ = lines[2].split("\t")
        assert float(lo) <= 0.5312805 <= float(hi)
        assert float(err) > 0


class TestConverge:
    def test_tsv_default(self, capsys):
        code = run(["converge", "--alphabet", "1,2",
                    "--h-list", "1/25..1/100",
                    "--reference", "0.531280506277205"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert len(lines) == 3
        h, s_h, delta, rate = lines[-1].split("\t")
        assert float(h) == 0.01
        assert float(delta) < 1e-7
        assert float(rate) > 2.0

    def test_requires_h_list(self, capsys):
        assert run(["converge", "--alphabet", "1,2"]) == EXIT_USAGE
        for h_list in ("1/25,0,1/50", "1/25..0", "1/0..1/50"):
            assert run(["converge", "--alphabet", "1,2",
                        "--h-list", h_list]) == EXIT_USAGE
        capsys.readouterr()
        for h_list in ("1/25..1/50..1/100", "..1/50", "1/25.."):
            assert run(["converge", "--alphabet", "1,2",
                        "--h-list", h_list]) == EXIT_USAGE
            assert "is not a range a..b" in capsys.readouterr().err

    def test_json_rows(self, capsys):
        code = run(["converge", "--alphabet", "1,2",
                    "--h-list", "1/25,1/50,1/100", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["h"] for r in rows] == [0.04, 0.02, 0.01]
        assert rows[0]["delta"] is None
        # probes is deterministic, so it comes before wall_ms
        assert list(rows[0]) == ["h", "s_h", "delta", "rate", "probes",
                                 "wall_ms"]
        assert all(isinstance(r["probes"], int) and r["probes"] > 0
                   for r in rows)


class TestSettingsMerge:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphabet": "1,2", "h": "1/50",
                                   "unsafe_h": True}))
        code = run(["estimate", "--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alphabet"] == "1,2"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphabet": "1,2,3", "h": "1/50",
                                   "unsafe_h": True}))
        code = run(["estimate", "--config", str(cfg), "--alphabet", "1,2"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alphabet"] == "1,2"

    def test_config_overrides_preset(self, tmp_path, capsys):
        # preset table3 says alphabet 1,2 + nodes mesh; config overrides the
        # h_list to something fast
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h_list": "1/25,1/50,1/100"}))
        code = run(["converge", "--reproduce", "table3", "--config", str(cfg),
                    "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        # nodes convention propagated from the preset: nominal 1/25 solves on
        # 24 subintervals, distinguishable from the 25-interval value
        assert rows[0]["delta"] == pytest.approx(4.6298e-8, rel=1e-3)

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2]")
        assert run(["estimate", "--config", str(cfg)]) == EXIT_USAGE
        cfg.write_text("{not json")
        assert run(["estimate", "--config", str(cfg)]) == EXIT_USAGE

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        # a removed option and a misspelt one must not be silently ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphabet": "1,2", "h": "1/50",
                                   "unsafe_h": True, "threads": 4,
                                   "dump_matrix": "m.txt", "tol": 1e-3}))
        assert run(["estimate", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        for key in ("threads", "dump_matrix", "tol"):
            assert key in captured.err

    def test_config_key_of_another_subcommand_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphabet": "1,2", "h": "1/50",
                                   "unsafe_h": True, "reference": 0.53}))
        assert run(["estimate", "--config", str(cfg)]) == EXIT_OK

    def test_preset_of_another_subcommand_refused(self, capsys):
        # the typed subcommand used to override the preset's, so a converge
        # preset ran as certify and failed for want of --h
        assert run(["certify", "--reproduce", "table5"]) == EXIT_USAGE
        assert "table5 is a `converge` preset" in capsys.readouterr().err
        assert run(["estimate", "--reproduce", "table2"]) == EXIT_USAGE
        assert "table2 is a `certify` preset" in capsys.readouterr().err

    def test_config_of_another_subcommand_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "converge", "alphabet": "1,2",
                                   "h_list": "1/25,1/50,1/100"}))
        assert run(["estimate", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is a `converge` config" in captured.err
        assert run(["converge", "--config", str(cfg)]) == EXIT_OK

    def test_config_of_the_typed_subcommand_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "estimate", "alphabet": "1,2",
                                   "h": "1/50", "unsafe_h": True}))
        assert run(["estimate", "--config", str(cfg)]) == EXIT_OK

    def test_mesh_flag(self, capsys):
        run(["estimate", "--alphabet", "1,2", "--h", "1/50", "--unsafe-h",
             "--mesh", "nodes"])
        s_nodes = json.loads(capsys.readouterr().out)["s_lo"]
        run(["estimate", "--alphabet", "1,2", "--h", "1/50", "--unsafe-h"])
        s_int = json.loads(capsys.readouterr().out)["s_lo"]
        assert s_nodes != s_int

    def test_presets_well_formed(self):
        for name, preset in REPRODUCTIONS.items():
            assert preset["subcommand"] in ("certify", "estimate", "converge")
            assert "alphabet" in preset
            if preset["subcommand"] == "converge":
                parse_h_list(preset["h_list"])
            else:
                parse_h(preset["h"])
        # only 1D table presets use the nodes convention
        for name in ("table2", "table3", "table4", "table5"):
            assert REPRODUCTIONS[name].get("mesh") == "nodes"
        for name in ("table6", "table7", "table8", "table9"):
            assert REPRODUCTIONS[name].get("mesh") is None


class TestBadSettings:
    """Settings outside their domain are usage errors that name the
    setting, refused before any solve."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--alphabet", "1,2", "--h", "1/50"],
        ["certify", "--alphabet", "1,2", "--h", "1/64"],
        ["converge", "--alphabet", "1,2", "--h-list", "1/25..1/100"],
    ], ids=["estimate", "certify", "converge"])
    @pytest.mark.parametrize("tol_s", ["nan", "inf", "-1"])
    def test_tol_s(self, argv, tol_s, capsys):
        # a NaN width used to end the bisection at once: estimate printed
        # 0.5000005 and certify [1e-06, 1.0], both with exit 0
        assert run([*argv, "--tol-s", tol_s]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol_s" in captured.err

    @pytest.mark.parametrize("flag, name", [("--s-cap", "s_cap"),
                                            ("--M", "M")])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_s_cap_and_M(self, flag, name, value, capsys):
        # --s-cap inf escaped as an OverflowError traceback, and --M nan ran
        # the solve to a certification failure (exit 3)
        assert run(["certify", "--alphabet", "1,2", "--h", "1/64",
                    flag, value]) == EXIT_USAGE
        assert f"{name} = " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_s_cap_2d(self, value, capsys):
        # refused at the given cap, before the coarse estimate that lowers
        # a 2D cap
        assert run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                    "--h", "1/500", "--s-cap", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s_cap = " in captured.err

    @pytest.mark.parametrize("s_cap", ["300", "1000"])
    def test_s_cap_too_large(self, s_cap, capsys):
        # K^s_cap (at 1000) and the default M's K^(2 s_cap) (at 300) ended
        # in OverflowError tracebacks
        assert run(["certify", "--alphabet", "1,2", "--h", "1/64",
                    "--s-cap", s_cap]) == EXIT_USAGE
        assert "s_cap = " in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("s_cap", "0.9"), ("tol_s", "1e-3"), ("reference", "x"),
        ("alphabet", 12), ("degree", 2.0), ("unsafe_h", 1), ("fmt", "xml")])
    def test_config_value_of_wrong_type(self, key, value, tmp_path, capsys):
        # --config values skip argparse's converters: the first four ended
        # in TypeError tracebacks, and a format outside the choices fell
        # back to TSV
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["converge", "--alphabet", "1,2", "--h-list",
                    "1/25..1/100", "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} must be" in captured.err

    def test_config_number_for_float_option(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s_cap": 1, "reference": 0.53,
                                   "tol_s": None}))
        assert run(["converge", "--alphabet", "1,2", "--h-list",
                    "1/25..1/100", "--config", str(cfg)]) == EXIT_OK

    @pytest.mark.parametrize("reference", ["nan", "inf"])
    def test_reference_not_finite(self, reference, capsys):
        # a NaN reference printed nan deltas with exit 0
        assert run(["converge", "--alphabet", "1,2", "--h-list",
                    "1/25..1/100", "--reference", reference]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference = " in captured.err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_readme_flags_exist(self, capsys):
        # every --flag the README's CLI section shows is an option of some
        # subcommand
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
        options = set()
        for subcommand in ("certify", "estimate", "converge"):
            assert run([subcommand, "--help"]) == EXIT_OK
            options |= set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        documented = set(re.findall(r"--[\w-]+", section))
        assert documented and documented <= options

    def test_unknown_flag(self, capsys):
        assert run(["estimate", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["certify", "--alphabet", "1,2", "--h", "1/64"],
        ["converge", "--alphabet", "1,2", "--h-list", "1/25..1/100"]])
    def test_unsafe_h_only_on_estimate(self, argv, capsys):
        # certify refuses an inadmissible mesh whatever the flag says, and
        # converge lets every mesh through: the flag would do nothing there
        assert run(argv + ["--unsafe-h"]) == EXIT_USAGE
        assert "unrecognized arguments: --unsafe-h" in capsys.readouterr().err

    def test_help_ok(self, capsys):
        assert run(["--help"]) == EXIT_OK


def ascending(lo, hi, most):
    """a..b with lo <= a <= hi and b up to `most` letters further."""
    return st.tuples(st.integers(lo, hi), st.integers(0, most)).map(
        lambda ak: f"{ak[0]}..{ak[0] + ak[1]}")


ALPHABET_1D = st.lists(st.one_of(
    st.integers(1, 40).map(str), ascending(1, 40, 300),
    st.integers(0, 3000).map(lambda N: f"primes<{N}")),
    min_size=1, max_size=3).map(",".join)
ALPHABET_2D = st.lists(st.one_of(
    st.tuples(st.integers(1, 4), st.integers(-3, 3)).map(
        lambda p: f"({p[0]},{p[1]})"),
    st.tuples(ascending(1, 3, 1), ascending(-2, 1, 2)).map(
        lambda p: f"({p[0]},{p[1]})")), min_size=1, max_size=4).map(",".join)
# 1/J with J from 1 to 1e7, log-uniform, or a literal
MESH_WIDTH = st.one_of(
    st.integers(0, 70).map(lambda k: f"1/{round(10 ** (k / 10))}"),
    st.sampled_from(["1e-7", "1e-3", "0.04", "1/3"]))
# the flags that take a number, each with values inside its domain
SLACK = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
NUMBERS = {"--s-cap": st.floats(0.0, 2.5, exclude_min=True),
           "--alpha": SLACK, "--beta": SLACK, "--M": st.floats(0.5, 100.0),
           "--tol-s": st.floats(1e-16, 1e-2)}
# values outside each setting's domain, as the command line spells them
ODD = {"--alphabet": st.sampled_from(["0", "-1", "3..2", "1,(1,0)", "(0,1)",
                                      "primes<2", "1..", "()"]),
       "--h": st.sampled_from(["1/0", "-1/50", "nan", "inf", "0", "1/0.5"]),
       "--degree": st.sampled_from(["0", "3"]),
       **dict.fromkeys(NUMBERS, st.sampled_from(
           ["nan", "inf", "-inf", "0", "-0", "-1", "-0.5", "1"]))}


@st.composite
def cli_args(draw):
    """A command line, most of whose settings lie in their domain: at most
    one setting takes an odd value."""
    odd = draw(st.one_of(st.none(), st.sampled_from(sorted(ODD))))

    def value(flag, strategy):
        return draw(ODD[flag] if flag == odd else strategy)

    subcommand = draw(st.sampled_from(["certify", "estimate", "converge"]))
    argv = [subcommand, "--alphabet",
            value("--alphabet", st.one_of(ALPHABET_1D, ALPHABET_2D))]
    if subcommand == "converge":
        widths = draw(st.lists(MESH_WIDTH, min_size=1, max_size=3))
        if odd == "--h":
            widths.append(draw(ODD["--h"]))
        argv += ["--h-list", ",".join(widths)]
        if len(widths) < 3 or draw(st.booleans()):
            argv.append("--reference=0.5")
    else:
        argv += ["--h", value("--h", MESH_WIDTH)]
    if subcommand == "estimate" and draw(st.booleans()):
        argv.append("--unsafe-h")
    argv.append(f"--mesh={draw(st.sampled_from(['intervals', 'nodes']))}")
    for flag, values in {"--degree": st.sampled_from(["2", "4"]),
                         **NUMBERS}.items():
        if flag == odd or draw(st.booleans()):
            argv.append(f"{flag}={value(flag, values.map(str))}")
    return argv


class TestFuzz:
    """Every setting the CLI parses, in and out of its domain, ends in an
    exit code 0-3 (3 from certify only) with no exception escaping run.  A
    RuntimeWarning is an error under this suite's pytest configuration, so
    it escapes too.
    MemAvailable reads 64 MiB, so that a large mesh is refused at once."""

    @settings(max_examples=300, deadline=None)
    @given(argv=cli_args())
    def test_exit_codes(self, argv):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_mem_available", lambda: 64 * 2**20)
            code = run(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INADMISSIBLE,
                        EXIT_CERTIFICATION)
        # only certify certifies anything
        assert code != EXIT_CERTIFICATION or argv[0] == "certify"
