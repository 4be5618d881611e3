"""CLI parsing, subcommands, output formats, exit codes, and setting merges."""
import json

import pytest

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

    def test_missing_alphabet(self, capsys):
        assert run(["estimate", "--h", "1/50"]) == EXIT_USAGE

    def test_dim_mismatch(self, capsys):
        assert run(["estimate", "--alphabet", "1,2", "--h", "1/50",
                    "--dim", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("alphabet", ["1,2", "(1,0),(1,1),(1,-1),(2,0)"])
    def test_coarse_mesh_refused(self, alphabet, capsys):
        # at h = 1/4 the padding of n subintervals no longer covers the
        # images of the exterior midpoints
        assert run(["estimate", "--alphabet", alphabet, "--h", "1/4",
                    "--unsafe-h"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "leave the padded spline range" in err
        assert "refine the mesh" in err

    def test_inadmissible_exit(self, capsys):
        assert run(["estimate", "--alphabet", "1,2", "--h", "1/25"]) == \
            EXIT_INADMISSIBLE
        assert "inadmissible" in capsys.readouterr().err


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

    def test_2d_degree_4_refused(self, capsys):
        # the degree refusal comes before the admissibility check (exit 2);
        # degree 0 must not fall back to the default 2
        for degree in ("0", "4"):
            code = run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                        "--h", "1/30", "--degree", degree])
            assert code == EXIT_USAGE
            assert "needs spline degree n = 2" in capsys.readouterr().err

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
        for h_list in ("1/25,0,1/50", "1/25..0"):
            assert run(["converge", "--alphabet", "1,2", "--unsafe-h",
                        "--h-list", h_list]) == EXIT_USAGE

    def test_json_rows(self, capsys):
        code = run(["converge", "--alphabet", "1,2",
                    "--h-list", "1/25,1/50,1/100", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["h"] for r in rows] == [0.04, 0.02, 0.01]
        assert rows[0]["delta"] is None


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
                                   "unsafe_h": True, "single_step": True}))
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


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(["estimate", "--bogus"]) == EXIT_USAGE

    def test_help_ok(self, capsys):
        assert run(["--help"]) == EXIT_OK
