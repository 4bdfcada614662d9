import json
import logging

import numpy as np
import pytest

from kummerflat import cli
from kummerflat import kummer as km

ZETA_RESOLVED = "0.4444444444444444"


def run(argv):
    return cli.main(argv)


class TestConfigMerge:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 4.0 / 9.0, "a_list": "0.02,0.04"}))
        out = tmp_path / "run"
        assert run(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "scaling.csv").read_text().splitlines()
        assert len(rows) == 4  # header + two rows + footer
        assert float(rows[1].split(",")[0]) == 0.02

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 0.02, "zeta": 4.0 / 9.0}))
        out = tmp_path / "run"
        assert run(["scaling", "--config", str(cfg), "--a", "0.03", "--out", str(out)]) == 0
        rows = (out / "scaling.csv").read_text().splitlines()
        assert float(rows[1].split(",")[0]) == 0.03

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"betas": 1.0}))
        with pytest.raises(SystemExit) as err:
            run(["scaling", "--config", str(cfg), "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            run(["scaling", "--config", str(cfg), "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(SystemExit) as err:
            run(["scaling", "--config", str(cfg), "--out", str(tmp_path)])
        assert err.value.code == 2


class TestVerifyEh:
    def test_default_suite_passes(self, tmp_path, capsys):
        assert run(["verify-eh", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_eh.json").read_text())
        assert len(report) >= 6
        for entry in report:
            assert set(entry) == {"check", "max_residual", "tolerance", "pass"}
            assert entry["pass"] is True
            assert entry["max_residual"] <= entry["tolerance"]
        lines = capsys.readouterr().out.splitlines()
        assert sum(ln.startswith("PASS ") for ln in lines) == len(report)

    def test_sigma2_sign_injection_fails_structure_check(self, tmp_path):
        status = run(["verify-eh", "--out", str(tmp_path), "--inject-sigma2-sign-error"])
        assert status == 1
        report = json.loads((tmp_path / "verify_eh.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["frame-structure-equations"]["pass"] is False
        assert by_name["frame-structure-equations"]["max_residual"] > 0.1
        assert by_name["kahler-forms-closed"]["pass"] is True

    def test_rerun_bytes_identical(self, tmp_path):
        run(["verify-eh", "--out", str(tmp_path / "x")])
        run(["verify-eh", "--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "verify_eh.json").read_bytes() == (
            tmp_path / "y" / "verify_eh.json"
        ).read_bytes()


class TestVerifyGh:
    def test_default_suite_passes(self, tmp_path):
        assert run(["verify-gh", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_gh.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["gh-eh-isometry"]["max_residual"] < 1e-6
        assert by_name["connection-curl"]["pass"] is True

    def test_flat_constant_skips_isometry(self, tmp_path, capsys):
        assert run(["verify-gh", "--eps-gh", "1.0", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_gh.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["gh-eh-isometry"]["skipped"] is True
        assert "note" in by_name["gh-eh-isometry"]
        assert by_name["potential-harmonic"]["pass"] is True
        assert "SKIP gh-eh-isometry" in capsys.readouterr().out

    def test_coincident_centers_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["verify-gh", "--c", "0", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestScaling:
    def test_three_value_sweep_slopes(self, tmp_path):
        out = tmp_path / "run"
        status = run([
            "scaling", "--zeta", ZETA_RESOLVED,
            "--a-list", "0.02,0.04,0.08", "--out", str(out),
        ])
        assert status == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "a,sup_ea,y_norm_ea,lambda"
        assert len(lines) == 5
        footer = json.loads(lines[-1][2:])
        assert abs(footer["sup_ea_slope"] - 4.0) < 0.5
        assert abs(footer["y_norm_ea_slope"] - 4.0 / 3.0) < 0.4
        sup = [float(ln.split(",")[1]) for ln in lines[1:4]]
        assert sup[0] < sup[1] < sup[2]

    def test_single_value_omits_slope(self, tmp_path):
        out = tmp_path / "run"
        assert run(["scaling", "--zeta", ZETA_RESOLVED, "--a", "0.04", "--out", str(out)]) == 0
        footer = json.loads((out / "scaling.csv").read_text().splitlines()[-1][2:])
        assert "sup_ea_slope" not in footer
        assert "note" in footer

    def test_blind_grid_omits_slope_with_note(self, tmp_path):
        # default gluing radius: no node sees the balls, errors are zero
        out = tmp_path / "run"
        assert run(["scaling", "--a-list", "0.02,0.04", "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        footer = json.loads(lines[-1][2:])
        assert "sup_ea_slope" not in footer
        assert "blind" in footer["note"]
        assert float(lines[1].split(",")[1]) == 0.0

    def test_inadmissible_parameter_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["scaling", "--a-list", "0.02,0.3", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_rerun_bytes_identical(self, tmp_path):
        args = ["scaling", "--zeta", ZETA_RESOLVED, "--a-list", "0.02,0.04"]
        run(args + ["--out", str(tmp_path / "x")])
        run(args + ["--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "scaling.csv").read_bytes() == (
            tmp_path / "y" / "scaling.csv"
        ).read_bytes()


class TestSolve:
    def test_reference_solve_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--out", str(out)]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["residual_ratio"] <= 0.1
        assert summary["min_eigenvalue"] > 0
        trace = (out / "solve_trace.csv").read_text().splitlines()
        assert trace[0].split(",") == ["iter", "y_norm_psi", "lipschitz_sample_max",
                                       "ma_sup_residual", "min_eigenvalue"]
        loaded = km.load_field(out / "corrected_field.kmf")
        assert loaded.n == 16
        # blind reference grid: the volume ratio is exactly one half
        assert loaded.lam == 0.5
        assert loaded.min_eigenvalue() > 0

    def test_resolved_requires_guard_release(self, tmp_path):
        status = run(["solve", "--zeta", ZETA_RESOLVED, "--out", str(tmp_path / "a")])
        assert status == 1
        status = run([
            "solve", "--zeta", ZETA_RESOLVED, "--no-ball-guard", "--out", str(tmp_path / "b"),
        ])
        assert status == 0
        summary = json.loads((tmp_path / "b" / "solve_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["residual_ratio"] < 0.1

    def test_regime_notes_logged_once(self, tmp_path, caplog):
        # parse-time validation and the solve share one model, so each
        # regime note appears once
        caplog.set_level(logging.INFO, logger="kummerflat.kummer")
        run(["solve", "--a", "0.06", "--zeta", ZETA_RESOLVED, "--grid-n", "8",
             "--no-ball-guard", "--out", str(tmp_path)])
        messages = [r.getMessage() for r in caplog.records]
        assert sum("exceeds the conservative bound 1/4" in m for m in messages) == 1
        assert sum("exceeds the conservative bound zeta/8" in m for m in messages) == 1

    def test_alpha_window_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["solve", "--alpha", "0.4", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_large_deformation_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["solve", "--a", "0.3", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestLambda1:
    def test_flat_reference(self, tmp_path):
        out = tmp_path / "run"
        assert run(["lambda1", "--out", str(out)]) == 0
        report = json.loads((out / "lambda1.json").read_text())
        lam1 = report["values"][0]["lambda1"]
        assert abs(lam1 - report["flat_discrete_eigenvalue"]) < 1e-4 * lam1
        names = {c["check"] for c in report["checks"]}
        assert "flat-laplacian-reference" in names
        assert "poincare-inequality" in names
        assert all(c["pass"] for c in report["checks"])


class TestUniqueness:
    def test_flat_agreement(self, tmp_path):
        out = tmp_path / "run"
        assert run(["uniqueness", "--out", str(out)]) == 0
        report = json.loads((out / "uniqueness.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["two-seed-agreement"]["pass"] is True
        assert by_name["rerun-determinism"]["max_residual"] == 0.0
