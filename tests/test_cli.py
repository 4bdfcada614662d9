import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kummerflat import cli
from kummerflat import kummer as km
from kummerflat import solver as sv


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


HOSTILE_OPTIONS = [
    # (command, flag argument, config entry)
    ("solve", "--tol=nan", {"tol": float("nan")}),
    ("solve", "--tol=inf", {"tol": float("inf")}),
    ("solve", "--tol=0", {"tol": 0.0}),
    ("lambda1", "--tol=-1e-3", {"tol": -1e-3}),
    ("solve", "--max-iter=0", {"max_iter": 0}),
    ("uniqueness", "--max-iter=-2", {"max_iter": -2}),
    ("verify-eh", "--seed=-1", {"seed": -1}),
    ("lambda1", "--seed=-5", {"seed": -5}),
    ("scaling", "--a-list=0.01,0.01", {"a_list": "0.01,0.01"}),
    ("lambda1", "--a-list=0.02,0.05,0.020", {"a_list": "0.02,0.05,0.020"}),
    ("solve", "--a=0.9", {"a": 0.9}),
    ("solve", "--p=nan", {"p": float("nan")}),
    ("uniqueness", "--p=0", {"p": 0.0}),
    ("solve", "--max-iter=abc", {"max_iter": "abc"}),
    ("scaling", "--grid-n=8.7", {"grid_n": 8.7}),
    ("verify-eh", "--seed=1.5", {"seed": 1.5}),
    ("verify-eh", None, {"seed": True}),
    ("solve", None, {"a": "0.02"}),
    ("solve", None, {"out": 5}),
    ("verify-gh", None, {"c": None}),
    ("scaling", None, {"a_list": 0.02}),
    ("verify-gh", "--c=inf", {"c": float("inf")}),
    ("verify-gh", "--eps-gh=nan", {"eps_gh": float("nan")}),
    # above the memory limit the fixture below sets
    ("solve", "--grid-n=96", {"grid_n": 96}),
    ("lambda1", "--grid-n=64", {"grid_n": 64}),
]
# bytes; at 300 B per node a solve, which runs on the (n/2)^4 quotient
# grid, needs 0.1 GB at grid_n=48 and 1.59 GB at 96, and lambda1, on the
# n^4 unit grid, 5.03 GB at 64
MEMORY_LIMIT = 10**9


class TestHostileOptions:
    @pytest.fixture(autouse=True)
    def no_field_build(self, monkeypatch):
        builds = []

        def recording_build(*args, **kwargs):
            builds.append(True)
            raise AssertionError("field built for a rejected configuration")

        monkeypatch.setattr(km, "build_omega0", recording_build)
        monkeypatch.setattr(cli, "_physical_memory", lambda: MEMORY_LIMIT)
        yield
        assert builds == []

    @pytest.mark.parametrize("command, flag, entry", [c for c in HOSTILE_OPTIONS if c[1]])
    def test_flag_rejected(self, tmp_path, command, flag, entry):
        # the resolved radius only where the command reads one, so that
        # the hostile flag is what gets rejected
        zeta = ["--zeta", ZETA_RESOLVED] if "zeta" in COMMAND_OPTIONS[command] else []
        with pytest.raises(SystemExit) as err:
            run([command, *zeta, flag, "--out", str(tmp_path / "run")])
        assert err.value.code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["scaling", "lambda1"])
    @pytest.mark.parametrize("flags, entry", [
        (["--a=0.03", "--a-list=0.02,0.04"], {}),
        (["--a-list=0.02,0.04"], {"a": 0.03}),
        ([], {"a": 0.03, "a_list": "0.02,0.04"}),
    ])
    def test_a_with_a_list_rejected(self, tmp_path, monkeypatch, capsys, command, flags, entry):
        # either one names the deformation parameters; given both, a was
        # silently dropped
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": "run", **entry}))
        with pytest.raises(SystemExit) as err:
            run([command, "--config", "cfg.json", *flags])
        assert err.value.code == 2
        assert "a and a_list exclude each other" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command, flag, entry", HOSTILE_OPTIONS)
    def test_config_entry_rejected(self, tmp_path, monkeypatch, command, flag, entry):
        # the config file also names the output directory, so that a
        # hostile "out" entry is the one resolved; a relative "out" would
        # land in tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": "run", **entry}))
        with pytest.raises(SystemExit) as err:
            run([command, "--config", "cfg.json"])
        assert err.value.code == 2
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_existing_file_rejected(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept")
        with pytest.raises(SystemExit) as err:
            run(["solve", "--zeta", ZETA_RESOLVED, "--out", str(tmp_path / out)])
        assert err.value.code == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "kept"
        assert os.listdir(tmp_path) == ["afile"]

    def test_grid_within_memory_limit_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_make_out_dir", _accepting_out_dir)
        with pytest.raises(Accepted) as acc:
            run(["solve", "--zeta", ZETA_RESOLVED, "--grid-n=32", "--out", str(tmp_path)])
        assert acc.value.cfg.grid_n == 32

    @pytest.mark.parametrize("command", ["solve", "uniqueness", "scaling"])
    def test_guard_counts_the_nodes_the_command_allocates(self, tmp_path, monkeypatch, command):
        # the quotient commands allocate 24^4 nodes at grid_n=48, while
        # lambda1 allocates 64^4 at grid_n=64
        monkeypatch.setattr(cli, "_make_out_dir", _accepting_out_dir)
        with pytest.raises(Accepted) as acc:
            run([command, "--grid-n=48", "--out", str(tmp_path)])
        assert acc.value.cfg.grid() == km.TorusGrid(24, side=0.5)
        with pytest.raises(SystemExit) as err:
            run(["lambda1", "--grid-n=64", "--out", str(tmp_path)])
        assert err.value.code == 2


class Accepted(Exception):
    """Raised in place of creating the output directory, carrying the
    resolved configuration."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.cfg = cfg


def _accepting_out_dir(cfg, parser):
    raise Accepted(cfg)


FLOAT_OPTIONS = ("a", "zeta", "alpha", "p", "tol", "c", "eps_gh")
# the options each command reads, besides out
COMMAND_OPTIONS = {
    "verify-eh": ("seed",),
    "verify-gh": ("c", "eps_gh", "seed"),
    "scaling": ("a", "a_list", "zeta", "grid_n", "alpha", "p", "seed"),
    "solve": ("a", "zeta", "grid_n", "alpha", "p", "tol", "max_iter", "seed"),
    "lambda1": ("a", "a_list", "zeta", "grid_n", "tol", "seed"),
    "uniqueness": ("a", "zeta", "grid_n", "alpha", "p", "tol", "max_iter"),
}
COMMAND_SWITCHES = {
    "verify-eh": ("inject_sigma2_sign_error",),
    "solve": ("no_ball_guard",),
    "uniqueness": ("no_ball_guard",),
}
# a flag text each option accepts alone, off its default, and its value
ACCEPTED = {
    "a": ("0.02", 0.02), "zeta": (ZETA_RESOLVED, 4.0 / 9.0), "grid_n": ("8", 8),
    "alpha": ("0.05", 0.05), "p": ("8", 8.0), "tol": ("1e-6", 1e-6), "max_iter": ("5", 5),
    "seed": ("3", 3), "a_list": ("0.02,0.04", (0.02, 0.04)), "c": ("2", 2.0),
    "eps_gh": ("1.0", 1.0),
}
# values each option accepts alone, so that whole inputs are often accepted
TYPICAL = {
    "a": [0.01, 0.02, 0.05], "zeta": [0.1111111111111111, 0.25, 0.4444444444444444],
    "grid_n": [8, 16, 24], "alpha": [0.05, 0.1], "p": [6, 8.0], "tol": [1e-8, 1e-6],
    "max_iter": [1, 40], "seed": [0, 7], "c": [0.5, 2], "eps_gh": [0.0, -0.5, 1],
    "a_list": ["0.02,0.04", "0.01, 0.02,", "0.05"],
}
BOUNDARY_FLOATS = st.sampled_from([
    0.0, -0.0, -1.0, 1e-300, 0.2, 0.5, 1e308, float("nan"), float("inf"), float("-inf"),
])
BOUNDARY = {
    "float": BOUNDARY_FLOATS | st.floats() | st.integers(-3, 3) | st.just(10**400),
    "int": st.sampled_from([-1, 0, 7, 10**6, 8.0, 8.7]) | st.integers(-3, 20),
    "a_list": st.lists(BOUNDARY_FLOATS | st.floats(0.0, 0.3), max_size=4).map(
        lambda xs: ",".join(repr(x) for x in xs)
    ),
}
# config values of the wrong JSON type for every option
MISTYPED = st.sampled_from([True, False, None, "0.1", "8", [0.1], {}])


def _value(name):
    kind = "float" if name in FLOAT_OPTIONS else "a_list" if name == "a_list" else "int"
    return st.sampled_from(TYPICAL[name]) | BOUNDARY[kind] | MISTYPED


def _well_typed(name, value):
    if name == "a_list":
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (name in FLOAT_OPTIONS and isinstance(value, float))


def _flag_text(name, value):
    """The flag argument equivalent to a config value, or None where the
    value's JSON type has no flag spelling."""
    if name == "a_list":
        return value if isinstance(value, str) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    return None


@st.composite
def _command_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    names = draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]), unique=True, max_size=3))
    return command, {name: draw(_value(name)) for name in names}


class TestCommandOptions:
    """Each command takes exactly the options and switches it reads: any
    other flag exits 2 before a directory is made or a field built."""

    @pytest.fixture(autouse=True)
    def no_field_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("field built while resolving options")

        monkeypatch.setattr(km, "build_omega0", no_build)

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_option(self, tmp_path, monkeypatch, command, name):
        text, value = ACCEPTED[name]
        argv = [command, "--" + name.replace("_", "-"), text, "--out", str(tmp_path / "run")]
        self._check(monkeypatch, tmp_path, argv, name in COMMAND_OPTIONS[command], name, value)

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    @pytest.mark.parametrize("name", ["inject_sigma2_sign_error", "no_ball_guard"])
    def test_switch(self, tmp_path, monkeypatch, command, name):
        argv = [command, "--" + name.replace("_", "-"), "--out", str(tmp_path / "run")]
        self._check(monkeypatch, tmp_path, argv, name in COMMAND_SWITCHES.get(command, ()), name, True)

    def test_unknown_flag_reported_with_the_command_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["verify-eh", "--grid-n", "8", "--out", str(tmp_path / "run")])
        assert err.value.code == 2
        text = capsys.readouterr().err
        # the usage line lists the flags verify-eh takes
        assert text.startswith("usage: kummerflat verify-eh ")
        assert "--seed SEED" in text
        assert text.endswith("kummerflat verify-eh: error: unrecognized arguments: --grid-n 8\n")
        assert os.listdir(tmp_path) == []

    def test_abbreviated_flag_rejected(self, tmp_path):
        # a prefix of a flag is not that flag
        with pytest.raises(SystemExit) as err:
            run(["verify-gh", "--eps", "1.0", "--out", str(tmp_path / "run")])
        assert err.value.code == 2
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _check(monkeypatch, tmp_path, argv, reads, name, value):
        if reads:
            monkeypatch.setattr(cli, "_make_out_dir", _accepting_out_dir)
            with pytest.raises(Accepted) as acc:
                run(argv)
            assert getattr(acc.value.cfg, name) == value
        else:
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 2
        assert os.listdir(tmp_path) == []


class TestOptionResolution:
    """Every input is resolved by one pass: a rejected input exits 2
    with nothing created or built, and a flag and the equal config entry
    resolve to the same configuration."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inputs=_command_inputs())
    def test_flag_and_config_resolve_alike(self, tmp_path, inputs):
        command, entries = inputs
        out = str(tmp_path / "run")
        (tmp_path / "cfg.json").write_text(json.dumps({"out": out, **entries}))
        via_config = self._resolve([command, "--config", str(tmp_path / "cfg.json")])
        if not all(_well_typed(k, v) for k, v in entries.items()):
            assert via_config == "rejected"
        flags = {k: _flag_text(k, v) for k, v in entries.items()}
        if None not in flags.values():
            argv = [command, "--out", out] + [
                f"--{k.replace('_', '-')}={text}" for k, text in flags.items()
            ]
            assert self._resolve(argv) == via_config
        assert os.listdir(tmp_path) == ["cfg.json"]

    @staticmethod
    def _resolve(argv):
        def no_build(*args, **kwargs):
            raise AssertionError("field built while resolving options")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km, "build_omega0", no_build)
            mp.setattr(cli, "_make_out_dir", _accepting_out_dir)
            try:
                run(argv)
            except SystemExit as exc:
                assert exc.code == 2
                return "rejected"
            except Accepted as acc:
                return acc.cfg
        raise AssertionError("the command ran past option resolution")


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

    def test_large_constant_identification_passes(self, tmp_path):
        # the isometry residual is relative to the target metric; taken
        # absolute it read 9.2e-5 at c = 1e10, and the check failed
        # although the identification holds
        assert run(["verify-gh", "--c", "1e10", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_gh.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["gh-eh-isometry"]["pass"] is True
        assert by_name["gh-eh-isometry"]["max_residual"] < 1e-14

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

    # finite and positive, so the option table accepts them; the sample
    # points then overflow.  That is an error, with exit status 1, and no
    # warning: under this filter a warning would escape main instead.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", ["1e200", "1e308"])
    def test_overflowing_constant_reports_error(self, tmp_path, capsys, c):
        for eps_gh in ("0", "1.0"):
            assert run(["verify-gh", "--c", c, "--eps-gh", eps_gh, "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith("error: overflow encountered")

    def test_nan_potential_constant_is_rejected(self):
        # a NaN constant made every potential value NaN; the ansatz now
        # refuses it before any check samples a point
        with pytest.raises(ValueError, match="^ansatz constant must be finite, got nan$"):
            cli.verify_gh_checks(0.5, float("nan"))

    def test_nan_residual_fails_its_check(self):
        # the builtin max dropped a NaN that followed a number, so such a
        # check passed with residual 0
        entry = cli._entry("connection-curl", [0.0, float("nan"), 0.0], 1e-5)
        assert np.isnan(entry["max_residual"]) and entry["pass"] is False


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

    def test_lines_end_in_lf(self, tmp_path):
        assert run(["scaling", "--zeta", ZETA_RESOLVED, "--a-list", "0.02,0.04",
                    "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "scaling.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 4 and raw.endswith(b"\n")

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
        path = out / "corrected_field.kmf"
        loaded = km.load_field(path)
        # the field of the grid that was solved: the default grid_n=16
        # quotient, 32 bytes per node after the 44-byte header
        assert loaded.grid == km.TorusGrid(16).quotient()
        assert path.stat().st_size == 44 + 32 * 8**4
        # blind reference grid: the volume ratio is exactly one half
        assert loaded.lam == 0.5
        assert loaded.min_eigenvalue() > 0

    def test_stdout_numbers_read_back_as_the_summary(self, tmp_path, capsys):
        assert run(["solve", "--zeta", ZETA_RESOLVED, "--grid-n", "8", "--no-ball-guard",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "np.float64(" not in out
        printed = dict(ln.split("=", 1) for ln in out.splitlines()
                       if ln.startswith(("residual_ratio=", "min_eigenvalue=")))
        summary = json.loads((tmp_path / "solve_summary.json").read_text())
        for key in ("residual_ratio", "min_eigenvalue"):
            assert float(printed[key]) == summary[key]

    def test_corrected_field_built_only_inside_the_solve(self, tmp_path, monkeypatch):
        outside = []
        inside = []
        solve, corrected_field = sv.banach_solve, sv.corrected_field

        def tracking_solve(*args, **kwargs):
            inside.append(True)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()

        def tracking_corrected_field(*args, **kwargs):
            if not inside:
                outside.append(True)
            return corrected_field(*args, **kwargs)

        monkeypatch.setattr(sv, "banach_solve", tracking_solve)
        monkeypatch.setattr(sv, "corrected_field", tracking_corrected_field)
        assert run(["solve", "--grid-n", "8", "--out", str(tmp_path)]) == 0
        assert outside == []
        assert km.load_field(tmp_path / "corrected_field.kmf").min_eigenvalue() > 0

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

    def test_resolved_large_deformation_passes(self, tmp_path):
        # at a=0.08, n=24 the glued operator is far enough from symmetric
        # that conjugate gradients stagnated before 1e-9
        out = tmp_path / "run"
        assert run(["lambda1", "--zeta", ZETA_RESOLVED, "--grid-n", "24", "--a-list", "0.08",
                    "--out", str(out)]) == 0
        report = json.loads((out / "lambda1.json").read_text())
        assert {c["check"] for c in report["checks"]} == {"poincare-inequality"}
        assert all(c["pass"] for c in report["checks"])

    def test_tol_is_the_ritz_tolerance(self, tmp_path, monkeypatch):
        # --tol reaches lambda1_estimate as given, not capped at 1e-6
        tols = []
        estimate = sv.lambda1_estimate

        def recording_estimate(problem, tol, seed):
            tols.append(tol)
            return estimate(problem, tol=tol, seed=seed)

        monkeypatch.setattr(sv, "lambda1_estimate", recording_estimate)
        assert run(["lambda1", "--tol", "1e-3", "--out", str(tmp_path / "run")]) == 0
        assert tols == [1e-3]

    def test_default_tol_is_each_commands_own(self, tmp_path, monkeypatch):
        # without --tol, lambda1 stops on the Ritz default and solve and
        # uniqueness on the Picard default, each read when the command runs
        monkeypatch.setattr(sv, "LAMBDA1_TOL", 2e-4)
        monkeypatch.setattr(sv, "DEFAULT_FIXED_POINT_TOL", 3e-5)
        tols = {}

        def recorder(command):
            def record(problem, *args, tol, **kwargs):
                tols[command] = tol
                raise RuntimeError("stopped after the tolerance was read")
            return record

        for command, solver_name in (("lambda1", "lambda1_estimate"), ("solve", "banach_solve"),
                                     ("uniqueness", "banach_solve")):
            monkeypatch.setattr(sv, solver_name, recorder(command))
            assert run([command, "--grid-n", "8", "--out", str(tmp_path / command)]) == 1
        assert tols == {"lambda1": 2e-4, "solve": 3e-5, "uniqueness": 3e-5}

    def test_imports_no_masked_arrays(self, tmp_path):
        # a 1-D np.unique imports numpy.ma on its first call, about 10 ms
        # of every run's start-up; a fresh interpreter shows whether the
        # run made that import
        code = ("import sys; from kummerflat import cli; "
                f"cli.main(['lambda1', '--grid-n', '8', '--out', {str(tmp_path / 'run')!r}]); "
                "sys.exit('numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True).returncode == 0


class TestUniqueness:
    def test_flat_agreement(self, tmp_path):
        out = tmp_path / "run"
        assert run(["uniqueness", "--out", str(out)]) == 0
        report = json.loads((out / "uniqueness.json").read_text())
        by_name = {e["check"]: e for e in report}
        assert by_name["two-seed-agreement"]["pass"] is True
        assert by_name["rerun-determinism"]["max_residual"] == 0.0

    def test_three_solves(self, tmp_path, monkeypatch):
        calls = []
        solve = sv.banach_solve

        def counting_solve(*args, **kwargs):
            calls.append(True)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sv, "banach_solve", counting_solve)
        assert run(["uniqueness", "--grid-n", "8", "--out", str(tmp_path)]) == 0
        assert len(calls) == 3
