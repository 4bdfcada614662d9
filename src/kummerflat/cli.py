"""Command-line driver for the verification suites, scaling sweeps,
Monge-Ampere solves, and spectral checks.

Each subcommand is a row of the command table _COMMANDS, which names
the options it reads from flags or a JSON config file (flags win); it
takes no other flag and ignores the other options' config keys.  Every
command is deterministic given its configuration, prints one line per
executed check, writes artifacts under the output directory, and exits
0 exactly when every executed check passes.  Invalid configurations
exit 2 before any computation: flags and config values pass one typed,
range-checked option table, a excludes a_list, and a grid whose memory
estimate exceeds physical memory is refused.  solve, uniqueness and
scaling run on the quotient of the grid_n^4 torus grid by the
half-period translations, with (grid_n/2)^4 nodes; lambda1 runs on the
grid_n^4 grid.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import eguchi_hanson as eh
from . import forms
from . import gibbons_hawking as gh
from . import kummer
from . import solver


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated options and switches; the rest keep their defaults."""

    command: str
    a: float = 0.05
    zeta: float = kummer.GluedModel.zeta
    grid_n: int = 16
    alpha: float = solver.NormParams.alpha
    p: float = solver.NormParams.p
    tol: float | None = None  # None: the command's own default (stopping_tol)
    max_iter: int = solver.DEFAULT_FIXED_POINT_MAX_ITER
    seed: int = 0
    out: Path = Path(".")
    a_list: tuple | None = None
    c: float = 0.5
    eps_gh: float = gh.GhConfig.eps_gh
    no_ball_guard: bool = False
    inject_sigma2_sign_error: bool = False

    def norm_params(self):
        return solver.NormParams(alpha=self.alpha, p=self.p)

    def stopping_tol(self, default):
        """--tol, else default, the tolerance the command stops on, read
        when it runs."""
        return default if self.tol is None else self.tol

    def grid(self):
        """The grid the command runs on: the quotient of the grid_n^4
        unit-torus grid for a command whose fields are all invariant
        under the half-period translations, else that grid itself."""
        grid = kummer.TorusGrid(self.grid_n)
        return grid.quotient() if _COMMANDS[self.command].on_quotient else grid


def _finite_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _float_list(text):
    return tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())


# the Python types of the config values a JSON type admits; a bool is never one
_JSON_TYPES = {"number": (int, float), "integer": (int,), "string": (str,)}


@dataclass(frozen=True)
class _Option:
    """One row of the option table: the flag --name (dashed) and the config
    key name.  parse reads the flag text, or a config value of json_type;
    every accepted value satisfies rule."""

    name: str
    parse: Callable
    json_type: str
    help: str
    rule: Callable = lambda value: True
    rule_text: str = ""


_OPTIONS = (
    _Option("a", _finite_float, "number", "deformation parameter"),
    _Option("zeta", _finite_float, "number", "gluing radius"),
    _Option("grid_n", int, "integer", "grid nodes per axis"),
    _Option("alpha", _finite_float, "number", "Hölder exponent"),
    _Option("p", _finite_float, "number", "integrability exponent"),
    _Option("tol", _finite_float, "number",
            "stopping tolerance: of the Picard step in solve and uniqueness, of the bottom "
            "Ritz value in lambda1", lambda v: v > 0, "must be positive"),
    _Option("max_iter", int, "integer", "iteration budget", lambda v: v >= 1, "must be at least 1"),
    _Option("seed", int, "integer", "sampling seed", lambda v: v >= 0, "must be non-negative"),
    _Option("out", Path, "string", "artifact directory"),
    _Option("a_list", _float_list, "string", "comma-separated deformation parameters",
            lambda v: 0 < len(v) == len(set(v)), "must be non-empty without duplicates"),
    _Option("c", _finite_float, "number", "half-separation of the two centers"),
    _Option("eps_gh", _finite_float, "number", "additive potential constant"),
)


def _command_options(command):
    return [opt for opt in _OPTIONS if opt.name in _COMMANDS[command].options]


def _read_config_file(path, parser):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config file {path} must hold a JSON object")
    unknown = set(raw) - {opt.name for opt in _OPTIONS}
    if unknown:
        parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def build_run_config(args, parser):
    """Resolve each option the command reads from its flag, else the
    config file, else the RunConfig default, checked against its row."""
    file_cfg = _read_config_file(args.config, parser) if args.config else {}
    values = {name: getattr(args, name) for name, _ in _COMMANDS[args.command].switches}
    for opt in _command_options(args.command):
        raw = getattr(args, opt.name)
        source = "--" + opt.name.replace("_", "-")
        if raw is None:
            if opt.name not in file_cfg:
                continue
            raw = file_cfg[opt.name]
            source = f"config key {opt.name}"
            if isinstance(raw, bool) or not isinstance(raw, _JSON_TYPES[opt.json_type]):
                parser.error(f"{source} must be a JSON {opt.json_type}, got {json.dumps(raw)}")
        try:
            value = opt.parse(raw)
        except (ValueError, OverflowError) as exc:
            parser.error(f"{source}: {exc}")
        if not opt.rule(value):
            parser.error(f"{source} {opt.rule_text}, got {raw!r}")
        values[opt.name] = value
    if "a" in values and "a_list" in values:
        parser.error("a and a_list exclude each other; give one")
    return RunConfig(command=args.command, **values)


def _make_out_dir(cfg, parser):
    """Create the artifact directory; called once every option has been
    accepted, so a rejected configuration leaves no directory behind."""
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory {cfg.out}: {exc.strerror or exc}")
    if not os.access(cfg.out, os.W_OK):
        parser.error(f"output directory {cfg.out} is not writable")


# Peak resident memory per node of the grid the command runs on
# (RunConfig.grid), for the heaviest command, rounded up.  On the
# quotient grid, at grid_n=64 (32^4 nodes), a resolved solve peaks at
# 176 B/node (its .kmf write copies no field), uniqueness at
# 205 and scaling at 152; lambda1 keeps its Krylov basis and its
# operator images, up to 17 fields each, and peaks at 266 B/node on
# the unit grid at grid_n=32 (a=0.05).
_BYTES_PER_NODE = 300


def _physical_memory():
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _validate(cfg, parser):
    """Re-run the library invariant guards of the options the command
    reads at parse time, and refuse a grid larger than physical memory.

    Returns the glued models the command runs on, one per deformation
    parameter (none without a), so each is built and logged once."""
    options = _COMMANDS[cfg.command].options
    models = []
    try:
        if "alpha" in options:
            cfg.norm_params()
        if "grid_n" in options:
            need, have = cfg.grid().node_count() * _BYTES_PER_NODE, _physical_memory()
            if need > have:
                raise ValueError(f"grid_n={cfg.grid_n} needs about {need / 1e9:.3g} GB, "
                                 f"more than the {have / 1e9:.3g} GB of physical memory")
        if "a" in options:
            models = [kummer.GluedModel(a=a, zeta=cfg.zeta) for a in cfg.a_list or (cfg.a,)]
        if "c" in options:
            gh.two_center_config(cfg.c, cfg.eps_gh)
    except ValueError as exc:
        parser.error(str(exc))
    return models


# ---------------------------------------------------------------------------
# check plumbing


def _entry(name, residuals, tolerance):
    """A check on the largest of its residuals; np.max, unlike the
    builtin max, propagates a NaN, so a NaN residual fails the check."""
    residual = float(np.max(residuals))
    return {
        "check": name,
        "max_residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _print_report(report, path):
    """Write report to path as JSON and print one line per check; report
    is the list of checks, or a dict that holds it under "checks".
    Returns the exit status, 0 exactly when every executed check passed."""
    solver.dump_json(report, path)
    checks = report["checks"] if isinstance(report, dict) else report
    failed = []
    for c in checks:
        if c.get("skipped"):
            print(f"SKIP {c['check']}: {c['note']}")
            continue
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['check']}: max residual {c['max_residual']!r} "
              f"(tolerance {c['tolerance']!r})")
        if not c["pass"]:
            failed.append(c["check"])
    print(f"wrote {path}")
    if failed:
        print("failed checks: " + ", ".join(failed))
    else:
        print("all executed checks passed")
    return 1 if failed else 0


def _radial_points(rng, n, r_lo=1.2, r_hi=4.0, pole_margin=0.3):
    """Radial-chart samples away from the bolt and the polar axes, one
    point per row; a check evaluates on their transpose, the batch with
    the coordinates on its leading axis."""
    pts = np.empty((n, 4))
    pts[:, 0] = rng.uniform(r_lo, r_hi, n)
    pts[:, 1] = rng.uniform(pole_margin, np.pi - pole_margin, n)
    pts[:, 2] = rng.uniform(0.0, 2.0 * np.pi, n)
    pts[:, 3] = rng.uniform(0.0, 4.0 * np.pi, n)
    return pts


def _resolving_points(rng, n):
    pts = _radial_points(rng, n)
    pts[:, 0] = rng.uniform(0.3, 3.0, n)
    return pts


# ---------------------------------------------------------------------------
# Eguchi-Hanson verification suite

# every identity is checked at unit deformation parameter
EH_PARAMS = eh.EhParams(1.0)


def check_structure_equations(rng, flip_sigma2_sign=False):
    """d sigma_i = 2 sigma_j ^ sigma_k for the cyclic triple; the sign
    flip is a mutation hook that must make this check fail."""
    s1, s2, s3 = eh.sigma_forms()
    if flip_sigma2_sign:
        s2 = s2 * (-1.0)
    pts = _radial_points(rng, 200).T
    residuals = [(forms.ext_d(a) - forms.wedge(b, c) * 2.0).max_abs(pts)
                 for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2))]
    return _entry("frame-structure-equations", residuals, 1e-6)


def check_kahler_closedness(rng):
    pts = _radial_points(rng, 200).T
    residuals = [forms.ext_d(om).max_abs(pts) for om in eh.kahler_forms(EH_PARAMS)]
    return _entry("kahler-forms-closed", residuals, 1e-6)


def check_quaternion_algebra():
    mats = (eh.STRUCTURE_I, eh.STRUCTURE_J, eh.STRUCTURE_K)
    eye = np.eye(4)
    residuals = [np.abs(m @ m + eye) for m in mats]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        residuals.append(np.abs(mats[a] @ mats[b] + mats[c]))
    return _entry("quaternion-algebra", residuals, 1e-6)


def check_potential_to_form(rng):
    """-1/2 d(I grad-potential differential) reproduces the first
    Kahler form."""
    strs = eh.complex_structures(EH_PARAMS)
    cand = forms.ext_d(forms.apply_J(strs["I"], eh.potential_differential(EH_PARAMS))) * (-0.5)
    target = eh.kahler_forms(EH_PARAMS)[0]
    pts = _radial_points(rng, 200).T
    return _entry("potential-to-first-form", (cand - target).max_abs(pts), 1e-6)


def check_potential_doubling():
    """Twice the potential equals the closed-form doubled reference,
    relative to its scale."""
    u = np.geomspace(0.1, 10.0, 41)
    scale = np.maximum(np.abs(eh.doubled_potential_reference(EH_PARAMS, u)), 1.0)
    return _entry("potential-doubling-factor", eh.joyce_potential_check(EH_PARAMS, u) / scale, 1e-10)


def check_volume_form_pullback(rng):
    emb = eh.resolving_to_complex()
    target = eh.holomorphic_volume_form(EH_PARAMS)
    pb = forms.pullback(emb, eh.complex_coordinate_area_form())
    residuals = (pb - target).max_abs(_resolving_points(rng, 20).T)
    return _entry("holomorphic-volume-pullback", residuals, 1e-8)


def check_volume_form_square(rng):
    """The wedge square of the holomorphic volume form vanishes to
    round-off, relative to the squared form scale."""
    om = eh.holomorphic_volume_form(EH_PARAMS)
    sq = forms.wedge(om, om)
    pts = _resolving_points(rng, 10).T
    scale = np.maximum(forms.power(om.max_abs(pts), 2), 1e-300)
    return _entry("holomorphic-volume-square", np.abs(sq.coeff((0, 1, 2, 3), pts)) / scale, 1e-13)


def check_ricci_flat(rng):
    pts = _radial_points(rng, 100, r_lo=1.5, pole_margin=0.5).T
    residuals = np.abs(eh.ricci_residual(lambda c: eh.eh_metric(EH_PARAMS, c), pts))
    return _entry("ricci-flat", residuals, 1e-4)


def verify_eh_checks(seed=0, inject_sigma2=False):
    rng = np.random.default_rng(seed)
    return [
        check_structure_equations(rng, flip_sigma2_sign=inject_sigma2),
        check_kahler_closedness(rng),
        check_quaternion_algebra(),
        check_potential_to_form(rng),
        check_potential_doubling(),
        check_volume_form_pullback(rng),
        check_volume_form_square(rng),
        check_ricci_flat(rng),
    ]


def cmd_verify_eh(cfg, models):
    checks = verify_eh_checks(seed=cfg.seed, inject_sigma2=cfg.inject_sigma2_sign_error)
    return _print_report(checks, cfg.out / "verify_eh.json")


# ---------------------------------------------------------------------------
# Gibbons-Hawking verification suite


def check_curl_equation(c, eps_gh, rng):
    """curl A = grad V in the orthonormal cylindrical frame."""
    cfg = gh.two_center_config(c, eps_gh)
    # one row (psi, rho, phi, z) per point, drawn in that order
    pts = rng.uniform((0.0, 0.3, 0.0, -1.5), (4.0 * np.pi, 2.0, 2.0 * np.pi, 1.5), (100, 4))
    return _entry("connection-curl", np.abs(gh.curl_residual(cfg, pts.T)), 1e-5)


def check_harmonic_potential(c, eps_gh, rng):
    cfg = gh.two_center_config(c, eps_gh)
    centers = [np.asarray(ctr) for ctr in cfg.centers]
    pts = []
    while len(pts) < 50:
        x = rng.uniform(-2.5, 2.5, 3)
        # sample at least unit distance from both centers
        if min(np.linalg.norm(x - ctr) for ctr in centers) < 1.0:
            continue
        pts.append(x)
    residuals = np.abs(gh.harmonic_residual(cfg, np.transpose(pts), step=1e-2))
    return _entry("potential-harmonic", residuals, 1e-6)


def check_gh_eh_isometry(c, rng):
    """Pullback of the two-center metric matches the scaled
    Eguchi-Hanson metric with matched parameters."""
    a = np.sqrt(2.0 * c)
    pts = _radial_points(rng, 100, r_lo=1.2 * a, r_hi=4.0 * a).T
    return _entry("gh-eh-isometry", gh.isometry_residual(c, pts), 1e-6)


def verify_gh_checks(c, eps_gh, seed=0):
    rng = np.random.default_rng(seed)
    checks = [
        check_curl_equation(c, eps_gh, rng),
        check_harmonic_potential(c, eps_gh, rng),
    ]
    if eps_gh == 0.0:
        checks.append(check_gh_eh_isometry(c, rng))
    else:
        checks.append({
            "check": "gh-eh-isometry",
            "skipped": True,
            "note": "identification holds only for a vanishing potential constant",
        })
    return checks


def cmd_verify_gh(cfg, models):
    # a huge c overflows the sample points: an error, not a warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        checks = verify_gh_checks(cfg.c, cfg.eps_gh, seed=cfg.seed)
    return _print_report(checks, cfg.out / "verify_gh.json")


# ---------------------------------------------------------------------------
# scaling sweep


def scaling_rows(cfg, models):
    params = cfg.norm_params()
    grid = cfg.grid()
    rows = []
    for model in models:
        prob = solver.Problem.build(model, grid)
        rows.append({
            "a": model.a,
            "sup_ea": float(np.max(np.abs(prob.ea))),
            "y_norm_ea": float(solver.y_norm(prob, params, prob.ea)),
            "lambda": prob.lam,
        })
    return rows


def scaling_footer(rows):
    """Log-log slopes of the error measures; omitted for fewer than two
    parameter values or when a measure vanishes on a blind grid."""
    footer = {"n_values": len(rows)}
    if len(rows) < 2:
        footer["note"] = "at least two parameter values are needed for slopes"
        return footer
    la = np.log([r["a"] for r in rows])
    for key, name in (("sup_ea", "sup_ea_slope"), ("y_norm_ea", "y_norm_ea_slope")):
        vals = np.array([r[key] for r in rows])
        if np.any(vals <= 0.0):
            footer["note"] = "error density vanishes at some a (grid blind to the gluing region); slopes omitted"
            continue
        footer[name] = float(np.polyfit(la, np.log(vals), 1)[0])
    return footer


def cmd_scaling(cfg, models):
    rows = scaling_rows(cfg, models)
    footer = scaling_footer(rows)
    path = cfg.out / "scaling.csv"
    columns = ("a", "sup_ea", "y_norm_ea", "lambda")
    solver.write_csv(path, columns, rows, footer)
    for r in rows:
        print(" ".join(f"{k}={float(r[k])!r}" for k in columns))
    print("slopes: " + solver.json_text(footer, indent=None))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# solve, spectrum, uniqueness


def cmd_solve(cfg, models):
    prob = solver.Problem.build(models[0], cfg.grid())
    state = solver.banach_solve(prob, cfg.norm_params(), tol=cfg.stopping_tol(solver.DEFAULT_FIXED_POINT_TOL),
                                max_iter=cfg.max_iter, enforce_ball=not cfg.no_ball_guard)
    out = cfg.out
    trace_path = out / "solve_trace.csv"
    solver.write_trace_csv(state, trace_path)
    field_path = out / "corrected_field.kmf"
    kummer.save_field(state.corrected, field_path)
    extra = {k: getattr(cfg, k) for k in ("a", "zeta", "grid_n", "alpha", "p", "seed")}
    summary = solver.write_summary_json(state, out / "solve_summary.json", extra=extra)
    print("converged=%s iterations=%d" % (str(summary["converged"]).lower(), summary["iterations"]))
    for k in ("residual_ratio", "min_eigenvalue"):
        print(f"{k}={float(summary[k])!r}")
    for p in (trace_path, field_path, out / "solve_summary.json"):
        print(f"wrote {p}")
    # banach_solve raises unless the solve converged to a positive form
    return 0


def lambda1_report(cfg, models):
    grid = cfg.grid()
    flat_discrete = float(solver.flat_axis_symbol(grid)[1])
    values = []
    checks = []
    flat_grid = True
    last_prob = None
    for model in models:
        prob = solver.Problem.build(model, grid)
        lam1 = solver.lambda1_estimate(prob, tol=cfg.stopping_tol(solver.LAMBDA1_TOL), seed=cfg.seed)
        values.append({"a": model.a, "lambda1": lam1})
        flat_grid = flat_grid and float(np.max(np.abs(prob.ea))) == 0.0
        last_prob = prob
    if len(values) >= 2:
        lams = np.array([v["lambda1"] for v in values])
        spread = float((lams.max() - lams.min()) / lams.min())
        checks.append(_entry("lambda1-spread", spread, 0.10))
    if flat_grid:
        continuum = (2.0 * np.pi) ** 2
        gap = abs(values[0]["lambda1"] - continuum) / continuum
        checks.append(_entry("flat-laplacian-reference", gap, 0.03))
    poincare = solver.poincare_check(last_prob, min(v["lambda1"] for v in values))
    entry = _entry("poincare-inequality", [0.0, -np.min(poincare["margins"])], 1e-10)
    entry["pass"] = poincare["all_pass"]
    checks.append(entry)
    return {
        "grid_n": cfg.grid_n,
        "flat_discrete_eigenvalue": flat_discrete,
        "values": values,
        "checks": checks,
    }


def cmd_lambda1(cfg, models):
    report = lambda1_report(cfg, models)
    for v in report["values"]:
        print(f"a={float(v['a'])!r} lambda1={float(v['lambda1'])!r}")
    return _print_report(report, cfg.out / "lambda1.json")


def cmd_uniqueness(cfg, models):
    prob = solver.Problem.build(models[0], cfg.grid())
    params = cfg.norm_params()
    tol = cfg.stopping_tol(solver.DEFAULT_FIXED_POINT_TOL)

    def solve(psi0=None):
        return solver.banach_solve(prob, params, tol=tol, max_iter=cfg.max_iter,
                                   psi0=psi0, enforce_ball=not cfg.no_ball_guard)

    # the zero-seed solve is both the first seed and the first rerun;
    # only its psi and phi are compared, so its corrected field is
    # dropped before the other two solves
    first = solve()
    first.corrected = None
    gap = solver.potential_gap(prob, first, solve(-prob.ea))
    det_gap = float(np.max(np.abs(first.psi - solve().psi)))
    checks = [
        _entry("two-seed-agreement", gap, 10.0 * tol),
        _entry("rerun-determinism", det_gap, 0.0),
    ]
    return _print_report(checks, cfg.out / "uniqueness.json")


# ---------------------------------------------------------------------------
# command table and argument parsing


@dataclass(frozen=True)
class _Command:
    """A subcommand: its help text, handler(cfg, models) and options."""

    help: str
    handler: Callable
    options: tuple  # the _OPTIONS names it reads
    switches: tuple = ()  # store_true (RunConfig field, help) pairs, with no config key
    # runs on the quotient grid: every field it builds is invariant under
    # the half-period translations, which permute the sixteen sites
    on_quotient: bool = False


_NO_BALL_GUARD = ("no_ball_guard", "disable the fixed-point ball containment guard")

_COMMANDS = {
    "verify-eh": _Command("Eguchi-Hanson identity suite", cmd_verify_eh, ("seed", "out"),
                          (("inject_sigma2_sign_error", argparse.SUPPRESS),)),
    "verify-gh": _Command("Gibbons-Hawking ansatz suite", cmd_verify_gh, ("c", "eps_gh", "seed", "out")),
    # the sweep samples nothing; it takes --seed only because the
    # benchmark's scaling_sweep op (perfbench/workloads.py) passes one
    "scaling": _Command("error-density scaling sweep", cmd_scaling,
                        ("a", "a_list", "zeta", "grid_n", "alpha", "p", "seed", "out"),
                        on_quotient=True),
    # the solve draws nothing either; it takes --seed, which it only copies
    # into solve_summary.json, because the benchmark's solve_resolved op
    # passes one
    "solve": _Command("run the fixed-point solve", cmd_solve,
                      ("a", "zeta", "grid_n", "alpha", "p", "tol", "max_iter", "seed", "out"),
                      (_NO_BALL_GUARD,), on_quotient=True),
    "lambda1": _Command("smallest nonzero Laplacian eigenvalue", cmd_lambda1,
                        ("a", "a_list", "zeta", "grid_n", "tol", "seed", "out")),
    "uniqueness": _Command("two-seed fixed-point agreement", cmd_uniqueness,
                           ("a", "zeta", "grid_n", "alpha", "p", "tol", "max_iter", "out"),
                           (_NO_BALL_GUARD,), on_quotient=True),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It rejects an unknown flag itself, with its
    own usage line, where argparse would pass it up to the top-level
    parser, whose usage lists only the subcommands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kummerflat",
        description="Verification suites and Monge-Ampere solves for the glued Kummer structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, allow_abbrev=False)
        sp.add_argument("--config", type=Path, default=None,
                        help="JSON file with option defaults; explicit flags win")
        for opt in _command_options(name):
            sp.add_argument("--" + opt.name.replace("_", "-"), default=None, help=opt.help)
        for switch, text in command.switches:
            sp.add_argument("--" + switch.replace("_", "-"), action="store_true", help=text)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO)
    cfg = build_run_config(args, parser)
    models = _validate(cfg, parser)
    _make_out_dir(cfg, parser)
    try:
        return _COMMANDS[cfg.command].handler(cfg, models)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
