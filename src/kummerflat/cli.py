"""Command-line driver for the verification suites, scaling sweeps,
Monge-Ampere solves, and spectral checks.

Subcommands: verify-eh, verify-gh, scaling, solve, lambda1,
uniqueness.  Options come from flags with an optional JSON config
file (explicit flags win); every command is deterministic given its
configuration, prints one line per executed check, writes artifacts
under the output directory, and exits 0 exactly when every executed
check passes.  Invalid configurations are rejected before any
computation with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eguchi_hanson as eh
from . import forms
from . import gibbons_hawking as gh
from . import kummer
from . import solver

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated options shared by all subcommands."""

    command: str
    a: float = 0.05
    zeta: float = 1.0 / 9.0
    grid_n: int = 16
    alpha: float = 0.1
    p: float = 6.0
    tol: float = solver.DEFAULT_FIXED_POINT_TOL
    max_iter: int = 40
    seed: int = 0
    out: Path = Path(".")

    def norm_params(self):
        return solver.NormParams(alpha=self.alpha, p=self.p)

    def model(self, a=None):
        return kummer.GluedModel(a=self.a if a is None else a, zeta=self.zeta)

    def grid(self):
        return kummer.TorusGrid(self.grid_n)


_CORE_KEYS = {
    "a": float,
    "zeta": float,
    "grid_n": int,
    "alpha": float,
    "p": float,
    "tol": float,
    "max_iter": int,
    "seed": int,
    "out": Path,
}
_EXTRA_KEYS = {"a_list": str, "c": float, "eps_gh": float}


def _read_config_file(path, parser):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_CORE_KEYS) - set(_EXTRA_KEYS)
    if unknown:
        parser.error(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def _merged(args, file_cfg, key, cast, fallback):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return cast(file_cfg[key])
    return fallback


def build_run_config(args, parser):
    file_cfg = _read_config_file(args.config, parser) if args.config else {}
    defaults = RunConfig(command=args.command)
    values = {
        key: _merged(args, file_cfg, key, cast, getattr(defaults, key))
        for key, cast in _CORE_KEYS.items()
    }
    cfg = RunConfig(command=args.command, **values)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        parser.error(f"output directory {out} is not writable")
    return cfg, file_cfg


def _parse_a_list(text, parser):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"cannot parse deformation parameter list {text!r}")
    if not values:
        parser.error("empty deformation parameter list")
    return values


def _validate(cfg, parser, a_values=None, gh_extra=None):
    """Re-run the library invariant guards at parse time.

    Returns the glued models the command runs on, one per deformation
    parameter, so that each is built (and its regime logged) once."""
    models = []
    try:
        if cfg.command in ("scaling", "solve", "lambda1", "uniqueness"):
            cfg.norm_params()
            cfg.grid()
            models = [cfg.model(a) for a in (a_values if a_values is not None else [cfg.a])]
        if cfg.command == "verify-gh":
            gh.two_center_config(gh_extra["c"], gh_extra["eps_gh"])
    except ValueError as exc:
        parser.error(str(exc))
    return models


# ---------------------------------------------------------------------------
# check plumbing


def _entry(name, residual, tolerance):
    residual = float(residual)
    return {
        "check": name,
        "max_residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _print_report(checks, path):
    """One line per check; returns True when every executed check passed."""
    ok = True
    failed = []
    for c in checks:
        if c.get("skipped"):
            print(f"SKIP {c['check']}: {c['note']}")
            continue
        status = "PASS" if c["pass"] else "FAIL"
        print(
            f"{status} {c['check']}: max residual %.17g (tolerance %.17g)"
            % (c["max_residual"], c["tolerance"])
        )
        if not c["pass"]:
            failed.append(c["check"])
        ok = ok and c["pass"]
    print(f"wrote {path}")
    if ok:
        print("all executed checks passed")
    else:
        print("failed checks: " + ", ".join(failed))
    return ok


def _radial_points(rng, n, r_lo=1.2, r_hi=4.0, pole_margin=0.3):
    """Radial-chart samples away from the bolt and the polar axes."""
    pts = np.empty((n, 4))
    pts[:, 0] = rng.uniform(r_lo, r_hi, n)
    pts[:, 1] = rng.uniform(pole_margin, np.pi - pole_margin, n)
    pts[:, 2] = rng.uniform(0.0, 2.0 * np.pi, n)
    pts[:, 3] = rng.uniform(0.0, 4.0 * np.pi, n)
    return pts


def _resolving_points(rng, n, u_lo=0.3, u_hi=3.0, pole_margin=0.3):
    pts = _radial_points(rng, n, pole_margin=pole_margin)
    pts[:, 0] = rng.uniform(u_lo, u_hi, n)
    return pts


# ---------------------------------------------------------------------------
# Eguchi-Hanson verification suite


def check_structure_equations(rng, n_points=200, step=1e-4, flip_sigma2_sign=False):
    """d sigma_i = 2 sigma_j ^ sigma_k for the cyclic triple; the sign
    flip is a mutation hook that must make this check fail."""
    s1, s2, s3 = eh.sigma_forms()
    if flip_sigma2_sign:
        s2 = s2 * (-1.0)
    pts = _radial_points(rng, n_points)
    worst = 0.0
    for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        resid = forms.ext_d(a, step=step) - forms.wedge(b, c) * 2.0
        worst = max(worst, max(resid.max_abs(p) for p in pts))
    return _entry("frame-structure-equations", worst, 1e-6)


def check_kahler_closedness(rng, n_points=200, step=1e-4, params=None):
    params = params if params is not None else eh.EhParams(1.0)
    pts = _radial_points(rng, n_points)
    worst = 0.0
    for om in eh.kahler_forms(params):
        d = forms.ext_d(om, step=step)
        worst = max(worst, max(d.max_abs(p) for p in pts))
    return _entry("kahler-forms-closed", worst, 1e-6)


def check_quaternion_algebra():
    mats = (eh.STRUCTURE_I, eh.STRUCTURE_J, eh.STRUCTURE_K)
    eye = np.eye(4)
    worst = max(np.max(np.abs(m @ m + eye)) for m in mats)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        worst = max(worst, np.max(np.abs(mats[a] @ mats[b] + mats[c])))
    return _entry("quaternion-algebra", worst, 1e-6)


def check_potential_to_form(rng, n_points=200, step=1e-4, params=None):
    """-1/2 d(I grad-potential differential) reproduces the first
    Kahler form."""
    params = params if params is not None else eh.EhParams(1.0)
    strs = eh.complex_structures(params)
    cand = forms.ext_d(forms.apply_J(strs["I"], eh.potential_differential(params)), step=step) * (-0.5)
    target = eh.kahler_forms(params)[0]
    pts = _radial_points(rng, n_points)
    worst = max((cand - target).max_abs(p) for p in pts)
    return _entry("potential-to-first-form", worst, 1e-6)


def check_potential_doubling(n_points=41, params=None):
    """Twice the potential equals the closed-form doubled reference,
    relative to its scale."""
    params = params if params is not None else eh.EhParams(1.0)
    worst = 0.0
    for u in np.geomspace(0.1, 10.0, n_points):
        scale = max(abs(eh.doubled_potential_reference(params, u)), 1.0)
        worst = max(worst, eh.joyce_potential_check(params, u) / scale)
    return _entry("potential-doubling-factor", worst, 1e-10)


def check_volume_form_pullback(rng, n_points=20, params=None):
    params = params if params is not None else eh.EhParams(1.0)
    emb = eh.resolving_to_complex()
    target = eh.holomorphic_volume_form(params)
    pb = forms.pullback(emb, eh.complex_coordinate_area_form())
    worst = max((pb - target).max_abs(c) for c in _resolving_points(rng, n_points))
    return _entry("holomorphic-volume-pullback", worst, 1e-8)


def check_volume_form_square(rng, n_points=10, params=None):
    """The wedge square of the holomorphic volume form vanishes to
    round-off, relative to the squared form scale."""
    params = params if params is not None else eh.EhParams(1.0)
    om = eh.holomorphic_volume_form(params)
    sq = forms.wedge(om, om)
    worst = 0.0
    for c in _resolving_points(rng, n_points):
        scale = max(om.max_abs(c) ** 2, 1e-300)
        worst = max(worst, abs(sq.coeff((0, 1, 2, 3), c)) / scale)
    return _entry("holomorphic-volume-square", worst, 1e-13)


def check_ricci_flat(rng, n_points=100, step=1e-3, params=None):
    params = params if params is not None else eh.EhParams(1.0)
    pts = _radial_points(rng, n_points, r_lo=1.5, pole_margin=0.5)
    worst = max(
        np.max(np.abs(eh.ricci_residual(lambda c: eh.eh_metric(params, c), c, step=step)))
        for c in pts
    )
    return _entry("ricci-flat", worst, 1e-4)


def verify_eh_checks(seed=0, inject_sigma2=False, structure_points=200, ricci_points=100):
    rng = np.random.default_rng(seed)
    params = eh.EhParams(1.0)
    return [
        check_structure_equations(rng, structure_points, flip_sigma2_sign=inject_sigma2),
        check_kahler_closedness(rng, structure_points, params=params),
        check_quaternion_algebra(),
        check_potential_to_form(rng, structure_points, params=params),
        check_potential_doubling(params=params),
        check_volume_form_pullback(rng, params=params),
        check_volume_form_square(rng, params=params),
        check_ricci_flat(rng, ricci_points, params=params),
    ]


def cmd_verify_eh(cfg, inject_sigma2=False):
    checks = verify_eh_checks(seed=cfg.seed, inject_sigma2=inject_sigma2)
    path = Path(cfg.out) / "verify_eh.json"
    solver.dump_json(checks, path)
    return 0 if _print_report(checks, path) else 1


# ---------------------------------------------------------------------------
# Gibbons-Hawking verification suite


def check_curl_equation(c, eps_gh, rng, n_points=100, step=1e-4):
    """curl A = grad V in the orthonormal cylindrical frame."""
    cfg = gh.two_center_config(c, eps_gh)
    worst = 0.0
    for _ in range(n_points):
        p = gh.CylPoint(
            rng.uniform(0.0, 4.0 * np.pi),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.0, 2.0 * np.pi),
            rng.uniform(-1.5, 1.5),
        )
        worst = max(worst, np.max(np.abs(gh.curl_residual(cfg, p, step=step))))
    return _entry("connection-curl", worst, 1e-5)


def check_harmonic_potential(c, eps_gh, rng, n_points=50, step=1e-2, clearance=1.0):
    cfg = gh.two_center_config(c, eps_gh)
    centers = [np.asarray(ctr) for ctr in cfg.centers]
    worst = 0.0
    kept = 0
    while kept < n_points:
        x = rng.uniform(-2.5, 2.5, 3)
        if min(np.linalg.norm(x - ctr) for ctr in centers) < clearance:
            continue
        worst = max(worst, abs(gh.harmonic_residual(cfg, x, step=step)))
        kept += 1
    return _entry("potential-harmonic", worst, 1e-6)


def check_gh_eh_isometry(c, rng, n_points=100):
    """Pullback of the two-center metric matches the scaled
    Eguchi-Hanson metric with matched parameters."""
    a = np.sqrt(2.0 * c)
    pts = _radial_points(rng, n_points, r_lo=1.2 * a, r_hi=4.0 * a)
    worst = max(gh.isometry_residual(c, p) for p in pts)
    return _entry("gh-eh-isometry", worst, 1e-6)


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


def cmd_verify_gh(cfg, c, eps_gh):
    checks = verify_gh_checks(c, eps_gh, seed=cfg.seed)
    path = Path(cfg.out) / "verify_gh.json"
    solver.dump_json(checks, path)
    return 0 if _print_report(checks, path) else 1


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
    path = Path(cfg.out) / "scaling.csv"
    with open(path, "w", newline="") as fh:
        fh.write("a,sup_ea,y_norm_ea,lambda\n")
        for r in rows:
            fh.write(",".join("%.17g" % r[k] for k in ("a", "sup_ea", "y_norm_ea", "lambda")) + "\n")
        fh.write("# " + solver.json_text(footer, indent=None) + "\n")
    for r in rows:
        print(
            "a=%.17g sup_ea=%.17g y_norm_ea=%.17g lambda=%.17g"
            % (r["a"], r["sup_ea"], r["y_norm_ea"], r["lambda"])
        )
    print("slopes: " + solver.json_text(footer, indent=None))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# solve, spectrum, uniqueness


def cmd_solve(cfg, model, ball_guard=True):
    prob = solver.Problem.build(model, cfg.grid())
    params = cfg.norm_params()
    state = solver.banach_solve(
        prob, params, tol=cfg.tol, max_iter=cfg.max_iter, enforce_ball=ball_guard
    )
    out = Path(cfg.out)
    trace_path = out / "solve_trace.csv"
    solver.write_trace_csv(state, trace_path)
    field_path = out / "corrected_field.kmf"
    kummer.save_field(solver.corrected_field(prob, state.phi), field_path)
    summary = solver.write_summary_json(
        state,
        out / "solve_summary.json",
        extra={
            "a": cfg.a,
            "zeta": cfg.zeta,
            "grid_n": cfg.grid_n,
            "alpha": cfg.alpha,
            "p": cfg.p,
            "seed": cfg.seed,
        },
    )
    print("converged=%s iterations=%d" % (str(summary["converged"]).lower(), summary["iterations"]))
    print("residual_ratio=%.17g" % summary["residual_ratio"])
    print("min_eigenvalue=%.17g" % summary["min_eigenvalue"])
    for p in (trace_path, field_path, out / "solve_summary.json"):
        print(f"wrote {p}")
    ok = state.converged and state.final_min_eigenvalue > 0
    return 0 if ok else 1


def lambda1_report(cfg, models):
    grid = cfg.grid()
    n = cfg.grid_n
    flat_discrete = float(4.0 * n**2 * np.sin(np.pi / n) ** 2)
    values = []
    checks = []
    flat_grid = True
    last_prob = None
    for model in models:
        prob = solver.Problem.build(model, grid)
        lam1 = solver.lambda1_estimate(prob, tol=min(cfg.tol, 1e-6), seed=cfg.seed)
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
    violation = max(0.0, -float(np.min(poincare["margins"])))
    entry = _entry("poincare-inequality", violation, 1e-10)
    entry["pass"] = poincare["all_pass"]
    checks.append(entry)
    report = {
        "grid_n": n,
        "flat_discrete_eigenvalue": flat_discrete,
        "values": values,
        "checks": checks,
    }
    return report, checks


def cmd_lambda1(cfg, models):
    report, checks = lambda1_report(cfg, models)
    path = Path(cfg.out) / "lambda1.json"
    solver.dump_json(report, path)
    for v in report["values"]:
        print("a=%.17g lambda1=%.17g" % (v["a"], v["lambda1"]))
    return 0 if _print_report(checks, path) else 1


def cmd_uniqueness(cfg, model, ball_guard=True):
    prob = solver.Problem.build(model, cfg.grid())
    params = cfg.norm_params()
    gap = solver.uniqueness_check(
        prob, params, psi0_a=None, psi0_b=-prob.ea,
        tol=cfg.tol, max_iter=cfg.max_iter, enforce_ball=ball_guard,
    )
    s1 = solver.banach_solve(prob, params, tol=cfg.tol, max_iter=cfg.max_iter, enforce_ball=ball_guard)
    s2 = solver.banach_solve(prob, params, tol=cfg.tol, max_iter=cfg.max_iter, enforce_ball=ball_guard)
    det_gap = float(np.max(np.abs(s1.psi - s2.psi)))
    checks = [
        _entry("two-seed-agreement", gap, 10.0 * cfg.tol),
        _entry("rerun-determinism", det_gap, 0.0),
    ]
    path = Path(cfg.out) / "uniqueness.json"
    solver.dump_json(checks, path)
    return 0 if _print_report(checks, path) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--config", type=Path, default=None,
                    help="JSON file with option defaults; explicit flags win")
    sp.add_argument("--a", type=float, default=None, help="deformation parameter")
    sp.add_argument("--zeta", type=float, default=None, help="gluing radius")
    sp.add_argument("--grid-n", type=int, default=None, help="grid nodes per axis")
    sp.add_argument("--alpha", type=float, default=None, help="Hölder exponent")
    sp.add_argument("--p", type=float, default=None, help="integrability exponent")
    sp.add_argument("--tol", type=float, default=None, help="iteration tolerance")
    sp.add_argument("--max-iter", type=int, default=None, help="iteration budget")
    sp.add_argument("--seed", type=int, default=None, help="sampling seed")
    sp.add_argument("--out", type=Path, default=None, help="artifact directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kummerflat",
        description="Verification suites and Monge-Ampere solves for the glued Kummer structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eh = sub.add_parser("verify-eh", help="Eguchi-Hanson identity suite")
    _add_common(p_eh)
    p_eh.add_argument("--inject-sigma2-sign-error", action="store_true",
                      help=argparse.SUPPRESS)

    p_gh = sub.add_parser("verify-gh", help="Gibbons-Hawking ansatz suite")
    _add_common(p_gh)
    p_gh.add_argument("--c", type=float, default=None, help="half-separation of the two centers")
    p_gh.add_argument("--eps-gh", type=float, default=None, help="additive potential constant")

    p_sc = sub.add_parser("scaling", help="error-density scaling sweep")
    _add_common(p_sc)
    p_sc.add_argument("--a-list", type=str, default=None,
                      help="comma-separated deformation parameters")

    p_sv = sub.add_parser("solve", help="run the fixed-point solve")
    _add_common(p_sv)
    p_sv.add_argument("--no-ball-guard", action="store_true",
                      help="disable the fixed-point ball containment guard")

    p_l1 = sub.add_parser("lambda1", help="smallest nonzero Laplacian eigenvalue")
    _add_common(p_l1)
    p_l1.add_argument("--a-list", type=str, default=None,
                      help="comma-separated deformation parameters")

    p_un = sub.add_parser("uniqueness", help="two-seed fixed-point agreement")
    _add_common(p_un)
    p_un.add_argument("--no-ball-guard", action="store_true",
                      help="disable the fixed-point ball containment guard")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO)
    cfg, file_cfg = build_run_config(args, parser)

    a_values = None
    if args.command in ("scaling", "lambda1"):
        text = _merged(args, file_cfg, "a_list", str, None)
        a_values = _parse_a_list(text, parser) if text is not None else [cfg.a]
    gh_extra = None
    if args.command == "verify-gh":
        gh_extra = {
            "c": _merged(args, file_cfg, "c", float, 0.5),
            "eps_gh": _merged(args, file_cfg, "eps_gh", float, 0.0),
        }
    models = _validate(cfg, parser, a_values=a_values, gh_extra=gh_extra)

    try:
        if args.command == "verify-eh":
            return cmd_verify_eh(cfg, inject_sigma2=args.inject_sigma2_sign_error)
        if args.command == "verify-gh":
            return cmd_verify_gh(cfg, gh_extra["c"], gh_extra["eps_gh"])
        if args.command == "scaling":
            return cmd_scaling(cfg, models)
        if args.command == "solve":
            return cmd_solve(cfg, models[0], ball_guard=not args.no_ball_guard)
        if args.command == "lambda1":
            return cmd_lambda1(cfg, models)
        if args.command == "uniqueness":
            return cmd_uniqueness(cfg, models[0], ball_guard=not args.no_ball_guard)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
