"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line
on the live terminal (bypassing capture) and then asserts.  Tolerances
and sample counts are pinned, not tuned.
"""

import time

import numpy as np
import pytest

from kummerflat import cli
from kummerflat import eguchi_hanson as EH
from kummerflat import forms as F
from kummerflat import gibbons_hawking as GH
from kummerflat import kummer as KM
from kummerflat import solver as SV

ZETA_REFERENCE = 1.0 / 9.0
ZETA_RESOLVED = 4.0 / 9.0


def _verdict(capfd, ok, label, detail):
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _min_site_distance(nodes, sites):
    d = KM.wrap_displacement(nodes[:, None, :] - sites[None, :, :])
    return np.min(np.linalg.norm(d, axis=-1), axis=1)


def test_criterion_01_frame_identities(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    checks = [
        cli.check_structure_equations(rng),
        cli.check_kahler_closedness(rng),
        cli.check_quaternion_algebra(),
    ]
    elapsed = time.perf_counter() - t0
    worst = max(c["max_residual"] for c in checks)
    ok = all(c["pass"] for c in checks) and worst < 1e-6 and elapsed < 10.0
    _verdict(capfd, ok, "01 frame structure, closedness, quaternion identities",
             f"max residual {worst:.3g} < 1e-06 over 200 points; {elapsed:.1f} s < 10 s")


def test_criterion_02_potential(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    form_check = cli.check_potential_to_form(rng)
    doubling = cli.check_potential_doubling()
    elapsed = time.perf_counter() - t0
    ok = form_check["pass"] and doubling["pass"] and elapsed < 5.0
    _verdict(capfd, ok, "02 potential reproduces the first form; doubled closed form",
             f"form residual {form_check['max_residual']:.3g} < 1e-06, "
             f"relative doubling residual {doubling['max_residual']:.3g} < 1e-10 "
             f"on [0.1, 10]; {elapsed:.1f} s < 5 s")


def test_criterion_03_ricci_flat(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    check = cli.check_ricci_flat(rng)
    params = EH.EhParams(1.0)
    probe = np.array([2.0, 1.2, 0.8, 1.9])
    metric = lambda c: EH.eh_metric(params, c)
    coarse = np.max(np.abs(EH.ricci_residual(metric, probe, step=2e-3)))
    fine = np.max(np.abs(EH.ricci_residual(metric, probe, step=1e-3)))
    ratio = coarse / fine
    elapsed = time.perf_counter() - t0
    ok = check["pass"] and 2.5 < ratio < 6.0 and elapsed < 60.0
    _verdict(capfd, ok, "03 numerical Ricci flatness with second-order step decay",
             f"max residual {check['max_residual']:.3g} < 1e-04 over 100 points, "
             f"halving ratio {ratio:.2f} in (2.5, 6); {elapsed:.1f} s < 60 s")


def test_criterion_04_gh_eh_isometry(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    iso = cli.check_gh_eh_isometry(0.5, rng)
    curl = cli.check_curl_equation(0.5, 0.0, rng)
    elapsed = time.perf_counter() - t0
    ok = iso["pass"] and curl["pass"] and elapsed < 30.0
    _verdict(capfd, ok, "04 two-center identification with matched parameters",
             f"componentwise metric residual {iso['max_residual']:.3g} < 1e-06 "
             f"over 100 points, curl residual {curl['max_residual']:.3g} < 1e-05; "
             f"{elapsed:.1f} s < 30 s")


def test_criterion_05_holomorphic_volume_form(capfd):
    rng = np.random.default_rng(20260823)
    pullback = cli.check_volume_form_pullback(rng)
    square = cli.check_volume_form_square(rng)
    ok = pullback["pass"] and square["pass"]
    _verdict(capfd, ok, "05 holomorphic volume form as a coordinate-area pullback",
             f"pullback residual {pullback['max_residual']:.3g} < 1e-08 at 20 points, "
             f"wedge square {square['max_residual']:.3g} of round-off size")


def test_criterion_06_kummer_combinatorics(capfd):
    fixed = KM.fixed_points()
    half_lattice = {tuple(v) for v in fixed}
    expected = {tuple(0.5 * np.array(bits)) for bits in np.ndindex(2, 2, 2, 2)}
    count_ok = len(fixed) == 16 and half_lattice == expected

    rng = np.random.default_rng(20260823)
    round_trip = 0.0
    cr_worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.2, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        q = KM.blowup_transition("12", p)
        back = KM.blowup_transition("21", q)
        round_trip = max(round_trip, float(np.max(np.abs(back - p))))
        cr_worst = max(cr_worst, KM.transition_cr_residual("12", p))
        cr_worst = max(cr_worst, KM.transition_cr_residual("21", p))
    ok = count_ok and round_trip < 1e-12 and cr_worst < 1e-7
    _verdict(capfd, ok, "06 sixteen half-lattice fixed points and blow-up charts",
             f"fixed points {'match' if count_ok else 'mismatch'}, round trip "
             f"{round_trip:.3g} < 1e-12, discrete holomorphy residual {cr_worst:.3g} < 1e-07")


def test_criterion_07_support_and_scaling(capfd):
    t0 = time.perf_counter()
    params = SV.NormParams(alpha=0.1, p=6.0)

    # support: away from the gluing balls the error density must sit
    # below ten times a Richardson estimate from one grid halving
    support_ok = True
    support_detail = []
    for zeta in (ZETA_REFERENCE, ZETA_RESOLVED):
        sups = {}
        for n in (8, 16):
            grid = KM.TorusGrid(n)
            model = KM.GluedModel(a=0.05, zeta=zeta)
            prob = SV.Problem.build(model, grid)
            dist = _min_site_distance(grid.nodes(), np.asarray(model.sites))
            outside = dist > zeta / 2.0
            sups[n] = float(np.max(np.abs(prob.ea.reshape(-1)[outside])))
        estimate = abs(sups[16] - sups[8])
        bound = max(10.0 * estimate, 1e-12)
        support_ok = support_ok and sups[16] <= bound
        support_detail.append(f"{sups[16]:.3g} <= {bound:.3g}")

    # scaling slopes on the resolving grid
    grid = KM.TorusGrid(16)
    values = [0.02, 0.04, 0.08]
    sup_norms, y_norms = [], []
    for a in values:
        prob = SV.Problem.build(KM.GluedModel(a=a, zeta=ZETA_RESOLVED), grid)
        sup_norms.append(float(np.max(np.abs(prob.ea))))
        y_norms.append(float(SV.y_norm(prob, params, prob.ea)))
    sup_slope = float(np.polyfit(np.log(values), np.log(sup_norms), 1)[0])
    y_slope = float(np.polyfit(np.log(values), np.log(y_norms), 1)[0])
    elapsed = time.perf_counter() - t0

    ok = (support_ok and abs(sup_slope - 4.0) < 0.5
          and abs(y_slope - 4.0 / 3.0) < 0.4 and elapsed < 300.0)
    _verdict(capfd, ok, "07 error density support and small-parameter scaling",
             f"outside sup vs 10x Richardson: {'; '.join(support_detail)}; "
             f"sup slope {sup_slope:.3f} = 4 +- 0.5, weighted-norm slope "
             f"{y_slope:.3f} = 4/3 +- 0.4; {elapsed:.0f} s < 300 s")


def test_criterion_08_contraction(capfd):
    t0 = time.perf_counter()
    params = SV.NormParams(alpha=0.1, p=6.0)
    scalar = params.contraction_bound(0.01)
    scalar_ok = abs(scalar - 0.2332) <= 1e-4
    prob = SV.Problem.build(KM.GluedModel(a=0.01, zeta=ZETA_REFERENCE), KM.TorusGrid(16))
    ratios = SV.lipschitz_ratios(prob, params, n_pairs=20, seed=0)
    elapsed = time.perf_counter() - t0
    ok = scalar_ok and len(ratios) == 20 and bool(np.all(ratios < 1.0)) and elapsed < 300.0
    _verdict(capfd, ok, "08 fixed-point map contracts on the solution ball",
             f"all 20 sampled ratios < 1 (max {np.max(ratios):.3g}), analytic scalar "
             f"{scalar:.6f} within 1e-4 of 0.2332; {elapsed:.0f} s < 300 s")


def test_criterion_09_end_to_end_solve(capfd):
    t0 = time.perf_counter()
    prob = SV.Problem.build(KM.GluedModel(a=0.05, zeta=ZETA_REFERENCE), KM.TorusGrid(16))
    params = SV.NormParams(alpha=0.1, p=6.0)
    state = SV.banach_solve(prob, params)
    elapsed = time.perf_counter() - t0
    # banach_solve raises unless the iteration converges
    in_ball = all(row["y_norm_psi"] <= state.ball_radius for row in state.trace_rows)
    residual_ok = state.final_ma_sup <= 0.1 * state.initial_ma_sup
    ok = in_ball and residual_ok and state.final_min_eigenvalue > 0 and elapsed < 1800.0
    _verdict(capfd, ok, "09 end-to-end solve at the reference configuration",
             f"converged in {state.iterations} iteration(s), iterates inside radius "
             f"{state.ball_radius:.4f}, final sup residual {state.final_ma_sup:.3g} <= "
             f"0.1 x {state.initial_ma_sup:.3g}, min eigenvalue "
             f"{state.final_min_eigenvalue:.4f} > 0; {elapsed:.0f} s < 1800 s")


def test_criterion_10_uniqueness_and_spectrum(capfd):
    grid = KM.TorusGrid(16)
    params = SV.NormParams(alpha=0.1, p=6.0)
    reference = SV.Problem.build(KM.GluedModel(a=0.05, zeta=ZETA_REFERENCE), grid)

    state_a = SV.banach_solve(reference, params)
    state_b = SV.banach_solve(reference, params, psi0=-reference.ea)
    gap = SV.potential_gap(reference, state_a, state_b)
    gap_ok = gap < 10.0 * SV.DEFAULT_FIXED_POINT_TOL

    lam_flat = SV.lambda1_estimate(reference)
    continuum = (2.0 * np.pi) ** 2
    flat_ok = abs(lam_flat - continuum) / continuum < 0.03

    lams = []
    for a in (0.02, 0.05, 0.08):
        prob = SV.Problem.build(KM.GluedModel(a=a, zeta=ZETA_RESOLVED), grid)
        lams.append(SV.lambda1_estimate(prob))
    lams = np.array(lams)
    spread = float((lams.max() - lams.min()) / lams.min())
    spread_ok = spread < 0.10

    poincare = SV.poincare_check(reference, lam_flat)

    ok = gap_ok and flat_ok and spread_ok and poincare["all_pass"]
    _verdict(capfd, ok, "10 uniqueness up to constants and spectral stability",
             f"two-seed gap {gap:.3g} < {10.0 * SV.DEFAULT_FIXED_POINT_TOL:.0e}, "
             f"bottom eigenvalue within {abs(lam_flat - continuum) / continuum:.2%} of the "
             f"flat value (< 3%), spread {spread:.2%} < 10% across deformations, "
             f"spectral-gap inequality holds for 20 fields")
