import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerflat import kummer as km
from kummerflat import solver as sv

from conftest import complex_matrix


@pytest.fixture(scope="module")
def grid16():
    return km.TorusGrid(16)


@pytest.fixture(scope="module")
def flat_problem(grid16):
    # the default gluing radius keeps every node outside the balls
    return sv.Problem.build(km.GluedModel(a=0.05, zeta=1.0 / 9.0), grid16)


@pytest.fixture(scope="module")
def resolved_problem(grid16):
    return sv.Problem.build(km.GluedModel(a=0.05, zeta=4.0 / 9.0), grid16)


@pytest.fixture(scope="module")
def params():
    return sv.NormParams(alpha=0.1, p=6.0)


def _coords(grid):
    ax = grid.axis_coordinates()
    return np.meshgrid(ax, ax, ax, ax, indexing="ij")


FLAT_EIGENVALUE_16 = 4.0 * 16**2 * np.sin(np.pi / 16) ** 2


class TestNormParams:
    def test_derived_exponent(self):
        p = sv.NormParams()
        assert abs(p.resolved_eps() - 4.0 / 3.0) < 1e-15

    def test_contraction_scalar(self):
        p = sv.NormParams(alpha=0.1)
        assert abs(p.contraction_bound(0.01) - 0.2332) < 1e-4

    def test_ball_radius_value(self):
        p = sv.NormParams(alpha=0.1)
        assert abs(p.ball_radius(0.01) - 0.0464159) < 1e-6

    def test_rejections(self):
        with pytest.raises(ValueError, match="1/3"):
            sv.NormParams(alpha=0.4)
        with pytest.raises(ValueError, match="1/3"):
            sv.NormParams(alpha=0.0)
        with pytest.raises(ValueError, match="nonpositive"):
            sv.NormParams(p=2.0)
        with pytest.raises(ValueError, match="contraction window"):
            sv.NormParams(alpha=0.32, p=3.0)
        for p in (float("nan"), 0.0, -3.0):
            with pytest.raises(ValueError, match="must be positive"):
                sv.NormParams(p=p)

    def test_sampling_radius_default(self):
        p = sv.NormParams()
        assert p.resolved_r_ball(0.05, 1.0 / 16.0) == 0.125
        assert p.resolved_r_ball(0.3, 1.0 / 16.0) == 0.3


class TestLaplacian:
    def test_flat_eigenfunction(self, flat_problem, grid16):
        X = _coords(grid16)
        u = np.sin(2 * np.pi * X[0])
        Lu = sv.laplacian(flat_problem, u)
        assert np.max(np.abs(Lu + FLAT_EIGENVALUE_16 * u)) < 1e-9

    def test_flat_eigenvalue_near_continuum(self):
        assert abs(FLAT_EIGENVALUE_16 - (2 * np.pi) ** 2) / (2 * np.pi) ** 2 < 0.02

    def test_constant_killed(self, flat_problem):
        u = np.full(flat_problem.shape, 2.5)
        assert np.allclose(sv.laplacian(flat_problem, u), 0.0)

    def test_weighted_mean_vanishes_flat(self, flat_problem, grid16):
        rng = np.random.default_rng(2)
        u = sv.random_smooth_field(grid16, rng)
        Lu = sv.laplacian(flat_problem, u)
        assert abs(sv.weighted_mean(flat_problem, Lu)) < 1e-8 * np.max(np.abs(Lu))

    def test_self_adjoint_flat(self, flat_problem, grid16):
        rng = np.random.default_rng(3)
        u = sv.random_smooth_field(grid16, rng)
        v = sv.random_smooth_field(grid16, rng)
        left = np.sum(flat_problem.weight * sv.laplacian(flat_problem, u) * v)
        right = np.sum(flat_problem.weight * u * sv.laplacian(flat_problem, v))
        assert abs(left - right) < 1e-6 * abs(left)

    def test_rayleigh_nonpositive_flat(self, flat_problem, grid16):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = sv.random_smooth_field(grid16, rng)
            u -= sv.weighted_mean(flat_problem, u)
            ray = np.sum(flat_problem.weight * sv.laplacian(flat_problem, u) * u)
            assert ray <= 1e-8 * np.sum(flat_problem.weight * u * u)

    def test_rejects_nonfinite(self, flat_problem):
        bad = np.full(flat_problem.shape, np.nan)
        with pytest.raises(ValueError, match="finite"):
            sv.laplacian(flat_problem, bad)


class TestInversion:
    def test_flat_mode_inverted(self, flat_problem, grid16):
        X = _coords(grid16)
        f = np.sin(2 * np.pi * X[0])
        u, info = sv.invert_laplacian(flat_problem, f)
        assert np.max(np.abs(u + f / FLAT_EIGENVALUE_16)) < 1e-10
        assert info["relative_residual"] <= sv.DEFAULT_INVERT_TOL

    def test_recovers_known_field(self, flat_problem, grid16):
        rng = np.random.default_rng(5)
        u0 = sv.random_smooth_field(grid16, rng)
        u0 -= sv.weighted_mean(flat_problem, u0)
        f = sv.laplacian(flat_problem, u0)
        u, _ = sv.invert_laplacian(flat_problem, f)
        assert np.max(np.abs(u - u0)) < 1e-7 * np.max(np.abs(u0))

    def test_resolved_convergence_and_defect(self, resolved_problem, grid16):
        # curved coefficients: projected residual hits tolerance, the
        # constant-direction defect stays at truncation level
        rng = np.random.default_rng(6)
        f = sv.project_mean_zero(resolved_problem, sv.random_smooth_field(grid16, rng))
        u, info = sv.invert_laplacian(resolved_problem, f)
        assert info["relative_residual"] <= sv.DEFAULT_INVERT_TOL
        assert info["mean_defect"] < 1e-3
        assert abs(sv.weighted_mean(resolved_problem, u)) < 1e-12

    def test_zero_data(self, flat_problem):
        u, info = sv.invert_laplacian(flat_problem, np.zeros(flat_problem.shape))
        assert np.all(u == 0.0)
        assert info["iterations"] == 0

    def test_iteration_budget_error(self, resolved_problem, grid16):
        rng = np.random.default_rng(7)
        f = sv.project_mean_zero(resolved_problem, sv.random_smooth_field(grid16, rng))
        with pytest.raises(RuntimeError, match="did not reach tolerance"):
            sv.invert_laplacian(resolved_problem, f, tol=1e-14, max_iter=2)

    def test_deterministic(self, resolved_problem, grid16):
        rng = np.random.default_rng(8)
        f = sv.project_mean_zero(resolved_problem, sv.random_smooth_field(grid16, rng))
        u1, _ = sv.invert_laplacian(resolved_problem, f)
        u2, _ = sv.invert_laplacian(resolved_problem, f)
        assert np.all(u1 == u2)

    def test_breakdown_error(self, resolved_problem, grid16, monkeypatch):
        f = sv.project_mean_zero(resolved_problem, sv.random_smooth_field(grid16, np.random.default_rng(7)))
        monkeypatch.setattr(sv, "_glued_operator", lambda problem, u, out: np.multiply(u, 0.0, out=out))
        with pytest.raises(RuntimeError, match="BiCGStab breakdown"):
            sv.invert_laplacian(resolved_problem, f)


class TestNonSymmetricInversion:
    """The a=0.08 glued field at n=24, where the lambda1 inversions at
    tolerance 1e-9 stagnated under conjugate gradients."""

    TOL = 1e-9

    @pytest.fixture(scope="class")
    def problem(self):
        return sv.Problem.build(km.GluedModel(a=0.08, zeta=4.0 / 9.0), km.TorusGrid(24))

    @pytest.fixture(scope="class")
    def solved(self, problem):
        f = sv.project_mean_zero(problem, sv.random_smooth_field(problem.grid, np.random.default_rng(31)))
        u, info = sv.invert_laplacian(problem, f, tol=self.TOL)
        return f, u, info

    def test_operator_is_not_symmetric(self, problem):
        rng = np.random.default_rng(30)
        u, v = sv.random_smooth_field(problem.grid, rng), sv.random_smooth_field(problem.grid, rng)
        u_Bv = float(np.vdot(u, sv._glued_operator(problem, v)))
        v_Bu = float(np.vdot(v, sv._glued_operator(problem, u)))
        assert abs(u_Bv - v_Bu) / abs(u_Bv) > 1e-3

    def test_true_residual_within_tolerance(self, problem, solved):
        f, u, info = solved
        assert 0 < info["iterations"] < 80
        g = -f * problem.dets
        g -= g.mean()
        true = float(np.linalg.norm(sv._glued_operator(problem, u) - g)) / float(np.linalg.norm(g))
        assert true <= self.TOL
        assert info["relative_residual"] <= self.TOL

    def test_warm_start_from_solution_takes_no_steps(self, problem, solved):
        f, u, _ = solved
        u_again, info = sv.invert_laplacian(problem, f, tol=self.TOL, u0=u)
        assert info["iterations"] == 0
        assert info["relative_residual"] <= self.TOL
        assert float(np.max(np.abs(u_again - u))) <= 1e-12 * float(np.max(np.abs(u)))


class TestNorms:
    def test_constant_l2(self):
        c = np.full((16,) * 4, 3.0)
        assert abs(sv._weighted_l2(c, np.full(c.shape, 1 / c.size)) - 3.0) < 1e-12

    def test_sobolev_against_fourier(self, grid16):
        X = _coords(grid16)
        f = np.sin(2 * np.pi * X[0])
        w = 2 * np.pi
        continuum = np.sqrt(0.5 * (1 + w**2 + w**4))
        discrete = _ref_sobolev_l22_norm(f, grid16.spacing, np.full(f.shape, 1 / f.size))
        assert abs(discrete - continuum) / continuum < 0.02

    def test_holder_seminorm_tracks_roughness(self, grid16):
        # fractional cusp |x - x0|^1/2: quotient grows as alpha rises
        # toward the cusp exponent
        X = _coords(grid16)
        f = np.abs(X[0] - 0.5) ** 0.5
        low = sv.holder_seminorm(f, grid16.spacing, 0.1, 0.13)
        high = sv.holder_seminorm(f, grid16.spacing, 0.45, 0.13)
        assert high > low > 0

    def test_x_norm_homogeneity(self, flat_problem, params, grid16):
        rng = np.random.default_rng(9)
        f = sv.project_mean_zero(flat_problem, sv.random_smooth_field(grid16, rng))
        one = sv.x_norm(flat_problem, params, f)
        two = sv.x_norm(flat_problem, params, 2 * f)
        assert abs(two - 2 * one) < 1e-9 * one

    def test_zero_field(self, flat_problem, params):
        assert sv.y_norm(flat_problem, params, np.zeros(flat_problem.shape)) == 0.0

    def test_mean_zero_guard(self, flat_problem, params):
        with pytest.raises(ValueError, match="mean-zero"):
            sv.y_norm(flat_problem, params, np.full(flat_problem.shape, 1.0))

    def test_nonfinite_guard(self, flat_problem, params):
        with pytest.raises(ValueError, match="finite"):
            sv.y_norm(flat_problem, params, np.full(flat_problem.shape, np.inf))

    @pytest.mark.parametrize("norm", [sv.y_norm, sv.x_norm])
    def test_one_finite_check_per_norm(self, flat_problem, params, monkeypatch, norm):
        calls = []
        require_finite = sv._require_finite

        def counting_require_finite(f, what):
            calls.append(what)
            return require_finite(f, what)

        monkeypatch.setattr(sv, "_require_finite", counting_require_finite)
        norm(flat_problem, params, flat_problem.ea)
        assert calls == ["norm input"]

    @pytest.mark.parametrize("norm", [sv.y_norm, sv.x_norm])
    def test_nonfinite_entry_rejected_before_arithmetic(self, flat_problem, params, norm):
        # one inf entry must raise the finiteness error, not a
        # RuntimeWarning from inf - inf in the mean subtraction
        f = np.zeros(flat_problem.shape)
        f[3, 1, 4, 1] = np.inf
        with pytest.raises(ValueError, match="norm input must be finite"):
            norm(flat_problem, params, f)

    def test_error_density_y_slope(self, grid16, params):
        values = [0.02, 0.04, 0.08]
        norms = []
        for a in values:
            prob = sv.Problem.build(km.GluedModel(a=a, zeta=4.0 / 9.0), grid16)
            norms.append(sv.y_norm(prob, params, prob.ea))
        slope = np.polyfit(np.log(values), np.log(norms), 1)[0]
        assert 4.0 / 3.0 - 0.4 < slope < 4.0 / 3.0 + 0.4


class TestQuadraticRemainder:
    def test_zero(self, flat_problem):
        assert np.all(sv.quadratic_Q(flat_problem, np.zeros(flat_problem.shape)) == 0.0)

    def test_degree_two_homogeneity(self, flat_problem, grid16):
        rng = np.random.default_rng(10)
        u = sv.random_smooth_field(grid16, rng)
        q = sv.quadratic_Q(flat_problem, u)
        q2 = sv.quadratic_Q(flat_problem, 2 * u)
        assert np.max(np.abs(q2 - 4 * q)) < 1e-12 * max(np.max(np.abs(q)), 1e-30)

    def test_difference_envelope_finite(self, params, grid16):
        prob = sv.Problem.build(km.GluedModel(a=0.01, zeta=1.0 / 9.0), grid16)
        env = sv.quadratic_envelope(prob, params, n_pairs=5, seed=9)
        assert np.all(np.isfinite(env["ratios"]))
        assert env["fitted_constant"] > 0


class TestMaResidual:
    def test_flat_zero(self, flat_problem):
        zero = sv.corrected_field(flat_problem, np.zeros(flat_problem.shape))
        res = sv.ma_residual(flat_problem, zero)
        assert np.max(np.abs(res)) == 0.0

    def test_zero_potential_identity(self, resolved_problem):
        # the defect of the uncorrected form is the error density times
        # the density ratio, an exact algebraic rearrangement
        zero = sv.corrected_field(resolved_problem, np.zeros(resolved_problem.shape))
        res = sv.ma_residual(resolved_problem, zero)
        ident = resolved_problem.ea * 2.0 * resolved_problem.dets / resolved_problem.lam
        assert np.max(np.abs(res - ident)) < 1e-10

    def test_positivity_guard(self, flat_problem, grid16):
        X = _coords(grid16)
        huge = 5.0 * np.sin(2 * np.pi * X[0])
        with pytest.raises(ValueError, match="positive definite"):
            sv.ma_residual(flat_problem, sv.corrected_field(flat_problem, huge))


class TestFixedPoint:
    def test_reference_solve(self, flat_problem, params):
        state = sv.banach_solve(flat_problem, params)
        assert state.iterations == 1
        assert state.final_ma_sup <= 0.1 * state.initial_ma_sup + 1e-15
        assert state.final_min_eigenvalue > 0
        assert state.mean_zero_defect < 1e-12
        assert all(row["y_norm_psi"] <= state.ball_radius for row in state.trace_rows)

    def test_small_parameter_degenerates(self, grid16, params):
        prob = sv.Problem.build(km.GluedModel(a=1e-3, zeta=1.0 / 9.0), grid16)
        state = sv.banach_solve(prob, params)
        assert state.iterations == 1
        assert np.max(np.abs(state.psi)) == 0.0

    def test_resolved_default_escapes_ball(self, resolved_problem, params):
        # the error density is far outside the radius-R ball once the
        # grid resolves the annuli: the guard must fire with advice
        with pytest.raises(ValueError, match="reduce the deformation parameter"):
            sv.banach_solve(resolved_problem, params)

    def test_resolved_solve_without_ball_guard(self, resolved_problem, params):
        state = sv.banach_solve(resolved_problem, params, enforce_ball=False)
        assert state.final_ma_sup <= 0.1 * state.initial_ma_sup
        assert state.final_min_eigenvalue > 0
        ratios = [row["lipschitz_sample_max"] for row in state.trace_rows]
        ratios = [r for r in ratios if np.isfinite(r)]
        assert all(r < 1 for r in ratios)

    def test_lipschitz_ratios_contract(self, grid16, params):
        prob = sv.Problem.build(km.GluedModel(a=0.01, zeta=1.0 / 9.0), grid16)
        ratios = sv.lipschitz_ratios(prob, params, n_pairs=8, seed=3)
        assert np.all(ratios < 1.0)
        assert np.all(ratios >= 0.0)

    def test_inversions_warm_start(self, resolved_problem, params, monkeypatch):
        calls = []
        invert = sv.invert_laplacian

        def recording_invert(problem, f, tol=sv.DEFAULT_INVERT_TOL, max_iter=600, u0=None):
            u, info = invert(problem, f, tol=tol, max_iter=max_iter, u0=u0)
            calls.append((u0, u))
            return u, info

        monkeypatch.setattr(sv, "invert_laplacian", recording_invert)
        state = sv.banach_solve(resolved_problem, params, enforce_ball=False)
        assert len(calls) == state.iterations + 1
        assert calls[0][0] is None
        # each later inversion, the final one included, starts from the
        # potential the one before returned
        for (_, previous), (start, _) in zip(calls, calls[1:]):
            assert start is previous

    def test_min_eigenvalue_once_per_step(self, resolved_problem, params, monkeypatch):
        calls = []
        min_eig = km.hermitian_min_eig

        def counting_min_eig(h):
            calls.append(True)
            return min_eig(h)

        monkeypatch.setattr(km, "hermitian_min_eig", counting_min_eig)
        state = sv.banach_solve(resolved_problem, params, enforce_ball=False)
        # one per Picard step and one for the accepted correction
        assert len(calls) == state.iterations + 1

    def test_inverse_bound_diagnostic(self, flat_problem, params):
        ratios = sv.inverse_bound_diagnostic(flat_problem, params, n_fields=5, seed=5)
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0)


class TestSpectrum:
    def test_flat_bottom_eigenvalue(self, flat_problem):
        lam1 = sv.lambda1_estimate(flat_problem)
        assert abs(lam1 - FLAT_EIGENVALUE_16) < 1e-5 * FLAT_EIGENVALUE_16
        assert abs(lam1 - (2 * np.pi) ** 2) / (2 * np.pi) ** 2 < 0.03

    def test_spread_across_deformation(self, grid16):
        vals = []
        for a in (0.02, 0.05, 0.08):
            prob = sv.Problem.build(km.GluedModel(a=a, zeta=4.0 / 9.0), grid16)
            vals.append(sv.lambda1_estimate(prob))
        vals = np.array(vals)
        assert (vals.max() - vals.min()) / vals.min() < 0.10

    def test_poincare(self, flat_problem):
        lam1 = sv.lambda1_estimate(flat_problem)
        out = sv.poincare_check(flat_problem, lam1)
        assert out["all_pass"]

    def test_bochner_ratio(self, grid16):
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = sv.random_smooth_field(grid16, rng)
            assert sv.bochner_ratio(grid16, u) <= 1.02

    @pytest.mark.parametrize("value", [0.0, 0.5, -3.0])
    def test_bochner_ratio_undefined_for_constant_field(self, value):
        grid = km.TorusGrid(8)
        with pytest.raises(ValueError, match="zero Laplacian energy"):
            sv.bochner_ratio(grid, np.full((8,) * 4, value))

    def test_bochner_ratio_undefined_on_blind_grid(self, flat_problem):
        assert np.all(flat_problem.ea == 0.0)
        with pytest.raises(ValueError, match="zero Laplacian energy"):
            sv.bochner_ratio(flat_problem.grid, flat_problem.ea)


class TestUniqueness:
    def test_two_seeds_agree(self, flat_problem, params):
        state_a = sv.banach_solve(flat_problem, params)
        state_b = sv.banach_solve(flat_problem, params, psi0=-flat_problem.ea)
        gap = sv.potential_gap(flat_problem, state_a, state_b)
        assert gap < 10 * sv.DEFAULT_FIXED_POINT_TOL

    def test_identical_seeds_bitwise(self, flat_problem, params):
        s1 = sv.banach_solve(flat_problem, params)
        s2 = sv.banach_solve(flat_problem, params)
        assert np.all(s1.psi == s2.psi)
        assert np.all(s1.phi == s2.phi)

    def test_seed_outside_ball_rejected(self, flat_problem, params, grid16):
        rng = np.random.default_rng(13)
        big = sv.project_mean_zero(flat_problem, sv.random_smooth_field(grid16, rng))
        R = params.ball_radius(flat_problem.model.a)
        big *= 10 * R / sv.y_norm(flat_problem, params, big)
        with pytest.raises(ValueError, match="outside the radius-R ball"):
            sv.banach_solve(flat_problem, params, psi0=big)


class TestArtifacts:
    def test_trace_csv_schema(self, flat_problem, params, tmp_path):
        state = sv.banach_solve(flat_problem, params)
        path = tmp_path / "trace.csv"
        sv.write_trace_csv(state, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == sv.TRACE_COLUMNS
        assert len(rows) == 1 + state.iterations
        float(rows[1][1])

    def test_summary_json(self, flat_problem, params, tmp_path):
        state = sv.banach_solve(flat_problem, params)
        path = tmp_path / "summary.json"
        summary = sv.write_summary_json(state, path, extra={"n": 16, "p": params.p})
        loaded = json.loads(path.read_text())
        assert loaded["converged"] is True
        assert loaded["n"] == 16
        assert loaded == summary
        # an integral float keeps its decimal point
        assert type(loaded["p"]) is float and loaded["p"] == 6.0

    def test_trace_csv_lines_end_in_lf(self, flat_problem, params, tmp_path):
        state = sv.banach_solve(flat_problem, params)
        path = tmp_path / "trace.csv"
        sv.write_trace_csv(state, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 1 + state.iterations and raw.endswith(b"\n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_json_text_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            sv.json_text({"x": [1.0, bad]})

    def test_json_text_renders_numpy_values_as_plain_json(self):
        obj = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True),
               "a": np.array([[0.5, 2.0], [1e-300, 3.0]])}
        text = sv.json_text(obj)
        assert text == sv.json_text({"f": 0.1, "i": 3, "b": True,
                                     "a": [[0.5, 2.0], [1e-300, 3.0]]})
        assert json.loads(text) == {"f": 0.1, "i": 3, "b": True,
                                    "a": [[0.5, 2.0], [1e-300, 3.0]]}
        assert sv.json_text({"a": [1.5, 2]}, indent=None) == '{"a": [1.5, 2]}'

    def test_json_text_rejects_other_objects(self):
        with pytest.raises(TypeError):
            sv.json_text({"x": object()})

    def test_rerun_bytes_identical(self, flat_problem, params, tmp_path):
        state = sv.banach_solve(flat_problem, params)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sv.write_trace_csv(state, p1)
        sv.write_trace_csv(state, p2)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# reference arithmetic: the complex (..., 2, 2) Hessian from rolled copies,
# the complex mixed-determinant bracket and the complex determinant


def _ref_second_diff(f, axis, dx):
    return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / dx**2


def _ref_mixed_diff(f, ax1, ax2, dx):
    def central(g, axis):
        return (np.roll(g, -1, axis) - np.roll(g, 1, axis)) / (2.0 * dx)
    return central(central(f, ax1), ax2)


def _ref_complex_hessian(u, dx):
    p12 = 0.5 * (
        (_ref_mixed_diff(u, 0, 2, dx) + _ref_mixed_diff(u, 1, 3, dx))
        + 1j * (_ref_mixed_diff(u, 0, 3, dx) - _ref_mixed_diff(u, 1, 2, dx))
    )
    P = np.empty(u.shape + (2, 2), dtype=complex)
    P[..., 0, 0] = 0.5 * (_ref_second_diff(u, 0, dx) + _ref_second_diff(u, 1, dx))
    P[..., 1, 1] = 0.5 * (_ref_second_diff(u, 2, dx) + _ref_second_diff(u, 3, dx))
    P[..., 0, 1] = p12
    P[..., 1, 0] = np.conj(p12)
    return P


def _ref_bracket(h, k):
    return (
        h[..., 0, 0] * k[..., 1, 1]
        + h[..., 1, 1] * k[..., 0, 0]
        - h[..., 0, 1] * k[..., 1, 0]
        - h[..., 1, 0] * k[..., 0, 1]
    ).real


def _ref_det(P):
    return P[..., 0, 0].real * P[..., 1, 1].real - np.abs(P[..., 0, 1]) ** 2


def _ref_min_eig(K):
    tr = 0.5 * (K[..., 0, 0].real + K[..., 1, 1].real)
    gap = np.sqrt((0.5 * (K[..., 0, 0].real - K[..., 1, 1].real)) ** 2 + np.abs(K[..., 0, 1]) ** 2)
    return float(np.min(tr - gap))


# float64 round-off over the ~20 terms of a stencil contraction
STENCIL_RTOL = 1e-12


def _assert_close(value, reference):
    scale = float(np.max(np.abs(reference)))
    assert float(np.max(np.abs(value - reference))) <= STENCIL_RTOL * scale


class TestStencilEquivalence:
    @pytest.fixture(scope="class")
    def field(self, grid16):
        return sv.random_smooth_field(grid16, np.random.default_rng(21))

    def test_hessian_parts(self, resolved_problem, field):
        P = _ref_complex_hessian(field, resolved_problem.spacing)
        parts = sv.hessian_parts(field, resolved_problem.spacing)
        assert parts.shape == (4,) + field.shape
        p11, p22, re12, im12 = parts
        _assert_close(p11, P[..., 0, 0].real)
        _assert_close(p22, P[..., 1, 1].real)
        _assert_close(re12 + 1j * im12, P[..., 0, 1])
        _assert_close(complex_matrix(parts), P)

    def test_laplacian(self, resolved_problem, field):
        P = _ref_complex_hessian(field, resolved_problem.spacing)
        ref = _ref_bracket(complex_matrix(resolved_problem.field_.data), P) / resolved_problem.dets
        _assert_close(sv.laplacian(resolved_problem, field), ref)

    def test_hermitian_bracket(self, resolved_problem, field):
        P = _ref_complex_hessian(field, resolved_problem.spacing)
        ref = _ref_bracket(complex_matrix(resolved_problem.field_.data), P)
        _assert_close(sv.hermitian_bracket(resolved_problem.field_, field, resolved_problem.spacing), ref)
        constant = np.full(field.shape, 0.3)
        assert np.all(sv.hermitian_bracket(resolved_problem.field_, constant, resolved_problem.spacing) == 0.0)

    def test_krylov_operator(self, resolved_problem, field):
        P = _ref_complex_hessian(field, resolved_problem.spacing)
        ref = -_ref_bracket(complex_matrix(resolved_problem.field_.data), P)
        ref = ref - ref.mean()
        _assert_close(sv._glued_operator(resolved_problem, field), ref)

    def test_quadratic_Q(self, resolved_problem, field):
        P = _ref_complex_hessian(field, resolved_problem.spacing)
        ref = _ref_det(P) / resolved_problem.dets
        _assert_close(sv.quadratic_Q(resolved_problem, field), ref)

    def test_ma_residual_and_min_eigenvalue(self, resolved_problem, field):
        # small enough that the corrected form stays positive definite
        phi = 1e-3 * field
        K = complex_matrix(resolved_problem.field_.data) + _ref_complex_hessian(
            phi, resolved_problem.spacing)
        ref = 2.0 * _ref_det(K) / resolved_problem.lam - 1.0
        corrected = sv.corrected_field(resolved_problem, phi)
        _assert_close(complex_matrix(corrected.data), K)
        _assert_close(sv.ma_residual(resolved_problem, corrected), ref)
        mineig = corrected.min_eigenvalue()
        assert abs(mineig - _ref_min_eig(K)) <= STENCIL_RTOL * abs(_ref_min_eig(K))


def _inverse_half_symbol(n):
    half = sv.flat_symbol(km.TorusGrid(n))
    assert half.shape == (n, n, n, n // 2 + 1)
    with np.errstate(divide="ignore"):
        return np.where(half > 0, 1.0 / half, 0.0)


class TestPreconditioner:
    def test_real_fft_matches_complex_fft(self, grid16):
        n = grid16.n
        r = sv.random_smooth_field(grid16, np.random.default_rng(22))
        s = 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2
        full = s[:, None, None, None] + s[None, :, None, None] + s[None, None, :, None] + s
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.real(np.fft.ifftn(np.where(full > 0, np.fft.fftn(r) / full, 0.0)))
        _assert_close(sv._flat_inverse(r, _inverse_half_symbol(n)), ref)

    @pytest.mark.parametrize("n", [10, 16])
    def test_quotient_symbol_is_the_unit_symbol_at_even_frequencies(self, n):
        # the invariant modes of the unit torus are its even frequencies,
        # and the 1/L^2 scaling reproduces them bit for bit
        unit = sv.flat_symbol(km.TorusGrid(n))
        assert np.array_equal(sv.flat_symbol(km.TorusGrid(n).quotient()), unit[::2, ::2, ::2, ::2])

    def test_constants_map_to_zero(self, grid16):
        n = grid16.n
        out = sv._flat_inverse(np.full((n,) * 4, 3.0), _inverse_half_symbol(n))
        assert float(np.max(np.abs(out))) <= 1e-12 * 3.0


def _uncached_lambda1(problem, dim=16, tol=1e-6, seed=7, invert_tol=1e-9):
    """lambda1_estimate with every Ritz image recomputed at every step."""
    rng = np.random.default_rng(seed)

    def wip(u, v):
        return float(np.sum(problem.weight * u * v))

    v = sv.project_mean_zero(problem, sv.random_smooth_field(problem.grid, rng))
    v /= np.sqrt(wip(v, v))
    basis = [v]
    prev = None
    for _ in range(dim):
        u, _ = sv.invert_laplacian(problem, basis[-1], tol=invert_tol)
        u = sv.project_mean_zero(problem, u)
        for b in basis:
            u = u - wip(u, b) * b
        nrm = np.sqrt(wip(u, u))
        if nrm < 1e-13:
            break
        basis.append(u / nrm)
        m = len(basis)
        images = [-sv.laplacian(problem, b) for b in basis]
        M = np.array([[wip(basis[i], images[j]) for j in range(m)] for i in range(m)])
        bottom = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        if prev is not None and abs(bottom - prev) <= tol * abs(bottom):
            return bottom
        prev = bottom
    return prev


class TestRitzImages:
    def test_one_image_per_basis_vector(self, resolved_problem, monkeypatch):
        counts = {"inversions": 0, "images": 0}
        inside = []
        invert, laplacian = sv.invert_laplacian, sv.laplacian

        def counting_invert(*args, **kwargs):
            counts["inversions"] += 1
            inside.append(True)
            try:
                return invert(*args, **kwargs)
            finally:
                inside.pop()

        def counting_laplacian(*args, **kwargs):
            if not inside:
                counts["images"] += 1
            return laplacian(*args, **kwargs)

        monkeypatch.setattr(sv, "invert_laplacian", counting_invert)
        monkeypatch.setattr(sv, "laplacian", counting_laplacian)
        sv.lambda1_estimate(resolved_problem)
        # every inversion adds one basis vector to the starting one
        assert counts["inversions"] >= 2
        assert counts["images"] == counts["inversions"] + 1

    def test_matches_uncached_reference(self, resolved_problem):
        lam1 = sv.lambda1_estimate(resolved_problem)
        ref = _uncached_lambda1(resolved_problem)
        assert abs(lam1 - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# reference Krylov kernels: the bracket as one whole-array sweep, numpy's
# allocating real-FFT pair, and forward differences from np.roll copies


def _ref_hermitian_bracket(field_, u, dx):
    u = np.ascontiguousarray(u, dtype=float)
    h11, h22, re12, im12 = field_.data
    out = sv._neighbours(u, 0, np.add)
    s = sv._neighbours(u, 1, np.add)
    t = np.multiply(u, 4.0)
    out += s
    out -= t
    out *= h22
    sv._neighbours(u, 2, np.add, out=s)
    s -= t
    s += sv._neighbours(u, 3, np.add, out=t)
    s *= h11
    out += s
    out *= 0.5 / dx**2
    d0 = sv._neighbours(u, 0, np.subtract)
    d1 = sv._neighbours(u, 1, np.subtract)
    sv._neighbours(d0, 2, np.subtract, out=s)
    s += sv._neighbours(d1, 3, np.subtract, out=t)
    s *= re12
    sv._neighbours(d0, 3, np.subtract, out=t)
    t -= sv._neighbours(d1, 2, np.subtract, out=d0)
    t *= im12
    s += t
    s *= -0.25 / dx**2
    out += s
    return out


def _ref_poincare_margins(problem, lam1, n_fields, seed):
    rng = np.random.default_rng(seed)
    dx = problem.spacing
    margins = []
    for _ in range(n_fields):
        u = sv.random_smooth_field(problem.grid, rng)
        u = u - u.mean()
        l2sq = float(np.mean(u**2))
        energy = 0.0
        for ax in range(4):
            d = (np.roll(u, -1, ax) - u) / dx
            energy += float(np.mean(d**2))
        margins.append(energy / lam1 - l2sq)
    return np.array(margins)


def _assert_same_bits(value, reference):
    assert value.dtype == reference.dtype and value.shape == reference.shape
    assert value.tobytes() == reference.tobytes()


@pytest.fixture(scope="module", params=[8, 16])
def bolt_problem(request):
    return sv.Problem.build(km.GluedModel(a=0.08, zeta=4.0 / 9.0), km.TorusGrid(request.param))


class TestKrylovKernelEquivalence:
    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_bracket_slabs_match_whole_array(self, monkeypatch, bolt_problem, rows):
        # several slabs along axis 0, the last one short when rows does
        # not divide n
        u = np.random.default_rng(rows).standard_normal(bolt_problem.shape)
        dx = bolt_problem.spacing
        ref = _ref_hermitian_bracket(bolt_problem.field_, u, dx)
        monkeypatch.setattr(sv, "_BRACKET_SLAB_BYTES", rows * u[0].nbytes)
        _assert_same_bits(sv.hermitian_bracket(bolt_problem.field_, u, dx), ref)
        out = np.full(u.shape, np.nan)
        assert sv.hermitian_bracket(bolt_problem.field_, u, dx, out) is out
        _assert_same_bits(out, ref)

    def test_bracket_default_slabs_match_whole_array(self, bolt_problem):
        u = np.random.default_rng(6).standard_normal(bolt_problem.shape)
        dx = bolt_problem.spacing
        _assert_same_bits(sv.hermitian_bracket(bolt_problem.field_, u, dx),
                          _ref_hermitian_bracket(bolt_problem.field_, u, dx))

    def test_flat_inverse_buffers_match_numpy(self, grid16):
        n = grid16.n
        axes = (0, 1, 2, 3)
        symbol = _inverse_half_symbol(n)
        hat = np.empty(symbol.shape, dtype=complex)
        out = np.empty((n,) * 4)
        rng = np.random.default_rng(31)
        # twice through the same buffers
        for _ in range(2):
            r = rng.standard_normal((n,) * 4)
            kept = r.copy()
            ref = np.fft.irfftn(np.fft.rfftn(r, axes=axes) * symbol, s=r.shape, axes=axes)
            assert sv._flat_inverse(r, symbol, hat, out) is out
            _assert_same_bits(out, ref)
            _assert_same_bits(r, kept)
        _assert_same_bits(sv._flat_inverse(r, symbol), ref)

    def test_poincare_margins_match_roll(self, bolt_problem):
        # a lambda1 near the glued fields' value, so that margins of
        # either sign occur
        out = sv.poincare_check(bolt_problem, 39.0)
        _assert_same_bits(out["margins"], _ref_poincare_margins(bolt_problem, 39.0, 20, 11))


# ---------------------------------------------------------------------------
# reference norm layer: the full offset sweep with one roll per axis, the
# nested mode loop with one draw per number, and the i <= j second
# difference loops of the Sobolev norm and the Bochner ratio


def _ref_holder_offsets(dx, r_ball):
    reach = max(int(np.floor(r_ball / dx)), 1)
    offsets = []
    rng4 = range(-reach, reach + 1)
    for d0 in rng4:
        for d1 in rng4:
            for d2 in rng4:
                for d3 in rng4:
                    d = (d0, d1, d2, d3)
                    if d == (0, 0, 0, 0):
                        continue
                    dist = dx * float(np.linalg.norm(d))
                    if dist <= r_ball:
                        offsets.append((d, dist))
    return offsets


def _ref_holder_seminorm(f, dx, alpha, r_ball):
    best = 0.0
    for d, dist in _ref_holder_offsets(dx, r_ball):
        shifted = f
        for ax, k in enumerate(d):
            if k:
                shifted = np.roll(shifted, -k, axis=ax)
        best = max(best, float(np.max(np.abs(shifted - f))) / dist**alpha)
    return best


def _ref_random_smooth_field(grid, rng, kmax=3, decay=2.0):
    n = grid.n
    spec = np.zeros((n,) * 4, dtype=complex)
    ks = range(-kmax, kmax + 1)
    for k0 in ks:
        for k1 in ks:
            for k2 in ks:
                for k3 in ks:
                    if (k0, k1, k2, k3) == (0, 0, 0, 0):
                        continue
                    amp = (1.0 + k0**2 + k1**2 + k2**2 + k3**2) ** (-decay)
                    c = amp * (rng.standard_normal() + 1j * rng.standard_normal())
                    spec[k0 % n, k1 % n, k2 % n, k3 % n] = c
    f = np.real(np.fft.ifftn(spec)) * n**2
    return f - f.mean()


def _ref_mixed(f, i, j, dx):
    return sv._central_diff(sv._central_diff(f, i, dx), j, dx)


def _ref_sobolev_l22_norm(f, dx, weight=None):
    w = np.full(f.shape, 1.0 / f.size) if weight is None else weight
    total = float(np.sum(w * f**2))
    for g in sv.gradient_components(f, dx):
        total += float(np.sum(w * g**2))
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                h2 = sv._second_diff(f, i, dx) ** 2
            else:
                h2 = 2.0 * _ref_mixed(f, i, j, dx) ** 2
            total += float(np.sum(w * h2))
    return float(np.sqrt(total))


def _ref_hessian_components(f, dx):
    for i in range(4):
        for j in range(i, 4):
            yield sv._second_diff(f, i, dx) if i == j else _ref_mixed(f, i, j, dx)


def _ref_y_norm(problem, params, f):
    a = problem.model.a
    f = f - sv.weighted_mean(problem, f)
    # the power, not np.sqrt, which can differ in the last bit
    l2 = float(np.sum(problem.weight * f**2) ** 0.5)
    rb = max(a, 2.0 * problem.spacing)
    holder = float(np.max(np.abs(f))) + _ref_holder_seminorm(f, problem.spacing, params.alpha, rb)
    return a ** (-4.0 + params.resolved_eps()) * l2 + holder


def _ref_x_norm(problem, params, f, seminorm=_ref_holder_seminorm):
    a, dx = problem.model.a, problem.spacing
    f = f - sv.weighted_mean(problem, f)
    rb = max(a, 2.0 * dx)
    hess = list(_ref_hessian_components(f, dx))
    holder = (float(np.max(np.abs(f)))
              + max(float(np.max(np.abs(g))) for g in sv.gradient_components(f, dx))
              + max(float(np.max(np.abs(h))) for h in hess)
              + max(seminorm(h, dx, params.alpha, rb) for h in hess))
    sobolev = _ref_sobolev_l22_norm(f, dx, problem.weight)
    return a ** (-4.0 + params.resolved_eps()) * sobolev + a**params.alpha * holder


def _ref_bochner_ratio(grid, u):
    dx = grid.spacing
    hess = 0.0
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                hess += float(np.mean(sv._second_diff(u, i, dx) ** 2))
            else:
                hess += 2.0 * float(np.mean(_ref_mixed(u, i, j, dx) ** 2))
    lap = sum(sv._second_diff(u, ax, dx) for ax in range(4))
    return hess / float(np.mean(lap**2))


class TestNormLayerEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([8, 16]),
        alpha=st.floats(0.0, 1.0 / 3.0, exclude_min=True, exclude_max=True),
        reach=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_holder_seminorm_matches_full_sweep(self, n, alpha, reach, seed):
        f = np.random.default_rng(seed).standard_normal((n,) * 4)
        dx = 1.0 / n
        r_ball = reach * dx
        assert sv.holder_seminorm(f, dx, alpha, r_ball) == _ref_holder_seminorm(f, dx, alpha, r_ball)

    @pytest.mark.parametrize("rows", [1, 3, 5])
    @pytest.mark.parametrize("n, reach", [(8, 3.0), (16, 2.0)])
    def test_holder_seminorm_slabs_match_full_sweep(self, monkeypatch, rows, n, reach):
        # several slabs along axis 0, the last one short when rows does
        # not divide n
        f = np.random.default_rng(rows + n).standard_normal((n,) * 4)
        monkeypatch.setattr(sv, "_HOLDER_SLAB_BYTES", rows * f[0].nbytes)
        dx = 1.0 / n
        assert sv.holder_seminorm(f, dx, 0.2, reach * dx) == _ref_holder_seminorm(f, dx, 0.2, reach * dx)

    @pytest.mark.parametrize("n, r_ball", [(16, 0.125), (24, 1.0 / 12.0), (32, 0.0625),
                                           (16, 3.0 / 16.0), (8, 0.3)])
    def test_holder_offsets_one_of_each_pair(self, n, r_ball):
        dx = 1.0 / n
        half = [(tuple(int(k) for k in d), dist) for d, dist in sv._holder_offsets(dx, r_ball)]
        full = _ref_holder_offsets(dx, r_ball)
        kept = {d for d, _ in half}
        assert not any(tuple(-k for k in d) in kept for d in kept)
        assert 2 * len(half) == len(full)
        mirrored = half + [(tuple(-k for k in d), dist) for d, dist in half]
        assert sorted(mirrored) == sorted(full)

    def test_default_radius_sweeps_44_offsets(self):
        for n in (16, 24, 32):
            r_ball = sv.NormParams().resolved_r_ball(0.05, 1.0 / n)
            assert len(sv._holder_offsets(1.0 / n, r_ball)) == 44

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_smooth_field_matches_mode_loop(self, n, seed):
        grid = km.TorusGrid(n)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(sv.random_smooth_field(grid, rng), _ref_random_smooth_field(grid, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("zeta", [1.0 / 9.0, 4.0 / 9.0])
    def test_y_and_x_norms_match_reference_sums(self, params, zeta):
        # n=8 keeps the reference offset sweep over the ten Hessian
        # components fast
        problem = sv.Problem.build(km.GluedModel(a=0.05, zeta=zeta), km.TorusGrid(8))
        rng = np.random.default_rng(47)
        smooth = sv.project_mean_zero(problem, sv.random_smooth_field(problem.grid, rng))
        for f in (problem.ea, smooth):
            assert sv.y_norm(problem, params, f) == _ref_y_norm(problem, params, f)
            assert sv.x_norm(problem, params, f) == _ref_x_norm(problem, params, f)

    def test_sobolev_and_bochner_match_loops(self, flat_problem, resolved_problem, params, grid16):
        # x_norm's L2-Sobolev sum against the reference loop at n=16, on
        # a uniform and a resolved weight; the Hölder seminorm, checked
        # against its full sweep above, is the library's on both sides
        rng = np.random.default_rng(23)
        for f in (sv.random_smooth_field(grid16, rng), rng.standard_normal((16,) * 4)):
            for problem in (flat_problem, resolved_problem):
                g = sv.project_mean_zero(problem, f)
                assert sv.x_norm(problem, params, g) == _ref_x_norm(problem, params, g, sv.holder_seminorm)
            assert sv.bochner_ratio(grid16, f) == _ref_bochner_ratio(grid16, f)


# ---------------------------------------------------------------------------
# field lifetimes: the stencil and the fixed-point image against their
# fresh-array formulas, and the traced peaks of the inversion and the solve


def _ref_hessian_parts(u, dx):
    # every neighbour sum and 4u in a fresh array
    four_u = 4.0 * u
    P = np.empty((4,) + u.shape)
    p11, p22, re12, im12 = P
    sv._neighbours(u, 0, np.add, out=p11)
    p11 += sv._neighbours(u, 1, np.add)
    p11 -= four_u
    p11 *= 0.5 / dx**2
    sv._neighbours(u, 2, np.add, out=p22)
    p22 += sv._neighbours(u, 3, np.add)
    p22 -= four_u
    p22 *= 0.5 / dx**2
    d0 = sv._neighbours(u, 0, np.subtract)
    d1 = sv._neighbours(u, 1, np.subtract)
    sv._neighbours(d0, 2, np.subtract, out=re12)
    re12 += sv._neighbours(d1, 3, np.subtract)
    re12 *= 0.5 / (2.0 * dx) ** 2
    sv._neighbours(d0, 3, np.subtract, out=im12)
    im12 -= sv._neighbours(d1, 2, np.subtract)
    im12 *= 0.5 / (2.0 * dx) ** 2
    return P


def test_hessian_parts_matches_fresh_array_formula(bolt_problem):
    dx = bolt_problem.spacing
    rng = np.random.default_rng(41)
    for u in (bolt_problem.ea, sv.random_smooth_field(bolt_problem.grid, rng),
              rng.standard_normal(bolt_problem.shape)):
        _assert_same_bits(sv.hessian_parts(u, dx), _ref_hessian_parts(u, dx))


def test_fixed_point_map_matches_minus_ea_minus_q(bolt_problem):
    psi = sv.project_mean_zero(bolt_problem, -bolt_problem.ea)
    psi_next, phi, corrected, info = sv.fixed_point_map(bolt_problem, psi)
    raw = -bolt_problem.ea - sv.quadratic_Q(bolt_problem, phi)
    leak = sv.weighted_mean(bolt_problem, raw)
    assert info["projection_leak"] == leak
    _assert_same_bits(psi_next, raw - leak)
    # the stencil field behind Q became the corrected field
    _assert_same_bits(corrected.data, sv.corrected_field(bolt_problem, phi).data)
    assert corrected.lam == bolt_problem.lam


def test_one_stencil_field_per_picard_step(resolved_problem, params, monkeypatch):
    calls = {"hessian_parts": 0, "fixed_point_map": 0}

    def counting(name):
        original = getattr(sv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sv, name, wrapper)

    counting("hessian_parts")
    counting("fixed_point_map")
    state = sv.banach_solve(resolved_problem, params, enforce_ball=False)
    assert state.iterations >= 2
    # one P(phi) per Picard step and one for the accepted correction
    assert calls == {"hessian_parts": state.iterations + 1, "fixed_point_map": state.iterations}


def _traced_peak_fields(fn, n):
    """Peak memory traced while fn() runs, above what is allocated when
    it starts, in float64 fields of n^4 nodes; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * n**4)
    finally:
        tracemalloc.stop()


def test_solve_peak_memory_in_fields(resolved_problem, params):
    # at n=16 a warm-started inversion peaks at 10.9 fields and the
    # solve at 12.9; they read 12.9 and 18.9 while the Krylov work
    # vectors outlived the loop and the Picard step kept the previous
    # corrected field and a -e_a temporary
    n = resolved_problem.grid.n
    f = sv.project_mean_zero(resolved_problem, -resolved_problem.ea)
    u0, _ = sv.invert_laplacian(resolved_problem, f)
    f *= 0.9
    warm = lambda: sv.invert_laplacian(resolved_problem, f, u0=u0)
    assert _traced_peak_fields(warm, n) < 12.0
    solve = lambda: sv.banach_solve(resolved_problem, params, enforce_ball=False)
    assert _traced_peak_fields(solve, n) < 15.5


def test_problem_build_computes_det_once(monkeypatch):
    calls = []
    det = km.hermitian_det

    def counting_det(h):
        calls.append(h.shape)
        return det(h)

    monkeypatch.setattr(km, "hermitian_det", counting_det)
    sv.Problem.build(km.GluedModel(a=0.05, zeta=4.0 / 9.0), km.TorusGrid(8))
    assert len(calls) == 1


def test_random_field_mode_table_made_once(monkeypatch):
    calls = []
    box = sv._lattice_box

    def counting_box(reach):
        calls.append(reach)
        return box(reach)

    monkeypatch.setattr(sv, "_lattice_box", counting_box)
    sv._random_field_modes.cache_clear()
    rng = np.random.default_rng(5)
    sv.random_smooth_field(km.TorusGrid(8), rng)
    sv.random_smooth_field(km.TorusGrid(16), rng)
    assert calls == [sv.RANDOM_FIELD_KMAX]


def test_preconditioner_symbol_made_once_per_problem(monkeypatch):
    calls = []
    symbol = sv.flat_symbol

    def counting_symbol(grid):
        calls.append(grid)
        return symbol(grid)

    monkeypatch.setattr(sv, "flat_symbol", counting_symbol)
    problem = sv.Problem.build(km.GluedModel(a=0.05, zeta=4.0 / 9.0), km.TorusGrid(8))
    assert calls == []
    f = sv.project_mean_zero(problem, sv.random_smooth_field(problem.grid, np.random.default_rng(3)))
    for _ in range(2):
        sv.invert_laplacian(problem, f)
    assert calls == [km.TorusGrid(8)]


# ---------------------------------------------------------------------------
# the solve on the (Z/2)^4 quotient grid against the unit torus


@pytest.fixture(scope="module", params=[(10, 0.05), (10, 0.08), (16, 0.05), (16, 0.08),
                                        (24, 0.05), (24, 0.08)],
                ids=lambda p: f"n{p[0]}-a{p[1]}")
def unit_and_quotient_solves(request, params):
    """Resolved solves (zeta 4/9, no ball guard) of one model on the unit
    grid and on its quotient; n=10 has an odd quotient side."""
    n, a = request.param
    model, grid = km.GluedModel(a=a, zeta=4.0 / 9.0), km.TorusGrid(n)
    unit = sv.Problem.build(model, grid)
    quotient = sv.Problem.build(model, grid.quotient())
    return (unit, sv.banach_solve(unit, params, enforce_ball=False),
            quotient, sv.banach_solve(quotient, params, enforce_ball=False))


class TestQuotientSolve:
    def test_picard_steps_agree(self, unit_and_quotient_solves):
        # the quotient field is the unit field's restriction bit for bit
        # (tests/test_kummer.py); the sums over m^4 nodes round apart
        _, unit_state, _, state = unit_and_quotient_solves
        assert state.iterations == unit_state.iterations

    def test_potential_agrees(self, unit_and_quotient_solves):
        unit, unit_state, quotient, state = unit_and_quotient_solves
        m = quotient.grid.n
        gap = float(np.max(np.abs(unit_state.phi[:m, :m, :m, :m] - state.phi)))
        assert gap <= 1e-12 * float(np.max(np.abs(unit_state.phi)))

    def test_norms_eigenvalues_and_residuals_agree(self, unit_and_quotient_solves):
        _, unit_state, _, state = unit_and_quotient_solves
        assert state.final_min_eigenvalue == pytest.approx(unit_state.final_min_eigenvalue, rel=1e-12, abs=0)
        for row, unit_row in zip(state.trace_rows, unit_state.trace_rows):
            for key in ("y_norm_psi", "min_eigenvalue"):
                assert row[key] == pytest.approx(unit_row[key], rel=1e-12, abs=0)
            assert abs(row["ma_sup_residual"] - unit_row["ma_sup_residual"]) <= 1e-14
        for key in ("initial_ma_sup", "final_ma_sup"):
            assert abs(getattr(state, key) - getattr(unit_state, key)) <= 1e-14

    def test_field_file_is_the_unit_corrected_field(self, unit_and_quotient_solves, tmp_path):
        # the file holds the quotient field: the unit solve's corrected
        # field on the first m nodes per axis, and, repeated twice along
        # each axis, on every unit node
        unit, unit_state, quotient, state = unit_and_quotient_solves
        km.save_field(state.corrected, tmp_path / "corrected.kmf")
        loaded = km.load_field(tmp_path / "corrected.kmf")
        assert loaded.grid == quotient.grid == unit.grid.quotient()
        extended = np.tile(loaded.data, (1, 2, 2, 2, 2))
        assert float(np.max(np.abs(extended - unit_state.corrected.data))) <= 1e-14


def test_seed_shaped_for_another_grid_rejected(params):
    # a unit-torus seed given to a quotient problem
    quotient = sv.Problem.build(km.GluedModel(a=0.05, zeta=4.0 / 9.0), km.TorusGrid(10).quotient())
    with pytest.raises(ValueError, match=r"psi0 has shape \(10, 10, 10, 10\).*shape \(5, 5, 5, 5\)"):
        sv.banach_solve(quotient, params, psi0=np.zeros((10,) * 4), enforce_ball=False)


def test_resolved_n48_quotient_solve_follows_the_eguchi_hanson_scale(params):
    # the node nearest a site lies at r = 1/n, where the glued form's
    # smaller eigenvalue is the Eguchi-Hanson radial one,
    # r^2 / (2 sqrt(r^4 + a^4)); the correction keeps it within 1e-3
    a, n = 0.05, 48
    problem = sv.Problem.build(km.GluedModel(a=a, zeta=4.0 / 9.0), km.TorusGrid(n).quotient())
    r = 1.0 / n
    predicted = r**2 / (2.0 * np.sqrt(r**4 + a**4))
    assert problem.field_.min_eigenvalue() == pytest.approx(predicted, rel=1e-12, abs=0)
    state = sv.banach_solve(problem, params, enforce_ball=False)
    assert state.final_min_eigenvalue == pytest.approx(predicted, rel=1e-3, abs=0)
