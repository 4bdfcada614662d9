"""Eguchi-Hanson geometry: metric charts, hyper-Kahler triple, potentials,
series, embedding, and Ricci flatness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerflat import eguchi_hanson as EH
from kummerflat import forms as F
from kummerflat.cli import _radial_points, _resolving_points

P1 = EH.EhParams(1.0)


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        EH.EhParams(0.0)
    with pytest.raises(ValueError):
        EH.EhParams(-1.0)


# ---------------------------------------------------------------------------
# metric


def test_metric_value_at_reference_point():
    g = EH.eh_metric(P1, [2.0, 0.7, 0.3, 0.4]).components
    assert g[0, 0] == pytest.approx(16.0 / 15.0, abs=1e-15)
    assert g[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_metric_rejects_bolt_radius():
    with pytest.raises(ValueError, match="bolt"):
        EH.eh_metric(P1, [1.0, 0.7, 0.3, 0.4])
    with pytest.raises(ValueError, match="bolt"):
        EH.eh_metric(P1, [0.5, 0.7, 0.3, 0.4])


def test_metric_tensor_rejects_asymmetric_and_nan():
    m = np.eye(4)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        EH.MetricTensor(m)
    m = np.eye(4)
    m[2, 2] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        EH.MetricTensor(m)


def test_metric_tensor_symmetry_test_matches_allclose(rng):
    # asymmetries on both sides of the absolute (scale 0) and the
    # relative tolerance
    for scale in (0.0, 1.0, 1e3):
        for size in (1e-14, 5e-13, 2e-12, 1e-6 * scale, 1e-4 * scale):
            a = rng.standard_normal((4, 4))
            m = scale * (a + a.T) + size * rng.standard_normal((4, 4))
            accepted = np.allclose(m, m.T, atol=1e-12)
            if accepted:
                g = EH.MetricTensor(m).components
                assert np.array_equal(g, 0.5 * (m + m.T))
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    EH.MetricTensor(m)


def test_metric_tensor_rejects_what_the_numpy_test_rejects(rng):
    # the numpy body the check had, on non-finite entries, where
    # np.allclose (which takes inf as close to inf) differs from it
    def ref_accepts(m):
        with np.errstate(invalid="ignore"):
            return bool(np.all(np.abs(m - m.T) <= 1e-12 + 1e-5 * np.abs(m.T)))

    a = rng.standard_normal((4, 4))
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 2), (3, 0)):
            for both in (False, True):
                m = a + a.T
                m[i, j] = bad
                if both:
                    m[j, i] = bad
                assert not ref_accepts(m)
                with pytest.raises(ValueError, match="symmetric"):
                    EH.MetricTensor(m)
    assert ref_accepts(a + a.T)
    EH.MetricTensor(a + a.T)


def test_metric_equals_coframe_square(rng):
    E = EH.coframe_matrix(P1)
    for c in _radial_points(rng, 20):
        g = EH.eh_metric(P1, c).components
        Ec = E(c)
        assert np.max(np.abs(Ec.T @ Ec - g)) < 1e-12


def test_small_parameter_limit_is_flat_cone(rng):
    tiny = EH.EhParams(1e-6)
    c = np.array([2.0, 0.9, 1.0, 2.0])
    g = EH.eh_metric(tiny, c).components
    flat = EH.metric_series(tiny, c, 0).components
    assert np.max(np.abs(g - flat)) < 1e-12


def test_u_chart_metric_matches_pushforward(rng):
    u2r = EH.resolving_to_radial(P1)
    pts = _resolving_points(rng, 10)
    pts[0, 0] = 15.0 ** 0.25  # r = 2
    for c in pts:
        J = u2r.jacobian(c)
        gr = EH.eh_metric(P1, u2r(c)).components
        gu = EH.eh_metric_u_chart(P1, c).components
        assert np.max(np.abs(J.T @ gr @ J - gu)) < 1e-10


def test_u_chart_rejects_nonpositive_u():
    with pytest.raises(ValueError, match="u"):
        EH.eh_metric_u_chart(P1, [0.0, 1.0, 0.0, 0.0])


def test_u_chart_a_zero_reduces_to_r_chart():
    tiny = EH.EhParams(1e-9)
    c = np.array([1.7, 1.1, 0.4, 3.0])
    gu = EH.eh_metric_u_chart(tiny, c).components
    gr = EH.eh_metric(tiny, c).components
    assert np.max(np.abs(gu - gr)) < 1e-12


def test_bolt_limit_coefficients():
    # r^2 = a^2 + rho^2: fiber entry -> rho^2/2, sphere entry -> a^2/4
    for rho in (1e-2, 1e-3):
        u = ((1.0 + rho**2) ** 2 - 1.0) ** 0.25
        g = EH.eh_metric_u_chart(P1, [u, 1.1, 0.3, 0.2]).components
        assert abs(g[3, 3] / (rho**2 / 2.0) - 1.0) < 2.0 * rho**2
        assert abs(g[1, 1] - 0.25) < rho**2


@given(
    st.floats(0.02, 10.0, allow_nan=False),
    st.floats(1e-3, 9.0, allow_nan=False),
    st.floats(0.05, np.pi - 0.05, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_metric_positive_definite_above_bolt(a, excess, theta):
    params = EH.EhParams(a)
    r = a * (1.0 + 1e-3) + a * excess
    g = EH.eh_metric(params, [r, theta, 0.7, 1.9])
    assert g.min_eigenvalue() > 0


# ---------------------------------------------------------------------------
# series


def test_series_order_zero_is_flat():
    c = np.array([2.0, 0.7, 1.1, 2.2])
    g = EH.metric_series(P1, c, 0).components
    assert g[0, 0] == 1.0
    assert g[3, 3] == pytest.approx(c[0] ** 2 / 4.0, abs=1e-15)
    # no off-diagonal deficit beyond the round sphere structure
    assert g[2, 3] == pytest.approx(c[0] ** 2 * np.cos(c[1]) / 4.0, abs=1e-15)


def test_series_tail_bound_at_order_ten():
    c = np.array([2.0, 0.7, 1.1, 2.2])
    exact = EH.eh_metric(P1, c).components
    approx = EH.metric_series(P1, c, 10).components
    q = (1.0 / 2.0) ** 4
    tail = q**11 / (1.0 - q)
    assert np.max(np.abs(approx - exact)) <= tail


def test_series_error_monotone_in_order():
    c = np.array([1.7, 1.0, 0.5, 0.5])
    exact = EH.eh_metric(P1, c).components
    errs = [np.max(np.abs(EH.metric_series(P1, c, n).components - exact)) for n in range(1, 7)]
    assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# invariant forms


def test_sigma_one_at_zero_fiber_angle():
    s1, _, _ = EH.sigma_forms()
    c = np.array([2.0, 0.8, 1.3, 0.0])
    assert np.allclose(s1.as_vector(c), [0.0, -0.5, 0.0, 0.0])


def test_sigma_structure_equations(rng):
    s1, s2, s3 = EH.sigma_forms()
    pts = _radial_points(rng, 20)
    for a, b, c_ in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        d = F.ext_d(a, step=1e-4)
        tgt = F.wedge(b, c_) * 2.0
        assert max((d - tgt).max_abs(p) for p in pts) < 1e-6


def test_sigma_sum_of_squares_is_quarter_sphere(rng):
    s1, s2, _ = EH.sigma_forms()
    for c in _radial_points(rng, 10):
        v1 = s1.as_vector(c)
        v2 = s2.as_vector(c)
        q = np.outer(v1, v1) + np.outer(v2, v2)
        want = np.zeros((4, 4))
        want[1, 1] = 0.25
        want[2, 2] = 0.25 * np.sin(c[1]) ** 2
        assert np.max(np.abs(q - want)) < 1e-12


# ---------------------------------------------------------------------------
# complex structures


def test_structures_square_to_minus_identity():
    for A in (EH.STRUCTURE_I, EH.STRUCTURE_J, EH.STRUCTURE_K):
        assert np.array_equal(A @ A, -np.eye(4))


def test_quaternion_products_exact():
    assert np.array_equal(EH.STRUCTURE_I @ EH.STRUCTURE_J, -EH.STRUCTURE_K)
    assert np.array_equal(EH.STRUCTURE_J @ EH.STRUCTURE_K, -EH.STRUCTURE_I)
    assert np.array_equal(EH.STRUCTURE_K @ EH.STRUCTURE_I, -EH.STRUCTURE_J)


def test_first_structure_swaps_radial_and_fiber_rows():
    e0, e3 = np.eye(4)[0], np.eye(4)[3]
    assert np.array_equal(EH.STRUCTURE_I[0], e3)
    assert np.array_equal(EH.STRUCTURE_I[3], -e0)


def test_kahler_forms_closed(rng):
    pts = _radial_points(rng, 20)
    for om in EH.kahler_forms(P1):
        d = F.ext_d(om, step=1e-4)
        assert max(d.max_abs(p) for p in pts) < 1e-6


def test_first_form_coframe_pairs(rng):
    oI = EH.kahler_forms(P1)[0]
    for c in _radial_points(rng, 5):
        E = EH.coframe_matrix(P1)(c)
        M = oI.as_matrix(c)
        ref = np.outer(E[0], E[3]) - np.outer(E[3], E[0]) + np.outer(E[1], E[2]) - np.outer(E[2], E[1])
        assert np.max(np.abs(M - ref)) < 1e-12


def test_forms_compatible_with_structures(rng):
    forms = EH.kahler_forms(P1)
    mats = (EH.STRUCTURE_I, EH.STRUCTURE_J, EH.STRUCTURE_K)
    for c in _radial_points(rng, 5):
        E = EH.coframe_matrix(P1)(c)
        g = EH.eh_metric(P1, c).components
        for A, om in zip(mats, forms):
            # omega(X u, v) pairing: coordinate matrix is E^T A E
            assert np.max(np.abs(om.as_matrix(c) - E.T @ A @ E)) < 1e-10


def test_u_chart_forms_are_pullbacks(rng):
    u2r = EH.resolving_to_radial(P1)
    for om_r, om_u in zip(EH.kahler_forms(P1), EH.kahler_forms_u_chart(P1)):
        pb = F.pullback(u2r, om_r)
        for c in _resolving_points(rng, 5):
            assert (pb - om_u).max_abs(c) < 1e-10


def test_second_form_u_chart_shape():
    # u du ^ sigma_1 + u^2 sigma_2 ^ sigma_3, parameter-free
    om = EH.kahler_forms_u_chart(P1)[1]
    om_other = EH.kahler_forms_u_chart(EH.EhParams(0.37))[1]
    c = np.array([1.0, 1.0, 1.0, 1.0])
    assert (om - om_other).max_abs(c) < 1e-15
    s1, s2, s3 = EH.sigma_forms(F.EH_U)
    du = F.one_form(F.EH_U, {0: 1.0})
    want = F.wedge(du, s1) * (lambda cc: cc[0]) + F.wedge(s2, s3) * (lambda cc: cc[0] ** 2)
    assert (om - want).max_abs(c) < 1e-15


# ---------------------------------------------------------------------------
# potential


def test_potential_derivative_value():
    assert EH.kahler_potential_derivative(P1, 2.0) == pytest.approx(32.0 / 15.0, abs=1e-14)


def test_potential_derivative_matches_central_difference():
    for r in (1.5, 2.0, 3.7):
        fd = (EH.kahler_potential(P1, r + 1e-6) - EH.kahler_potential(P1, r - 1e-6)) / 2e-6
        assert abs(fd - EH.kahler_potential_derivative(P1, r)) < 1e-8


def test_potential_rejects_bolt():
    with pytest.raises(ValueError):
        EH.kahler_potential(P1, 0.9)


def test_potential_chart_consistency():
    for u in np.geomspace(0.5, 5.0, 9):
        r = EH.radius_from_resolving(P1, u)
        assert abs(EH.kahler_potential(P1, r) - EH.kahler_potential_u_chart(P1, u)) < 1e-12


def test_potential_flat_limit():
    tiny = EH.EhParams(1e-12)
    assert EH.kahler_potential_u_chart(tiny, 1.3) == pytest.approx(1.3**2 / 2.0, rel=1e-10)


def test_doubled_normalization_factor_two():
    for u in np.geomspace(0.1, 10.0, 41):
        res = EH.joyce_potential_check(P1, u)
        scale = max(abs(EH.doubled_potential_reference(P1, u)), 1.0)
        assert res <= 1e-10 * scale


def test_half_d_of_rotated_differential_is_first_form(rng):
    strs = EH.complex_structures(P1)
    dphi = EH.potential_differential(P1)
    cand = F.ext_d(F.apply_J(strs["I"], dphi), step=1e-4) * (-0.5)
    oI = EH.kahler_forms(P1)[0]
    pts = _radial_points(rng, 20)
    pts[0] = [2.0, 0.9, 1.0, 2.0]  # include the reference radius r=2
    assert max((cand - oI).max_abs(p) for p in pts) < 1e-6


def test_radial_hessian_derivs_match_potential():
    a = 0.7
    params = EH.EhParams(a)
    for u in (0.4, 1.0, 2.5):
        w = u * u
        fw, fww = EH.radial_hessian_derivs(a, w)
        # compare with central differences of phi as a function of w
        h = 1e-5
        f = lambda ww: EH.kahler_potential_u_chart(params, np.sqrt(ww))
        assert abs(fw - (f(w + h) - f(w - h)) / (2 * h)) < 1e-7
        assert abs(fww - (f(w + h) - 2 * f(w) + f(w - h)) / h**2) < 1e-5
        # determinant identity: fw * (fw + w fww) = 1/4
        assert fw * (fw + w * fww) == pytest.approx(0.25, abs=1e-14)


# ---------------------------------------------------------------------------
# embedding and volume form


def test_embedding_round_trip(rng):
    emb = EH.resolving_to_complex()
    inv = EH.complex_to_resolving()
    for c in _resolving_points(rng, 10):
        c = c.copy()
        c[3] = c[3] % (2 * np.pi)  # inverse reports the fiber angle in [0, 2pi)
        back = inv(emb(c))
        assert abs(back[0] - c[0]) < 1e-12
        assert abs(back[1] - c[1]) < 1e-12
        assert abs((back[2] - c[2] + np.pi) % (2 * np.pi) - np.pi) < 1e-12
        assert abs((back[3] - c[3] + np.pi) % (2 * np.pi) - np.pi) < 1e-12


def test_embedding_jacobian_matches_finite_difference(rng):
    emb = EH.resolving_to_complex()
    fd = F.ChartMap(F.EH_U, F.COMPLEX2, emb.forward, name="fd")
    for c in _resolving_points(rng, 10):
        assert np.max(np.abs(emb.jacobian(c) - fd.jacobian(c))) < 1e-5


def test_volume_form_is_embedding_pullback(rng):
    emb = EH.resolving_to_complex()
    Om = EH.holomorphic_volume_form(P1)
    pb = F.pullback(emb, EH.complex_coordinate_area_form())
    worst = max((pb - Om).max_abs(c) for c in _resolving_points(rng, 20))
    assert worst < 1e-8


def test_volume_form_square_machine_zero(rng):
    Om = EH.holomorphic_volume_form(P1)
    sq = F.wedge(Om, Om)
    for c in _resolving_points(rng, 10):
        scale = Om.max_abs(c) ** 2
        assert abs(sq.coeff((0, 1, 2, 3), c)) <= 1e-14 * scale


def test_volume_form_against_metric_volume(rng):
    # Om ^ conj(Om) has constant ratio to the metric volume form
    Om = EH.holomorphic_volume_form(P1)
    Om_bar = F.CoefficientForm(F.EH_U, 2, Om.indices, lambda cc: [np.conj(v) for v in Om.values(cc)])
    dens = F.wedge(Om, Om_bar)
    ratios = []
    for c in _resolving_points(rng, 20):
        vol = np.sqrt(np.linalg.det(EH.eh_metric_u_chart(P1, c).components))
        ratios.append(complex(dens.coeff((0, 1, 2, 3), c)) / vol)
    ratios = np.asarray(ratios)
    assert np.max(np.abs(ratios - ratios[0])) < 1e-8
    assert abs(ratios[0]) > 0.1


def test_flat_form_pullback_is_first_form_zero_parameter(rng):
    emb = EH.resolving_to_complex()
    flat = F.CoefficientForm(F.COMPLEX2, 2, {(0, 1): 1.0, (2, 3): 1.0})
    pb = F.pullback(emb, flat)
    oI0 = EH.kahler_forms_u_chart(EH.EhParams(1e-10))[0]
    worst = max((pb - oI0).max_abs(c) for c in _resolving_points(rng, 10))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# curvature


def _eh_field(c):
    return EH.eh_metric(P1, c)


def test_ricci_flat_at_sampled_points(rng):
    worst = 0.0
    for c in _radial_points(rng, 15, r_lo=1.5, pole_margin=0.5):
        worst = max(worst, np.max(np.abs(EH.ricci_residual(_eh_field, c, step=1e-3))))
    assert worst < 1e-4


def _identity_metric(c):
    """The identity metric, shape (4, 4, ...) on a batch."""
    return np.multiply.outer(np.eye(4), np.ones(np.shape(c)[1:]))


def test_ricci_zero_for_flat_metric():
    ric = EH.ricci_residual(_identity_metric, np.array([0.3, 0.4, 0.5, 0.6]), step=1e-3)
    assert np.max(np.abs(ric)) < 1e-12


def test_ricci_second_order_in_step():
    c = np.array([2.0, 1.2, 0.8, 1.9])
    r1 = np.max(np.abs(EH.ricci_residual(_eh_field, c, step=2e-3)))
    r2 = np.max(np.abs(EH.ricci_residual(_eh_field, c, step=1e-3)))
    assert 2.5 < r1 / r2 < 6.0


def test_ricci_positive_control_round_sphere():
    # radius-2 sphere block: Ric = g / 4 on the block
    def gfun(c):
        g = _identity_metric(c)
        g[1, 1] = 4.0
        g[2, 2] = 4.0 * np.sin(c[1]) ** 2
        return g

    ric = EH.ricci_residual(gfun, np.array([0.3, 1.1, 0.7, 0.2]), step=1e-4)
    assert ric[1, 1] == pytest.approx(1.0, abs=1e-5)
    assert ric[2, 2] == pytest.approx(np.sin(1.1) ** 2, abs=1e-5)


def _ref_christoffel_symbols(metric_fn, coords, step):
    g = EH._metric_matrix(metric_fn, coords)
    ginv = np.linalg.inv(g)
    dg = np.empty((4, 4, 4))
    for c_ax in range(4):
        cp = coords.copy()
        cm = coords.copy()
        cp[c_ax] += step
        cm[c_ax] -= step
        dg[:, :, c_ax] = (EH._metric_matrix(metric_fn, cp) - EH._metric_matrix(metric_fn, cm)) / (2 * step)
    inner = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
    return 0.5 * np.einsum("ad,dbc->abc", ginv, inner)


def _ref_ricci_tensor(metric_fn, coords, step):
    gamma0 = _ref_christoffel_symbols(metric_fn, coords, step)
    dgamma = np.empty((4, 4, 4, 4))
    for d_ax in range(4):
        cp = coords.copy()
        cm = coords.copy()
        cp[d_ax] += step
        cm[d_ax] -= step
        dgamma[:, :, :, d_ax] = (
            _ref_christoffel_symbols(metric_fn, cp, step) - _ref_christoffel_symbols(metric_fn, cm, step)
        ) / (2 * step)
    riem = (
        dgamma.transpose(0, 2, 3, 1)
        - dgamma.transpose(0, 2, 1, 3)
        + np.einsum("ace,edb->abcd", gamma0, gamma0)
        - np.einsum("ade,ecb->abcd", gamma0, gamma0)
    )
    return np.einsum("abad->bd", riem)


def test_curvature_matches_axis_loops(rng):
    for c in _radial_points(rng, 3, r_lo=1.5, pole_margin=0.5):
        for step in (1e-3, 2e-3):
            got = EH.christoffel_symbols(_eh_field, c, step)
            assert got.tobytes() == _ref_christoffel_symbols(_eh_field, c, step).tobytes()
            got = EH.ricci_residual(_eh_field, c, step=step)
            assert got.tobytes() == _ref_ricci_tensor(_eh_field, c, step).tobytes()


def test_ricci_samples_the_metric_once_per_distinct_point(rng):
    samples = []

    def field(c):
        samples.append(c.T.tobytes())
        return _eh_field(c)

    def stencil(c, step):
        # c and its shifts by step along each axis, as rows
        out = [c]
        for k in range(4):
            for h in (step, -step):
                cc = c.copy()
                cc[k] += h
                out.append(cc)
        return np.array(out)

    step = 1e-3
    for c in _radial_points(rng, 2, r_lo=1.5, pole_margin=0.5):
        samples.clear()
        got = EH.ricci_residual(field, c)
        # the Christoffel stencil at c, then at each pair c +- step e_k,
        # with the pair's two points side by side
        want = [stencil(c, step)]
        for k in range(4):
            plus, minus = c.copy(), c.copy()
            plus[k] += step
            minus[k] -= step
            want.append(np.stack([stencil(plus, step), stencil(minus, step)], axis=1))
        assert len(samples) == 45
        assert b"".join(samples) == b"".join(np.ascontiguousarray(w).tobytes() for w in want)
        assert got.tobytes() == _ref_ricci_tensor(_eh_field, c, step).tobytes()


def test_ricci_rejects_indefinite_metric():
    bad = -np.eye(4)
    with pytest.raises(ValueError, match="positive"):
        EH.ricci_residual(lambda c: bad, np.zeros(4), step=1e-3)
