"""Exterior-calculus layer: wedge, d, pullback, complex-structure action,
and the i del-delbar operator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerflat import forms as F

from conftest import complex_matrix

C2 = F.COMPLEX2


def c2_coords(rng, n=1):
    return rng.uniform(-2, 2, size=(n, 4))


coord_strategy = st.lists(
    st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
).map(np.array)


# ---------------------------------------------------------------------------
# charts


def test_chart_validate_rejects_out_of_domain():
    with pytest.raises(ValueError, match="r"):
        F.EH_R.validate(np.array([-1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="theta"):
        F.EH_R.validate(np.array([2.0, 4.0, 0.0, 0.0]))
    F.EH_R.validate(np.array([2.0, 1.0, 0.0, 0.0]))


def test_chart_margin_shrinks_domain():
    F.EH_R.validate(np.array([2.0, 0.01, 0.0, 0.0]))
    with pytest.raises(ValueError, match="margin"):
        F.EH_R.validate(np.array([2.0, 0.01, 0.0, 0.0]), margin=0.05)


def _ref_validate(chart, coords, margin=0.0):
    """Chart.validate as written on numpy reductions."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (F.DIM,):
        raise ValueError(f"chart {chart.name}: expected {F.DIM} coordinates, got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"chart {chart.name}: non-finite coordinates {coords}")
    for i in range(F.DIM):
        if chart.periodic[i]:
            continue
        lo, hi = chart.lower[i], chart.upper[i]
        if not (lo + margin < coords[i] < hi - margin):
            raise ValueError(
                f"chart {chart.name}: coordinate {chart.coord_names[i]}={coords[i]:.6g} "
                f"violates open bounds ({lo:.6g}, {hi:.6g}) with margin {margin:.3g}"
            )
    return coords


def _validate_cases():
    interior = {
        F.EH_R: [2.0, 1.0, 0.5, 0.5],
        F.CYL: [0.5, 1.0, 0.5, 0.3],
        F.PROLATE: [2.0, 0.3, 0.5, 0.5],
        C2: [0.1, 0.2, 0.3, 0.4],
    }
    for chart, base in interior.items():
        for margin in (0.0, 0.05):
            yield chart, base, margin
            yield chart, [int(x) for x in base], margin
            for i in range(F.DIM):
                lo, hi = chart.lower[i], chart.upper[i]
                values = [np.nan, np.inf, -np.inf, 1e6, -1e6, 1e308, -5e-324, -0.0]
                values += [b + d for b in (lo, hi) if np.isfinite(b) for d in (-0.05, -0.01, 0.0, 0.01, 0.05)]
                for v in values:
                    c = list(base)
                    c[i] = v
                    yield chart, c, margin
                    # a non-finite entry after an out-of-bounds one
                    c[(i + 1) % F.DIM] = np.nan
                    yield chart, c, margin
        for bad in ([1.0, 2.0, 3.0], base + [1.0], [base[:2], base[2:]], []):
            yield chart, bad, 0.0


def _outcome(validate, *args):
    try:
        return "accepted", validate(*args).tobytes()
    except ValueError as err:
        return "rejected", str(err)


def test_chart_validate_matches_numpy_reference():
    outcomes = set()
    for chart, coords, margin in _validate_cases():
        got = _outcome(chart.validate, coords, margin)
        assert got == _outcome(_ref_validate, chart, coords, margin), (chart.name, coords, margin)
        outcomes.add(got[0])
    assert outcomes == {"accepted", "rejected"}


# ---------------------------------------------------------------------------
# coefficient forms and wedge


def test_one_form_evaluation(rng):
    f = F.one_form(C2, [1.0, 0.0, lambda c: c[0], 0.0])
    c = np.array([0.3, 0.1, -0.2, 0.5])
    assert np.allclose(f.as_vector(c), [1.0, 0.0, 0.3, 0.0])


def test_form_addition_and_scaling(rng):
    f = F.one_form(C2, [1.0, 2.0, 0.0, 0.0])
    g = F.one_form(C2, [0.0, 1.0, -1.0, 0.0])
    c = c2_coords(rng)[0]
    assert np.allclose((f + g).as_vector(c), [1, 3, -1, 0])
    assert np.allclose((f - g).as_vector(c), [1, 1, 1, 0])
    assert np.allclose((f * 2.5).as_vector(c), [2.5, 5, 0, 0])
    assert np.allclose((2.5 * f).as_vector(c), [2.5, 5, 0, 0])


def test_wedge_antisymmetry(rng):
    dx = [F.one_form(C2, {i: 1.0}) for i in range(4)]
    c = c2_coords(rng)[0]
    for i in range(4):
        assert F.wedge(dx[i], dx[i]).max_abs(c) == 0.0
    fg = F.wedge(dx[0], dx[2])
    gf = F.wedge(dx[2], dx[0])
    assert (fg + gf).max_abs(c) == 0.0
    assert fg.coeff((0, 2), c) == 1.0


@pytest.mark.parametrize("coeffs", [[1.0, float("nan")], [float("nan"), 1.0]])
def test_max_abs_propagates_nan_in_any_order(rng, coeffs):
    f = F.one_form(C2, coeffs + [-2.0, 0.5])
    assert np.isnan(f.max_abs(c2_coords(rng)[0]))


def test_wedge_sign_rule(rng):
    # (dx0 ^ dx2) ^ dx1 = -dx0 ^ dx1 ^ dx2
    dx = [F.one_form(C2, {i: 1.0}) for i in range(4)]
    c = c2_coords(rng)[0]
    w = F.wedge(F.wedge(dx[0], dx[2]), dx[1])
    assert w.coeff((0, 1, 2), c) == -1.0


def test_wedge_bilinear(rng):
    c = c2_coords(rng)[0]
    f = F.one_form(C2, [lambda c: c[1], 1.0, 0.0, lambda c: c[0] * c[2]])
    g = F.one_form(C2, [0.0, lambda c: np.sin(c[0]), 2.0, 1.0])
    h = F.one_form(C2, [1.0, 1.0, lambda c: c[3], 0.0])
    lhs = F.wedge(f, g + h)
    rhs = F.wedge(f, g) + F.wedge(f, h)
    assert (lhs - rhs).max_abs(c) < 1e-14


def test_wedge_rejects_degree_overflow():
    dx = [F.one_form(C2, {i: 1.0}) for i in range(4)]
    vol = F.wedge(F.wedge(dx[0], dx[1]), F.wedge(dx[2], dx[3]))
    with pytest.raises(ValueError, match="degree"):
        F.wedge(vol, dx[0])


def test_wedge_rejects_chart_mismatch():
    with pytest.raises(ValueError, match="chart"):
        F.wedge(F.one_form(C2, {0: 1.0}), F.one_form(F.EH_R, {0: 1.0}))


def test_top_degree_wedge_of_volume_factor(rng):
    dx = [F.one_form(C2, {i: 1.0}) for i in range(4)]
    c = c2_coords(rng)[0]
    vol = F.wedge(F.wedge(dx[0], dx[1]), F.wedge(dx[2], dx[3]))
    assert vol.coeff((0, 1, 2, 3), c) == 1.0


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_constant_form_vanishes(rng):
    f = F.one_form(C2, [1.0, -3.0, 2.0, 0.5])
    df = F.ext_d(f)
    assert df.max_abs(c2_coords(rng)[0]) < 1e-10


def test_d_of_zero_form_is_gradient(rng):
    f = F.CoefficientForm(C2, 0, {(): lambda c: c[0] ** 2 + 3 * c[1] * c[2]})
    df = F.ext_d(f, step=1e-5)
    c = c2_coords(rng)[0]
    grad = np.array([2 * c[0], 3 * c[2], 3 * c[1], 0.0])
    assert np.max(np.abs(df.as_vector(c) - grad)) < 1e-8


def test_d_squared_vanishes(rng):
    # nested central stencils commute, so d(d f) is round-off only
    f = F.one_form(C2, [
        lambda c: np.sin(c[1] * c[2]),
        lambda c: c[0] * c[3] ** 2,
        lambda c: np.cos(c[0]) * c[1],
        lambda c: c[1] * c[2],
    ])
    c = np.array([0.4, -0.3, 0.8, 0.2])
    assert F.ext_d(F.ext_d(f, step=1e-3), step=1e-3).max_abs(c) < 1e-8


def test_ext_d_second_order_accurate(rng):
    f = F.one_form(C2, [lambda c: np.sin(c[1] * c[2]), 0.0, 0.0, 0.0])
    exact = F.CoefficientForm(C2, 2, {
        (0, 1): lambda c: -c[2] * np.cos(c[1] * c[2]),
        (0, 2): lambda c: -c[1] * np.cos(c[1] * c[2]),
    })
    c = np.array([0.4, 1.1, 0.8, 0.2])
    e1 = (F.ext_d(f, step=4e-2) - exact).max_abs(c)
    e2 = (F.ext_d(f, step=2e-2) - exact).max_abs(c)
    order = np.log2(e1 / e2)
    assert 1.8 < order < 2.2


def test_leibniz_rule(rng):
    f = F.CoefficientForm(C2, 0, {(): lambda c: c[0] * c[1]})
    g = F.one_form(C2, [0.0, lambda c: np.sin(c[2]), 0.0, lambda c: c[0]])
    c = np.array([0.5, 0.25, -0.4, 0.9])
    lhs = F.ext_d(g * (lambda cc: cc[0] * cc[1]), step=1e-4)
    rhs = F.wedge(F.ext_d(f, step=1e-4), g) + F.ext_d(g, step=1e-4) * (lambda cc: cc[0] * cc[1])
    assert (lhs - rhs).max_abs(c) < 1e-7


def _d_of_product(step):
    return F.ext_d(F.CoefficientForm(F.EH_R, 0, {(): lambda c: c[0] * c[1]}), step=step)


def test_ext_d_validates_its_two_samples(monkeypatch):
    # one evaluation validates each stencil point it evaluates once: the
    # two samples c + h e_j and c - h e_j of each coefficient, which
    # cover c
    seen, evaluated = [], []
    validate = F.Chart.validate

    def recording(chart, coords, margin=0.0):
        seen.append(np.array(coords).tobytes())
        return validate(chart, coords, margin)

    def product(c):
        evaluated.append(c.tobytes())
        return c[0] * c[1]

    monkeypatch.setattr(F.Chart, "validate", recording)
    df = F.ext_d(F.CoefficientForm(F.EH_R, 0, {(): product}), step=1e-3)
    c = np.array([2.0, 1.0, 0.3, -0.4])
    stencil = []
    for j in range(4):
        e = 1e-3 * np.eye(4)[j]
        stencil += [(c + e).tobytes(), (c - e).tobytes()]
    for read in (df.as_vector, df.max_abs, lambda c: df.coeff((2,), c)):
        seen.clear()
        evaluated.clear()
        read(c)
        assert seen == evaluated == stencil


@pytest.mark.parametrize("centre, match", [
    ([-0.5, 1.0, 0.3, 0.0], "violates open bounds"),
    ([0.0, 1.0, 0.3, 0.0], "violates open bounds"),
    ([2.0, np.pi, 0.3, 0.0], "violates open bounds"),
    ([np.nan, 1.0, 0.3, 0.0], "non-finite"),
    ([2.0, 1.0, np.inf, 0.0], "non-finite"),
])
def test_ext_d_rejects_a_centre_off_the_chart(centre, match):
    df = _d_of_product(1e-3)
    for j in range(4):
        with pytest.raises(ValueError, match=match):
            df.coeff((j,), centre)


# ---------------------------------------------------------------------------
# pullback


def test_pullback_identity(rng):
    ident = F.ChartMap(C2, C2, lambda c: c, jac=lambda c: np.eye(4), name="id")
    f = F.CoefficientForm(C2, 2, {(0, 1): lambda c: c[2], (1, 3): 1.0})
    c = c2_coords(rng)[0]
    assert (F.pullback(ident, f) - f).max_abs(c) < 1e-10


def test_pullback_linear_map(rng):
    A = np.array([
        [1.0, 2.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 1.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    m = F.ChartMap(C2, C2, lambda c: A @ c, jac=lambda c: A, name="lin")
    f = F.wedge(F.one_form(C2, {0: 1.0}), F.one_form(C2, {2: 1.0}))
    c = c2_coords(rng)[0]
    got = F.pullback(m, f).as_matrix(c)
    # F*(dx0 ^ dx2) with dx0 -> dx0 + 2 dx1, dx2 -> 3 dx2 + dx3
    a = np.array([1.0, 2.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 3.0, 1.0])
    want = np.outer(a, b) - np.outer(b, a)
    assert np.max(np.abs(got - want)) < 1e-10


def test_pullback_functoriality(rng):
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    mA = F.ChartMap(C2, C2, lambda c: A @ c, jac=lambda c: A, name="A")
    mB = F.ChartMap(C2, C2, lambda c: B @ c, jac=lambda c: B, name="B")
    f = F.CoefficientForm(C2, 2, {(0, 1): lambda c: np.sin(c[0]), (2, 3): lambda c: c[1] ** 2, (0, 3): 2.0})
    c = c2_coords(rng)[0]
    lhs = F.pullback(mB, F.pullback(mA, f))
    # mA after mB: the linear map A @ B
    AB = A @ B
    rhs = F.pullback(F.ChartMap(C2, C2, lambda c: AB @ c, jac=lambda c: AB, name="A*B"), f)
    assert (lhs - rhs).max_abs(c) < 1e-10


def test_pullback_degree_zero(rng):
    m = F.ChartMap(C2, C2, lambda c: 2 * c, jac=lambda c: 2 * np.eye(4), name="scale")
    f = F.CoefficientForm(C2, 0, {(): lambda c: c[0] + c[3]})
    c = c2_coords(rng)[0]
    assert abs(F.pullback(m, f).coeff((), c) - (2 * c[0] + 2 * c[3])) < 1e-12


def _ref_pullback_matrix(m, terms, c):
    """The pullback's component matrix at one point, each coefficient
    summed over the form's terms on its own."""
    out = np.zeros((4, 4))
    for i, j in itertools.combinations(range(4), 2):
        total = 0.0
        for idx, fn in terms.items():
            v = fn(m.forward(c)) if callable(fn) else fn
            total = total + v * np.linalg.det(m.jacobian(c)[np.ix_(idx, (i, j))])
        out[i, j], out[j, i] = total, -total
    return out


def test_pullback_maps_once_per_point(rng):
    calls = {"forward": 0, "jac": 0}
    A = rng.normal(size=(4, 4))

    def forward(c):
        calls["forward"] += 1
        return A @ np.sin(c)

    def jac(c):
        calls["jac"] += 1
        return A * np.cos(c)

    m = F.ChartMap(C2, C2, forward, jac=jac, name="sin")
    terms = {(0, 1): lambda c: c[2] * c[3], (1, 3): lambda c: np.exp(c[0]), (0, 2): 2.0}
    pb = F.pullback(m, F.CoefficientForm(C2, 2, terms))
    for c in c2_coords(rng, 2):
        calls.update(forward=0, jac=0)
        got = pb.as_matrix(c)
        assert calls == {"forward": 1, "jac": 1}
        assert got.tobytes() == _ref_pullback_matrix(m, terms, c).tobytes()


def test_pullback_cache_survives_a_reused_coordinate_buffer():
    # the identity's image is its input; a form must not keep a view of
    # a buffer the caller writes to later
    ident = F.ChartMap(C2, C2, lambda c: c, jac=lambda c: np.eye(4), name="id")
    pb = F.pullback(ident, F.CoefficientForm(C2, 2, {(0, 1): lambda c: c[2]}))
    buf = np.array([0.1, 0.2, 0.3, 0.4])
    assert pb.coeff((0, 1), buf) == 0.3
    buf[2] = 5.0
    assert pb.coeff((0, 1), buf) == 5.0
    assert pb.coeff((0, 1), np.array([0.1, 0.2, 0.3, 0.4])) == 0.3


def test_chart_map_numeric_jacobian_matches_analytic(rng):
    m = F.ChartMap(
        C2, C2,
        lambda c: np.array([c[0] + 0.5 * np.sin(c[1]), c[1] + 0.2 * c[2] ** 2, c[2], c[3] + c[0] * c[1]]),
        name="nl",
    )
    c = np.array([0.3, 0.7, -0.2, 0.4])
    want = np.array([
        [1.0, 0.5 * np.cos(c[1]), 0, 0],
        [0, 1.0, 0.4 * c[2], 0],
        [0, 0, 1.0, 0],
        [c[1], c[0], 0, 1.0],
    ])
    assert np.max(np.abs(m.jacobian(c) - want)) < 1e-6


def test_degenerate_jacobian_rejected():
    m = F.ChartMap(C2, C2, lambda c: np.array([c[0], c[1], c[2], 0.0 * c[3]]), name="deg")
    with pytest.raises(ValueError, match="jacobian"):
        m.jacobian(np.array([0.1, 0.2, 0.3, 0.4]))


# ---------------------------------------------------------------------------
# central differences, bit for bit against the per-axis loops


def _matrix_fn(c):
    return np.array([[np.sin(c[0]) * c[1], c[2] ** 3], [np.exp(c[3]) - c[0], c[1] * c[2] * c[3]]])


def _ref_partials(fn, coords, step, axes):
    out = np.empty(fn(coords).shape + (len(axes),))
    for k, j in enumerate(axes):
        cp = coords.copy()
        cm = coords.copy()
        cp[j] += step
        cm[j] -= step
        out[..., k] = (fn(cp) - fn(cm)) / (2 * step)
    return out


def _ref_fd_jacobian(m, coords):
    J = np.empty((4, 4))
    h = m.fd_step
    for j in range(4):
        cp = coords.copy()
        cm = coords.copy()
        cp[j] += h
        cm[j] -= h
        J[:, j] = (np.asarray(m.forward(cp)) - np.asarray(m.forward(cm))) / (2 * h)
    return J


def test_central_partials_matches_axis_loop(rng):
    for c in c2_coords(rng, 5):
        got = F.central_partials(_matrix_fn, c, 1e-4)
        ref = _ref_partials(_matrix_fn, c, 1e-4, range(4))
        assert got.shape == (2, 2, 4) and got.tobytes() == ref.tobytes()
        got = F.central_partials(_matrix_fn, c, 1e-4, axes=(1, 3))
        ref = _ref_partials(_matrix_fn, c, 1e-4, (1, 3))
        assert got.shape == (2, 2, 2) and got.tobytes() == ref.tobytes()


def test_fd_jacobian_matches_axis_loop(rng):
    m = F.ChartMap(
        C2, C2,
        lambda c: np.array([c[0] * np.cos(c[1]), c[1] + c[2] ** 2, np.sinh(c[2]) + c[3], c[3] * c[0] + 2.0]),
        name="nl",
    )
    for c in c2_coords(rng, 5):
        assert m.jacobian(c).tobytes() == _ref_fd_jacobian(m, c).tobytes()


# ---------------------------------------------------------------------------
# complex structure action


def _toy_structure():
    A = np.array([
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ], dtype=float)
    return F.ComplexStructure("toy", A, C2, lambda c: np.eye(4))


def test_structure_requires_square_minus_identity():
    bad = np.eye(4)
    with pytest.raises(ValueError, match="minus"):
        F.ComplexStructure("bad", bad, C2, lambda c: np.eye(4))


def test_apply_j_euclidean_frame(rng):
    J = _toy_structure()
    f = F.one_form(C2, [1.0, 0.0, 2.0, 0.0])
    c = c2_coords(rng)[0]
    got = F.apply_J(J, f).as_vector(c)
    assert np.allclose(got, J.action @ np.array([1.0, 0.0, 2.0, 0.0]))


def test_apply_j_squares_to_minus_identity(rng):
    J = _toy_structure()
    f = F.one_form(C2, [lambda c: c[0], 1.0, lambda c: np.sin(c[3]), 0.5])
    c = c2_coords(rng)[0]
    twice = F.apply_J(J, F.apply_J(J, f))
    assert (twice + f).max_abs(c) < 1e-14


def _ref_apply_j(structure, f, c):
    """J acting on a 1-form at one point, by the frame solve of forms."""
    Et = np.asarray(structure.coframe(c), dtype=float).T
    comps = np.linalg.solve(Et, f.as_vector(c)[:, None])
    return (Et @ (structure.action @ comps))[:, 0]


def _ref_d_one_form_matrix(g, c, step):
    """The component matrix of d of the 1-form g (a function of one
    point) at c, each coefficient differenced on its own:
    -d_j g_i + d_i g_j for i < j, in ext_d's order and sign."""
    def shifted(k, h):
        cc = c.copy()
        cc[k] += h
        return cc

    out = np.zeros((4, 4))
    for i, j in itertools.combinations(range(4), 2):
        v = (-1 * (g(shifted(j, step))[i] - g(shifted(j, -step))[i]) / (2 * step)
             + 1 * (g(shifted(i, step))[j] - g(shifted(i, -step))[j]) / (2 * step))
        out[i, j], out[j, i] = v, -v
    return out


def test_apply_j_solves_the_frame_once_per_point(rng):
    solves = []
    A = _toy_structure().action

    def coframe(c):
        solves.append(1)
        # invertible: 1 + 0.2 sum sin(c_i) cos(c_j) stays above 0.2
        return np.eye(4) + 0.2 * np.outer(np.sin(c), np.cos(c[::-1]))

    J = F.ComplexStructure("skew", A, C2, coframe)
    f = F.one_form(C2, [lambda c: c[0] * c[1], 1.0, lambda c: np.sin(c[3]), lambda c: c[2] ** 2])
    d_jf = F.ext_d(F.apply_J(J, f))
    for c in c2_coords(rng, 2):
        solves.clear()
        d_jf.max_abs(c)
        # one solve at each of the 8 stencil points
        assert len(solves) == 8
        want = _ref_d_one_form_matrix(lambda cc: _ref_apply_j(J, f, cc), c, 1e-4)
        assert d_jf.as_matrix(c).tobytes() == want.tobytes()


def test_apply_j_rejects_degree_two():
    J = _toy_structure()
    f = F.CoefficientForm(C2, 2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="degree"):
        F.apply_J(J, f)


# ---------------------------------------------------------------------------
# i del-delbar


def test_i_ddbar_flat_potential(rng):
    # |z|^2 -> 2 (dx1^dy1 + dx2^dy2)
    phi = lambda c: c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + c[3] ** 2
    om = F.i_ddbar(phi)
    c = c2_coords(rng)[0]
    got = om.as_matrix(c)
    want = np.zeros((4, 4))
    want[0, 1] = 2.0
    want[2, 3] = 2.0
    want -= want.T
    assert np.max(np.abs(got - want)) < 1e-6


def test_i_ddbar_pluriharmonic_vanishes(rng):
    # Re(z1^2) = x1^2 - y1^2
    phi = lambda c: c[0] ** 2 - c[1] ** 2
    om = F.i_ddbar(phi)
    assert om.max_abs(c2_coords(rng)[0]) < 1e-7


def test_i_ddbar_mixed_potential(rng):
    # phi = x1 * y2 has h_{12bar} = i/4, h_{11} = h_{22} = 0
    phi = lambda c: c[0] * c[3]
    c = c2_coords(rng)[0]
    d2 = F.second_derivative_matrix(phi, c)
    h = complex_matrix(F.hermitian_from_second_derivs(d2))
    assert abs(h[0, 0]) < 1e-7 and abs(h[1, 1]) < 1e-7
    assert abs(h[0, 1] - 0.25j) < 1e-7
    assert abs(h[1, 0] + 0.25j) < 1e-7


def test_hermitian_round_trip(rng):
    h = np.array([1.5, 0.8, 0.2, 0.3])
    comp = F.hermitian_to_real_two_form(h)
    assert comp[(0, 1)] == pytest.approx(2 * 1.5)
    assert comp[(2, 3)] == pytest.approx(2 * 0.8)
    assert comp[(0, 3)] == pytest.approx(2 * 0.2)
    assert comp[(1, 2)] == pytest.approx(-2 * 0.2)
    assert comp[(0, 2)] == pytest.approx(-2 * 0.3)
    assert comp[(1, 3)] == pytest.approx(-2 * 0.3)


def _ref_complex_hermitian(d2):
    # the complex (..., 2, 2) formula the component layout replaced
    h = np.empty(d2.shape[:-2] + (2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * j, 2 * j + 1
            h[..., i, j] = 0.25 * ((d2[..., xi, xj] + d2[..., yi, yj]) + 1j * (d2[..., xi, yj] - d2[..., yi, xj]))
    return h


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=32, max_size=32))
@settings(max_examples=50, deadline=None)
def test_hermitian_components_match_complex_formula(vals):
    a = np.array(vals).reshape(2, 4, 4)
    d2 = a + np.swapaxes(a, -1, -2)
    h = F.hermitian_from_second_derivs(d2)
    assert h.shape == (4, 2)
    assert np.array_equal(complex_matrix(h), _ref_complex_hermitian(d2))


@given(coord_strategy)
@settings(max_examples=25, deadline=None)
def test_i_ddbar_matrix_antisymmetric(c):
    phi = lambda cc: cc[0] ** 2 * cc[2] + np.sin(cc[1]) * cc[3]
    m = F.i_ddbar(phi).as_matrix(c)
    assert np.max(np.abs(m + m.T)) < 1e-12


def test_i_ddbar_samples_phi_once_per_point(rng):
    calls = []

    def phi(cc):
        calls.append(1)
        return cc[0] ** 2 * cc[2] + np.sin(cc[1]) * cc[3]

    om = F.i_ddbar(phi)
    # a second point must not reuse the first point's coefficients
    for c in c2_coords(rng, 2):
        calls.clear()
        got = om.as_matrix(c)
        assert len(calls) == 33
        d2 = F.second_derivative_matrix(phi, c)
        for (i, j), v in F.hermitian_to_real_two_form(F.hermitian_from_second_derivs(d2)).items():
            assert got[i, j] == v


@given(st.integers(0, 3), st.integers(0, 3), coord_strategy)
@settings(max_examples=40, deadline=None)
def test_wedge_of_differentials_matches_sign_count(i, j, c):
    dx_i = F.one_form(C2, {i: 1.0})
    dx_j = F.one_form(C2, {j: 1.0})
    w = F.wedge(dx_i, dx_j)
    if i == j:
        assert w.max_abs(c) == 0.0
    else:
        lo, hi = min(i, j), max(i, j)
        assert w.coeff((lo, hi), c) == (1.0 if i < j else -1.0)
