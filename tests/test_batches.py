"""A batch of points gives each point the value it gets alone.

A batch holds the four chart coordinates on its leading axis and the
samples after it; row k of a batched value (its last axis) is compared
with the value at point k alone, shape (4,).  Where only + - * / and
sqrt enter, the two agree bit for bit.  Elsewhere a batch may round a
transcendental function or a stacked linear-algebra call in another
last bit than one point does, and fd_bound states how far that may
carry: a value rounded ULPS times at the size `scale`, then
differenced `order` times at step h, moves by at most
ULPS * eps * scale / h**order.  A guard raises on a batch with one bad
point the message it raises on that point alone, and a check draws the
samples, and leaves the generator in the state, of its per-point loop.
"""

import functools

import numpy as np
import pytest

from kummerflat import cli
from kummerflat import eguchi_hanson as EH
from kummerflat import forms as F
from kummerflat import gibbons_hawking as GH

EPS = np.finfo(float).eps
ULPS = 64
P1 = EH.EhParams(1.0)
TWO = GH.two_center_config(0.5)


def fd_bound(scale, step=1.0, order=0):
    return ULPS * EPS * scale / step**order


def _radial_batch(n=5, seed=11):
    return cli._radial_points(np.random.default_rng(seed), n, r_lo=1.5, pole_margin=0.5).T


def _resolving_batch(n=5, seed=12):
    return cli._resolving_points(np.random.default_rng(seed), n).T


def _c2_batch(n=5, seed=13):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, (F.DIM, n))


def _cyl_batch(n=5, seed=14):
    low, high = (0.0, 0.3, 0.0, -1.5), (4.0 * np.pi, 2.0, 2.0 * np.pi, 1.5)
    return np.random.default_rng(seed).uniform(low, high, (n, F.DIM)).T


def _alone(fn, batch):
    """fn at each point of the batch alone, stacked along a last axis."""
    return np.stack([np.asarray(fn(batch[:, k])) for k in range(batch.shape[1])], axis=-1)


def _coefficients(form):
    """The coefficients of a form, stacked along a leading axis."""
    return lambda c: np.stack([np.broadcast_to(v, np.shape(c)[1:]) for v in form.evaluate(c).values()])


def _same_bits(fn, batch):
    got = np.asarray(fn(batch))
    want = _alone(fn, batch)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _within(fn, batch, bound):
    got = np.asarray(fn(batch))
    want = _alone(fn, batch)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= bound


# ---------------------------------------------------------------------------
# forms: arithmetic coefficients, bit for bit


def _polynomial_forms(chart):
    f = F.one_form(chart, [
        lambda c: c[0] * c[1],
        lambda c: c[2] * c[3] - c[0],
        1.5,
        lambda c: c[1] / (1.0 + c[3] * c[3]),
    ])
    g = F.one_form(chart, [lambda c: c[3], -0.5, lambda c: np.sqrt(1.0 + c[0] * c[0]), lambda c: c[1] * c[2]])
    return f, g


def test_ext_d_and_wedge_bit_for_bit():
    f, g = _polynomial_forms(F.COMPLEX2)
    batch = _c2_batch()
    _same_bits(F.ext_d(f).as_matrix, batch)
    _same_bits(F.ext_d(F.ext_d(f, step=1e-3), step=1e-3).max_abs, batch)
    _same_bits(F.wedge(f, g).as_matrix, batch)
    _same_bits(F.wedge(F.wedge(f, g), F.ext_d(g)).max_abs, batch)
    _same_bits((f + g * 2.0).as_vector, batch)
    _same_bits(F.i_ddbar(lambda c: c[0] * c[0] * c[2] + c[1] * c[3] / (2.0 + c[0] * c[0])).as_matrix, batch)


def test_complex_wedge_bit_for_bit():
    # a product of complex coefficient arrays rounds as on scalars, also
    # on a batch long enough for numpy's SIMD loops
    f, g = _polynomial_forms(F.COMPLEX2)
    h = F.one_form(F.COMPLEX2, [lambda c: c[1], lambda c: c[2] * c[0], lambda c: 2.5 - c[3], lambda c: c[0] * c[0]])
    om = F.wedge(f, g) + F.wedge(f, h) * 1j
    sq = F.wedge(om, om)
    batch = _c2_batch(256)
    _same_bits(lambda c: sq.coeff((0, 1, 2, 3), c), batch)
    _same_bits(om.max_abs, batch)


def test_power_and_product_round_a_batch_as_one_point():
    # numpy's SIMD loops engage on long arrays; on numpy scalars, as on
    # one point's coordinates, ** and complex * round through libm and
    # plain arithmetic
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 10.0, 4096)
    for n in (2, 3, 4, 0.25):
        assert F.power(x, n).tobytes() == np.array([v**n for v in x]).tobytes()
    a = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    b = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    assert F.product(a, b).tobytes() == np.array([u * v for u, v in zip(a, b)]).tobytes()
    assert F.product(x, b).tobytes() == (x * b).tobytes()


def test_central_partials_bit_for_bit():
    def fn(c):
        return np.stack([c[0] * c[1], c[2] / (2.0 + c[3] * c[3]), np.sqrt(c[0] * c[0] + 1.0)])

    batch = _c2_batch()
    _same_bits(lambda c: F.central_partials(fn, c, 1e-4), batch)
    _same_bits(lambda c: F.central_partials(fn, c, 1e-4, axes=(1, 3)), batch)


# ---------------------------------------------------------------------------
# forms: linear algebra and the model spaces' coefficients, within bounds


def test_apply_j_and_pullback_within_bounds():
    f, _ = _polynomial_forms(F.COMPLEX2)
    A = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)

    def coframe(c):
        E = np.zeros((4, 4) + np.shape(c[0]))
        for i in range(4):
            E[i, i] = 2.0 + c[i] * c[i]
        E[0, 1] = c[2]
        E[3, 2] = c[0] * c[1]
        return E

    J = F.ComplexStructure("poly", A, F.COMPLEX2, coframe)
    batch = _c2_batch()
    jf = F.apply_J(J, f)
    scale = np.max(np.abs(jf.as_vector(batch)))
    _within(jf.as_vector, batch, fd_bound(scale))
    _within(F.ext_d(jf, step=1e-4).as_matrix, batch, fd_bound(scale, 1e-4, 1))

    def fwd(c):
        return np.stack([c[0] + c[1] * c[2], c[1], c[2] - c[3] * c[0], 2.0 * c[3]])

    def jac(c):
        J = np.zeros((4, 4) + np.shape(c[0]))
        J[0, 0] = J[1, 1] = J[2, 2] = 1.0
        J[3, 3] = 2.0
        J[0, 1], J[0, 2] = c[2], c[1]
        J[2, 3], J[2, 0] = -c[0], -c[3]
        return J

    m = F.ChartMap(F.COMPLEX2, F.COMPLEX2, fwd, jac=jac, name="poly")
    for pb in (F.pullback(m, F.wedge(*_polynomial_forms(F.COMPLEX2))),
               F.pullback(F.ChartMap(F.COMPLEX2, F.COMPLEX2, fwd, name="fd"), f)):
        scale = np.max(np.abs(pb.max_abs(batch)))
        _within(pb.max_abs, batch, fd_bound(scale, 1e-6, 1))


def test_model_space_forms_within_bounds():
    strs = EH.complex_structures(P1)
    cand = F.ext_d(F.apply_J(strs["I"], EH.potential_differential(P1))) * (-0.5)
    radial = _radial_batch()
    target = EH.kahler_forms(P1)[0]
    scale = np.max(np.abs(target.as_matrix(radial)))
    _within((cand - target).as_matrix, radial, fd_bound(scale, 1e-4, 1))
    for om in EH.kahler_forms(P1):
        _within(_coefficients(F.ext_d(om)), radial, fd_bound(scale, 1e-4, 1))
    emb = EH.resolving_to_complex()
    resolving = _resolving_batch()
    pb = F.pullback(emb, EH.complex_coordinate_area_form()) - EH.holomorphic_volume_form(P1)
    scale = np.max(EH.holomorphic_volume_form(P1).max_abs(resolving))
    _within(pb.as_matrix, resolving, fd_bound(scale))


# ---------------------------------------------------------------------------
# metrics and curvature


def test_metrics_within_bounds():
    radial = _radial_batch()
    for fn in (functools.partial(EH.eh_metric, P1),
               functools.partial(EH.metric_series, P1, order=3),
               functools.partial(EH.eh_metric_u_chart, P1)):
        scale = np.max(np.abs(fn(radial).components))
        _within(lambda c: fn(c).components, radial, fd_bound(scale))
    cyl = _cyl_batch()
    for cfg in (TWO, GH.two_center_config(0.5, eps_gh=1.0)):
        scale = np.max(np.abs(GH.gh_metric(cfg, cyl).components))
        _within(lambda c: GH.gh_metric(cfg, c).components, cyl, fd_bound(scale))


@pytest.mark.parametrize("chart", ["eh", "gh"])
def test_curvature_within_bounds(chart):
    if chart == "eh":
        field, batch = functools.partial(EH.eh_metric, P1), _radial_batch()
    else:
        field, batch = functools.partial(GH.gh_metric, TWO), _cyl_batch()
    g = field(batch).components
    ginv = np.linalg.inv(F.as_stack(g))
    # the Christoffel symbols carry ginv times first differences of g,
    # the Ricci residual their first differences and products
    scale = np.max(np.abs(g)) * np.max(np.abs(ginv))
    step = 1e-3
    _within(lambda c: EH.christoffel_symbols(field, c, step), batch, fd_bound(scale, step, 1))
    gamma = np.max(np.abs(EH.christoffel_symbols(field, batch, step)))
    _within(lambda c: EH.ricci_residual(field, c, step), batch,
            fd_bound(scale * (1.0 + gamma), step, 2))


# ---------------------------------------------------------------------------
# the Gibbons-Hawking residuals


def test_gibbons_hawking_residuals_within_bounds():
    cyl = _cyl_batch()

    def extra(rho, z):
        return np.stack([np.sin(rho) * z, rho * z * z, np.cos(z)])

    for cfg, ex in ((TWO, None), (GH.two_center_config(0.5, eps_gh=1.0), extra)):
        v = GH.potential_V(cfg, GH._cyl_to_cart(cyl[1], cyl[2], cyl[3]))
        scale = np.max(np.abs(v)) + np.max(np.abs(GH.connection_axial(cfg, cyl[1], cyl[3])))
        _within(lambda c: GH.curl_residual(cfg, c, extra=ex), cyl, fd_bound(scale, 1e-4, 1))
    x = np.random.default_rng(15).uniform(1.5, 2.5, (3, 5))
    # the five-point Laplacian weighs V by at most 64/12 over step^2
    scale = np.max(np.abs(GH.potential_V(TWO, x))) * 64.0 / 12.0
    _within(lambda y: GH.harmonic_residual(TWO, y, 1e-2), x, fd_bound(scale, 1e-2, 2))
    for c in (0.5, 1e10):
        radial = _radial_batch() * np.array([[np.sqrt(2.0 * c)], [1.0], [1.0], [1.0]])
        # relative to the target metric's largest entry
        _within(lambda p: GH.isometry_residual(c, p), radial, fd_bound(1.0))


# ---------------------------------------------------------------------------
# guards


def _message(fn, arg):
    with pytest.raises(ValueError) as err:
        fn(arg)
    return str(err.value)


def _with_bad_point(batch, bad, k=2):
    batch = batch.copy()
    batch[:, k] = bad
    return batch


def _prolate_batch():
    rng = np.random.default_rng(16)
    return np.stack([rng.uniform(1.2, 3.0, 5), rng.uniform(-0.9, 0.9, 5),
                     rng.uniform(0.0, 6.0, 5), rng.uniform(0.0, 6.0, 5)])


def _deriv_coeff(c):
    return F.ext_d(F.CoefficientForm(F.EH_R, 0, {(): lambda cc: cc[0] * cc[1]}), step=1e-3).coeff((1,), c)


@pytest.mark.parametrize("fn, batch, bad", [
    (F.EH_R.validate, _radial_batch(), [np.nan, 1.0, 0.3, 0.2]),
    (F.EH_R.validate, _radial_batch(), [2.0, 1.0, np.inf, 0.2]),
    (F.EH_R.validate, _radial_batch(), [2.0, 4.0, 0.3, 0.2]),
    (F.EH_R.validate, _radial_batch(), [-1.0, 1.0, 0.3, np.nan]),
    (F.PROLATE.validate, _prolate_batch(), [2.0, 1.0, 0.3, 0.2]),
    (_deriv_coeff, _radial_batch(), [2.0, np.pi, 0.3, 0.2]),
    (_deriv_coeff, _radial_batch(), [2.0, 1.0, np.nan, 0.2]),
    (functools.partial(EH.eh_metric, P1), _radial_batch(), [0.5, 1.0, 0.3, 0.2]),
    (functools.partial(EH.eh_metric, P1), _radial_batch(), [np.inf, 1.0, 0.3, 0.2]),
    (functools.partial(EH.eh_metric_u_chart, P1), _resolving_batch(), [0.0, 1.0, 0.3, 0.2]),
    (EH.resolving_to_complex().jacobian, _resolving_batch(), [1e-6, 1.0, 0.3, 0.2]),
    (lambda c: EH.christoffel_symbols(lambda cc: EH.eh_metric(P1, cc).components * np.sign(cc[0] - 2.9), c),
     _radial_batch() * np.array([[0.0], [1.0], [1.0], [1.0]]) + np.array([[3.0], [0.0], [0.0], [0.0]]),
     [2.0, 1.0, 0.3, 0.2]),
    (functools.partial(GH.gh_metric, TWO), _cyl_batch(), [0.3, 0.0, 0.2, 0.1]),
    (functools.partial(GH.gh_metric, GH.GhConfig(((0, 0, 0),), (-1,), 0.1)),
     _cyl_batch() * np.array([[1.0], [0.0], [1.0], [0.0]]) + np.array([[0.0], [100.0], [0.0], [0.0]]),
     [0.3, 1.0, 0.2, 0.1]),
    (functools.partial(GH.curl_residual, TWO), _cyl_batch(), [0.3, 5e-5, 0.2, 0.1]),
    (lambda x: GH.potential_V(TWO, x), _cyl_batch()[1:], [0.0, 0.0, 0.5]),
    (lambda x: GH.connection_axial(TWO, x[1], x[3]), _cyl_batch(), [0.3, -1.0, 0.2, 0.1]),
])
def test_one_bad_point_raises_its_own_message(fn, batch, bad):
    fn(batch)
    alone = _message(fn, np.asarray(bad, dtype=float))
    assert _message(fn, _with_bad_point(batch, bad)) == alone


@pytest.mark.parametrize("fn, first, second", [
    (F.EH_R.validate, [2.0, 4.0, 0.3, 0.2], [np.nan, 1.0, 0.3, 0.2]),
    (F.EH_R.validate, [np.nan, 1.0, 0.3, 0.2], [2.0, 4.0, 0.3, 0.2]),
    (functools.partial(EH.eh_metric, P1), [0.5, 1.0, 0.3, 0.2], [0.7, 1.0, 0.3, 0.2]),
])
def test_the_first_bad_point_names_the_batch(fn, first, second):
    batch = _with_bad_point(_with_bad_point(_radial_batch(), second, k=3), first, k=1)
    assert _message(fn, batch) == _message(fn, np.asarray(first, dtype=float))


# ---------------------------------------------------------------------------
# same samples, same generator state


def _curl_points_loop(rng):
    return np.array([[rng.uniform(0.0, 4.0 * np.pi), rng.uniform(0.3, 2.0),
                      rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.5, 1.5)] for _ in range(100)])


def _harmonic_points_loop(rng, cfg):
    centers = [np.asarray(ctr) for ctr in cfg.centers]
    pts = []
    while len(pts) < 50:
        x = rng.uniform(-2.5, 2.5, 3)
        if min(np.linalg.norm(x - ctr) for ctr in centers) < 1.0:
            continue
        pts.append(x)
    return np.array(pts)


@pytest.mark.parametrize("seed", range(8))
def test_gh_checks_draw_the_loop_samples(seed, monkeypatch):
    seen = {}

    def recording(name, fn):
        def wrapped(cfg, p, *args, **kwargs):
            seen[name] = np.array(p)
            return fn(cfg, p, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(GH, "curl_residual", recording("curl", GH.curl_residual))
    monkeypatch.setattr(GH, "harmonic_residual", recording("harmonic", GH.harmonic_residual))
    monkeypatch.setattr(GH, "isometry_residual", recording("isometry", GH.isometry_residual))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    cli.check_curl_equation(0.5, 0.0, rng)
    cli.check_harmonic_potential(0.5, 0.0, rng)
    assert seen["curl"].tobytes() == _curl_points_loop(ref).T.tobytes()
    assert seen["harmonic"].tobytes() == _harmonic_points_loop(ref, TWO).T.tobytes()
    # the generator stands where the per-point loops left it
    assert rng.bit_generator.state == ref.bit_generator.state
    cli.check_gh_eh_isometry(0.5, rng)
    want = cli._radial_points(ref, 100, r_lo=1.2, r_hi=4.0).T
    assert seen["isometry"].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# evaluations per check do not grow with the sample count


def test_ricci_evaluates_the_metric_at_most_81_times(monkeypatch):
    # 9 calls for the Christoffel symbols at the batch, then 9 for each
    # axis on the batch's two shifts stacked along a new sample axis:
    # 45 at any size, where the nested stencils hold 81 samples
    calls = []
    eh_metric = EH.eh_metric

    def counting(params, p):
        calls.append(np.shape(p))
        return eh_metric(params, p)

    monkeypatch.setattr(EH, "eh_metric", counting)
    cli.check_ricci_flat(np.random.default_rng(0))
    assert calls == [(4, 100)] * 9 + [(4, 2, 100)] * 36
    for n in (1, 7, 100, 300):
        calls.clear()
        EH.ricci_residual(functools.partial(EH.eh_metric, P1), _radial_batch(n))
        assert len(calls) == 45


def test_kahler_closedness_validates_as_often_at_any_size(monkeypatch):
    calls = []
    validate = F.Chart.validate
    radial_points = cli._radial_points

    def counting(chart, coords, margin=0.0):
        calls.append(1)
        return validate(chart, coords, margin)

    monkeypatch.setattr(F.Chart, "validate", counting)
    counts = []
    for n in (20, 200):
        monkeypatch.setattr(cli, "_radial_points", lambda rng, _, **kw: radial_points(rng, n, **kw))
        calls.clear()
        assert cli.check_kahler_closedness(np.random.default_rng(0))["pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
