"""Multi-center ansatz: potential, connection, metric, and the two-center
identification with the Eguchi-Hanson space."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerflat import eguchi_hanson as EH
from kummerflat import gibbons_hawking as GH

TWO = GH.two_center_config(1.0)


# ---------------------------------------------------------------------------
# config


def test_config_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        GH.GhConfig(centers=((0, 0, 1),), charges=(1, 1))


def test_config_rejects_repeated_centers():
    with pytest.raises(ValueError, match="distinct"):
        GH.GhConfig(centers=((0, 0, 1), (0, 0, 1)), charges=(1, 1))


def test_config_rejects_zero_charge():
    with pytest.raises(ValueError, match="charges"):
        GH.GhConfig(centers=((0, 0, 1),), charges=(0,))


def test_two_center_rejects_nonpositive_offset():
    with pytest.raises(ValueError):
        GH.two_center_config(0.0)


@pytest.mark.parametrize("c, message", [
    (np.nan, "half-separation must be finite, got nan"),
    (np.inf, "half-separation must be finite, got inf"),
    (-np.inf, "half-separation must be finite, got -inf"),
    (-0.5, "half-separation must be positive, got -0.5"),
])
def test_two_center_rejects_nonfinite_or_negative_offset(c, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GH.two_center_config(c)


@pytest.mark.parametrize("eps_gh, message", [
    (np.nan, "ansatz constant must be finite, got nan"),
    (np.inf, "ansatz constant must be finite, got inf"),
    (-np.inf, "ansatz constant must be finite, got -inf"),
    (-1.0, "ansatz constant must be nonnegative"),
])
def test_config_rejects_nonfinite_or_negative_constant(eps_gh, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GH.GhConfig(centers=((0, 0, 1), (0, 0, -1)), charges=(1, 1), eps_gh=eps_gh)


# ---------------------------------------------------------------------------
# potential


def test_potential_value_two_centers():
    assert GH.potential_V(TWO, [1.0, 0.0, 0.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_potential_pole_error():
    with pytest.raises(ValueError, match="pole"):
        GH.potential_V(TWO, [0.0, 0.0, 1.0])


def test_potential_far_field_approaches_constant():
    cfg = GH.GhConfig(centers=((0, 0, 1), (0, 0, -1)), charges=(1, 1), eps_gh=5.0)
    assert abs(GH.potential_V(cfg, [1e3, 0.0, 0.0]) - 5.0) < 1e-2


def test_potential_harmonic_single_center():
    cfg = GH.GhConfig(centers=((0.0, 0.0, 0.0),), charges=(1,))
    assert abs(GH.harmonic_residual(cfg, [2.0, 0.0, 0.0], step=1e-2)) < 1e-6


def test_harmonic_residual_order_under_halving():
    res1 = abs(GH.harmonic_residual(TWO, [1.3, 0.4, 0.2], step=0.1))
    res2 = abs(GH.harmonic_residual(TWO, [1.3, 0.4, 0.2], step=0.05))
    order = np.log2(res1 / res2)
    assert order >= 1.8  # five-point stencil, empirically ~4


# ---------------------------------------------------------------------------
# connection


def test_connection_reference_value():
    assert GH.connection_axial(GH.two_center_config(1.0), 1.0, 1.0) == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-12)


def test_connection_vanishes_on_equator(rng):
    for rho in (0.5, 1.0, 3.0):
        assert GH.connection_axial(GH.two_center_config(1.0), rho, 0.0) == 0.0


def test_connection_axis_error():
    with pytest.raises(ValueError, match="axis"):
        GH.connection_axial(GH.two_center_config(1.0), 0.0, 0.5)


def test_connection_far_field_single_charge_two():
    rho, z = 3.0, 50.0
    got = GH.connection_axial(GH.two_center_config(1.0), rho, z)
    mono = 2.0 * z / (rho * np.hypot(rho, z))
    assert abs(got - mono) < 10.0 / z**2


def test_curl_residual_small(rng):
    for _ in range(10):
        p = np.array([0.0, rng.uniform(0.5, 2.5), rng.uniform(0, 2 * np.pi), rng.uniform(-1.8, 1.8)])
        _, rho, _, z = p
        if min(abs(z - 1.0), abs(z + 1.0)) < 0.3 and rho < 0.3:
            continue
        res = GH.curl_residual(TWO, p, step=1e-4)
        assert np.max(np.abs(res)) < 1e-5


def test_curl_residual_reference_point():
    res = GH.curl_residual(TWO, np.array([0.0, 1.0, 0.0, 0.5]), step=1e-4)
    assert np.max(np.abs(res)) < 1e-5


def test_curl_gauge_invariance():
    # adding an exact gradient (quadratic potential, so the stencil is exact)
    # leaves the residual unchanged
    p = np.array([0.0, 1.1, 0.2, 0.4])
    base = GH.curl_residual(TWO, p, step=1e-4)

    def grad_f(rho, z):
        # f = 0.3 rho^2 - 0.1 z^2 + 0.2 rho z
        return np.array([0.6 * rho + 0.2 * z, 0.0, -0.2 * z + 0.2 * rho])

    shifted = GH.curl_residual(TWO, p, step=1e-4, extra=grad_f)
    assert np.max(np.abs(shifted - base)) < 1e-10


def _ref_curl_residual(cfg, p, step, extra=None):
    _, rho, phi, z = p

    def a_field(rr, zz):
        base = np.array([0.0, GH.connection_axial(cfg, rr, zz), 0.0])
        if extra is not None:
            base = base + np.asarray(extra(rr, zz), dtype=float)
        return base

    def v_at(rr, zz):
        return GH.potential_V(cfg, GH._cyl_to_cart(rr, phi, zz))

    h = step
    da_drho = (a_field(rho + h, z) - a_field(rho - h, z)) / (2 * h)
    da_dz = (a_field(rho, z + h) - a_field(rho, z - h)) / (2 * h)
    a_here = a_field(rho, z)
    curl = np.array([-da_dz[1], da_dz[0] - da_drho[2], da_drho[1] + a_here[1] / rho])
    grad = np.array([
        (v_at(rho + h, z) - v_at(rho - h, z)) / (2 * h),
        0.0,
        (v_at(rho, z + h) - v_at(rho, z - h)) / (2 * h),
    ])
    return curl - grad


def test_curl_residual_matches_axis_loop(rng):
    cfg = GH.two_center_config(0.5, eps_gh=1.0)

    def extra(rho, z):
        return np.array([np.sin(rho) * z, rho * z**2, np.cos(z)])

    for _ in range(5):
        p = np.array([rng.uniform(0.0, 4.0 * np.pi), rng.uniform(0.3, 2.0),
                      rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-1.5, 1.5)])
        for c, ex in ((TWO, None), (cfg, None), (TWO, extra)):
            got = GH.curl_residual(c, p, step=1e-4, extra=ex)
            assert got.tobytes() == _ref_curl_residual(c, p, 1e-4, extra=ex).tobytes()


def test_curl_residual_reflection_parity():
    up = GH.curl_residual(TWO, np.array([0.0, 1.2, 0.1, 0.7]), step=1e-4)
    dn = GH.curl_residual(TWO, np.array([0.0, 1.2, 0.1, -0.7]), step=1e-4)
    assert abs(up[0] - dn[0]) < 1e-10
    assert abs(up[2] + dn[2]) < 1e-10


def test_curl_residual_margin_error():
    with pytest.raises(ValueError, match="rho"):
        GH.curl_residual(TWO, np.array([0.0, 1e-5, 0.0, 0.5]), step=1e-4)


# ---------------------------------------------------------------------------
# metric


def test_metric_determinant_identity(rng):
    for _ in range(10):
        p = np.array([0.0, rng.uniform(0.3, 2.0), rng.uniform(0, 2 * np.pi), rng.uniform(-1.5, 1.5)])
        _, rho, phi, z = p
        if abs(abs(z) - 1.0) < 0.2 and rho < 0.2:
            continue
        g = GH.gh_metric(TWO, p)
        v = GH.potential_V(TWO, [rho * np.cos(phi), rho * np.sin(phi), z])
        assert np.linalg.det(g.components) == pytest.approx(v**2 * rho**2, rel=1e-10)


def test_metric_positive_definite(rng):
    for _ in range(20):
        p = np.array([0.0, rng.uniform(0.3, 2.0), 0.0, rng.uniform(-1.5, 1.5)])
        _, rho, _, z = p
        if abs(abs(z) - 1.0) < 0.2 and rho < 0.2:
            continue
        assert GH.gh_metric(TWO, p).min_eigenvalue() > 0


def test_metric_rejects_negative_potential():
    cfg = GH.GhConfig(centers=((0, 0, 0),), charges=(-1,), eps_gh=0.1)
    with pytest.raises(ValueError, match="positive"):
        GH.gh_metric(cfg, np.array([0.0, 1.0, 0.0, 0.0]))


def test_single_center_metric_is_ricci_flat():
    cfg = GH.GhConfig(centers=((0.0, 0.0, 0.0),), charges=(1,))
    field = functools.partial(GH.gh_metric, cfg)
    ric = EH.ricci_residual(field, np.array([0.3, 1.0, 0.2, 0.6]), step=1e-3)
    assert np.max(np.abs(ric)) < 1e-4


def test_two_center_metric_is_ricci_flat(rng):
    field = functools.partial(GH.gh_metric, TWO)
    worst = 0.0
    for _ in range(5):
        coords = np.array([
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0.8, 1.6),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(-0.5, 0.5),
        ])
        worst = max(worst, np.max(np.abs(EH.ricci_residual(field, coords, step=1e-3))))
    assert worst < 1e-4


def test_two_center_metric_ricci_flat_reference_point():
    field = functools.partial(GH.gh_metric, TWO)
    ric = EH.ricci_residual(field, np.array([0.0, 1.0, 0.0, 0.3]), step=1e-3)
    assert np.max(np.abs(ric)) < 1e-4


# ---------------------------------------------------------------------------
# prolate chain and the identification


def test_prolate_reference_values():
    # R1 = R2 = sqrt(2), c=1 -> mu = sqrt(2), nu = 0 -> r^2 = 2 sqrt(2)
    c = 1.0
    mu, nu = np.sqrt(2.0), 0.0
    cyl, eh_point = GH.prolate_chain(c, [mu, nu, 0.3, 1.1])
    _, rho, _, z = cyl
    r1 = np.hypot(rho, z + c)
    r2 = np.hypot(rho, z - c)
    assert r1 == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert r2 == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert eh_point[0] ** 2 == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert eh_point[1] == pytest.approx(np.pi / 2.0, abs=1e-12)


def test_prolate_rejects_degenerate_coordinates():
    with pytest.raises(ValueError, match="mu"):
        GH.prolate_chain(1.0, [0.9, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="nu"):
        GH.prolate_chain(1.0, [1.5, 1.0, 0.0, 0.0])


def test_prolate_reflection_symmetry():
    up = GH.prolate_chain(1.0, [1.7, 0.4, 0.2, 0.5])[0]
    dn = GH.prolate_chain(1.0, [1.7, -0.4, 0.2, 0.5])[0]
    # (psi, rho, phi, z): rho is even and z odd under the reflection
    assert up[1] == pytest.approx(dn[1], abs=1e-14)
    assert up[3] == pytest.approx(-dn[3], abs=1e-14)


def test_prolate_round_trip(rng):
    c = 0.7
    back = GH.radial_to_prolate(c)
    for _ in range(10):
        mu = rng.uniform(1.2, 4.0)
        nu = rng.uniform(-0.9, 0.9)
        ph = rng.uniform(0, 2 * np.pi)
        ps = rng.uniform(0, 2 * np.pi)
        _, eh_point = GH.prolate_chain(c, [mu, nu, ph, ps])
        again = back(eh_point)
        assert np.max(np.abs(again - np.array([mu, nu, ph, ps]))) < 1e-10


def test_prolate_focal_distances(rng):
    # R1 = c(mu + nu), R2 = c(mu - nu)
    c = 1.3
    for _ in range(10):
        mu = rng.uniform(1.1, 3.0)
        nu = rng.uniform(-0.9, 0.9)
        _, rho, _, z = GH.prolate_chain(c, [mu, nu, 0.0, 0.0])[0]
        assert np.hypot(rho, z + c) == pytest.approx(c * (mu + nu), rel=1e-12)
        assert np.hypot(rho, z - c) == pytest.approx(c * (mu - nu), rel=1e-12)


def test_isometry_reference_point():
    assert GH.isometry_residual(0.5, [2.0, 1.0, 1.0, 1.0]) < 1e-8


def test_isometry_sampled(rng):
    c = 0.5
    worst = 0.0
    for _ in range(100):
        sample = np.array([
            rng.uniform(1.2, 5.0),
            rng.uniform(0.2, np.pi - 0.2),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 4 * np.pi),
        ])
        worst = max(worst, GH.isometry_residual(c, sample))
    assert worst < 1e-6


def test_isometry_respects_parameter_scaling(rng):
    # doubling c scales a^2 = 2c by two, so r scales by 2^(1/4)
    base = np.array([2.1, 0.9, 1.3, 2.2])
    assert GH.isometry_residual(0.5, base) < 1e-6
    assert GH.isometry_residual(1.0, base * np.array([2**0.25, 1, 1, 1])) < 1e-6


@pytest.mark.parametrize("c", [1e-3, 0.5, 1e10, 1e150])
def test_isometry_residual_is_relative(c):
    # the same point in units of a = sqrt(2c): the metric entries grow
    # like c, and the relative residual stays at rounding
    a = np.sqrt(2.0 * c)
    sample = [2.1 * a, 0.9, 1.3, 2.2]
    assert GH.isometry_residual(c, sample) < 1e-14


def test_scale_constant_value():
    assert GH.GH_TO_EH_SCALE == 4.0


@given(
    st.floats(1.3, 4.0, allow_nan=False),
    st.floats(0.3, np.pi - 0.3, allow_nan=False),
    st.floats(0.1, 2.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_isometry_property(r, theta, c):
    a = np.sqrt(2.0 * c)
    r_eff = a * r  # keep r/a fixed well above the bolt
    assert GH.isometry_residual(c, [r_eff, theta, 0.7, 1.9]) < 1e-6 * max(1.0, a * a) ** 2
