"""The Eguchi-Hanson gravitational instanton.

Provides the metric in the radial chart and in the resolving chart, the
left-invariant coframe, the three almost complex structures with their
Kahler forms, the radial Kahler potential in two normalizations, the
power-series view of the metric, the embedding into C^2, and a
finite-difference Ricci tensor used to verify flatness.

Conventions: coordinates are (r, theta, phi, psi) with psi the
4*pi-periodic fiber angle, and the invariant 1-forms carry the one-half
normalization, so sigma1^2 + sigma2^2 restricts to a quarter of the
round 2-sphere metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (
    COMPLEX2,
    DIM,
    EH_R,
    EH_U,
    ChartMap,
    CoefficientForm,
    ComplexStructure,
    as_stack,
    central_partials,
    first_bad,
    one_form,
    power,
    wedge,
)


@dataclass(frozen=True)
class EhParams:
    """Deformation parameter of the instanton; the bolt sits at r = a."""

    a: float

    def __post_init__(self):
        if not (self.a > 0) or not np.isfinite(self.a):
            raise ValueError(f"deformation parameter must be positive, got {self.a}")


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric metric components, shape (4, 4, ...) on a batch."""

    components: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.components, dtype=float)
        if m.shape[:2] != (DIM, DIM):
            raise ValueError("metric components must be 4x4")
        mt = np.swapaxes(m, 0, 1)
        # np.allclose(m, m.T, atol=1e-12), except that a NaN or an
        # infinity fails it
        with np.errstate(invalid="ignore"):
            symmetric = np.abs(m - mt) <= 1e-12 + 1e-5 * np.abs(mt)
        if not np.all(symmetric):
            raise ValueError("metric components must be symmetric")
        object.__setattr__(self, "components", 0.5 * (m + mt))

    def min_eigenvalue(self):
        return np.linalg.eigvalsh(as_stack(self.components))[..., 0]


def _check_r(params, r):
    bad = r <= params.a
    if np.any(bad):
        raise ValueError(f"radial coordinate r={first_bad(r, bad):.6g} does not exceed "
                         f"the bolt radius a={params.a:.6g}")


def _w_factor(params, r):
    return 1.0 - power(params.a / r, 4)


# ---------------------------------------------------------------------------
# invariant 1-forms and coframe


def sigma_forms(chart=EH_R):
    """The three left-invariant 1-forms in the one-half normalization.

    They satisfy d sigma_i = 2 sigma_j ^ sigma_k for cyclic (i, j, k),
    and sigma1^2 + sigma2^2 = (dtheta^2 + sin^2 theta dphi^2) / 4.
    """
    s1 = one_form(chart, {
        1: lambda c: -0.5 * np.cos(c[3]),
        2: lambda c: -0.5 * np.sin(c[1]) * np.sin(c[3]),
    })
    s2 = one_form(chart, {
        1: lambda c: 0.5 * np.sin(c[3]),
        2: lambda c: -0.5 * np.sin(c[1]) * np.cos(c[3]),
    })
    s3 = one_form(chart, {
        2: lambda c: -0.5 * np.cos(c[1]),
        3: lambda c: -0.5,
    })
    return s1, s2, s3


def coframe_matrix(params):
    """Orthonormal coframe on the radial chart, rows e0..e3 in coordinate
    components.  e0 is the normalized radial covector, e3 the fiber one."""

    def matrix(c):
        r, th, _, ps = c
        _check_r(params, r)
        w = _w_factor(params, r)
        sw = np.sqrt(w)
        E = np.zeros((DIM, DIM) + np.shape(r))
        E[0, 0] = 1.0 / sw
        E[1, 1] = -0.5 * r * np.cos(ps)
        E[1, 2] = -0.5 * r * np.sin(th) * np.sin(ps)
        E[2, 1] = 0.5 * r * np.sin(ps)
        E[2, 2] = -0.5 * r * np.sin(th) * np.cos(ps)
        E[3, 2] = -0.5 * r * sw * np.cos(th)
        E[3, 3] = -0.5 * r * sw
        return E

    return matrix


# ---------------------------------------------------------------------------
# metric


def _radial_chart_metric(c, g_rr, w):
    """Radial-chart components with radial entry g_rr and angular part
    r^2 (sigma1^2 + sigma2^2 + w sigma3^2), w the fiber factor."""
    r, th = c[0], c[1]
    r2 = power(r, 2)
    g = np.zeros((DIM, DIM) + np.shape(r))
    g[0, 0] = g_rr
    g[1, 1] = r2 / 4.0
    g[2, 2] = (r2 / 4.0) * (power(np.sin(th), 2) + w * power(np.cos(th), 2))
    g[3, 3] = r2 * w / 4.0
    g[2, 3] = g[3, 2] = r2 * w * np.cos(th) / 4.0
    return MetricTensor(g)


def eh_metric(params, coords):
    """Metric components on the radial chart (r, theta, phi, psi)."""
    c = np.asarray(coords, dtype=float)
    _check_r(params, c[0])
    w = _w_factor(params, c[0])
    return _radial_chart_metric(c, 1.0 / w, w)


def radius_from_resolving(params, u):
    return power(power(u, 4) + params.a**4, 0.25)


def eh_metric_u_chart(params, coords):
    """Metric components on the resolving chart (u, theta, phi, psi).

    Substituting u^4 = r^4 - a^4 removes the coordinate degeneracy of
    the radial chart at the bolt; the components extend smoothly to the
    quotient as u tends to zero.
    """
    c = np.asarray(coords, dtype=float)
    u, th = c[0], c[1]
    bad = u <= 0
    if np.any(bad):
        raise ValueError(f"resolving coordinate must be positive, got u={first_bad(u, bad):.6g}")
    u4 = power(u, 4)
    r2 = np.sqrt(u4 + params.a**4)
    g = np.zeros((DIM, DIM) + np.shape(u))
    g[0, 0] = power(u, 2) / r2
    g[1, 1] = r2 / 4.0
    g[2, 2] = (r2 / 4.0) * power(np.sin(th), 2) + (u4 / (4.0 * r2)) * power(np.cos(th), 2)
    g[3, 3] = u4 / (4.0 * r2)
    g[2, 3] = g[3, 2] = u4 * np.cos(th) / (4.0 * r2)
    return MetricTensor(g)


def metric_series(params, coords, order):
    """Truncated expansion of the radial metric in powers of (a/r)^4.

    The zeroth order is the flat cone metric.  From order one on the
    angular part is carried exactly (it is a polynomial of degree one in
    (a/r)^4) while the radial component accumulates the geometric
    series, whose truncation error obeys the geometric tail bound.
    """
    c = np.asarray(coords, dtype=float)
    _check_r(params, c[0])
    q = power(params.a / c[0], 4)
    w = 1.0 if order == 0 else 1.0 - q
    return _radial_chart_metric(c, sum(power(q, n) for n in range(order + 1)), w)


# ---------------------------------------------------------------------------
# complex structures and Kahler forms

# Row i holds the image of the i-th frame element: the first structure
# swaps the radial and fiber directions with the two sphere directions,
# the other two mix radial with sphere directions.
STRUCTURE_I = np.array([
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, -1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)
STRUCTURE_J = np.array([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
], dtype=float)
STRUCTURE_K = np.array([
    [0, 0, 1, 0],
    [0, 0, 0, -1],
    [-1, 0, 0, 0],
    [0, 1, 0, 0],
], dtype=float)


def complex_structures(params):
    """The quaternionic triple (I, J, K) declared on the radial coframe."""
    E = coframe_matrix(params)
    return {
        "I": ComplexStructure("I", STRUCTURE_I, EH_R, E),
        "J": ComplexStructure("J", STRUCTURE_J, EH_R, E),
        "K": ComplexStructure("K", STRUCTURE_K, EH_R, E),
    }


def _dr(chart=EH_R):
    return one_form(chart, {0: 1.0})


def kahler_forms(params):
    """The closed 2-forms paired with I, J, K on the radial chart."""
    s1, s2, s3 = sigma_forms(EH_R)
    dr = _dr(EH_R)

    def r_(c):
        _check_r(params, c[0])
        return c[0]

    def r_over_sw(c):
        _check_r(params, c[0])
        return c[0] / np.sqrt(_w_factor(params, c[0]))

    def r2_sw(c):
        _check_r(params, c[0])
        return power(c[0], 2) * np.sqrt(_w_factor(params, c[0]))

    omega_i = wedge(dr * r_, s3) + wedge(s1, s2) * (lambda c: power(r_(c), 2))
    omega_j = wedge(dr * r_over_sw, s1) + wedge(s2, s3) * r2_sw
    omega_k = wedge(dr * r_over_sw, s2) + wedge(s3, s1) * r2_sw
    return omega_i, omega_j, omega_k


def kahler_forms_u_chart(params):
    """The same triple expressed on the resolving chart.

    The second and third forms take the strikingly simple shape
    u du ^ sigma + u^2 sigma ^ sigma, with no parameter dependence.
    """
    s1, s2, s3 = sigma_forms(EH_U)
    du = _dr(EH_U)

    def u_(c):
        return c[0]

    def u2(c):
        return power(c[0], 2)

    def r2(c):
        return np.sqrt(power(c[0], 4) + params.a**4)

    def u3_over_r2(c):
        return power(c[0], 3) / r2(c)

    omega_i = wedge(du * u3_over_r2, s3) + wedge(s1, s2) * r2
    omega_j = wedge(du * u_, s1) + wedge(s2, s3) * u2
    omega_k = wedge(du * u_, s2) + wedge(s3, s1) * u2
    return omega_i, omega_j, omega_k


def holomorphic_volume_form(params):
    """The complex volume 2-form on the resolving chart.

    Equals the pullback of dz1 ^ dz2 under the chart embedding into C^2
    and is independent of the deformation parameter.
    """
    _, omega_j, omega_k = kahler_forms_u_chart(params)
    return omega_j + omega_k * 1j


# ---------------------------------------------------------------------------
# Kahler potential


def bolt_correction(a, r):
    """(a^2/4) log((r^2 - a^2)/(r^2 + a^2)): the radial potential minus
    the flat one r^2/2, for r > a (unchecked)."""
    return (a**2 / 4.0) * np.log((r**2 - a**2) / (r**2 + a**2))


def kahler_potential(params, r):
    """Radial potential whose (1,1) Hessian reproduces the first Kahler
    form; defined for r above the bolt radius."""
    a = params.a
    r = np.asarray(r, dtype=float)
    if np.any(r <= a):
        raise ValueError(f"potential requires r > a, got r={r} with a={a}")
    return r**2 / 2.0 + bolt_correction(a, r)


def kahler_potential_derivative(params, r):
    a = params.a
    r = np.asarray(r, dtype=float)
    _check_r(params, r)
    return r**5 / (r**4 - a**4)


def kahler_potential_u_chart(params, u):
    """Potential as a function of the resolving radius, smooth for u > 0.

    The difference of square roots is rewritten to avoid cancellation
    for u much smaller than a.
    """
    a = params.a
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError(f"potential requires u > 0, got {u}")
    s = np.sqrt(u**4 + a**4)
    return s / 2.0 + a**2 * np.log(u) - (a**2 / 2.0) * np.log(s + a**2)


def doubled_potential_reference(params, u):
    """The standard-normalization potential, which exceeds the radial one
    by exactly a factor of two."""
    a = params.a
    u = np.asarray(u, dtype=float)
    s = np.sqrt(u**4 + a**4)
    return s - a**2 * np.log((s + a**2) / u**2)


def joyce_potential_check(params, u):
    """Absolute difference between twice the radial potential and the
    doubled-normalization reference; analytically zero."""
    return np.abs(2.0 * kahler_potential_u_chart(params, u) - doubled_potential_reference(params, u))


def radial_hessian_derivs(a, w):
    """First and second derivatives of the potential in the variable
    w = u^2 (squared distance in the ambient chart).

    Used to assemble Hermitian coefficient matrices of radial
    potentials: for f(w), the mixed complex Hessian is
    f'(w) delta_ij + f''(w) zbar_i z_j.
    """
    w = np.asarray(w, dtype=float)
    st = np.sqrt(w**2 + a**4)
    fw = st / (2.0 * w)
    fww = -(a**4) / (2.0 * w**2 * st)
    return fw, fww


def potential_differential(params):
    """The 1-form d(potential) on the radial chart."""
    return one_form(EH_R, {0: lambda c: kahler_potential_derivative(params, c[0])})


# ---------------------------------------------------------------------------
# chart maps


def resolving_to_radial(params):
    def fwd(c):
        u = c[0]
        if np.any(u <= 0):
            raise ValueError("resolving coordinate must be positive")
        return np.array([radius_from_resolving(params, u), c[1], c[2], c[3]])

    def jac(c):
        u = c[0]
        r = radius_from_resolving(params, u)
        J = np.zeros((DIM, DIM) + np.shape(u))
        J[1, 1] = J[2, 2] = J[3, 3] = 1.0
        J[0, 0] = power(u, 3) / power(r, 3)
        return J

    return ChartMap(EH_U, EH_R, fwd, jac=jac, name="u_to_r")


def _complex_embedding_values(c):
    u, th, ph, ps = c
    z1 = u * np.sin(th / 2.0) * np.exp(0.5j * (ph - ps))
    z2 = u * np.cos(th / 2.0) * np.exp(-0.5j * (ph + ps))
    return z1, z2


def resolving_to_complex():
    """Embedding (u, theta, phi, psi) -> (x1, y1, x2, y2) realizing the
    chart as polar coordinates on C^2, with analytic jacobian.

    The phase assignment is the one for which the map is holomorphic
    with respect to the first complex structure: the flat Kahler form of
    C^2 pulls back to the zero-parameter limit of the first Kahler form,
    and dz1 ^ dz2 pulls back to the complex volume 2-form.
    """

    def fwd(c):
        z1, z2 = _complex_embedding_values(c)
        return np.array([z1.real, z1.imag, z2.real, z2.imag])

    def jac(c):
        u, th, ph, ps = c
        ea = np.exp(0.5j * (ph - ps))
        eb = np.exp(-0.5j * (ph + ps))
        ch, sh = np.cos(th / 2.0), np.sin(th / 2.0)
        z1, z2 = _complex_embedding_values(c)
        # complex partials, columns (u, theta, phi, psi)
        dz = np.array([
            [sh * ea, 0.5 * u * ch * ea, 0.5j * z1, -0.5j * z1],
            [ch * eb, -0.5 * u * sh * eb, -0.5j * z2, -0.5j * z2],
        ])
        J = np.empty((DIM, DIM) + np.shape(u))
        J[0] = dz[0].real
        J[1] = dz[0].imag
        J[2] = dz[1].real
        J[3] = dz[1].imag
        return J

    return ChartMap(EH_U, COMPLEX2, fwd, jac=jac, name="u_to_c2")


def complex_to_resolving():
    """Partial inverse of the embedding, for points away from the origin.

    The fiber angle is reported in [0, 2pi); the two lifts differing by
    2pi correspond to the antipodal pair (z, -z) of ambient points.
    """

    def fwd(cc):
        z1 = cc[0] + 1j * cc[1]
        z2 = cc[2] + 1j * cc[3]
        u = np.hypot(np.abs(z1), np.abs(z2))
        if np.any(u <= 0):
            raise ValueError("embedding inverse undefined at the origin")
        th = 2.0 * np.arctan2(np.abs(z1), np.abs(z2))
        a1 = np.where(np.abs(z1) > 0, np.angle(z1), 0.0)
        a2 = np.where(np.abs(z2) > 0, np.angle(z2), 0.0)
        # a1 = (phi - psi)/2, a2 = -(phi + psi)/2
        ph = a1 - a2
        ps = (-(a1 + a2)) % (2.0 * np.pi)
        return np.array([u, th, ph % (2.0 * np.pi), ps])

    return ChartMap(COMPLEX2, EH_U, fwd, name="c2_to_u")


def complex_coordinate_area_form():
    """dz1 ^ dz2 as a complex 2-form in the real coordinates of C^2."""
    # dz1 ^ dz2 = (dx1 + i dy1) ^ (dx2 + i dy2)
    return CoefficientForm(COMPLEX2, 2, {
        (0, 2): 1.0,
        (0, 3): 1.0j,
        (1, 2): 1.0j,
        (1, 3): -1.0,
    })


# ---------------------------------------------------------------------------
# curvature by finite differences


def _metric_matrix(metric_fn, coords):
    m = metric_fn(coords)
    if isinstance(m, MetricTensor):
        return m.components
    return np.asarray(m, dtype=float)


def christoffel_symbols(metric_fn, coords, step=1e-3):
    """Christoffel symbols Gamma^a_{bc} from central differences of the
    metric components, shape (4, 4, 4, ...) on a batch."""
    coords = np.asarray(coords, dtype=float)
    g = as_stack(_metric_matrix(metric_fn, coords))
    bad = np.linalg.eigvalsh(g)[..., 0] <= 0
    if np.any(bad):
        raise ValueError(f"metric not positive definite at {first_bad(coords, bad)}")
    ginv = np.moveaxis(np.linalg.inv(g), (-2, -1), (0, 1))
    dg = central_partials(lambda c: _metric_matrix(metric_fn, c), coords, step)
    # inner[d,b,c] = dg_{dc,b} + dg_{db,c} - dg_{bc,d}
    inner = np.swapaxes(dg, 1, 2) + dg - np.moveaxis(dg, 2, 0)
    return 0.5 * np.einsum("ad...,dbc...->abc...", ginv, inner)


def ricci_residual(metric_fn, coords, step=1e-3):
    """Full Ricci matrix of a metric field by finite differences of the
    Christoffel symbols; near zero for flat solutions.

    Second order accurate; halving the step should shrink the residual
    of a flat-in-disguise metric by about a factor of four.  The
    Christoffel symbols are computed once at the batch and, for each
    axis k, once on the pair (c + step e_k, c - step e_k) stacked along a
    new first sample axis: five calls of nine metric evaluations each.
    """
    coords = np.asarray(coords, dtype=float)
    gamma0 = christoffel_symbols(metric_fn, coords, step)
    cols = []
    for k in range(DIM):
        pair = np.stack([coords, coords], axis=1)
        pair[k, 0] += step
        pair[k, 1] -= step
        gamma = christoffel_symbols(metric_fn, pair, step)
        cols.append((gamma[:, :, :, 0] - gamma[:, :, :, 1]) / (2 * step))
    dgamma = np.stack(cols, axis=3)
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #           + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riem = (
        np.moveaxis(dgamma, 1, 3)
        - np.swapaxes(dgamma, 1, 2)
        + np.einsum("ace...,edb...->abcd...", gamma0, gamma0)
        - np.einsum("ade...,ecb...->abcd...", gamma0, gamma0)
    )
    return np.einsum("abad...->bd...", riem)
