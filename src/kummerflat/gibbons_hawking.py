"""Multi-center circle-bundle metrics over flat 3-space.

A harmonic potential V with point charges and a connection 1-form A
obeying curl A = grad V define a metric V^-1 (dpsi + A)^2 + V dx^2 on a
circle bundle over the punctured 3-space.  For two unit charges at
(0, 0, +-c) the result is homothetic to the Eguchi-Hanson space with
deformation parameter a = sqrt(2 c); the homothety ratio is exactly 4
with the half-normalized invariant forms, see GH_TO_EH_SCALE.

Charges sit on the z-axis throughout: that is the case with the
closed-form connection used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import (
    CYL,
    DIM,
    EH_R,
    PROLATE,
    ChartMap,
    as_stack,
    central_partials,
    first_bad,
    power,
)
from .eguchi_hanson import EhParams, MetricTensor, eh_metric

# pullback of the two-center metric along the identification map equals
# this constant times the Eguchi-Hanson metric with a^2 = 2 c
GH_TO_EH_SCALE = 4.0

_POLE_EPS = 1e-9


@dataclass(frozen=True)
class GhConfig:
    """Point-charge configuration for the ansatz.

    centers are 3-space points on the z-axis, charges the corresponding
    integer weights and eps_gh the additive constant of the potential."""

    centers: tuple
    charges: tuple
    eps_gh: float = 0.0

    def __post_init__(self):
        centers = tuple(tuple(float(x) for x in ctr) for ctr in self.centers)
        charges = tuple(int(n) for n in self.charges)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "charges", charges)
        if len(centers) != len(charges):
            raise ValueError("one charge per center required")
        for ctr in centers:
            if len(ctr) != 3:
                raise ValueError("centers live in 3-space")
        for i, ci in enumerate(centers):
            for cj in centers[i + 1:]:
                if max(abs(a - b) for a, b in zip(ci, cj)) < _POLE_EPS:
                    raise ValueError(f"centers must be pairwise distinct, got repeated {ci}")
        if any(n == 0 for n in charges):
            raise ValueError("charges must be nonzero")
        if not np.isfinite(self.eps_gh):
            raise ValueError(f"ansatz constant must be finite, got {self.eps_gh}")
        if self.eps_gh < 0:
            raise ValueError("ansatz constant must be nonnegative")

    def axis_aligned(self):
        return all(abs(c[0]) < _POLE_EPS and abs(c[1]) < _POLE_EPS for c in self.centers)


def two_center_config(c, eps_gh=GhConfig.eps_gh):
    """Symmetric unit charges at (0, 0, +-c)."""
    if not np.isfinite(c):
        raise ValueError(f"half-separation must be finite, got {c}")
    if c <= 0:
        raise ValueError(f"half-separation must be positive, got {c}")
    return GhConfig(centers=((0.0, 0.0, c), (0.0, 0.0, -c)), charges=(1, 1), eps_gh=eps_gh)


# ---------------------------------------------------------------------------
# potential and connection


def potential_V(cfg, x):
    """V(x) = eps + sum n_i / |x - x_i|, harmonic away from the centers,
    at a batch x of 3-space points (coordinates on the leading axis)."""
    x = np.asarray(x, dtype=float)
    out = cfg.eps_gh
    for ctr, n in zip(cfg.centers, cfg.charges):
        diff = x - np.reshape(ctr, (3,) + (1,) * (x.ndim - 1))
        # the dot product np.linalg.norm takes on one point
        d = np.sqrt(np.vecdot(diff, diff, axis=0))
        bad = d < _POLE_EPS
        if np.any(bad):
            raise ValueError(f"potential pole: evaluation point {tuple(first_bad(x, bad))} "
                             f"sits at center {ctr}")
        out = out + n / d
    return out


def _cyl_to_cart(rho, phi, z):
    return np.array([rho * np.cos(phi), rho * np.sin(phi), z])


def connection_axial(cfg, rho, z):
    """A_phi, the orthonormal-frame azimuthal component of the connection,
    for a configuration with all centers on the z-axis."""
    if not cfg.axis_aligned():
        raise ValueError("closed-form connection requires all centers on the symmetry axis")
    bad = rho <= 0
    if np.any(bad):
        raise ValueError(f"connection undefined on the axis, got rho={first_bad(rho, bad)}")
    out = 0.0
    for ctr, n in zip(cfg.centers, cfg.charges):
        dz = z - ctr[2]
        out += n * dz / (rho * np.hypot(rho, dz))
    return out


def curl_residual(cfg, coords, step=1e-4, extra=None):
    """Components of curl A - grad V in the orthonormal cylindrical frame.

    A is the axisymmetric connection plus an optional extra field
    extra(rho, z) -> 3 frame components (used to probe gauge invariance);
    everything is differenced centrally at the given step, along rho
    and z (coordinates 1 and 3).
    """
    coords = np.asarray(coords, dtype=float)
    rho = coords[1]
    bad = rho - step <= 0
    if np.any(bad):
        raise ValueError(f"need rho > step for centered differences, "
                         f"got rho={first_bad(rho, bad)}, step={step}")

    def a_field(c):
        base = np.zeros((3,) + np.shape(c[1]))
        base[1] = connection_axial(cfg, c[1], c[3])
        if extra is not None:
            base = base + np.asarray(extra(c[1], c[3]), dtype=float)
        return base

    def a_and_v(c):
        return np.concatenate([a_field(c), [potential_V(cfg, _cyl_to_cart(c[1], c[2], c[3]))]])

    # rows A_rho, A_phi, A_z, V; columns d/drho, d/dz
    d = central_partials(a_and_v, coords, step, axes=(1, 3))
    a_here = a_field(coords)
    # curl A minus grad V, whose phi component is zero
    return np.stack([
        -d[1, 1] - d[3, 0],
        d[0, 1] - d[2, 0],
        d[1, 0] + a_here[1] / rho - d[3, 1],
    ])


def harmonic_residual(cfg, x, step):
    """Fourth-order five-point Laplacian of V at a batch of 3-space points."""
    x = np.asarray(x, dtype=float)
    out = 0.0
    for ax in range(3):
        vals = []
        for k in (-2, -1, 0, 1, 2):
            xx = x.copy()
            xx[ax] += k * step
            vals.append(potential_V(cfg, xx))
        out += (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * step**2)
    return out


# ---------------------------------------------------------------------------
# metric


def gh_metric(cfg, coords):
    """Ansatz metric V^-1 (dpsi + B dphi)^2 + V (drho^2 + rho^2 dphi^2 + dz^2)
    as components in the (psi, rho, phi, z) chart, with B = rho A_phi."""
    coords = np.asarray(coords, dtype=float)
    rho, phi, z = coords[1], coords[2], coords[3]
    bad = rho <= 0
    if np.any(bad):
        raise ValueError(f"metric undefined on the axis, got rho={first_bad(rho, bad)}")
    v = potential_V(cfg, _cyl_to_cart(rho, phi, z))
    bad = v <= 0
    if np.any(bad):
        raise ValueError(f"potential must be positive for a metric, got V={first_bad(v, bad):.6g}")
    b = rho * connection_axial(cfg, rho, z)
    g = np.zeros((DIM, DIM) + np.shape(rho))
    g[0, 0] = 1.0 / v
    g[0, 2] = g[2, 0] = b / v
    g[1, 1] = v
    g[2, 2] = power(b, 2) / v + v * power(rho, 2)
    g[3, 3] = v
    return MetricTensor(g)


# ---------------------------------------------------------------------------
# coordinate chains and the isometry


def prolate_to_cylinder(c):
    """(mu, nu, phi, psi) -> (psi, rho, phi, z) with focuses at z = -+c."""

    def fwd(coords):
        mu, nu, ph, ps = coords
        rho = c * np.sqrt((power(mu, 2) - 1.0) * (1.0 - power(nu, 2)))
        z = c * mu * nu
        return np.array([ps, rho, ph, z])

    def jac(coords):
        mu, nu, _, _ = coords
        rho = c * np.sqrt((power(mu, 2) - 1.0) * (1.0 - power(nu, 2)))
        J = np.zeros((DIM, DIM) + np.shape(mu))
        J[0, 3] = 1.0
        J[1, 0] = c**2 * mu * (1.0 - power(nu, 2)) / rho
        J[1, 1] = -(c**2) * nu * (power(mu, 2) - 1.0) / rho
        J[2, 2] = 1.0
        J[3, 0] = c * nu
        J[3, 1] = c * mu
        return J

    return ChartMap(PROLATE, CYL, fwd, jac=jac, name="prolate_to_cyl")


def prolate_chain(c, coords):
    """Prolate point -> (cylindrical point, EH radial-chart point with
    a = sqrt(2c)), each a coordinate array; the fiber/azimuth pair swaps
    roles and the azimuth doubles into the cylinder fiber."""
    coords = np.asarray(coords, dtype=float)
    mu, nu, ph, ps = coords
    if mu <= 1.0:
        raise ValueError(f"prolate radial coordinate must exceed 1, got mu={mu}")
    if not (-1.0 < nu < 1.0):
        raise ValueError(f"prolate angular coordinate must be interior, got nu={nu}")
    cyl = prolate_to_cylinder(c)(coords)
    r = np.sqrt(2.0 * c * mu)
    eh_point = np.array([r, np.arccos(nu), ps / 2.0, ph])
    return cyl, eh_point


def radial_to_prolate(c):
    def fwd(coords):
        r, th, ph, ps = coords
        return np.array([power(r, 2) / (2.0 * c), np.cos(th), ps, 2.0 * ph])

    return ChartMap(EH_R, PROLATE, fwd, name="r_to_prolate")


def radial_to_cylinder(c):
    """Identification map from the EH radial chart, a = sqrt(2c), to the
    two-center cylinder, with analytic jacobian."""
    a4 = (2.0 * c) ** 2

    def fwd(coords):
        r, th, ph, ps = coords
        rho = 0.5 * np.sqrt(power(r, 4) - a4) * np.sin(th)
        z = 0.5 * power(r, 2) * np.cos(th)
        return np.array([2.0 * ph, rho, ps, z])

    def jac(coords):
        r, th, _, _ = coords
        s = np.sqrt(power(r, 4) - a4)
        J = np.zeros((DIM, DIM) + np.shape(r))
        J[0, 2] = 2.0
        J[1, 0] = (power(r, 3) / s) * np.sin(th)
        J[1, 1] = 0.5 * s * np.cos(th)
        J[2, 3] = 1.0
        J[3, 0] = r * np.cos(th)
        J[3, 1] = -0.5 * power(r, 2) * np.sin(th)
        return J

    return ChartMap(EH_R, CYL, fwd, jac=jac, name="r_to_cyl")


def isometry_residual(c, sample):
    """Max-abs difference between the pullback of the two-center metric and
    the target GH_TO_EH_SCALE times the Eguchi-Hanson metric with
    a = sqrt(2c), relative to the target's largest entry (at least
    GH_TO_EH_SCALE, since g_rr >= 1), so that it reads the same at every
    c; one value per sample of a batch."""
    coords = np.asarray(sample, dtype=float)
    a = np.sqrt(2.0 * c)
    m = radial_to_cylinder(c)
    cyl = m(coords)
    J = as_stack(m.jacobian(coords))
    g_cyl = as_stack(gh_metric(two_center_config(c), cyl).components)
    pulled = np.swapaxes(J, -1, -2) @ g_cyl @ J
    target = GH_TO_EH_SCALE * as_stack(eh_metric(EhParams(a), coords).components)
    return np.max(np.abs(pulled - target), axis=(-2, -1)) / np.max(np.abs(target), axis=(-2, -1))
