"""Glued approximate Ricci-flat structure on the resolved quotient torus.

The unit 4-torus is quotiented by the negation involution, which has the
sixteen half-lattice fixed points.  Around each fixed point the flat
Kahler potential is corrected toward the Eguchi-Hanson one through a
smooth radial cutoff, producing a (1,1) coefficient field that is flat
far from the sites, exactly the Eguchi-Hanson form close to them, and
interpolates in the annuli in between.  The volume-ratio constant and
the resulting error density live here as well.

Conventions: the flat form carries coefficient matrix identity/2, the
2-form density of a coefficient field h is 8 det h per coordinate
volume, and the complex volume form density is the constant 4.

The grid is the unit torus or its quotient of side 1/2 by the
half-period translations (Z/2)^4 (TorusGrid.quotient), which permute the
sixteen sites and under which the glued field is invariant.
build_omega0 keeps all sixteen sites through wrap_displacement on the
unit torus, so on the quotient it is the unit-torus field restricted to
the first n/2 nodes per axis, bit for bit.

A Hermitian 2x2 field is stored as its four real components
(h11, h22, Re h12, Im h12) along a leading axis of length 4; on the
grid that is one float64 array of shape (4, n, n, n, n), 32 bytes per
node.  hermitian_det and hermitian_min_eig work on any such array, and
the field file body is that array as it is, on the grid it lives on.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .eguchi_hanson import (
    EhParams,
    bolt_correction,
    complex_to_resolving,
    kahler_potential_u_chart,
    radial_hessian_derivs,
    resolving_to_complex,
)
from .forms import central_partials

log = logging.getLogger(__name__)

# density of the squared flat coefficient field per 8 det(h), and of the
# complex volume form, in the fixed coordinate frame
OMEGA_SQ_DENSITY_FACTOR = 8.0
CHI_CHIBAR_DENSITY = 4.0

_MAGIC = b"KMF1"
_VERSION = 2


# ---------------------------------------------------------------------------
# torus, involution, fixed points


def involution(x):
    """Negation modulo the unit lattice."""
    return (-np.asarray(x, dtype=float)) % 1.0


def fixed_points():
    """The sixteen half-lattice points fixed by the involution."""
    return np.array(list(itertools.product((0.0, 0.5), repeat=4)))


# the sixteen gluing sites, shared by every GluedModel; read-only
SITES = fixed_points()
SITES.flags.writeable = False


def wrap_displacement(delta):
    """Reduce a lattice displacement to the centered fundamental cell."""
    d = np.asarray(delta, dtype=float)
    return d - np.round(d)


@dataclass(frozen=True)
class TorusGrid:
    """Cell-centered sampling of the torus of side 1 or 1/2, n nodes per
    axis at spacing side/n.

    The unit torus (side 1) needs n even and at least 8; its nodes sit
    at (k + 1/2)/n per axis, so no node ever coincides with a
    half-lattice fixed point while the node set stays invariant under
    the involution and under the half-period translations (Z/2)^4.

    The quotient torus (side 1/2, from quotient()) is the unit torus
    modulo those translations, which permute the sixteen sites onto one.
    Its n >= 4 nodes, odd n included, are the first n nodes per axis of
    the unit-torus grid with unit_n = 2n nodes per axis, at the same
    coordinates bit for bit, so a (Z/2)^4-invariant field on that grid
    is its restriction to these nodes.
    """

    n: int
    side: float = 1.0

    def __post_init__(self):
        if self.side == 1.0:
            if self.n % 2 != 0 or self.n < 8:
                raise ValueError(f"grid resolution must be even and at least 8, got {self.n}")
        elif self.side == 0.5:
            if self.n < 4:
                raise ValueError(f"quotient grid needs at least 4 nodes per axis, got {self.n}")
        else:
            raise ValueError(f"torus side must be 1 or 1/2, got {self.side}")

    def quotient(self):
        """The grid on the quotient torus of side 1/2, with n/2 nodes per
        axis at this grid's first n/2 coordinates."""
        if self.side != 1.0:
            raise ValueError("only the unit-torus grid has a quotient")
        return TorusGrid(self.n // 2, side=0.5)

    @property
    def unit_n(self):
        """Nodes per axis of the unit-torus grid these nodes belong to."""
        return round(self.n / self.side)

    @property
    def spacing(self):
        return self.side / self.n

    def axis_coordinates(self):
        return (np.arange(self.n) + 0.5) / self.unit_n

    def nodes(self):
        ax = self.axis_coordinates()
        mesh = np.meshgrid(ax, ax, ax, ax, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def node_count(self):
        return self.n**4

    def involution_index_map(self):
        """Permutation sending each node index to its involution image."""
        idx = np.arange(self.n)
        mirrored = self.n - 1 - idx
        grids = np.meshgrid(mirrored, mirrored, mirrored, mirrored, indexing="ij")
        flat = ((grids[0] * self.n + grids[1]) * self.n + grids[2]) * self.n + grids[3]
        return flat.reshape(-1)


# ---------------------------------------------------------------------------
# blow-up charts


def blowup_transition(direction, p):
    """Transition between the two blow-up coordinate charts.

    direction "12" sends (x, t) to (1/t, x t); direction "21" sends
    (s, y) to (s y, 1/s).  Entries may be complex.
    """
    u, v = complex(p[0]), complex(p[1])
    if direction == "12":
        if v == 0:
            raise ValueError("chart overlap requires a nonzero second coordinate")
        return (1.0 / v, u * v)
    if direction == "21":
        if u == 0:
            raise ValueError("chart overlap requires a nonzero first coordinate")
        return (u * v, 1.0 / u)
    raise ValueError(f"direction must be '12' or '21', got {direction!r}")


def transition_cr_residual(direction, p, step=1e-6):
    """Max Cauchy-Riemann defect of the transition map by central
    differences in the four underlying real coordinates."""
    p = (complex(p[0]), complex(p[1]))

    def as_real(q):
        return np.array([q[0].real, q[0].imag, q[1].real, q[1].imag])

    def from_real(c):
        return (c[0] + 1j * c[1], c[2] + 1j * c[3])

    J = central_partials(lambda c: as_real(blowup_transition(direction, from_real(c))), as_real(p), step)
    worst = 0.0
    for out in (0, 2):
        for inp in (0, 2):
            worst = max(
                worst,
                abs(J[out, inp] - J[out + 1, inp + 1]),
                abs(J[out, inp + 1] + J[out + 1, inp]),
            )
    return worst


def radial_factor(v):
    """Split a punctured-ball point into (radius, unit direction)."""
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ValueError("radial factorization undefined at the singular point")
    return r, v / r


def radial_assemble(r, unit):
    return r * np.asarray(unit, dtype=float)


def eh_chart_map(site, x, zeta=None):
    """Map a punctured-ball torus point to Eguchi-Hanson resolving-chart
    coordinates; the fiber angle is reported modulo 2 pi, which makes the
    two involution-related lifts agree."""
    v = wrap_displacement(np.asarray(x, dtype=float) - np.asarray(site, dtype=float))
    r = np.linalg.norm(v)
    if r == 0.0:
        raise ValueError(
            f"chart map undefined at the singular point {tuple(float(c) for c in np.asarray(site, dtype=float))}"
        )
    if zeta is not None and r >= zeta:
        raise ValueError(f"point at distance {r:.6g} outside the gluing ball of radius {zeta:.6g}")
    return complex_to_resolving()(v)


def eh_chart_inverse(site, eh_coords):
    v = resolving_to_complex()(np.asarray(eh_coords, dtype=float))
    return (np.asarray(site, dtype=float) + v) % 1.0


# ---------------------------------------------------------------------------
# cutoff


def _profile_terms(s):
    """exp-smoothstep profile A/(A+B) with A = exp(-1/s), B = exp(-1/(1-s)),
    together with first and second derivatives; s strictly inside (0, 1)."""
    s = np.asarray(s, dtype=float)
    A = np.exp(-1.0 / s)
    B = np.exp(-1.0 / (1.0 - s))
    Ap = A / s**2
    Bp = -B / (1.0 - s) ** 2
    App = A * (1.0 - 2.0 * s) / s**4
    Bpp = B * (2.0 * s - 1.0) / (1.0 - s) ** 4
    denom = A + B
    p = A / denom
    num1 = Ap * B - A * Bp
    p1 = num1 / denom**2
    p2 = ((App * B - A * Bpp) * denom - 2.0 * num1 * (Ap + Bp)) / denom**3
    return p, p1, p2


def cutoff_beta(zeta, t):
    """Smooth cutoff in [0, 1]: one up to zeta/4, zero from zeta/2 on."""
    return cutoff_beta_derivs(zeta, t)[0]


def cutoff_beta_derivs(zeta, t):
    """Cutoff value with first and second t-derivatives (analytic)."""
    if zeta <= 0:
        raise ValueError(f"gluing radius must be positive, got {zeta}")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    b = np.zeros_like(t)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    b[t <= zeta / 4.0] = 1.0
    mid = (t > zeta / 4.0) & (t < zeta / 2.0)
    if np.any(mid):
        scale = 4.0 / zeta
        s = (zeta / 2.0 - t[mid]) * scale
        p, p1, p2 = _profile_terms(s)
        b[mid] = p
        b1[mid] = -scale * p1
        b2[mid] = scale**2 * p2
    if scalar:
        return float(b[0]), float(b1[0]), float(b2[0])
    return b, b1, b2


# ---------------------------------------------------------------------------
# gluing correction


def gluing_correction_G(a, r):
    """Radial-chart difference between the Eguchi-Hanson potential and the
    flat one: (a^2/4) log((r^2 - a^2)/(r^2 + a^2)), for r > a."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= a):
        raise ValueError(f"correction requires r > a, got r={r} with a={a}")
    return bolt_correction(a, r)


def ball_correction_derivs(a, w):
    """Resolving-chart correction phi_a(u) - u^2/2 as a function of the
    squared ball radius w = u^2, with first and second w-derivatives.

    This is the version entering the glued potential: it is defined for
    every positive ball radius, not only above the bolt radius.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError(f"squared radius must be positive, got {w}")
    u = np.sqrt(w)
    g = kahler_potential_u_chart(EhParams(a), u) - w / 2.0
    fw, fww = radial_hessian_derivs(a, w)
    return g, fw - 0.5, fww


# ---------------------------------------------------------------------------
# glued model and field


@dataclass(frozen=True)
class GluedModel:
    """Shared gluing data: one deformation parameter for all sixteen
    sites and one gluing radius.

    The enforced regime is 0 < zeta < 1/2 (the radius-zeta/2 support
    balls stay pairwise disjoint) and 0 < a < zeta/2; the conservative
    declared regime a <= zeta/8, zeta <= 1/4 is logged when left.
    """

    a: float
    zeta: float = 1.0 / 9.0

    def __post_init__(self):
        if not (0.0 < self.zeta < 0.5):
            raise ValueError(f"gluing radius must lie in (0, 1/2), got zeta={self.zeta}")
        if not (0.0 < self.a < self.zeta / 2.0):
            raise ValueError(
                f"deformation parameter must lie in (0, zeta/2) = (0, {self.zeta / 2.0:.6g}), got a={self.a}"
            )
        if self.a > self.zeta / 8.0:
            log.info("a=%.4g exceeds the conservative bound zeta/8=%.4g", self.a, self.zeta / 8.0)
        if self.zeta > 0.25:
            log.info("zeta=%.4g exceeds the conservative bound 1/4", self.zeta)


def hermitian_det(h):
    """Pointwise determinant h11 h22 - |h12|^2 of Hermitian 2x2 fields
    given as components (h11, h22, Re h12, Im h12) along axis 0."""
    return h[0] * h[1] - (h[2] ** 2 + h[3] ** 2)


def hermitian_min_eig(h):
    """Pointwise smaller eigenvalue of Hermitian 2x2 fields given as
    components (h11, h22, Re h12, Im h12) along axis 0."""
    tr = 0.5 * (h[0] + h[1])
    gap = np.sqrt((0.5 * (h[0] - h[1])) ** 2 + h[2] ** 2 + h[3] ** 2)
    return tr - gap


@dataclass
class Field11:
    """Samples of a Hermitian 2x2 coefficient field h_{i jbar} on a grid,
    as the components (h11, h22, Re h12, Im h12) in a (4, n, n, n, n)
    float array."""

    grid: TorusGrid
    a: float
    zeta: float
    data: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        shape = (4,) + (self.n,) * 4
        if self.data.shape != shape:
            raise ValueError(f"field data must have shape {shape}, got {self.data.shape}")

    @property
    def n(self):
        return self.grid.n

    def det(self):
        return hermitian_det(self.data)

    def min_eigenvalue(self):
        return float(np.min(hermitian_min_eig(self.data)))


def site_contribution(model, v):
    """Components (h11, h22, Re h12, Im h12) of one site's Hermitian
    contribution at wrapped displacements v (shape (..., 4)), along a
    leading axis of length 4; zero outside the radius-zeta/2 ball.

    With z = (x1 + i y1, x2 + i y2) the contribution is
    f_w identity + f_ww conj(z) z^T."""
    v = np.asarray(v, dtype=float)
    w = np.sum(v**2, axis=-1)
    u = np.sqrt(w)
    out = np.zeros((4,) + v.shape[:-1])
    mask = (u > 0) & (u < model.zeta / 2.0)
    if not np.any(mask):
        return out
    um, wm = u[mask], w[mask]
    beta, beta_t, beta_tt = cutoff_beta_derivs(model.zeta, um)
    beta_w = np.where(beta_t != 0.0, beta_t / (2.0 * um), 0.0)
    beta_ww = np.where(beta_tt != 0.0, (beta_tt - beta_t / um) / (4.0 * wm), 0.0)
    g, gw, gww = ball_correction_derivs(model.a, wm)
    f_w = beta_w * g + beta * gw
    f_ww = beta_ww * g + 2.0 * beta_w * gw + beta * gww
    x1, y1, x2, y2 = v[mask].T
    out[:, mask] = f_ww * np.stack([x1 * x1 + y1 * y1, x2 * x2 + y2 * y2,
                                    x1 * x2 + y1 * y2, x1 * y2 - y1 * x2])
    out[:2, mask] += f_w
    return out


def omega0_at(model, x):
    """Pointwise components (h11, h22, Re h12, Im h12) of the glued form
    at a torus point."""
    x = np.asarray(x, dtype=float)
    h = np.array([0.5, 0.5, 0.0, 0.0])
    for site in SITES:
        v = wrap_displacement(x - site)
        if np.linalg.norm(v) == 0.0:
            raise ValueError(
                f"glued form singular at the fixed point {tuple(float(c) for c in site)}"
            )
        h = h + site_contribution(model, v)
    return h


def build_omega0(model, grid):
    """Assemble the glued coefficient field on the grid.

    The result is flat outside every radius-zeta/2 ball, exactly the
    Eguchi-Hanson Hessian inside the radius-zeta/4 balls, and invariant
    under the involution node-for-node.

    Each site is evaluated only on its index box: the nodes whose wrapped
    displacement is below zeta/2 on every axis, which hold its whole
    ball.  The balls are pairwise disjoint, so every node receives at
    most one nonzero contribution and the box skips only additions of
    exact zeros.
    """
    ax = grid.axis_coordinates()
    shape = (grid.n,) * 4
    h = np.zeros((4,) + shape)
    h[:2] = 0.5
    touched = False
    for site in SITES:
        d = wrap_displacement(ax[:, None] - site)
        idx = [np.flatnonzero(np.abs(d[:, k]) < model.zeta / 2.0) for k in range(4)]
        box = np.ix_(*idx)
        v = np.stack(np.broadcast_arrays(*(d[box[k], k] for k in range(4))), axis=-1)
        contrib = site_contribution(model, v)
        touched = touched or bool(contrib.any())
        h[(slice(None),) + box] += contrib
    if not touched:
        log.info(
            "grid n=%d has no nodes inside any gluing ball (zeta=%.4g): field is exactly flat",
            grid.unit_n, model.zeta,
        )
    mineig = hermitian_min_eig(h)
    worst = np.unravel_index(np.argmin(mineig), shape)
    if mineig[worst] <= 0:
        node = tuple(round(float(ax[i]), 6) for i in worst)
        raise ValueError(
            f"glued form not positive definite: min eigenvalue {mineig[worst]:.6g} at node "
            f"{node}; the deformation parameter a={model.a} is too large for zeta={model.zeta}"
        )
    return Field11(grid, model.a, model.zeta, h)


def volume_ratio_lambda(dets):
    """Ratio of the total squared-form density to the total complex volume
    density, from the determinants det h of a glued field on the grid;
    equals one half for the purely flat field."""
    num = OMEGA_SQ_DENSITY_FACTOR * float(np.sum(dets))
    den = CHI_CHIBAR_DENSITY * dets.size
    lam = num / den
    if lam <= 0:
        raise ValueError(f"volume ratio must be positive, got {lam}")
    return lam


def error_density_ea(dets, lam):
    """Pointwise density defect 1 - lam/(2 det h) from the determinants
    det h; zero wherever the glued form is exactly Ricci-flat with the
    global normalization."""
    if np.any(np.abs(dets) < 1e-12):
        raise ValueError("degenerate squared form: determinant underflow in the error density")
    return 1.0 - lam / (2.0 * dets)


# ---------------------------------------------------------------------------
# serialization


_HEADER = struct.Struct("<4sii4d")


def save_field(field_, path):
    """Write the field as a magic/version/n/side/a/zeta/lambda header plus
    its row-major little-endian float64 (4, n, n, n, n) components on the
    grid it lives on, with a JSON sidecar; byte-stable."""
    lam = field_.lam if field_.lam is not None else float("nan")
    grid = field_.grid
    header = _HEADER.pack(_MAGIC, _VERSION, grid.n, grid.side, field_.a, field_.zeta, lam)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(np.ascontiguousarray(field_.data, dtype="<f8")).cast("B"))
    sidecar = {
        "magic": _MAGIC.decode(),
        "version": _VERSION,
        "n": grid.n,
        "side": grid.side,
        "a": field_.a,
        "zeta": field_.zeta,
        "lambda": field_.lam,
        "dtype": "float64",
        "components": ["h11", "h22", "Re h12", "Im h12"],
        "shape": [4] + [grid.n] * 4,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_field(path):
    """Read a field written by save_field; any malformed header or body
    raises ValueError.  A NaN lambda stands for no lambda."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"truncated field header: {len(raw)} bytes, expected {_HEADER.size}")
        magic, version, n, side, a, zeta, lam = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"not a coefficient-field file: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported field file version {version}")
        grid = TorusGrid(n, side)  # the grid rules reject a bad n or side
        if not (np.isfinite(a) and np.isfinite(zeta) and not np.isinf(lam)):
            raise ValueError(f"non-finite field parameters a={a}, zeta={zeta}, lambda={lam}")
        expect = 32 * n**4
        # sized before it is read, so a header with a huge n allocates nothing
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expect:
            raise ValueError(f"field body has {size} bytes, expected {expect}")
        data = np.fromfile(fh, dtype="<f8").reshape((4,) + (n,) * 4)
    if not np.all(np.isfinite(data)):
        raise ValueError("field body has non-finite entries")
    return Field11(grid, a, zeta, data, lam=None if np.isnan(lam) else lam)
