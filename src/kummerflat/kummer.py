"""Glued approximate Ricci-flat structure on the resolved quotient torus.

The unit 4-torus is quotiented by the negation involution, which has the
sixteen half-lattice fixed points.  Around each fixed point the flat
Kahler potential r^2/2 is glued to the Eguchi-Hanson one phi_a through
a smooth radial cutoff beta, as r^2/2 + beta(r) (phi_a(r) - r^2/2).  Its
(1,1) coefficient field is flat far from the sites, exactly the
Eguchi-Hanson form close to them, and interpolates in the annuli in
between; one site formula (_ball_contribution) gives it inside every
gluing ball.  The volume-ratio constant and the resulting error density
live here as well.

Conventions: the flat form carries coefficient matrix identity/2, the
2-form density of a coefficient field h is 8 det h per coordinate
volume, and the complex volume form density is the constant 4.

The grid is the unit torus or its quotient of side 1/2 by the
half-period translations (Z/2)^4 (TorusGrid.quotient), which permute the
sixteen sites and under which the glued field is invariant.
build_omega0 takes, per axis, each grid coordinate's displacement to
the nearer site coordinate, 0 or 1/2, the wrapped displacement on the
unit torus of the site nearest the node; one sweep over axis-0 slabs
(slab_rows) evaluates the site formula on the nodes inside a gluing
ball (19% of them at zeta = 4/9) and checks positivity there only;
every other node is flat.
So on the quotient the field is the unit-torus field restricted to the
first n/2 nodes per axis, and on either grid the sum of
site_contribution over all sixteen sites at every node, bit for bit.

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

# bytes of the swept field per slab of every axis-0 slab sweep
# (slab_rows): the glued field in build_omega0, the scalar field in
# solver's stencil and Hölder sweeps.  A stencil slab with its halo
# rows, sums, scratch and the bracket's four slabs of h, a Hölder slab
# with its shifted copies, or the site formula's temporaries on a slab's
# ball nodes, about 20 floats per node, stays near a 2 MiB per-core L2
_SLAB_BYTES = 1 << 18


def slab_rows(row_nbytes, n0):
    """Rows per slab of an axis-0 sweep over n0 rows of row_nbytes each:
    _SLAB_BYTES of the swept field, at least one row and at most n0."""
    return min(n0, max(1, _SLAB_BYTES // row_nbytes))


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
    r = 1.0 - s
    A = np.exp(-1.0 / s)
    B = np.exp(-1.0 / r)
    Ap = A / s**2
    Bp = -B / r**2
    App = A * (1.0 - 2.0 * s) / s**4
    Bpp = B * (2.0 * s - 1.0) / r**4
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
    """Cutoff value with first and second t-derivatives (analytic), as
    arrays shaped like t (0-d for a scalar t)."""
    if not np.isfinite(zeta):
        raise ValueError(f"gluing radius must be finite, got {zeta}")
    if zeta <= 0:
        raise ValueError(f"gluing radius must be positive, got {zeta}")
    t = np.asarray(t, dtype=float)
    b = np.zeros_like(t)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    b[t <= zeta / 4.0] = 1.0
    mid = (t > zeta / 4.0) & (t < zeta / 2.0)
    scale = 4.0 / zeta
    p, p1, p2 = _profile_terms((zeta / 2.0 - t[mid]) * scale)
    b[mid] = p
    b1[mid] = -scale * p1
    b2[mid] = scale**2 * p2
    return b, b1, b2


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


# components (h11, h22, Re h12, Im h12) of the flat form, identity/2
_FLAT = np.array([0.5, 0.5, 0.0, 0.0])
_FLAT.flags.writeable = False


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


def _ball_contribution(model, v, w):
    """The site formula: one site's Hermitian contribution at the wrapped
    displacement rows v (shape (m, 4)) inside its ball, 0 < |v| < zeta/2,
    whose squared radii are w = np.sum(v**2, axis=-1), as the components
    (h11, h22, Re h12, Im h12) along a leading axis of length 4.

    The glued potential is w/2 + f(w), with f = beta(u) g(w), u = sqrt(w)
    the ball radius and g(w) = phi_a(u) - w/2 the Eguchi-Hanson
    correction of the flat potential w/2.  The contribution is the
    complex Hessian of f: with z = (x1 + i y1, x2 + i y2), it is
    f_w identity + f_ww conj(z) z^T, where f_w and f_ww follow from
    beta_w = beta_t / (2u), beta_ww = (beta_tt - beta_t / u) / (4w) and
    the w-derivatives of g."""
    u = np.sqrt(w)
    beta, beta_t, beta_tt = cutoff_beta_derivs(model.zeta, u)
    beta_w = beta_t / (2.0 * u)
    beta_ww = (beta_tt - beta_t / u) / (4.0 * w)
    g = kahler_potential_u_chart(EhParams(model.a), u) - w / 2.0
    g_w, g_ww = radial_hessian_derivs(model.a, w)
    g_w -= 0.5
    f_w = beta_w * g + beta * g_w
    f_ww = beta_ww * g + 2.0 * beta_w * g_w + beta * g_ww
    x1, y1, x2, y2 = v.T
    out = np.stack([x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2, x1 * y2 - y1 * x2])
    out *= f_ww
    out[:2] += f_w
    return out


def site_contribution(model, v):
    """Components (h11, h22, Re h12, Im h12) of one site's Hermitian
    contribution at wrapped displacements v (shape (..., 4)), along a
    leading axis of length 4: the site formula _ball_contribution inside
    the radius-zeta/2 ball, zero outside it."""
    v = np.asarray(v, dtype=float)
    w = np.sum(v**2, axis=-1)
    u = np.sqrt(w)
    out = np.zeros((4,) + v.shape[:-1])
    mask = (u > 0) & (u < model.zeta / 2.0)
    if np.any(mask):
        out[:, mask] = _ball_contribution(model, v[mask], w[mask])
    return out


def omega0_at(model, x):
    """Pointwise components (h11, h22, Re h12, Im h12) of the glued form
    at a torus point."""
    x = np.asarray(x, dtype=float)
    h = _FLAT
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

    The balls are pairwise disjoint, so a node can lie only in the ball
    of its nearest site, whose wrapped displacement is, per axis, the
    displacement d to the nearer site coordinate 0 or 1/2.  One sweep
    over axis-0 slabs of the field, slab_rows rows each, forms the squared
    distances w = ((d0^2 + d1^2) + d2^2) + d3^2, the order in which
    np.sum(v**2, axis=-1) adds them, and evaluates the site formula once
    per slab, on the nodes with 0 < sqrt(w) < zeta/2.  Every other node
    would receive only exact zeros from the sixteen sites and keeps the
    flat value, so the field is bit for bit the sum of site_contribution
    over all sites at every node.  Positivity is checked on the ball
    nodes only, since a flat node has the eigenvalue 1/2; the error
    names the first node, in grid order, with the smallest eigenvalue.
    """
    ax = grid.axis_coordinates()
    n = grid.n
    h = np.zeros((4,) + (n,) * 4)
    h[:2] = 0.5
    low, high = wrap_displacement(ax), wrap_displacement(ax - 0.5)
    d = np.where(np.abs(high) < np.abs(low), high, low)
    sq = d * d
    # w012[i] + sq is row i of w along axis 0
    w012 = (sq[:, None, None] + sq[:, None]) + sq
    rows = slab_rows(h[:, 0].nbytes, n)
    # per slab with ball nodes: its smallest eigenvalue and the flat index
    # of its first node with it
    worst = []
    for i0 in range(0, n, rows):
        w = w012[i0:i0 + rows, :, :, None] + sq
        ball = np.flatnonzero((w > 0) & (np.sqrt(w) < model.zeta / 2.0))
        if ball.size == 0:
            continue
        v = np.empty((ball.size, 4))
        v[:, 0] = d[i0 + ball // n**3]
        v[:, 1] = d[ball // n**2 % n]
        v[:, 2] = d[ball // n % n]
        v[:, 3] = d[ball % n]
        hb = _ball_contribution(model, v, w.reshape(-1)[ball])
        # the flat value plus the contribution, as the sum over all sites
        # adds them, which also turns a -0.0 component into 0.0
        hb += _FLAT[:, None]
        ball += i0 * n**3
        h.reshape(4, -1)[:, ball] = hb
        mineig = hermitian_min_eig(hb)
        k = int(np.argmin(mineig))
        worst.append((mineig[k], int(ball[k])))
    if not worst:
        log.info(
            "grid n=%d has no nodes inside any gluing ball (zeta=%.4g): field is exactly flat",
            grid.unit_n, model.zeta,
        )
        return Field11(grid, model.a, model.zeta, h)
    value, node = worst[int(np.argmin([m for m, _ in worst]))]
    if value <= 0:
        node = tuple(round(float(ax[i]), 6) for i in np.unravel_index(node, h.shape[1:]))
        raise ValueError(
            f"glued form not positive definite: min eigenvalue {value:.6g} at node "
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
        GluedModel(a, zeta)  # the model's rules reject a bad a or zeta
        if not (lam > 0 or np.isnan(lam)):
            raise ValueError(f"volume ratio must be positive, got lambda={lam}")
        expect = 32 * n**4
        # sized before it is read, so a header with a huge n allocates nothing
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expect:
            raise ValueError(f"field body has {size} bytes, expected {expect}")
        data = np.fromfile(fh, dtype="<f8").reshape((4,) + (n,) * 4)
    if not np.all(np.isfinite(data)):
        raise ValueError("field body has non-finite entries")
    return Field11(grid, a, zeta, data, lam=None if np.isnan(lam) else lam)
