"""Discrete analysis layer for the glued structure.

Weighted Sobolev/Hölder norms, the scalar Laplacian attached to the
glued (1,1) field, its mean-zero inversion, the quadratic volume
remainder, the contraction fixed-point iteration, and spectral
diagnostics (smallest nonzero eigenvalue, Poincaré and Bochner checks,
the gap between two solves' potentials).

Each norm is assembled in one place from the weighted L2 norm, the
two-derivative Sobolev norm, sups and holder_seminorm: y_norm is the
error norm a^(-4+eps) L2 + C^{0,alpha} and x_norm the solution norm
a^(-4+eps) L2_2 + a^alpha C^{2,alpha}, both on mean-zero fields and
rejecting non-finite input before any arithmetic.

Scalar fields live on the cell-centered torus grid as real (n,n,n,n)
arrays.  The grid (kummer.TorusGrid) is the unit torus or its quotient
of side 1/2 by the half-period translations (Z/2)^4, which permute the
sixteen sites; the stencils, sums and Hölder sweep need only the
spacing and the periodic wrap, and the preconditioner's symbol scales
by 1/side^2, so the same code solves either.  The glued field, e_a, the
weights and the fixed point are (Z/2)^4-invariant, so a solve on the
quotient's (n/2)^4 nodes is the unit-torus solve restricted to them, up
to the rounding of sums over fewer terms.  The random fields behind
lambda1_estimate, poincare_check and the sampled diagnostics are not
invariant; those run on the unit torus.

The complex Hessian stencil P(u) = 2 u_{i jbar} uses 3-point second
differences on the diagonal and central-central mixed differences; with
the 2x2 identity det(h+P) = det h + [h:P] + det P
this makes the Monge-Ampere residual of a solved potential collapse to
the solver tolerances instead of an extra discretization error.  The
stencil returns P in the layout of kummer.Field11 data, the four real
components (p11, p22, Re p12, Im p12) along a leading axis, so the
corrected field is field_.data + hessian_parts(phi, dx), and
kummer.hermitian_det and kummer.hermitian_min_eig work on those
components; no complex (..., 2, 2) field is built here.  The bracket
[h : P(u)] behind the Laplacian and its inversion is computed from the
stencil's neighbour sums without building P, in slabs along axis 0 that
stay in the per-core cache.  The inversion is right-preconditioned
BiCGStab, since the stencil operator is not symmetric on glued fields;
its flat preconditioner uses real-to-complex FFTs on the half spectrum.
The solve loop allocates nothing per step: the work vectors, the
operator images and the preconditioner's spectrum are made once per
inversion and written in place, and the inverse preconditioner symbol is
made once per Problem.  Each Picard step builds one stencil field P of
its potential: Q = det P / det h is read from it, P becomes the
corrected field h + P in place, and the step's residual and positivity
checks drop it before its Y-norms run.  Each other n^4 field lives only
as long as it is needed: the work vectors die with the BiCGStab loop,
the residual checks and the fixed-point image are computed in place,
and hessian_parts keeps its intermediates in the slots of its result; a
solve peaks at 11-14 fields on top of its Problem's 7, 11.1 at 24^4 nodes
and 13.7 at 16^4 (traced, on either grid: 24^4 nodes are the unit grid
at n=24 or the quotient at n=48).
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kummer

log = logging.getLogger(__name__)

DEFAULT_INVERT_TOL = 1e-8
DEFAULT_FIXED_POINT_TOL = 1e-6
MEAN_ZERO_TOL = 1e-8
# Krylov subspace dimension and inversion tolerance of lambda1_estimate
LAMBDA1_KRYLOV_DIM = 16
LAMBDA1_INVERT_TOL = 1e-9
# random-field count and seed of poincare_check
POINCARE_FIELDS = 20
POINCARE_SEED = 11
# band limit and amplitude decay of random_smooth_field
RANDOM_FIELD_KMAX = 3
RANDOM_FIELD_DECAY = 2.0
# bytes of f per slab of the Hölder sweep: with its padded, shifted
# copies a slab stays well inside a 2 MiB per-core L2
_HOLDER_SLAB_BYTES = 1 << 19
# bytes of u per slab of the bracket sweep: a slab with its two halo
# rows, its four temporaries and the four slabs of h stay near a 2 MiB
# per-core L2
_BRACKET_SLAB_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# parameters and problem bundle


@dataclass(frozen=True)
class NormParams:
    """Exponents of the weighted solution/error norms.

    alpha is the Hölder exponent and p the integrability exponent, with
    derived weight exponent eps = 2 - 4/p; the local Hölder seminorm
    samples offsets within radius max(a, 2 grid spacings).
    """

    alpha: float = 0.1
    p: float = 6.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 / 3.0):
            raise ValueError(f"Hölder exponent must lie in (0, 1/3), got {self.alpha}")
        # written as "not (x > 0)" so that NaN is rejected too
        if not self.p > 0:
            raise ValueError(f"integrability exponent must be positive, got p={self.p}")
        eps = self.resolved_eps()
        if not eps > 0:
            raise ValueError(f"integrability exponent p={self.p} gives nonpositive weight exponent")
        if not eps / 2.0 - 2.0 * self.alpha > 0:
            raise ValueError(
                f"contraction window violated: eps/2 - 2 alpha = {eps / 2.0 - 2.0 * self.alpha:.4g} <= 0"
            )

    def resolved_eps(self):
        return 2.0 - 4.0 / self.p

    def contraction_bound(self, a):
        """Analytic contraction scalar 2 a^(eps/2 - 2 alpha)."""
        return 2.0 * a ** (self.resolved_eps() / 2.0 - 2.0 * self.alpha)

    def ball_radius(self, a):
        """Fixed-point ball radius a^(eps/2)."""
        return a ** (self.resolved_eps() / 2.0)

    def resolved_r_ball(self, a, spacing):
        return max(a, 2.0 * spacing)


@dataclass(frozen=True)
class Problem:
    """Glued model discretized on a grid, with cached derived data."""

    model: kummer.GluedModel
    grid: kummer.TorusGrid
    field_: kummer.Field11
    lam: float
    dets: np.ndarray
    ea: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, model, grid):
        field_ = kummer.build_omega0(model, grid)
        dets = field_.det()
        lam = kummer.volume_ratio_lambda(dets)
        ea = kummer.error_density_ea(dets, lam)
        # Riemannian volume weights: half the squared-form density
        weight = 4.0 * dets / dets.size
        return cls(model, grid, field_, lam, dets, ea, weight)

    @property
    def spacing(self):
        return self.grid.spacing

    @property
    def shape(self):
        return (self.grid.n,) * 4

    @functools.cached_property
    def inverse_symbol(self):
        """The flat preconditioner on the real-FFT half spectrum, made on
        first use: the flat operator is -(1/4) x the standard Laplacian,
        and its inverse kills the constant mode."""
        symbol = flat_symbol(self.grid)
        with np.errstate(divide="ignore"):
            return np.where(symbol > 0, 4.0 / symbol, 0.0)


def weighted_mean(problem, f):
    return float(np.sum(problem.weight * f) / np.sum(problem.weight))


def project_mean_zero(problem, f):
    return f - weighted_mean(problem, f)


def _require_finite(f, what):
    """f as a float array; raises unless every entry is finite."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{what} must be finite")
    return f


# ---------------------------------------------------------------------------
# stencils


def _neighbours(f, axis, op, out=None):
    """op(f[i+1], f[i-1]) along one periodic axis, into out (a new
    array by default; a given out must be C-contiguous).

    Works on the flat C-order buffer, where the two neighbours are one
    axis stride away, and then rewrites the two wrapped end slices, so
    it makes no shifted copies of f.
    """
    f = np.ascontiguousarray(f, dtype=float)
    n = f.shape[axis]
    stride = math.prod(f.shape[axis + 1:])
    if out is None:
        out = np.empty_like(f)
    flat, flat_out = f.reshape(-1), out.reshape(-1)
    op(flat[2 * stride:], flat[: -2 * stride], out=flat_out[stride:-stride])
    f3, out3 = f.reshape(-1, n, stride), out.reshape(-1, n, stride)
    op(f3[:, 1], f3[:, -1], out=out3[:, 0])
    op(f3[:, 0], f3[:, -2], out=out3[:, -1])
    return out


def _second_diff(f, axis, dx):
    out = _neighbours(f, axis, np.add)
    out -= 2.0 * f
    out /= dx**2
    return out


def _central_diff(f, axis, dx):
    out = _neighbours(f, axis, np.subtract)
    out /= 2.0 * dx
    return out


def hessian_parts(u, dx):
    """The stencil field P = 2 u_{i jbar} as one (4, ...) array of its
    components (p11, p22, Re p12, Im p12).

    Real coordinates order (x1, y1, x2, y2) along the four grid axes.
    The diagonal entries are half the 5-point Laplacian of each complex
    plane; the four central-central mixed differences share the
    central differences along x1 and y1.  Until the mixed entries are
    written, their slots of P hold 4u and the diagonal neighbour sums,
    so the only fresh fields are the two central differences.
    """
    u = np.ascontiguousarray(u, dtype=float)
    P = np.empty((4,) + u.shape)
    p11, p22, re12, im12 = P
    four_u = np.multiply(u, 4.0, out=im12)
    _neighbours(u, 0, np.add, out=p11)
    p11 += _neighbours(u, 1, np.add, out=re12)
    p11 -= four_u
    p11 *= 0.5 / dx**2
    _neighbours(u, 2, np.add, out=p22)
    p22 += _neighbours(u, 3, np.add, out=re12)
    p22 -= four_u
    p22 *= 0.5 / dx**2
    d0 = _neighbours(u, 0, np.subtract)
    d1 = _neighbours(u, 1, np.subtract)
    _neighbours(d0, 2, np.subtract, out=re12)
    _neighbours(d0, 3, np.subtract, out=im12)
    # d0 is spent; it takes the two terms along d1
    re12 += _neighbours(d1, 3, np.subtract, out=d0)
    re12 *= 0.5 / (2.0 * dx) ** 2
    im12 -= _neighbours(d1, 2, np.subtract, out=d0)
    im12 *= 0.5 / (2.0 * dx) ** 2
    return P


def hermitian_bracket(field_, u, dx, out=None):
    """[h : P(u)] = h11 p22 + h22 p11 - 2 Re(h12 conj(p12)) for the
    stencil field P = hessian_parts(u, dx) and h = field_.data, without
    building P; into out (a new array by default).

    Each neighbour sum of hessian_parts is weighted by the component of
    h it meets in the bracket, and the stencil factors are applied once
    per diagonal and mixed part.  A constant u maps to exactly zero.
    The sweep runs over slabs of _BRACKET_SLAB_BYTES along axis 0, each
    read with one periodic halo row per side, and keeps its temporaries
    in slab-sized buffers; every element sees the same operations as on
    the whole array, so the result does not depend on the slab size.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if out is None:
        out = np.empty_like(u)
    h11, h22, re12, im12 = field_.data
    n0 = u.shape[0]
    rows = min(n0, max(1, _BRACKET_SLAB_BYTES // u[0].nbytes))
    halo = np.empty((rows + 2,) + u.shape[1:])
    s, t, d0, d1 = np.empty((4, rows) + u.shape[1:])
    for i0 in range(0, n0, rows):
        i1 = min(i0 + rows, n0)
        m = i1 - i0
        if m < rows:
            halo, s, t, d0, d1 = halo[:m + 2], s[:m], t[:m], d0[:m], d1[:m]
        # rows i0 - 1, ..., i1 of u, wrapped around the torus
        np.take(u, range(i0 - 1, i1 + 1), axis=0, out=halo, mode="wrap")
        us, o = halo[1:-1], out[i0:i1]
        # diagonal part h22 (S0 + S1 - 4u) + h11 (S2 + S3 - 4u), where Sk
        # is the neighbour sum along axis k, times 1 / (2 dx^2)
        np.add(halo[2:], halo[:-2], out=o)
        _neighbours(us, 1, np.add, out=s)
        np.multiply(us, 4.0, out=t)
        o += s
        o -= t
        o *= h22[i0:i1]
        _neighbours(us, 2, np.add, out=s)
        s -= t
        s += _neighbours(us, 3, np.add, out=t)
        s *= h11[i0:i1]
        o += s
        o *= 0.5 / dx**2
        # mixed part -2 (Re h12 Re p12 + Im h12 Im p12), with 8 dx^2 p12
        # = D2 d0 + D3 d1 + i (D3 d0 - D2 d1) for the central differences
        # dk = Dk u
        np.subtract(halo[2:], halo[:-2], out=d0)
        _neighbours(us, 1, np.subtract, out=d1)
        _neighbours(d0, 2, np.subtract, out=s)
        s += _neighbours(d1, 3, np.subtract, out=t)
        s *= re12[i0:i1]
        _neighbours(d0, 3, np.subtract, out=t)
        t -= _neighbours(d1, 2, np.subtract, out=d0)
        t *= im12[i0:i1]
        s += t
        s *= -0.25 / dx**2
        o += s
    return out


def laplacian(problem, u):
    """Scalar Laplacian of the glued form: [h : P(u)] / det h.

    On the flat torus this is exactly the standard Laplacian (unit
    constant).  Its volume-weighted mean vanishes identically there;
    on resolved glued fields it vanishes only to stencil truncation.
    """
    u = _require_finite(u, "laplacian input")
    out = hermitian_bracket(problem.field_, u, problem.spacing)
    out /= problem.dets
    return out


def quadratic_Q(problem, u):
    """Quadratic volume remainder det P(u) / det h."""
    u = _require_finite(u, "quadratic remainder input")
    return _remainder_of(problem, hessian_parts(u, problem.spacing))


def _remainder_of(problem, P):
    """det P / det h for a stencil field P = hessian_parts(u, dx)."""
    q = kummer.hermitian_det(P)
    q /= problem.dets
    return q


# ---------------------------------------------------------------------------
# mean-zero inversion


def flat_axis_symbol(n):
    """Eigenvalues 4 n^2 sin^2(pi k / n), k = 0, ..., n - 1, of minus the
    flat 3-point second difference along one periodic axis."""
    k = np.arange(n)
    return 4.0 * n**2 * np.sin(np.pi * k / n) ** 2


def flat_symbol(grid):
    """Eigenvalues of minus the flat grid Laplacian on the real-FFT half
    spectrum, shape (n, n, n, n // 2 + 1).

    On the torus of side L the axis symbol is flat_axis_symbol(n) / L^2,
    (4 / spacing^2) sin^2(pi k / n); the division is exact for L = 1
    and 1/2."""
    n = grid.n
    s = flat_axis_symbol(n) / grid.side**2
    h = s[: n // 2 + 1]
    return (
        s[:, None, None, None]
        + s[None, :, None, None]
        + s[None, None, :, None]
        + h[None, None, None, :]
    )


def _flat_inverse(rhs, inverse_symbol, hat=None, out=None):
    """Multiply the real spectrum of rhs by a half-spectrum symbol, e.g.
    to solve the flat Laplacian with zero mean; into out (a new array by
    default).

    The 1-D passes are those of numpy's rfftn and irfftn, in their axis
    order, done in place in the half-spectrum buffer hat (shaped like
    the symbol, complex; a new one by default), whose contents are lost.
    """
    hat = np.fft.rfftn(rhs, axes=(0, 1, 2, 3), out=hat)
    hat *= inverse_symbol
    for axis in (0, 1, 2):
        np.fft.ifft(hat, axis=axis, out=hat)
    return np.fft.irfft(hat, n=rhs.shape[3], axis=3, out=out)


def _glued_operator(problem, u, out=None):
    """B(u) = -[h : P(u)] minus its mean, the operator the inversion
    solves with, into out (a new array by default); its values sum to
    zero."""
    out = hermitian_bracket(problem.field_, u, problem.spacing, out)
    return np.subtract(out.mean(), out, out=out)


def invert_laplacian(problem, f, tol=DEFAULT_INVERT_TOL, max_iter=600, u0=None):
    """Solve laplacian(u) = f for mean-zero u by right-preconditioned
    BiCGStab (van der Vorst 1992), from u0 (zero by default).

    The stencil operator is not symmetric on glued fields, hence a
    short-recurrence method for non-symmetric systems; each step applies
    the flat preconditioner and the operator twice, or once when its
    half step already converges.  The operator's range misses the
    constant direction by a truncation-level amount on non-flat glued
    fields, so convergence is measured on the zero-sum projection of
    the residual; the leftover constant defect is reported in the info
    dict, not hidden.
    """
    f = _require_finite(f, "inversion data")
    # operator B(u) = -[h : P(u)], rhs g = -f det h; both sum to zero
    # when f has zero weighted mean
    g = -f * problem.dets
    g -= g.mean()
    scale = float(np.linalg.norm(g))
    if scale == 0.0:
        return np.zeros_like(f), {"iterations": 0, "relative_residual": 0.0,
                                  "mean_defect": 0.0, "history": [0.0]}
    u = np.zeros_like(f) if u0 is None else np.array(u0, dtype=float)
    if u0 is not None:
        g -= _glued_operator(problem, u)
    # g is the residual from here on
    history = [float(np.linalg.norm(g)) / scale]
    it = _bicgstab(problem, u, g, scale, tol, max_iter, history) if history[0] > tol else 0
    del g
    u -= weighted_mean(problem, u)
    raw = laplacian(problem, u)
    raw -= f
    raw *= problem.weight
    info = {
        "iterations": it,
        "relative_residual": history[-1],
        "mean_defect": float(np.abs(np.sum(raw) / np.sum(problem.weight))),
        "history": history,
    }
    return u, info


def _bicgstab(problem, u, r, scale, tol, max_iter, history):
    """The BiCGStab steps of invert_laplacian: updates u and the
    residual r in place, appends each step's relative residual to
    history and returns the number of steps.

    The work vectors are made once and written in place, and die on
    return: shadow residual r_hat, search direction p, operator images
    v and t, the preconditioned vector z and the preconditioner's
    spectrum hat."""
    inverse_symbol = problem.inverse_symbol
    r_hat = r.copy()
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    t = np.empty_like(r)
    z = np.empty_like(r)
    hat = np.empty(inverse_symbol.shape, dtype=complex)
    rho = alpha = omega = 1.0
    for it in range(1, max_iter + 1):
        rho_next = float(np.vdot(r_hat, r))
        if rho_next == 0.0 or omega == 0.0:
            raise RuntimeError(f"BiCGStab breakdown at step {it}: rho = {rho_next:.3g}, omega = {omega:.3g}")
        beta = (rho_next / rho) * (alpha / omega)
        rho = rho_next
        # p = r + beta (p - omega v)
        v *= omega
        p -= v
        p *= beta
        p += r
        _flat_inverse(p, inverse_symbol, hat, z)
        _glued_operator(problem, z, v)
        pivot = float(np.vdot(r_hat, v))
        if pivot == 0.0:
            raise RuntimeError(f"BiCGStab breakdown at step {it}: <r_hat, v> = 0")
        alpha = rho / pivot
        z *= alpha
        u += z
        # half step: r becomes s = r - alpha v
        r -= np.multiply(v, alpha, out=t)
        rel = float(np.linalg.norm(r)) / scale
        if rel > tol:
            _flat_inverse(r, inverse_symbol, hat, z)
            _glued_operator(problem, z, t)
            omega = float(np.vdot(t, r)) / float(np.vdot(t, t))
            z *= omega
            u += z
            t *= omega
            r -= t
            rel = float(np.linalg.norm(r)) / scale
        history.append(rel)
        if rel <= tol:
            return it
        if it >= 80 and rel > 0.5 * history[it - 60]:
            raise RuntimeError(
                f"inversion stagnated at relative residual {rel:.3e} after {it} iterations; "
                f"history tail {['%.2e' % h for h in history[-5:]]}"
            )
    raise RuntimeError(
        f"inversion did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(relative residual {history[-1]:.3e})"
    )


# ---------------------------------------------------------------------------
# norms


def _weighted_l2(f, weight):
    """Weighted L2 norm of a float array already checked to be finite."""
    return float(np.sum(weight * f**2) ** 0.5)


def gradient_components(f, dx):
    return [_central_diff(f, ax, dx) for ax in range(4)]


def _second_differences(f, dx):
    """(multiplicity, component) for the ten i <= j second differences
    of f, in the order (0,0), (0,1), ..., (3,3): the 3-point second
    difference on the diagonal, and off it the central-central mixed
    difference, which the full Hessian holds twice."""
    for i in range(4):
        yield 1.0, _second_diff(f, i, dx)
        if i < 3:
            along_i = _central_diff(f, i, dx)
            for j in range(i + 1, 4):
                yield 2.0, _central_diff(along_i, j, dx)


def _lattice_box(reach):
    """The points of {-reach, ..., reach}^4 as rows in lexicographic
    order; the origin is the middle row, and row i is minus row -1-i."""
    return np.indices((2 * reach + 1,) * 4).reshape(4, -1).T - reach


def _holder_offsets(dx, r_ball):
    """(offset, length) for the lattice offsets d within the sampling
    ball, one of each pair d, -d: the rows after the origin, whose first
    nonzero entry is positive.  On the torus |f(x+d) - f(x)| and
    |f(x-d) - f(x)| range over the same values."""
    box = _lattice_box(max(int(np.floor(r_ball / dx)), 1))
    half = box[len(box) // 2 + 1:]
    dist = dx * np.sqrt(np.sum(half**2, axis=1))
    keep = dist <= r_ball
    return list(zip(half[keep], dist[keep].tolist()))


def holder_seminorm(f, dx, alpha, r_ball):
    """Sup of |f(x+d) - f(x)| / |d|^alpha over lattice offsets within
    the sampling ball; coordinate identification, no transport.

    The sweep runs over slabs of _HOLDER_SLAB_BYTES along axis 0, so
    that a slab and its shifted copies stay in the per-core cache while
    every offset visits them.  The shifted values are read from one
    periodic padding of f; within a slab the offsets are grouped by
    their last component, whose shift is made contiguous once per group,
    and the rest are views.  Each offset's sup is the exact max over all
    slabs, so the result does not depend on the slab size.
    """
    f = np.asarray(f, dtype=float)
    offsets = _holder_offsets(dx, r_ball)
    reach = max(int(np.floor(r_ball / dx)), 1)
    n0, n1, n2, n3 = f.shape
    # the kept offsets have a non-negative first component
    padded = np.pad(f, ((0, reach), (reach, reach), (reach, reach), (reach, reach)), mode="wrap")
    by_last = {}
    for k, (d, _) in enumerate(offsets):
        by_last.setdefault(int(d[3]), []).append((k, int(d[0]), reach + int(d[1]), reach + int(d[2])))
    rows = max(1, _HOLDER_SLAB_BYTES // f[0].nbytes)
    peaks = [0.0] * len(offsets)
    for i0 in range(0, n0, rows):
        i1 = min(i0 + rows, n0)
        centre = np.ascontiguousarray(padded[i0:i1, reach:reach + n1, reach:reach + n2, reach:reach + n3])
        diff = np.empty_like(centre)
        for d3, group in by_last.items():
            shifted = np.ascontiguousarray(padded[i0:i1 + reach, :, :, reach + d3:reach + d3 + n3])
            for k, j0, j1, j2 in group:
                np.subtract(shifted[j0:j0 + i1 - i0, j1:j1 + n1, j2:j2 + n2], centre, out=diff)
                peaks[k] = max(peaks[k], float(np.max(np.abs(diff, out=diff))))
    best = 0.0
    for peak, (_, dist) in zip(peaks, offsets):
        best = max(best, peak / dist**alpha)
    return best


def _norm_parts(problem, params, f):
    """Prologue of the X- and Y-norms: f minus its weighted mean, which
    must vanish, the L2 weight a^(-4+eps) and the Hölder radius."""
    f = _require_finite(f, "norm input")
    mean = weighted_mean(problem, f)
    scale = float(np.max(np.abs(f)))
    if abs(mean) > MEAN_ZERO_TOL * (1.0 + scale):
        raise ValueError(f"norm defined on mean-zero fields; weighted mean {mean:.3e}")
    a = problem.model.a
    return f - mean, a ** (-4.0 + params.resolved_eps()), params.resolved_r_ball(a, problem.spacing)


def x_norm(problem, params, f):
    """Solution norm: a^(-4+eps) L2-Sobolev part plus a^alpha C^{2,alpha},
    in one pass that builds each derivative once: the weighted squares
    of f, its gradient and its Hessian, and the sup of f, the largest
    sup of a gradient and of a Hessian component and the largest Hölder
    seminorm of a Hessian component, each summed in that order."""
    f, l2_weight, rb = _norm_parts(problem, params, f)
    dx, w = problem.spacing, problem.weight
    l22 = float(np.sum(w * f**2))
    grad_sups = []
    for g in gradient_components(f, dx):
        l22 += float(np.sum(w * g**2))
        grad_sups.append(float(np.max(np.abs(g))))
    del g  # no gradient stays alive through the Hessian loop
    # one Hessian component at a time: its square, its sup and its seminorm
    sups, semis = [], []
    for m, h in _second_differences(f, dx):
        l22 += float(np.sum(w * (m * h**2)))
        sups.append(float(np.max(np.abs(h))))
        semis.append(holder_seminorm(h, dx, params.alpha, rb))
    holder = float(np.max(np.abs(f))) + max(grad_sups) + max(sups) + max(semis)
    return l2_weight * float(np.sqrt(l22)) + problem.model.a**params.alpha * holder


def y_norm(problem, params, f):
    """Error norm: a^(-4+eps) L2 part plus C^{0,alpha}, the sup of f plus
    its Hölder seminorm."""
    f, l2_weight, rb = _norm_parts(problem, params, f)
    holder = float(np.max(np.abs(f))) + holder_seminorm(f, problem.spacing, params.alpha, rb)
    return l2_weight * _weighted_l2(f, problem.weight) + holder


# ---------------------------------------------------------------------------
# fixed-point iteration


@dataclass
class SolverState:
    """Outcome of the contraction iteration; trace_rows holds one row of
    TRACE_COLUMNS per Picard step."""

    psi: np.ndarray
    phi: np.ndarray
    ball_radius: float
    iterations: int
    projection_leaks: list
    trace_rows: list
    initial_ma_sup: float
    final_ma_sup: float
    final_min_eigenvalue: float
    mean_zero_defect: float
    corrected: kummer.Field11 | None


def corrected_field(problem, phi):
    """The corrected field h + P(phi), with the problem's volume ratio."""
    return _corrected(problem, hessian_parts(phi, problem.spacing))


def _corrected(problem, P):
    """The corrected field h + P for a stencil field P, written into P."""
    h = problem.field_
    P += h.data
    return kummer.Field11(h.grid, h.a, h.zeta, P, lam=problem.lam)


def ma_residual(problem, corrected):
    """Pointwise volume-equation defect 2 det(K) / lambda - 1 of a
    corrected field K = corrected_field(problem, phi); K must be
    positive definite.

    A Hermitian 2x2 matrix is positive definite exactly when its det
    and its first diagonal entry are positive, so the check reuses the
    det; the min-eigenvalue formula runs only to report a failure."""
    det = corrected.det()
    if not (np.all(det > 0) and np.all(corrected.data[0] > 0)):
        raise ValueError(
            f"corrected form not positive definite: min eigenvalue {corrected.min_eigenvalue():.6g}"
        )
    return 2.0 * det / problem.lam - 1.0


def fixed_point_map(problem, psi, phi0=None):
    """One application of psi -> projection of -e_a - Q(inverse(psi));
    the inversion starts from phi0 (zero by default).

    Returns the image, the potential phi, the corrected field of phi and
    the inversion's info.  One stencil field P(phi) gives both Q(phi)
    and the corrected field, which takes over P's memory."""
    phi, info = invert_laplacian(problem, psi, u0=phi0)
    P = hessian_parts(_require_finite(phi, "quadratic remainder input"), problem.spacing)
    # -(Q + e_a) rounds exactly as -e_a - Q, without a -e_a temporary
    raw = _remainder_of(problem, P)
    raw += problem.ea
    np.negative(raw, out=raw)
    leak = weighted_mean(problem, raw)
    raw -= leak
    return raw, phi, _corrected(problem, P), {"projection_leak": leak, "invert": info}


def banach_solve(
    problem,
    params,
    tol=DEFAULT_FIXED_POINT_TOL,
    max_iter=40,
    psi0=None,
    enforce_ball=True,
):
    """Iterate the contraction map from psi0 (zero by default) until the
    Y-norm increment falls below tol times the first increment.

    Raises if an iterate leaves the radius-R ball (advice: shrink a),
    if the corrected form loses positivity, or on non-convergence; and
    up front for a psi0 not shaped like the problem's grid, such as a
    unit-torus field given to a problem on the quotient grid.
    """
    if psi0 is not None and np.shape(psi0) != problem.shape:
        raise ValueError(f"psi0 has shape {np.shape(psi0)}, but the problem's grid has shape {problem.shape}")
    R = params.ball_radius(problem.model.a)
    psi = np.zeros(problem.shape) if psi0 is None else project_mean_zero(problem, np.asarray(psi0, dtype=float))
    y0 = y_norm(problem, params, psi)
    if enforce_ball and y0 > R:
        raise ValueError(
            f"starting field outside the radius-R ball: Y-norm {y0:.4e} > R = {R:.4e}"
        )
    # the corrected field of phi = 0 is h itself
    initial_ma_sup = float(np.max(np.abs(ma_residual(problem, problem.field_))))
    rows, leaks = [], []
    first_increment = None
    prev_increment = None
    phi = None
    for it in range(1, max_iter + 1):
        # each inversion after the first starts from the previous potential
        psi_next, phi, corrected, info = fixed_point_map(problem, psi, phi0=phi)
        ma_sup = float(np.max(np.abs(ma_residual(problem, corrected))))
        mineig = corrected.min_eigenvalue()
        # the corrected field is spent before the Y-norms run
        del corrected
        y_next = y_norm(problem, params, psi_next)
        increment = y_norm(problem, params, psi_next - psi)
        ratio = float("nan") if prev_increment in (None, 0.0) else increment / prev_increment
        leaks.append(info["projection_leak"])
        rows.append(
            {"iter": it, "y_norm_psi": y_next, "lipschitz_sample_max": ratio,
             "ma_sup_residual": ma_sup, "min_eigenvalue": mineig}
        )
        if enforce_ball and y_next > R:
            raise ValueError(
                f"iterate {it} left the radius-R ball: Y-norm {y_next:.4e} > R = {R:.4e}; "
                f"reduce the deformation parameter a (currently {problem.model.a})"
            )
        if first_increment is None:
            first_increment = increment
        psi = psi_next
        prev_increment = increment
        if increment <= max(tol * first_increment, 1e-15):
            break
    else:
        raise RuntimeError(
            f"fixed-point iteration did not converge in {max_iter} steps; "
            f"contraction ratios {['%.3f' % row['lipschitz_sample_max'] for row in rows[-5:]]}"
        )
    phi, _ = invert_laplacian(problem, psi, u0=phi)
    corrected = corrected_field(problem, phi)
    final_min_eigenvalue = corrected.min_eigenvalue()
    if final_min_eigenvalue <= 0:
        raise ValueError(
            f"accepted correction loses positivity: min eigenvalue {final_min_eigenvalue:.6g}"
        )
    return SolverState(
        psi=psi, phi=phi, ball_radius=R, iterations=it,
        projection_leaks=leaks, trace_rows=rows, initial_ma_sup=initial_ma_sup,
        final_ma_sup=float(np.max(np.abs(ma_residual(problem, corrected)))),
        final_min_eigenvalue=final_min_eigenvalue,
        mean_zero_defect=abs(weighted_mean(problem, psi)), corrected=corrected,
    )


# ---------------------------------------------------------------------------
# random fields and empirical diagnostics


@functools.cache
def _random_field_modes():
    """The nonzero modes of the random-field band in lexicographic order
    and their amplitudes, made once per process; read-only, since every
    call shares them."""
    box = _lattice_box(RANDOM_FIELD_KMAX)
    modes = np.delete(box, len(box) // 2, axis=0)
    # Python's pow, which numpy's vectorized power need not match to
    # the last bit
    amp = np.array([(1.0 + s) ** -RANDOM_FIELD_DECAY for s in np.sum(modes**2, axis=1).tolist()])
    modes.flags.writeable = False
    amp.flags.writeable = False
    return modes, amp


def random_smooth_field(grid, rng):
    """Band-limited random real field with zero plain mean.

    Every nonzero mode k in {-RANDOM_FIELD_KMAX, ..., RANDOM_FIELD_KMAX}^4
    gets amplitude (1 + |k|^2)^-RANDOM_FIELD_DECAY times one complex
    normal, drawn in lexicographic mode order.

    The field is the real part of the inverse FFT of that spectrum,
    taken in ifftn's passes (axis 3 first, axis 0 last), where each pass
    transforms only the lines that hold a mode: the band's indices along
    the axes already transformed span whole lines, the others only the
    band."""
    n = grid.n
    modes, amp = _random_field_modes()
    z = rng.standard_normal((len(modes), 2))
    # grid indices of the band along one axis, ascending
    band = np.unique(np.arange(-RANDOM_FIELD_KMAX, RANDOM_FIELD_KMAX + 1) % n)
    spec = np.zeros((len(band),) * 4, dtype=complex)
    spec[tuple(np.searchsorted(band, modes % n).T)] = amp * (z[:, 0] + 1j * z[:, 1])
    for axis in (3, 2, 1, 0):
        lines = np.zeros(spec.shape[:axis] + (n,) + spec.shape[axis + 1:], dtype=complex)
        lines[(slice(None),) * axis + (band,)] = spec
        spec = np.fft.ifft(lines, axis=axis, out=lines)
    f = spec.real * n**2
    f -= f.mean()
    return f


def scaled_ball_samples(problem, params, rng, count):
    """Mean-zero random fields scaled to a uniform random fraction in
    [0.2, 0.9] of the radius-R ball of the Y-norm."""
    R = params.ball_radius(problem.model.a)
    out = []
    for _ in range(count):
        f = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
        y = y_norm(problem, params, f)
        target = R * rng.uniform(0.2, 0.9)
        out.append(f * (target / y))
    return out


def lipschitz_ratios(problem, params, n_pairs=20, seed=0):
    """Measured contraction ratios of the fixed-point map over random
    pairs inside the ball."""
    rng = np.random.default_rng(seed)
    samples = scaled_ball_samples(problem, params, rng, 2 * n_pairs)
    ratios = []
    for i in range(n_pairs):
        p1, p2 = samples[2 * i], samples[2 * i + 1]
        f1 = fixed_point_map(problem, p1)[0]
        f2 = fixed_point_map(problem, p2)[0]
        num = y_norm(problem, params, f1 - f2)
        den = y_norm(problem, params, p1 - p2)
        ratios.append(num / den)
    return np.array(ratios)


def quadratic_envelope(problem, params, n_pairs=50, seed=0):
    """Empirical constant in the quadratic-remainder difference bound
    |Q(u1) - Q(u2)|_Y <= C a^(-2 alpha) |u1-u2|_X |u1+u2|_X."""
    rng = np.random.default_rng(seed)
    a = problem.model.a
    ratios = []
    for _ in range(n_pairs):
        psi1, psi2 = scaled_ball_samples(problem, params, rng, 2)
        u1, _ = invert_laplacian(problem, psi1)
        u2, _ = invert_laplacian(problem, psi2)
        q_diff = quadratic_Q(problem, u1) - quadratic_Q(problem, u2)
        diff = y_norm(problem, params, project_mean_zero(problem, q_diff))
        den = a ** (-2.0 * params.alpha) * x_norm(problem, params, u1 - u2) * x_norm(
            problem, params, u1 + u2
        )
        ratios.append(diff / den)
    ratios = np.array(ratios)
    return {"ratios": ratios, "fitted_constant": float(ratios.max())}


def inverse_bound_diagnostic(problem, params, n_fields=20, seed=0):
    """Measured X/Y operator ratios of the inversion over random data."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_fields):
        f = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
        u, _ = invert_laplacian(problem, f)
        ratios.append(x_norm(problem, params, u) / y_norm(problem, params, f))
    return np.array(ratios)


# ---------------------------------------------------------------------------
# spectrum and uniqueness


def lambda1_estimate(problem, tol=1e-6, seed=7):
    """Smallest nonzero eigenvalue of minus the Laplacian.

    Rayleigh-Ritz on an inverse-iteration Krylov subspace; robust to
    the near-degenerate low cluster that plain power iteration cannot
    separate.  Stops once the bottom Ritz value is stable to tol."""
    rng = np.random.default_rng(seed)
    prod = np.empty(problem.shape)

    def wip(u, v):
        np.multiply(problem.weight, u, out=prod)
        return float(np.sum(np.multiply(prod, v, out=prod)))

    basis = []
    v = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
    v /= np.sqrt(wip(v, v))
    basis.append(v)
    # one -laplacian image per basis vector, made when a Ritz step first
    # needs it; the Ritz matrix grows by one row and column per image
    images = []
    M = np.empty((LAMBDA1_KRYLOV_DIM + 1, LAMBDA1_KRYLOV_DIM + 1))
    prev = None
    for _ in range(LAMBDA1_KRYLOV_DIM):
        u, _ = invert_laplacian(problem, basis[-1], tol=LAMBDA1_INVERT_TOL)
        u = project_mean_zero(problem, u)
        for b in basis:
            c = wip(u, b)
            u -= np.multiply(b, c, out=prod)
        nrm = np.sqrt(wip(u, u))
        if nrm < 1e-13:
            break
        u /= nrm
        basis.append(u)
        m = len(basis)
        for k in range(len(images), m):
            image = laplacian(problem, basis[k])
            images.append(np.negative(image, out=image))
            for i in range(k):
                M[i, k] = wip(basis[i], images[k])
                M[k, i] = wip(basis[k], images[i])
            M[k, k] = wip(basis[k], images[k])
        G = M[:m, :m]
        ritz = np.linalg.eigvalsh(0.5 * (G + G.T))
        bottom = float(ritz[0])
        if prev is not None and abs(bottom - prev) <= tol * abs(bottom):
            return bottom
        prev = bottom
    if prev is None:
        raise RuntimeError("eigenvalue iteration produced no Ritz estimate")
    return prev


def poincare_check(problem, lam1):
    """Spectral-gap inequality |u|_L2^2 <= (1/lam1) |grad u|_L2^2 for
    random mean-zero fields, with forward-difference energy."""
    rng = np.random.default_rng(POINCARE_SEED)
    dx = problem.spacing
    d = np.empty(problem.shape)
    margins = []
    for _ in range(POINCARE_FIELDS):
        u = random_smooth_field(problem.grid, rng)
        u -= u.mean()
        l2sq = float(np.mean(np.square(u, out=d)))
        energy = 0.0
        for ax in range(4):
            # d = (u(x + e_ax) - u(x)) / dx, periodic
            u_ax, d_ax = np.moveaxis(u, ax, 0), np.moveaxis(d, ax, 0)
            np.subtract(u_ax[1:], u_ax[:-1], out=d_ax[:-1])
            np.subtract(u_ax[0], u_ax[-1], out=d_ax[-1])
            d /= dx
            energy += float(np.mean(np.square(d, out=d)))
        margins.append(energy / lam1 - l2sq)
    margins = np.array(margins)
    return {"all_pass": bool(np.all(margins >= -1e-10)), "margins": margins}


def bochner_ratio(grid, u):
    """Flat-torus comparison of the full Hessian energy against the
    Laplacian energy; at most one for these stencils.  Undefined, and a
    ValueError, for a field with zero Laplacian energy (a constant)."""
    dx = grid.spacing
    u = np.asarray(u, dtype=float)
    hess = 0.0
    for m, h in _second_differences(u, dx):
        hess += m * float(np.mean(h**2))
    lap = sum(_second_diff(u, ax, dx) for ax in range(4))
    denom = float(np.mean(lap**2))
    if denom == 0.0:
        raise ValueError("Bochner ratio undefined for a field with zero Laplacian energy")
    return hess / denom


def potential_gap(problem, state_a, state_b):
    """Sup distance of two solves' potentials after removing the mean
    shift."""
    diff = state_a.phi - state_b.phi
    diff = diff - weighted_mean(problem, diff)
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# artifacts


TRACE_COLUMNS = ["iter", "y_norm_psi", "lipschitz_sample_max", "ma_sup_residual", "min_eigenvalue"]


def _plain(obj):
    """numpy scalars and arrays as the Python values json writes."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot render {type(obj).__name__} in a JSON artifact")


def json_text(obj, indent=2):
    """Deterministic JSON through json.dumps: sorted keys, floats in
    Python's shortest round-trip form, numpy values as plain ones, and
    ValueError on NaN or infinity; indent=None renders a single line."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False, default=_plain)


def dump_json(obj, path):
    text = json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_trace_csv(state, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in state.trace_rows:
            writer.writerow([row[c] for c in TRACE_COLUMNS])


def write_summary_json(state, path, extra):
    summary = {
        # banach_solve raises unless the iteration converges
        "converged": True,
        "iterations": state.iterations,
        "ball_radius": state.ball_radius,
        "y_norm_final": state.trace_rows[-1]["y_norm_psi"],
        "initial_ma_sup": state.initial_ma_sup,
        "final_ma_sup": state.final_ma_sup,
        "residual_ratio": (state.final_ma_sup / state.initial_ma_sup
                           if state.initial_ma_sup > 0 else 0.0),
        "min_eigenvalue": state.final_min_eigenvalue,
        "mean_zero_defect": state.mean_zero_defect,
    }
    summary.update(extra)
    dump_json(summary, path)
    return summary
