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
spacing and the periodic wrap, and the flat spectrum flat_axis_symbol,
which the preconditioner, poincare_check and the lambda1 report read,
scales by 1/side^2, so the same code solves either.  The glued field,
e_a, the weights and the fixed point are (Z/2)^4-invariant, so a solve
on the quotient's (n/2)^4 nodes is the unit-torus solve restricted to
them, up to the rounding of sums over fewer terms.  The random fields
behind lambda1_estimate and the sampled diagnostics are not invariant;
those run on the unit torus.  Each is one inverse FFT of a band of 7^4
modes drawn by _band_spectrum; poincare_check reads its fields'
energies off that band by Parseval and builds no field.

The complex Hessian stencil P(u) = 2 u_{i jbar} uses 3-point second
differences on the diagonal and central-central mixed differences; with
the 2x2 identity det(h+P) = det h + [h:P] + det P
this makes the Monge-Ampere residual of a solved potential collapse to
the solver tolerances instead of an extra discretization error.  The
stencil returns P in the layout of kummer.Field11 data, the four real
components (p11, p22, Re p12, Im p12) along a leading axis, so the
corrected field is field_.data + hessian_parts(phi, dx), and
kummer.hermitian_det and kummer.hermitian_min_eig work on those
components; no complex (..., 2, 2) field is built here.  The stencil
is written once, in _stencil_sums, as four unscaled sums on the rows of
one slab along axis 0, read with a periodic halo row per side: an inner
slab reads its rows and halo as a view of u, and only the first and the
last slab, whose halo wraps, copy theirs; a slab holds the rows that
kummer.slab_rows gives, the one row rule of every slab sweep (the
Hölder one and the field build too), so that its buffers stay in the
per-core cache.  hessian_parts scales the sums into the slabs of P, and
hermitian_bracket weights them by h into the bracket [h : P(u)] behind
the Laplacian and its inversion, without building P.  The inversion is
right-preconditioned BiCGStab, since the stencil operator is not
symmetric on glued fields.  Its preconditioner takes two steps: the flat
inverse, by matrix products with the real eigenbasis of the periodic
second difference along each axis (flat_axis_basis), and then an exact
solve of the glued operator on the 2^4 nodes nearest each site, where
the Eguchi-Hanson cores give the coefficients a contrast growing like
(n a)^2 that the flat inverse cannot see.  The site-box step makes one
hermitian_bracket call on the stacked 4^4 patches around the boxes
(4096 nodes on the unit grid, 256 on the quotient) and applies the
boxes' 16x16 inverses; at n=24 and a = 0.02, 0.05, 0.08 it brings a
lambda1 sweep from 73 to 55 BiCGStab steps.
The solve loop allocates nothing n^4-sized per step: an inversion holds
u, the residual and five work fields (r_hat, p, the operator images v
and t, and z), made once and written in place, with t, dead at both
preconditioner applies, as the flat inverse's scratch; the flat
preconditioner's basis and symbol and the site boxes' inverses are made
once per Problem.  Each Picard step builds one stencil field P of its
potential: Q = det P / det h is read from it, P becomes the corrected
field h + P in place, and the step reads its min eigenvalue (its one
positivity test) and its residual, then drops it before its Y-norms run.
Each other n^4 field lives only as long as it is needed: the work
vectors die with the BiCGStab loop, a warm start's potential receives
the solution in place, the residual checks and the fixed-point image
are computed in place, and hessian_parts needs two slab buffers besides
its result (4.3 fields at 24^4 nodes, 5.2 at 16^4); at a = 0.05 a solve
peaks at 10.0 fields on top of its Problem's 7 at 24^4 nodes and 10.7
at 16^4, and a warm inversion at 6.5 and 8.7 (traced, on either grid:
24^4 nodes are the unit grid at n=24 or the quotient at n=48).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kummer


DEFAULT_INVERT_TOL = 1e-8
# BiCGStab step budget of invert_laplacian
INVERT_MAX_ITER = 600
DEFAULT_FIXED_POINT_TOL = 1e-6
DEFAULT_FIXED_POINT_MAX_ITER = 40
MEAN_ZERO_TOL = 1e-8
# Krylov subspace dimension, Ritz stopping tolerance and inversion
# tolerance of lambda1_estimate
LAMBDA1_KRYLOV_DIM = 16
LAMBDA1_TOL = 1e-6
LAMBDA1_INVERT_TOL = 1e-9
# random-field count and seed of poincare_check
POINCARE_FIELDS = 20
POINCARE_SEED = 11
# band limit and amplitude decay of random_smooth_field
RANDOM_FIELD_KMAX = 3
RANDOM_FIELD_DECAY = 2.0


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
        weight = (kummer.OMEGA_SQ_DENSITY_FACTOR / 2.0) * dets / dets.size
        return cls(model, grid, field_, lam, dets, ea, weight)

    @property
    def spacing(self):
        return self.grid.spacing

    @property
    def shape(self):
        return (self.grid.n,) * 4

    @functools.cached_property
    def weight_total(self):
        """Sum of the volume weights, weighted_mean's denominator."""
        return np.sum(self.weight)

    @functools.cached_property
    def flat_basis(self):
        """The flat preconditioner, made on first use: (Q, inverse), the
        real eigenbasis Q of flat_axis_basis and, on the products of its
        columns, the inverse 4 / (s0 + s1 + s2 + s3) of the flat operator,
        shape (n, n, n, n).  The flat operator is -(1/4) x the standard
        Laplacian, and its inverse kills the constant mode."""
        Q, eigenvalues = flat_axis_basis(self.grid)
        symbol = _axis_sum(eigenvalues, eigenvalues)
        # the constant mode is the only zero of the symbol
        symbol[0, 0, 0, 0] = math.inf
        return Q, np.divide(4.0, symbol, out=symbol)

    @functools.cached_property
    def site_boxes(self):
        """The site-box step of the preconditioner, made on first use:
        (patch, box, h, inverse).

        A site's box is the 2^4 nodes nearest it, corner + {-1, 0} per
        axis, and its patch the 4^4 nodes corner + {-2, ..., 1}, the box
        and the stencil's reach around it; the corners are the sites
        times unit_n mod n, 16 on the unit grid and 1 on the quotient.
        patch and box are open-mesh index tuples, so f[patch] has shape
        (S, 4, 4, 4, 4) and f[box] (S, 2, 2, 2, 2); h holds the field's
        components on the patches, stacked along axis 0; inverse holds
        the (S, 16, 16) inverses of the matrices A_s of -[h : P(.)] on
        each box, zero outside it, probed with one hermitian_bracket
        call on the box unit vectors of every site."""
        n = self.grid.n
        # de-duplicated by a set: np.unique(axis=0) imports numpy.ma, which
        # costs more than the rest of this set-up on the quotient
        nearest = np.rint(kummer.SITES * self.grid.unit_n).astype(int) % n
        corners = np.array(sorted(set(map(tuple, nearest.tolist()))))
        sites = len(corners)
        axes = (corners[:, :, None] + np.arange(-2, 2)) % n

        def mesh(ix):
            m = ix.shape[-1]
            return tuple(ix[:, k].reshape((sites,) + (1,) * k + (m,) + (1,) * (3 - k)) for k in range(4))

        patch, box = mesh(axes), mesh(axes[:, :, 1:3])
        h = self.field_.data[(slice(None),) + patch].reshape(4, 4 * sites, 4, 4, 4)
        units = np.zeros((16, 1, 4, 4, 4, 4))
        units[:, 0, 1:3, 1:3, 1:3, 1:3] = np.eye(16).reshape(16, 2, 2, 2, 2)
        probe = np.broadcast_to(units, (16, sites, 4, 4, 4, 4)).reshape(16 * 4 * sites, 4, 4, 4)
        h_probe = np.broadcast_to(h[:, None], (4, 16) + h.shape[1:]).reshape(4, 16 * 4 * sites, 4, 4, 4)
        images = hermitian_bracket(h_probe, probe, self.spacing).reshape(16, sites, 4, 4, 4, 4)
        # A_s[i, j] = -[h : P(e_j)] at box node i
        A = -images[:, :, 1:3, 1:3, 1:3, 1:3].reshape(16, sites, 16).transpose(1, 2, 0)
        return patch, box, h, np.linalg.inv(A)


def weighted_mean(problem, f):
    return float(np.sum(problem.weight * f) / problem.weight_total)


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


def _stencil_slabs(u, count):
    """Slabs of rows i0:i1 along axis 0 of the C-contiguous u,
    kummer.slab_rows rows each (the last one shorter when the rows do
    not divide n):
    yields (i0, i1, halo, work), with halo holding rows i0 - 1, ..., i1
    of u, wrapped around the torus, and work count slab-sized buffers.

    halo is the view u[i0 - 1:i1 + 1] wherever those rows do not wrap;
    only the first and the last slab copy theirs into a buffer, so u is
    never written and a slab sweep reads the same values either way."""
    n0 = u.shape[0]
    rows = kummer.slab_rows(u[0].nbytes, n0)
    halo = np.empty((rows + 2,) + u.shape[1:])
    work = np.empty((count, rows) + u.shape[1:])
    for i0 in range(0, n0, rows):
        i1 = min(i0 + rows, n0)
        m = i1 - i0
        if 0 < i0 and i1 < n0:
            yield i0, i1, u[i0 - 1:i1 + 1], work[:, :m]
        else:
            np.take(u, range(i0 - 1, i1 + 1), axis=0, out=halo[:m + 2], mode="wrap")
            yield i0, i1, halo[:m + 2], work[:, :m]


def _stencil_sums(halo, a, b, c, d, x):
    """The four unscaled sums of the stencil P = 2 u_{i jbar} on the rows
    halo[1:-1], which halo extends by one row per side along axis 0;
    x is scratch.

    With Sk the neighbour sum and dk = Dk u the central difference along
    axis k, and real coordinates (x1, y1, x2, y2) along the four axes,
    a = S0 + S1 - 4u and b = S2 - 4u + S3 are 2 dx^2 p11 and 2 dx^2 p22,
    and c = D2 d0 + D3 d1 and d = D3 d0 - D2 d1 are 8 dx^2 Re p12 and
    8 dx^2 Im p12.  The mixed sums come first, with d0 and d1 in a and b.
    """
    us = halo[1:-1]
    np.subtract(halo[2:], halo[:-2], out=a)
    _neighbours(us, 1, np.subtract, out=b)
    _neighbours(a, 2, np.subtract, out=c)
    c += _neighbours(b, 3, np.subtract, out=d)
    _neighbours(a, 3, np.subtract, out=d)
    d -= _neighbours(b, 2, np.subtract, out=a)
    np.multiply(us, 4.0, out=x)
    np.add(halo[2:], halo[:-2], out=a)
    a += _neighbours(us, 1, np.add, out=b)
    a -= x
    _neighbours(us, 2, np.add, out=b)
    b -= x
    b += _neighbours(us, 3, np.add, out=x)


def hessian_parts(u, dx):
    """The stencil field P = 2 u_{i jbar} as one (4, ...) array of its
    components (p11, p22, Re p12, Im p12): half the 5-point Laplacian of
    each complex plane on the diagonal, central-central differences off
    it.  The sums of _stencil_sums are written into the slabs of P and
    scaled there, so the only other memory is two slab buffers.
    """
    u = np.ascontiguousarray(u, dtype=float)
    P = np.empty((4,) + u.shape)
    for i0, i1, halo, (x,) in _stencil_slabs(u, 1):
        _stencil_sums(halo, *P[:, i0:i1], x)
        P[:2, i0:i1] *= 0.5 / dx**2
        P[2:, i0:i1] *= 0.5 / (2.0 * dx) ** 2
    return P


def hermitian_bracket(h, u, dx, out=None):
    """[h : P(u)] = h11 p22 + h22 p11 - 2 Re(h12 conj(p12)) for the
    stencil field P = hessian_parts(u, dx) and the components h = (h11,
    h22, Re h12, Im h12) of a field on u's nodes, such as Field11.data,
    without building P; into out (a new array by default), which must
    not share memory with u: the slabs read rows of u that earlier slabs
    of out would have overwritten, so an aliased out raises ValueError.

    The sums of _stencil_sums are weighted by the components of h they
    meet in the bracket, and the stencil factors are applied once per
    diagonal and mixed part.  A constant u maps to exactly zero.  The
    first sum is written into out's slab and the other three into slab
    buffers; every element sees the same operations for any slab size.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if out is None:
        out = np.empty_like(u)
    elif np.may_share_memory(out, u):
        raise ValueError("hermitian_bracket: out may share memory with u")
    h11, h22, re12, im12 = h
    for i0, i1, halo, (b, c, d, x) in _stencil_slabs(u, 4):
        o = out[i0:i1]
        _stencil_sums(halo, o, b, c, d, x)
        o *= h22[i0:i1]
        b *= h11[i0:i1]
        o += b
        o *= 0.5 / dx**2
        # -2 (Re h12 Re p12 + Im h12 Im p12) = -(c Re h12 + d Im h12) / (4 dx^2)
        c *= re12[i0:i1]
        d *= im12[i0:i1]
        c += d
        c *= -0.25 / dx**2
        o += c
    return out


def laplacian(problem, u):
    """Scalar Laplacian of the glued form: [h : P(u)] / det h.

    On the flat torus this is exactly the standard Laplacian (unit
    constant).  Its volume-weighted mean vanishes identically there;
    on resolved glued fields it vanishes only to stencil truncation.
    """
    u = _require_finite(u, "laplacian input")
    out = hermitian_bracket(problem.field_.data, u, problem.spacing)
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


def flat_axis_symbol(grid):
    """Eigenvalues 4 n^2 sin^2(pi k / n) / side^2, k = 0, ..., n - 1, of
    minus the flat 3-point second difference along one periodic axis of
    the grid; the division is exact for side 1 and 1/2."""
    n = grid.n
    return 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2 / grid.side**2


def _axis_sum(s, last):
    """The flat symbol s[k0] + s[k1] + s[k2] + last[k3], in axis order."""
    return s[:, None, None, None] + s[:, None, None] + s[:, None] + last


def flat_axis_basis(grid):
    """Orthonormal real eigenbasis of the flat 3-point second difference
    along one periodic axis of the grid: (Q, eigenvalues), with Q's
    columns the constant, the pairs cos(2 pi k j / n), sin(2 pi k j / n)
    for k = 1, ..., (n - 1) // 2 and, for even n, the alternating
    vector, each normalised; eigenvalues[c] is flat_axis_symbol's value
    at k = (c + 1) // 2, the frequency of column c."""
    n = grid.n
    j = np.arange(n)
    k = np.arange(1, (n + 1) // 2)
    # k j is reduced mod n before scaling, so every phase lies in [0, 2 pi)
    phase = (2.0 * np.pi / n) * (np.outer(j, k) % n)
    Q = np.empty((n, n))
    Q[:, 0] = 1.0 / math.sqrt(n)
    Q[:, 1 : 2 * len(k) : 2] = math.sqrt(2.0 / n) * np.cos(phase)
    Q[:, 2 : 2 * len(k) + 1 : 2] = math.sqrt(2.0 / n) * np.sin(phase)
    if n % 2 == 0:
        Q[:, -1] = (1.0 - 2.0 * (j % 2)) / math.sqrt(n)
    return Q, flat_axis_symbol(grid)[(j + 1) // 2]


def _axis_products(A, x, scratch, out):
    """A applied along each axis of the (n, n, n, n) field x in turn,
    into out, through scratch: one product of A with the (n, n^3) view
    for axis 0, batched products on the (n, n, n^2) and (n^2, n, n)
    views for axes 1 and 2, and one product of the (n^3, n) view with
    A^T for axis 3; the steps alternate between scratch and out, and
    only the first reads x, so x may be out."""
    n = A.shape[0]
    np.matmul(A, x.reshape(n, -1), out=scratch.reshape(n, -1))
    np.matmul(A, scratch.reshape(n, n, n * n), out=out.reshape(n, n, n * n))
    np.matmul(A, out.reshape(n * n, n, n), out=scratch.reshape(n * n, n, n))
    np.matmul(scratch.reshape(-1, n), A.T, out=out.reshape(-1, n))
    return out


def _flat_inverse(rhs, basis, scratch=None, out=None):
    """Multiply rhs by a symbol on the products of a real eigenbasis,
    e.g. to solve the flat Laplacian with zero mean; into out (a new
    array by default).

    basis is (Q, symbol) as in Problem.flat_basis: Q^T acts along each
    axis, the symbol multiplies and Q acts back along each axis, eight
    matrix products in all, through the real field scratch (a new one by
    default), whose contents are lost.  out and scratch are contiguous.
    """
    Q, symbol = basis
    scratch = np.empty_like(rhs) if scratch is None else scratch
    out = _axis_products(Q.T, rhs, scratch, np.empty_like(rhs) if out is None else out)
    out *= symbol
    return _axis_products(Q, out, scratch, out)


def _precondition(problem, p, scratch, z):
    """z = M p, the preconditioner of the BiCGStab steps, into z: the
    flat inverse F p, then on each site's box the exact solve
    z_box += A_s^-1 (p + [h : P(z)])_box of Problem.site_boxes, after
    which [h : P(z)] = -p at every box node.  M is fixed and linear; it
    takes one _flat_inverse on Problem.flat_basis, through the real
    field scratch, whose contents are lost (_bicgstab passes its dead
    operator image t), and one hermitian_bracket on the S stacked 4^4
    patches."""
    _flat_inverse(p, problem.flat_basis, scratch, z)
    patch, box, h, inverse = problem.site_boxes
    sites = len(inverse)
    bracket = hermitian_bracket(h, z[patch].reshape(4 * sites, 4, 4, 4), problem.spacing)
    r = bracket.reshape(sites, 4, 4, 4, 4)[:, 1:3, 1:3, 1:3, 1:3].reshape(sites, 16, 1)
    r += p[box].reshape(sites, 16, 1)
    z[box] += np.matmul(inverse, r).reshape(sites, 2, 2, 2, 2)
    return z


def _glued_operator(problem, u, out=None):
    """B(u) = -[h : P(u)] minus its mean, the operator the inversion
    solves with, into out (a new array by default); its values sum to
    zero.  Returns B(u) and the mean of [h : P(u)] it removed."""
    out = hermitian_bracket(problem.field_.data, u, problem.spacing, out)
    mean = out.mean()
    return np.subtract(mean, out, out=out), float(mean)


def invert_laplacian(problem, f, tol=DEFAULT_INVERT_TOL, u0=None):
    """Solve laplacian(u) = f for mean-zero u by right-preconditioned
    BiCGStab (van der Vorst 1992), in at most INVERT_MAX_ITER steps,
    from u0 (zero by default).  A float array u0 is not copied: the
    solution is written into it and it is returned, so a warm start
    holds one field fewer.

    The stencil operator is not symmetric on glued fields, hence a
    short-recurrence method for non-symmetric systems; each step applies
    the preconditioner and the operator twice, or once when its half
    step already converges.  The preconditioner, _precondition, is the
    flat inverse on the real eigenbasis followed by an exact solve on the
    2^4 nodes nearest each site; being fixed and linear, it leaves
    BiCGStab's recurrences and its true residual as they are.  The
    operator's range misses the constant direction by a truncation-level
    amount on non-flat glued fields, so convergence is measured on the
    zero-sum projection of the residual; the leftover constant defect, the weighted mean of
    laplacian(u) - f, is reported in the info dict, not hidden.  It is
    |mean [h : P(u)] - mean (f det h)| / mean det h, read from the
    bracket means the operator applies remove: [h : P(u)] is linear in
    u and zero on constants.
    """
    f = _require_finite(f, "inversion data")
    # operator B(u) = -[h : P(u)], rhs g = -f det h; both sum to zero
    # when f has zero weighted mean
    g = -f * problem.dets
    g_mean = float(g.mean())
    g -= g_mean
    scale = float(np.linalg.norm(g))
    u = np.zeros_like(f) if u0 is None else np.asarray(u0, dtype=float)
    if scale == 0.0:
        u[...] = 0.0
        return u, {"iterations": 0, "relative_residual": 0.0, "mean_defect": 0.0, "history": [0.0]}
    bracket_mean = 0.0
    if u0 is not None:
        applied, bracket_mean = _glued_operator(problem, u)
        g -= applied
        del applied
    # g is the residual from here on
    history = [float(np.linalg.norm(g)) / scale]
    it, step_mean = _bicgstab(problem, u, g, scale, tol, history) if history[0] > tol else (0, 0.0)
    del g
    u -= weighted_mean(problem, u)
    _require_finite(u, "inversion result")
    info = {
        "iterations": it,
        "relative_residual": history[-1],
        "mean_defect": abs(bracket_mean + step_mean + g_mean) / float(problem.dets.mean()),
        "history": history,
    }
    return u, info


def _bicgstab(problem, u, r, scale, tol, history):
    """The BiCGStab steps of invert_laplacian: updates u and the
    residual r in place, appends each step's relative residual to
    history and returns the number of steps and the mean of
    [h : P(u_end - u_start)].

    The work vectors are made once and written in place, and die on
    return: shadow residual r_hat, search direction p, operator images
    v and t and the preconditioned vector z, five fields besides u and
    r.  t is dead at both preconditioner applies (its last value has
    already been subtracted from r, and the operator overwrites it
    next), so it is also the flat inverse's scratch field."""
    r_hat = r.copy()
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    t = np.empty_like(r)
    z = np.empty_like(r)
    rho = alpha = omega = 1.0
    bracket_mean = 0.0
    for it in range(1, INVERT_MAX_ITER + 1):
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
        _precondition(problem, p, t, z)
        _, z_mean = _glued_operator(problem, z, v)
        pivot = float(np.vdot(r_hat, v))
        if pivot == 0.0:
            raise RuntimeError(f"BiCGStab breakdown at step {it}: <r_hat, v> = 0")
        alpha = rho / pivot
        z *= alpha
        u += z
        bracket_mean += alpha * z_mean
        # half step: r becomes s = r - alpha v
        r -= np.multiply(v, alpha, out=t)
        rel = float(np.linalg.norm(r)) / scale
        if rel > tol:
            _precondition(problem, r, t, z)
            _, z_mean = _glued_operator(problem, z, t)
            omega = float(np.vdot(t, r)) / float(np.vdot(t, t))
            z *= omega
            u += z
            bracket_mean += omega * z_mean
            t *= omega
            r -= t
            rel = float(np.linalg.norm(r)) / scale
        history.append(rel)
        if rel <= tol:
            return it, bracket_mean
        if it >= 80 and rel > 0.5 * history[it - 60]:
            raise RuntimeError(
                f"inversion stagnated at relative residual {rel:.3e} after {it} iterations; "
                f"history tail {['%.2e' % h for h in history[-5:]]}"
            )
    raise RuntimeError(
        f"inversion did not reach tolerance {tol:.1e} in {INVERT_MAX_ITER} iterations "
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

    The sweep runs over slabs of kummer.slab_rows rows along axis 0, so
    that a slab and its shifted copies stay in the per-core cache while
    every offset visits them.  The shifted values are read from one
    periodic padding of f, as wide as the largest component of the kept
    offsets; within a slab the offsets are grouped by their last
    component, whose shift is made contiguous once per group, and the
    rest are views.
    Each offset's sup is the exact max over all slabs, so the result
    does not depend on the slab size.
    """
    f = np.asarray(f, dtype=float)
    offsets = _holder_offsets(dx, r_ball)
    reach = max((int(np.max(np.abs(d))) for d, _ in offsets), default=1)
    n0, n1, n2, n3 = f.shape
    # the kept offsets have a non-negative first component
    padded = np.pad(f, ((0, reach), (reach, reach), (reach, reach), (reach, reach)), mode="wrap")
    by_last = {}
    for k, (d, _) in enumerate(offsets):
        by_last.setdefault(int(d[3]), []).append((k, int(d[0]), reach + int(d[1]), reach + int(d[2])))
    rows = kummer.slab_rows(f[0].nbytes, n0)
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
    return max((peak / dist**alpha for peak, (_, dist) in zip(peaks, offsets)), default=0.0)


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


def ma_residual(problem, det):
    """Pointwise volume-equation defect 2 det / lambda - 1 of the
    determinants det of a corrected field (problem.dets for phi = 0)."""
    return 2.0 * det / problem.lam - 1.0


def _positive_residual(problem, corrected, failure):
    """(sup of the MA residual, min eigenvalue) of a corrected field; a
    ValueError starting with failure unless the min eigenvalue is positive."""
    mineig = corrected.min_eigenvalue()
    if not mineig > 0:
        raise ValueError(f"{failure}: min eigenvalue {mineig:.6g}")
    return float(np.max(np.abs(ma_residual(problem, corrected.det())))), mineig


def fixed_point_map(problem, psi, phi0=None):
    """One application of psi -> projection of -e_a - Q(inverse(psi));
    the inversion starts from phi0 (zero by default) and writes phi
    into it.

    Returns the image, the potential phi, the corrected field of phi and
    the inversion's info.  One stencil field P(phi) gives both Q(phi)
    and the corrected field, which takes over P's memory."""
    phi, info = invert_laplacian(problem, psi, u0=phi0)
    # invert_laplacian has checked phi finite
    P = hessian_parts(phi, problem.spacing)
    # -(Q + e_a) rounds exactly as -e_a - Q, without a -e_a temporary
    raw = _remainder_of(problem, P)
    raw += problem.ea
    np.negative(raw, out=raw)
    leak = weighted_mean(problem, raw)
    raw -= leak
    return raw, phi, _corrected(problem, P), {"projection_leak": leak, "invert": info}


def banach_solve(problem, params, tol=DEFAULT_FIXED_POINT_TOL, max_iter=DEFAULT_FIXED_POINT_MAX_ITER,
                 psi0=None, enforce_ball=True):
    """Iterate the contraction map from psi0 (zero by default) until the
    Y-norm increment falls below tol times the first increment.

    Raises if an iterate leaves the radius-R ball (advice: shrink a), if
    the min eigenvalue of a step's or the accepted corrected field, the
    one positivity test of each, is not positive, or on non-convergence;
    and up front for a psi0 not shaped like the problem's grid, such as
    a unit-torus field given to a problem on the quotient grid.
    """
    if psi0 is not None and np.shape(psi0) != problem.shape:
        raise ValueError(f"psi0 has shape {np.shape(psi0)}, but the problem's grid has shape {problem.shape}")
    R = params.ball_radius(problem.model.a)
    psi = np.zeros(problem.shape) if psi0 is None else project_mean_zero(problem, np.asarray(psi0, dtype=float))
    # the zero start has Y-norm 0, and the first increment psi_next - 0
    # is psi_next bit for bit: neither needs a Hölder sweep
    y0 = 0.0 if psi0 is None else y_norm(problem, params, psi)
    if enforce_ball and y0 > R:
        raise ValueError(
            f"starting field outside the radius-R ball: Y-norm {y0:.4e} > R = {R:.4e}"
        )
    # the corrected field of phi = 0 is h, which build_omega0 checked
    initial_ma_sup = float(np.max(np.abs(ma_residual(problem, problem.dets))))
    rows = []
    first_increment = None
    prev_increment = None
    phi = None
    for it in range(1, max_iter + 1):
        # each inversion after the first starts from the previous
        # potential and writes the new one into it
        psi_next, phi, corrected, _ = fixed_point_map(problem, psi, phi0=phi)
        ma_sup, mineig = _positive_residual(problem, corrected, "corrected form not positive definite")
        # the corrected field is spent before the Y-norms run
        del corrected
        y_next = y_norm(problem, params, psi_next)
        increment = y_next if it == 1 and psi0 is None else y_norm(problem, params, psi_next - psi)
        ratio = float("nan") if prev_increment in (None, 0.0) else increment / prev_increment
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
    final_ma_sup, final_min_eigenvalue = _positive_residual(
        problem, corrected, "accepted correction loses positivity")
    return SolverState(
        psi=psi, phi=phi, ball_radius=R, iterations=it,
        trace_rows=rows, initial_ma_sup=initial_ma_sup,
        final_ma_sup=final_ma_sup, final_min_eigenvalue=final_min_eigenvalue,
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


def _band(n):
    """The grid indices, ascending, of the modes -RANDOM_FIELD_KMAX, ...,
    RANDOM_FIELD_KMAX along one axis of n nodes, found with a set, not
    np.unique, which imports numpy.ma on its first call."""
    return np.array(sorted(set((np.arange(-RANDOM_FIELD_KMAX, RANDOM_FIELD_KMAX + 1) % n).tolist())))


def _band_spectrum(grid, rng):
    """One draw of the random-field band: (band, S), with band = _band(n)
    and S the spectrum on band^4: every nonzero mode k gets amplitude
    (1 + |k|^2)^-RANDOM_FIELD_DECAY times one complex normal, drawn in
    lexicographic mode order; where modes alias (n < 7), the last one
    drawn is kept."""
    n = grid.n
    modes, amp = _random_field_modes()
    z = rng.standard_normal((len(modes), 2))
    band = _band(n)
    S = np.zeros((len(band),) * 4, dtype=complex)
    S[tuple(np.searchsorted(band, modes % n).T)] = amp * (z[:, 0] + 1j * z[:, 1])
    return band, S


def random_smooth_field(grid, rng):
    """Band-limited random real field with zero plain mean: the real
    part of the inverse FFT of _band_spectrum's draw, times n^2."""
    n = grid.n
    band, S = _band_spectrum(grid, rng)
    spec = np.zeros((n,) * 4, dtype=complex)
    spec[np.ix_(band, band, band, band)] = S
    f = np.fft.ifftn(spec).real * n**2
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


def lambda1_estimate(problem, tol=LAMBDA1_TOL, seed=7):
    """Smallest nonzero eigenvalue of minus the Laplacian.

    Rayleigh-Ritz on an inverse-iteration Krylov subspace; robust to
    the near-degenerate low cluster that plain power iteration cannot
    separate.  Stops once the bottom Ritz value is stable to tol.

    A Gram-Schmidt coefficient or norm <u, v>_w = sum w u v is one
    multiply of w into a scratch field and one np.vdot.  Each basis
    vector's image is kept as w Delta b, scaled in place on laplacian's
    result, so a Ritz entry <b_i, -Delta b_k>_w is minus one np.vdot."""
    rng = np.random.default_rng(seed)
    weight = problem.weight
    prod = np.empty(problem.shape)

    def wip(u, v):
        return float(np.vdot(np.multiply(weight, u, out=prod), v))

    basis = []
    v = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
    v /= np.sqrt(wip(v, v))
    basis.append(v)
    # one weighted laplacian image per basis vector, made when a Ritz
    # step first needs it; the Ritz matrix grows by one row and column
    # per image
    images = []
    M = np.empty((LAMBDA1_KRYLOV_DIM + 1, LAMBDA1_KRYLOV_DIM + 1))
    prev = None
    for _ in range(LAMBDA1_KRYLOV_DIM):
        # invert_laplacian returns u with zero weighted mean
        u, _ = invert_laplacian(problem, basis[-1], tol=LAMBDA1_INVERT_TOL)
        for b in basis:
            c = wip(b, u)
            u -= np.multiply(b, c, out=prod)
        nrm = np.sqrt(wip(u, u))
        if nrm < 1e-13:
            break
        u /= nrm
        basis.append(u)
        m = len(basis)
        for k in range(len(images), m):
            image = laplacian(problem, basis[k])
            images.append(np.multiply(image, weight, out=image))
            for i in range(k):
                M[i, k] = -float(np.vdot(basis[i], images[k]))
                M[k, i] = -float(np.vdot(basis[k], images[i]))
            M[k, k] = -float(np.vdot(basis[k], images[k]))
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
    the random fields u of random_smooth_field, mean removed, with
    forward-difference energy; margins are the right side minus the left.

    Both sides are summed by Parseval on the band, with no grid field: u
    has the spectrum n^2 F, F_k = (S_k + conj S_-k) / 2 for the draw S
    (-k mod n; F_0 = 0, since no drawn mode aliases onto 0 for n >= 4),
    and a forward difference along an axis multiplies mode k by the flat
    axis symbol, so the margin is
    n^-4 sum_k |F_k|^2 (sum_axes symbol(k_axis) / lam1 - 1)."""
    rng = np.random.default_rng(POINCARE_SEED)
    n = problem.grid.n
    band = _band(n)
    neg = np.searchsorted(band, -band % n)
    s = flat_axis_symbol(problem.grid)[band]
    weight = _axis_sum(s, s) / lam1 - 1.0
    margins = []
    for _ in range(POINCARE_FIELDS):
        _, S = _band_spectrum(problem.grid, rng)
        F = 0.5 * (S + np.conj(S[np.ix_(neg, neg, neg, neg)]))
        margins.append(float(np.sum(np.square(np.abs(F)) * weight)) / n**4)
    margins = np.array(margins)
    return {"all_pass": bool(np.all(margins >= -1e-10)), "margins": margins}


def bochner_ratio(grid, u):
    """Flat-torus comparison of the full Hessian energy against the
    Laplacian energy; at most one for these stencils.  Undefined, and a
    ValueError, for a field with zero Laplacian energy (a constant)."""
    dx = grid.spacing
    u = np.asarray(u, dtype=float)
    hess = lap = 0.0
    for m, h in _second_differences(u, dx):
        hess += m * float(np.mean(h**2))
        if m == 1.0:
            lap = lap + h
    denom = float(np.mean(lap**2))
    if denom == 0.0:
        raise ValueError("Bochner ratio undefined for a field with zero Laplacian energy")
    return hess / denom


def potential_gap(problem, state_a, state_b):
    """Sup distance of two solves' potentials after removing the mean
    shift."""
    return float(np.max(np.abs(project_mean_zero(problem, state_a.phi - state_b.phi))))


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


def write_csv(path, columns, rows, footer=None):
    """The one CSV dialect of the artifacts: csv.writer with \\n line
    ends, a header row of columns, then each row's values in that order,
    and a footer, when given, as a last line "# " + its one-line JSON."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        if footer is not None:
            fh.write("# " + json_text(footer, indent=None) + "\n")


def write_trace_csv(state, path):
    write_csv(path, TRACE_COLUMNS, state.trace_rows)


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
