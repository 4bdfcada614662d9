"""Discrete analysis layer for the glued structure.

Weighted Sobolev/Hölder norms, the scalar Laplacian attached to the
glued (1,1) field, its mean-zero inversion, the quadratic volume
remainder, the contraction fixed-point iteration, and spectral
diagnostics (smallest nonzero eigenvalue, Poincaré and Bochner checks,
two-seed uniqueness).

Scalar fields live on the cell-centered torus grid as real (n,n,n,n)
arrays.  The complex Hessian stencil P(u) = 2 u_{i jbar} uses 3-point
second differences on the diagonal and central-central mixed
differences; with the 2x2 identity det(h+P) = det h + [h:P] + det P
this makes the Monge-Ampere residual of a solved potential collapse to
the solver tolerances instead of an extra discretization error.  The
stencil returns P in the layout of kummer.Field11 data, the four real
components (p11, p22, Re p12, Im p12) along a leading axis, so the
corrected field is field_.data + hessian_parts(phi, dx), and the
bracket, kummer.hermitian_det and kummer.hermitian_min_eig work on
those components; no complex (..., 2, 2) field is built here.  The
inversion's flat preconditioner uses real-to-complex FFTs on the half
spectrum.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import kummer

log = logging.getLogger(__name__)

DEFAULT_INVERT_TOL = 1e-8
DEFAULT_FIXED_POINT_TOL = 1e-6
MEAN_ZERO_TOL = 1e-8


# ---------------------------------------------------------------------------
# parameters and problem bundle


@dataclass(frozen=True)
class NormParams:
    """Exponents of the weighted solution/error norms.

    alpha is the Hölder exponent, p the integrability exponent with
    derived weight exponent eps = 2 - 4/p, and r_ball the sampling
    radius for the local Hölder seminorm (defaults to max(a, 2 grid
    spacings) at use time).
    """

    alpha: float = 0.1
    p: float = 6.0
    eps: float | None = None
    r_ball: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 / 3.0):
            raise ValueError(f"Hölder exponent must lie in (0, 1/3), got {self.alpha}")
        eps = self.resolved_eps()
        if eps <= 0:
            raise ValueError(f"integrability exponent p={self.p} gives nonpositive weight exponent")
        if eps / 2.0 - 2.0 * self.alpha <= 0:
            raise ValueError(
                f"contraction window violated: eps/2 - 2 alpha = {eps / 2.0 - 2.0 * self.alpha:.4g} <= 0"
            )

    def resolved_eps(self):
        return self.eps if self.eps is not None else 2.0 - 4.0 / self.p

    def contraction_bound(self, a):
        """Analytic contraction scalar 2 a^(eps/2 - 2 alpha)."""
        return 2.0 * a ** (self.resolved_eps() / 2.0 - 2.0 * self.alpha)

    def ball_radius(self, a):
        """Fixed-point ball radius a^(eps/2)."""
        return a ** (self.resolved_eps() / 2.0)

    def resolved_r_ball(self, a, spacing):
        return self.r_ball if self.r_ball is not None else max(a, 2.0 * spacing)


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
        lam = kummer.volume_ratio_lambda(model, grid, field_)
        field_.lam = lam
        ea = kummer.error_density_ea(model, grid, field_, lam)
        dets = field_.det()
        # Riemannian volume weights: half the squared-form density
        weight = 4.0 * dets / dets.size
        return cls(model, grid, field_, lam, dets, ea, weight)

    @property
    def spacing(self):
        return self.grid.spacing

    @property
    def shape(self):
        return (self.grid.n,) * 4


def weighted_mean(problem, f):
    return float(np.sum(problem.weight * f) / np.sum(problem.weight))


def project_mean_zero(problem, f):
    return f - weighted_mean(problem, f)


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


def _mixed_diff(f, ax1, ax2, dx):
    return _central_diff(_central_diff(f, ax1, dx), ax2, dx)


def hessian_parts(u, dx):
    """The stencil field P = 2 u_{i jbar} as one (4, ...) array of its
    components (p11, p22, Re p12, Im p12).

    Real coordinates order (x1, y1, x2, y2) along the four grid axes.
    The diagonal entries are half the 5-point Laplacian of each complex
    plane; the four central-central mixed differences share the
    central differences along x1 and y1.
    """
    u = np.ascontiguousarray(u, dtype=float)
    four_u = 4.0 * u
    P = np.empty((4,) + u.shape)
    p11, p22, re12, im12 = P
    _neighbours(u, 0, np.add, out=p11)
    p11 += _neighbours(u, 1, np.add)
    p11 -= four_u
    p11 *= 0.5 / dx**2
    _neighbours(u, 2, np.add, out=p22)
    p22 += _neighbours(u, 3, np.add)
    p22 -= four_u
    p22 *= 0.5 / dx**2
    d0 = _neighbours(u, 0, np.subtract)
    d1 = _neighbours(u, 1, np.subtract)
    _neighbours(d0, 2, np.subtract, out=re12)
    re12 += _neighbours(d1, 3, np.subtract)
    re12 *= 0.5 / (2.0 * dx) ** 2
    _neighbours(d0, 3, np.subtract, out=im12)
    im12 -= _neighbours(d1, 2, np.subtract)
    im12 *= 0.5 / (2.0 * dx) ** 2
    return P


def _bracket_weights(field_):
    """Weights w with [h : P] = sum_k w_k P_k over the real components
    of P: the mixed determinant polarization h11 p22 + h22 p11
    - 2 Re(h12 conj(p12))."""
    h11, h22, re12, im12 = field_.data
    return h22, h11, -2.0 * re12, -2.0 * im12


def _bracket(w, P):
    """sum_k w_k P_k; scales the components of P in place."""
    out = w[0] * P[0]
    for wk, pk in zip(w[1:], P[1:]):
        pk *= wk
        out += pk
    return out


def laplacian(problem, u):
    """Scalar Laplacian of the glued form: [h : P(u)] / det h.

    On the flat torus this is exactly the standard Laplacian (unit
    constant).  Its volume-weighted mean vanishes identically there;
    on resolved glued fields it vanishes only to stencil truncation.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("laplacian input must be finite")
    P = hessian_parts(u, problem.spacing)
    return _bracket(_bracket_weights(problem.field_), P) / problem.dets


def quadratic_Q(problem, u):
    """Quadratic volume remainder det P(u) / det h."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("quadratic remainder input must be finite")
    return kummer.hermitian_det(hessian_parts(u, problem.spacing)) / problem.dets


# ---------------------------------------------------------------------------
# mean-zero inversion


def flat_symbol(n):
    """Eigenvalues of minus the flat grid Laplacian on the real-FFT half
    spectrum, shape (n, n, n, n // 2 + 1)."""
    k = np.arange(n)
    s = 4.0 * n**2 * np.sin(np.pi * k / n) ** 2
    h = s[: n // 2 + 1]
    return (
        s[:, None, None, None]
        + s[None, :, None, None]
        + s[None, None, :, None]
        + h[None, None, None, :]
    )


def _flat_inverse(rhs, inverse_symbol):
    """Multiply the real spectrum of rhs by a half-spectrum symbol, e.g.
    to solve the flat Laplacian with zero mean."""
    hat = np.fft.rfftn(rhs, axes=(0, 1, 2, 3))
    hat *= inverse_symbol
    return np.fft.irfftn(hat, s=rhs.shape, axes=(0, 1, 2, 3))


def _glued_operator(problem):
    """The operator B(u) = -[h : P(u)], minus its mean, that the PCG
    inverts."""
    w = _bracket_weights(problem.field_)

    def apply_B(u):
        out = _bracket(w, hessian_parts(u, problem.spacing))
        return out.mean() - out

    return apply_B


def invert_laplacian(problem, f, tol=DEFAULT_INVERT_TOL, max_iter=600):
    """Solve laplacian(u) = f for mean-zero u by preconditioned
    conjugate directions.

    The stencil operator's range misses the constant direction by a
    truncation-level amount on non-flat glued fields, so convergence is
    measured on the zero-sum projection of the residual; the leftover
    constant defect is reported in the info dict, not hidden.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("inversion data must be finite")
    # operator B(u) = -[h : P(u)], rhs g = -f det h; both sum to zero
    # when f has zero weighted mean
    g = -f * problem.dets
    g = g - g.mean()
    scale = float(np.linalg.norm(g))
    if scale == 0.0:
        return np.zeros_like(f), {"iterations": 0, "relative_residual": 0.0,
                                  "mean_defect": 0.0, "history": [0.0]}
    # the flat operator is -(1/4) x standard Laplacian; its inverse
    # kills the constant mode
    symbol = flat_symbol(problem.grid.n)
    with np.errstate(divide="ignore"):
        inverse_symbol = np.where(symbol > 0, 4.0 / symbol, 0.0)
    apply_B = _glued_operator(problem)
    u = np.zeros_like(f)
    r = g.copy()
    z = _flat_inverse(r, inverse_symbol)
    p = z.copy()
    rz = float(np.sum(r * z))
    history = [1.0]
    for it in range(1, max_iter + 1):
        Bp = apply_B(p)
        denom = float(np.sum(p * Bp))
        if denom <= 0:
            raise RuntimeError(
                f"conjugate-direction breakdown at iteration {it}: curvature {denom:.3g}"
            )
        alpha = rz / denom
        u += alpha * p
        r -= alpha * Bp
        rel = float(np.linalg.norm(r)) / scale
        history.append(rel)
        if rel <= tol:
            break
        if it >= 80 and rel > 0.5 * history[it - 60]:
            raise RuntimeError(
                f"inversion stagnated at relative residual {rel:.3e} after {it} iterations; "
                f"history tail {['%.2e' % h for h in history[-5:]]}"
            )
        z = _flat_inverse(r, inverse_symbol)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise RuntimeError(
            f"inversion did not reach tolerance {tol:.1e} in {max_iter} iterations "
            f"(relative residual {history[-1]:.3e})"
        )
    u = project_mean_zero(problem, u)
    raw = laplacian(problem, u) - f
    info = {
        "iterations": it,
        "relative_residual": history[-1],
        "mean_defect": float(np.abs(np.sum(raw * problem.weight) / np.sum(problem.weight))),
        "history": history,
    }
    return u, info


# ---------------------------------------------------------------------------
# norms


def lp_norm(f, p, weight=None):
    """Volume-weighted L^p norm; uniform unit-volume weights by default."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("norm input must be finite")
    w = np.full(f.shape, 1.0 / f.size) if weight is None else weight
    return float(np.sum(w * np.abs(f) ** p) ** (1.0 / p))


def gradient_components(f, dx):
    return [_central_diff(f, ax, dx) for ax in range(4)]


def hessian_components(f, dx):
    comps = []
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                comps.append(_second_diff(f, i, dx))
            else:
                comps.append(_mixed_diff(f, i, j, dx))
    return comps


def sobolev_l22_norm(f, dx, weight=None):
    """Two-derivative Sobolev norm: L2 norms of f, its gradient, and its
    Hessian, via central differences."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("norm input must be finite")
    w = np.full(f.shape, 1.0 / f.size) if weight is None else weight
    total = float(np.sum(w * f**2))
    for g in gradient_components(f, dx):
        total += float(np.sum(w * g**2))
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                h2 = _second_diff(f, i, dx) ** 2
            else:
                h2 = 2.0 * _mixed_diff(f, i, j, dx) ** 2
            total += float(np.sum(w * h2))
    return float(np.sqrt(total))


def _holder_offsets(dx, r_ball):
    reach = int(np.floor(r_ball / dx))
    if reach < 1:
        reach = 1
    offsets = []
    rng4 = range(-reach, reach + 1)
    for d0 in rng4:
        for d1 in rng4:
            for d2 in rng4:
                for d3 in rng4:
                    d = (d0, d1, d2, d3)
                    if d == (0, 0, 0, 0):
                        continue
                    dist = dx * float(np.linalg.norm(d))
                    if dist <= r_ball:
                        offsets.append((d, dist))
    return offsets


def holder_seminorm(f, dx, alpha, r_ball):
    """Sup of |f(x+d) - f(x)| / |d|^alpha over lattice offsets within
    the sampling ball; coordinate identification, no transport."""
    f = np.asarray(f, dtype=float)
    best = 0.0
    for d, dist in _holder_offsets(dx, r_ball):
        shifted = f
        for ax, k in enumerate(d):
            if k:
                shifted = np.roll(shifted, -k, axis=ax)
        best = max(best, float(np.max(np.abs(shifted - f))) / dist**alpha)
    return best


def holder_norm(f, dx, k, alpha, r_ball):
    """C^{k,alpha} norm: derivative sups up to order k plus the Hölder
    seminorm of the highest derivatives."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("norm input must be finite")
    if k not in (0, 1, 2):
        raise ValueError(f"Hölder order must be 0, 1, or 2, got {k}")
    total = float(np.max(np.abs(f)))
    tops = [f]
    if k >= 1:
        tops = gradient_components(f, dx)
        total += max(float(np.max(np.abs(g))) for g in tops)
    if k == 2:
        tops = hessian_components(f, dx)
        total += max(float(np.max(np.abs(h))) for h in tops)
    total += max(holder_seminorm(t, dx, alpha, r_ball) for t in tops)
    return total


def _require_mean_zero(problem, f):
    mean = weighted_mean(problem, f)
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    if abs(mean) > MEAN_ZERO_TOL * (1.0 + scale):
        raise ValueError(f"norm defined on mean-zero fields; weighted mean {mean:.3e}")
    return f - mean


def x_norm(problem, params, f):
    """Solution norm: a^(-4+eps) L2-Sobolev part plus a^alpha C^{2,alpha}."""
    f = _require_mean_zero(problem, np.asarray(f, dtype=float))
    a = problem.model.a
    eps = params.resolved_eps()
    rb = params.resolved_r_ball(a, problem.spacing)
    return a ** (-4.0 + eps) * sobolev_l22_norm(f, problem.spacing, problem.weight) + a**params.alpha * holder_norm(
        f, problem.spacing, 2, params.alpha, rb
    )


def y_norm(problem, params, f):
    """Error norm: a^(-4+eps) L2 part plus C^{0,alpha}."""
    f = _require_mean_zero(problem, np.asarray(f, dtype=float))
    a = problem.model.a
    eps = params.resolved_eps()
    rb = params.resolved_r_ball(a, problem.spacing)
    return a ** (-4.0 + eps) * lp_norm(f, 2, problem.weight) + holder_norm(
        f, problem.spacing, 0, params.alpha, rb
    )


# ---------------------------------------------------------------------------
# fixed-point iteration


@dataclass
class SolverState:
    """Outcome of the contraction iteration."""

    psi: np.ndarray
    phi: np.ndarray
    ball_radius: float
    iterations: int
    converged: bool
    y_history: list = field(default_factory=list)
    ratio_history: list = field(default_factory=list)
    projection_leaks: list = field(default_factory=list)
    trace_rows: list = field(default_factory=list)
    initial_ma_sup: float = float("nan")
    final_ma_sup: float = float("nan")
    final_min_eigenvalue: float = float("nan")
    mean_zero_defect: float = float("nan")


def corrected_field(problem, phi):
    """The corrected field h + P(phi), with the problem's volume ratio."""
    h = problem.field_
    K = hessian_parts(phi, problem.spacing)
    K += h.data
    return kummer.Field11(h.n, h.a, h.zeta, K, lam=problem.lam)


def ma_residual(problem, corrected):
    """Pointwise volume-equation defect 2 det(K) / lambda - 1 of a
    corrected field K = corrected_field(problem, phi); K must be
    positive definite."""
    mineig = corrected.min_eigenvalue()
    if mineig <= 0:
        raise ValueError(
            f"corrected form not positive definite: min eigenvalue {mineig:.6g}"
        )
    return 2.0 * corrected.det() / problem.lam - 1.0


def fixed_point_map(problem, psi, invert_tol=DEFAULT_INVERT_TOL, invert_max_iter=600):
    """One application of psi -> projection of -e_a - Q(inverse(psi))."""
    phi, info = invert_laplacian(problem, psi, tol=invert_tol, max_iter=invert_max_iter)
    raw = -problem.ea - quadratic_Q(problem, phi)
    leak = weighted_mean(problem, raw)
    return raw - leak, phi, {"projection_leak": leak, "invert": info}


def banach_solve(
    problem,
    params,
    tol=DEFAULT_FIXED_POINT_TOL,
    max_iter=40,
    invert_tol=DEFAULT_INVERT_TOL,
    psi0=None,
    enforce_ball=True,
):
    """Iterate the contraction map from psi0 (zero by default) until the
    Y-norm increment falls below tol times the first increment.

    Raises if an iterate leaves the radius-R ball (advice: shrink a),
    if the corrected form loses positivity, or on non-convergence.
    """
    R = params.ball_radius(problem.model.a)
    psi = np.zeros(problem.shape) if psi0 is None else project_mean_zero(problem, np.asarray(psi0, dtype=float))
    y0 = y_norm(problem, params, psi)
    if enforce_ball and y0 > R:
        raise ValueError(
            f"starting field outside the radius-R ball: Y-norm {y0:.4e} > R = {R:.4e}"
        )
    state = SolverState(psi=psi, phi=np.zeros(problem.shape), ball_radius=R,
                        iterations=0, converged=False)
    # the corrected field of phi = 0 is h itself
    state.initial_ma_sup = float(np.max(np.abs(ma_residual(problem, problem.field_))))
    first_increment = None
    prev_increment = None
    for it in range(1, max_iter + 1):
        psi_next, phi, info = fixed_point_map(problem, psi, invert_tol=invert_tol)
        y_next = y_norm(problem, params, psi_next)
        increment = y_norm(problem, params, psi_next - psi)
        ratio = float("nan") if prev_increment in (None, 0.0) else increment / prev_increment
        corrected = corrected_field(problem, phi)
        ma_sup = float(np.max(np.abs(ma_residual(problem, corrected))))
        mineig = corrected.min_eigenvalue()
        state.y_history.append(y_next)
        state.ratio_history.append(ratio)
        state.projection_leaks.append(info["projection_leak"])
        state.trace_rows.append(
            {"iter": it, "y_norm_psi": y_next, "lipschitz_sample_max": ratio,
             "ma_sup_residual": ma_sup, "min_eigenvalue": mineig}
        )
        state.psi = psi_next
        state.phi = phi
        state.iterations = it
        if enforce_ball and y_next > R:
            raise ValueError(
                f"iterate {it} left the radius-R ball: Y-norm {y_next:.4e} > R = {R:.4e}; "
                f"reduce the deformation parameter a (currently {problem.model.a})"
            )
        if first_increment is None:
            first_increment = increment
        threshold = max(tol * first_increment, 1e-15)
        done = increment <= threshold
        psi = psi_next
        prev_increment = increment
        if done:
            state.converged = True
            break
    if not state.converged:
        raise RuntimeError(
            f"fixed-point iteration did not converge in {max_iter} steps; "
            f"contraction ratios {['%.3f' % r for r in state.ratio_history[-5:]]}"
        )
    phi_final, _ = invert_laplacian(problem, state.psi, tol=invert_tol)
    state.phi = phi_final
    corrected = corrected_field(problem, phi_final)
    state.final_min_eigenvalue = corrected.min_eigenvalue()
    if state.final_min_eigenvalue <= 0:
        raise ValueError(
            f"accepted correction loses positivity: min eigenvalue {state.final_min_eigenvalue:.6g}"
        )
    state.final_ma_sup = float(np.max(np.abs(ma_residual(problem, corrected))))
    state.mean_zero_defect = abs(weighted_mean(problem, state.psi))
    return state


# ---------------------------------------------------------------------------
# random fields and empirical diagnostics


def random_smooth_field(grid, rng, kmax=3, decay=2.0):
    """Band-limited random real field with zero plain mean."""
    n = grid.n
    spec = np.zeros((n,) * 4, dtype=complex)
    ks = list(range(-kmax, kmax + 1))
    for k0 in ks:
        for k1 in ks:
            for k2 in ks:
                for k3 in ks:
                    if (k0, k1, k2, k3) == (0, 0, 0, 0):
                        continue
                    amp = (1.0 + k0**2 + k1**2 + k2**2 + k3**2) ** (-decay)
                    c = amp * (rng.standard_normal() + 1j * rng.standard_normal())
                    spec[k0 % n, k1 % n, k2 % n, k3 % n] = c
    f = np.real(np.fft.ifftn(spec)) * n**2
    return f - f.mean()


def scaled_ball_samples(problem, params, rng, count, fractions=(0.2, 0.9)):
    """Mean-zero random fields scaled to lie strictly inside the
    radius-R ball of the Y-norm."""
    R = params.ball_radius(problem.model.a)
    out = []
    for _ in range(count):
        f = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
        y = y_norm(problem, params, f)
        target = R * rng.uniform(*fractions)
        out.append(f * (target / y))
    return out


def lipschitz_ratios(problem, params, n_pairs=20, seed=0, invert_tol=DEFAULT_INVERT_TOL):
    """Measured contraction ratios of the fixed-point map over random
    pairs inside the ball."""
    rng = np.random.default_rng(seed)
    samples = scaled_ball_samples(problem, params, rng, 2 * n_pairs)
    ratios = []
    for i in range(n_pairs):
        p1, p2 = samples[2 * i], samples[2 * i + 1]
        f1, _, _ = fixed_point_map(problem, p1, invert_tol=invert_tol)
        f2, _, _ = fixed_point_map(problem, p2, invert_tol=invert_tol)
        num = y_norm(problem, params, f1 - f2)
        den = y_norm(problem, params, p1 - p2)
        ratios.append(num / den)
    return np.array(ratios)


def quadratic_envelope(problem, params, n_pairs=50, seed=0, invert_tol=DEFAULT_INVERT_TOL):
    """Empirical constant in the quadratic-remainder difference bound
    |Q(u1) - Q(u2)|_Y <= C a^(-2 alpha) |u1-u2|_X |u1+u2|_X."""
    rng = np.random.default_rng(seed)
    a = problem.model.a
    ratios = []
    for _ in range(n_pairs):
        psi1, psi2 = scaled_ball_samples(problem, params, rng, 2)
        u1, _ = invert_laplacian(problem, psi1, tol=invert_tol)
        u2, _ = invert_laplacian(problem, psi2, tol=invert_tol)
        diff = y_norm(problem, params, quadratic_Q(problem, u1) - quadratic_Q(problem, u2)
                      - weighted_mean(problem, quadratic_Q(problem, u1) - quadratic_Q(problem, u2)))
        den = a ** (-2.0 * params.alpha) * x_norm(problem, params, u1 - u2) * x_norm(
            problem, params, u1 + u2
        )
        ratios.append(diff / den)
    ratios = np.array(ratios)
    return {"ratios": ratios, "fitted_constant": float(ratios.max())}


def inverse_bound_diagnostic(problem, params, n_fields=20, seed=0, invert_tol=DEFAULT_INVERT_TOL):
    """Measured X/Y operator ratios of the inversion over random data."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_fields):
        f = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
        u, _ = invert_laplacian(problem, f, tol=invert_tol)
        ratios.append(x_norm(problem, params, u) / y_norm(problem, params, f))
    return np.array(ratios)


# ---------------------------------------------------------------------------
# spectrum and uniqueness


def lambda1_estimate(problem, dim=16, tol=1e-6, seed=7, invert_tol=1e-9):
    """Smallest nonzero eigenvalue of minus the Laplacian.

    Rayleigh-Ritz on an inverse-iteration Krylov subspace; robust to
    the near-degenerate low cluster that plain power iteration cannot
    separate.  Stops once the bottom Ritz value is stable to tol."""
    rng = np.random.default_rng(seed)

    def wip(u, v):
        return float(np.sum(problem.weight * u * v))

    basis = []
    v = project_mean_zero(problem, random_smooth_field(problem.grid, rng))
    v /= np.sqrt(wip(v, v))
    basis.append(v)
    # one -laplacian image per basis vector, made when a Ritz step first
    # needs it; the Ritz matrix grows by one row and column per image
    images = []
    M = np.empty((dim + 1, dim + 1))
    prev = None
    for _ in range(dim):
        u, _ = invert_laplacian(problem, basis[-1], tol=invert_tol)
        u = project_mean_zero(problem, u)
        for b in basis:
            u = u - wip(u, b) * b
        nrm = np.sqrt(wip(u, u))
        if nrm < 1e-13:
            break
        basis.append(u / nrm)
        m = len(basis)
        for k in range(len(images), m):
            images.append(-laplacian(problem, basis[k]))
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


def poincare_check(problem, lam1, n_fields=20, seed=11):
    """Spectral-gap inequality |u|_L2^2 <= (1/lam1) |grad u|_L2^2 for
    random mean-zero fields, with forward-difference energy."""
    rng = np.random.default_rng(seed)
    dx = problem.spacing
    margins = []
    for _ in range(n_fields):
        u = random_smooth_field(problem.grid, rng)
        u = u - u.mean()
        l2sq = float(np.mean(u**2))
        energy = 0.0
        for ax in range(4):
            d = (np.roll(u, -1, ax) - u) / dx
            energy += float(np.mean(d**2))
        margins.append(energy / lam1 - l2sq)
    margins = np.array(margins)
    return {"all_pass": bool(np.all(margins >= -1e-10)), "margins": margins}


def bochner_ratio(grid, u):
    """Flat-torus comparison of the full Hessian energy against the
    Laplacian energy; at most one for these stencils."""
    dx = grid.spacing
    u = np.asarray(u, dtype=float)
    hess = 0.0
    for i in range(4):
        for j in range(i, 4):
            if i == j:
                hess += float(np.mean(_second_diff(u, i, dx) ** 2))
            else:
                hess += 2.0 * float(np.mean(_mixed_diff(u, i, j, dx) ** 2))
    lap = sum(_second_diff(u, ax, dx) for ax in range(4))
    denom = float(np.mean(lap**2))
    return hess / denom


def uniqueness_check(problem, params, psi0_a=None, psi0_b=None, tol=DEFAULT_FIXED_POINT_TOL,
                     max_iter=40, enforce_ball=True):
    """Run the solve from two seeds and return the sup distance of the
    potentials after removing the mean shift."""
    state_a = banach_solve(problem, params, tol=tol, max_iter=max_iter,
                           psi0=psi0_a, enforce_ball=enforce_ball)
    state_b = banach_solve(problem, params, tol=tol, max_iter=max_iter,
                           psi0=psi0_b, enforce_ball=enforce_ball)
    diff = state_a.phi - state_b.phi
    diff = diff - weighted_mean(problem, diff)
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# artifacts


TRACE_COLUMNS = ["iter", "y_norm_psi", "lipschitz_sample_max", "ma_sup_residual", "min_eigenvalue"]


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % x


def json_text(obj, indent=2):
    """Deterministic JSON: sorted keys, floats at 17 significant digits
    so identical runs produce identical bytes; indent=None renders a
    single line."""
    return _render_json(obj, indent, 0)


def _render_json(obj, indent, level):
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"non-finite number in JSON artifact: {x}")
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = [
            json.dumps(str(k)) + ": " + _render_json(obj[k], indent, level + 1)
            for k in sorted(obj)
        ]
        return _join_json("{", items, "}", indent, level)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        items = [_render_json(v, indent, level + 1) for v in seq]
        return _join_json("[", items, "]", indent, level)
    raise TypeError(f"cannot render {type(obj).__name__} in a JSON artifact")


def _join_json(opening, items, closing, indent, level):
    if not items:
        return opening + closing
    if indent is None:
        return opening + ", ".join(items) + closing
    pad = " " * (indent * (level + 1))
    return opening + "\n" + ",\n".join(pad + it for it in items) + "\n" + " " * (indent * level) + closing


def dump_json(obj, path):
    text = json_text(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_trace_csv(state, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in state.trace_rows:
            writer.writerow([_fmt(row[c]) for c in TRACE_COLUMNS])


def write_summary_json(state, path, extra=None):
    summary = {
        "converged": state.converged,
        "iterations": state.iterations,
        "ball_radius": state.ball_radius,
        "y_norm_final": state.y_history[-1] if state.y_history else 0.0,
        "initial_ma_sup": state.initial_ma_sup,
        "final_ma_sup": state.final_ma_sup,
        "residual_ratio": (state.final_ma_sup / state.initial_ma_sup
                           if state.initial_ma_sup > 0 else 0.0),
        "min_eigenvalue": state.final_min_eigenvalue,
        "mean_zero_defect": state.mean_zero_defect,
    }
    if extra:
        summary.update(extra)
    dump_json(summary, path)
    return summary
