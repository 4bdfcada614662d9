"""Minimal exterior calculus on 4-dimensional coordinate patches.

Forms are stored as mappings from strictly increasing index tuples to
coefficient functions of the coordinates.  The exterior derivative is a
lazy central finite difference, so nested applications (d of d) stay
well defined and second-order accurate.  Pullbacks contract coefficient
functions with jacobian minors.  A small complex-structure type acts on
1-forms through a declared orthonormal coframe.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

DIM = 4

# ---------------------------------------------------------------------------
# charts and points


@dataclass(frozen=True)
class Chart:
    """A named 4-dimensional coordinate patch.

    ``lower``/``upper`` bound the non-periodic coordinates (open
    intervals, infinities allowed).  Periodic coordinates are flagged in
    ``periodic`` and accept any finite value; their declared period is
    informational and used only when reducing to a fundamental domain.
    """

    name: str
    coord_names: tuple
    lower: tuple = (-np.inf,) * DIM
    upper: tuple = (np.inf,) * DIM
    periodic: tuple = (False,) * DIM
    periods: tuple = (0.0,) * DIM

    def validate(self, coords, margin=0.0):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (DIM,):
            raise ValueError(f"chart {self.name}: expected {DIM} coordinates, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError(f"chart {self.name}: non-finite coordinates {coords}")
        for i in range(DIM):
            if self.periodic[i]:
                continue
            lo, hi = self.lower[i], self.upper[i]
            if not (lo + margin < coords[i] < hi - margin):
                raise ValueError(
                    f"chart {self.name}: coordinate {self.coord_names[i]}={coords[i]:.6g} "
                    f"violates open bounds ({lo:.6g}, {hi:.6g}) with margin {margin:.3g}"
                )
        return coords

    def reduce(self, coords):
        """Map periodic coordinates to [0, period)."""
        out = np.array(coords, dtype=float)
        for i in range(DIM):
            if self.periodic[i] and self.periods[i] > 0:
                out[i] = out[i] % self.periods[i]
        return out


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", self.chart.validate(self.coords))

    def shifted(self, index, delta):
        c = self.coords.copy()
        c[index] += delta
        return ChartPoint(self.chart, c)


def point(chart, *coords):
    return ChartPoint(chart, np.asarray(coords, dtype=float))


# Charts used throughout the package.  Angles are radians; the fiber
# angle psi has period 4*pi on the unquotiented geometry.
EH_R = Chart(
    "eh_r",
    ("r", "theta", "phi", "psi"),
    lower=(0.0, 0.0, -np.inf, -np.inf),
    upper=(np.inf, np.pi, np.inf, np.inf),
    periodic=(False, False, True, True),
    periods=(0.0, 0.0, 2 * np.pi, 4 * np.pi),
)
EH_U = Chart(
    "eh_u",
    ("u", "theta", "phi", "psi"),
    lower=(0.0, 0.0, -np.inf, -np.inf),
    upper=(np.inf, np.pi, np.inf, np.inf),
    periodic=(False, False, True, True),
    periods=(0.0, 0.0, 2 * np.pi, 4 * np.pi),
)
COMPLEX2 = Chart("c2", ("x1", "y1", "x2", "y2"))
# cylinder chart ordered (psi, rho, phi, z): fiber angle first so the
# metric block structure matches the ansatz layout
CYL = Chart(
    "cyl",
    ("psi", "rho", "phi", "z"),
    lower=(-np.inf, 0.0, -np.inf, -np.inf),
    upper=(np.inf, np.inf, np.inf, np.inf),
    periodic=(True, False, True, False),
    periods=(4 * np.pi, 0.0, 2 * np.pi, 0.0),
)
PROLATE = Chart(
    "prolate",
    ("mu", "nu", "phi", "psi"),
    lower=(1.0, -1.0, -np.inf, -np.inf),
    upper=(np.inf, 1.0, np.inf, np.inf),
    periodic=(False, False, True, True),
    periods=(0.0, 0.0, 2 * np.pi, 4 * np.pi),
)


# ---------------------------------------------------------------------------
# chart maps


@dataclass(frozen=True)
class ChartMap:
    """Smooth map between charts with an optional analytic jacobian.

    ``forward`` maps a coordinate array to a coordinate array.  When no
    jacobian is supplied a central finite difference with step
    ``fd_step`` is used.  ``jacobian_floor`` guards against evaluating
    pullbacks where the map degenerates.
    """

    source: Chart
    target: Chart
    forward: callable
    jac: callable = None
    name: str = ""
    fd_step: float = 1e-6
    jacobian_floor: float = 1e-12

    def __call__(self, p):
        if isinstance(p, ChartPoint):
            if p.chart is not self.source:
                raise ValueError(f"map {self.name}: point lives on {p.chart.name}, expected {self.source.name}")
            return ChartPoint(self.target, np.asarray(self.forward(p.coords), dtype=float))
        return np.asarray(self.forward(np.asarray(p, dtype=float)), dtype=float)

    def jacobian(self, coords):
        coords = np.asarray(coords, dtype=float)
        if self.jac is not None:
            J = np.asarray(self.jac(coords), dtype=float)
        else:
            J = np.empty((DIM, DIM))
            h = self.fd_step
            for j in range(DIM):
                cp = coords.copy()
                cm = coords.copy()
                cp[j] += h
                cm[j] -= h
                J[:, j] = (np.asarray(self.forward(cp)) - np.asarray(self.forward(cm))) / (2 * h)
        det = np.linalg.det(J)
        if abs(det) < self.jacobian_floor:
            raise ValueError(f"map {self.name}: jacobian determinant {det:.3g} below floor at {coords}")
        return J


def identity_map(chart):
    return ChartMap(chart, chart, lambda c: c, jac=lambda c: np.eye(DIM), name=f"id_{chart.name}")


def compose(outer, inner):
    """The map ``outer after inner``; jacobians compose by the chain rule."""
    if inner.target is not outer.source:
        raise ValueError(f"cannot compose {outer.name} after {inner.name}: chart mismatch")

    def fwd(c):
        return outer.forward(np.asarray(inner.forward(c), dtype=float))

    def jac(c):
        mid = np.asarray(inner.forward(c), dtype=float)
        return outer.jacobian(mid) @ inner.jacobian(c)

    return ChartMap(inner.source, outer.target, fwd, jac=jac, name=f"{outer.name}*{inner.name}")


# ---------------------------------------------------------------------------
# coefficient forms


def _as_callable(v):
    if callable(v):
        return v
    return lambda c, _v=v: _v


def _check_index_tuple(idx, degree):
    if len(idx) != degree:
        raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
    if any(not (0 <= i < DIM) for i in idx):
        raise ValueError(f"index tuple {idx} out of range")
    if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise ValueError(f"index tuple {idx} is not strictly increasing")


@dataclass(frozen=True)
class CoefficientForm:
    """Degree-k differential form with numerically evaluated coefficients.

    Only strictly increasing index tuples are stored, so antisymmetry is
    canonical.  Coefficients may be real or complex valued; a complex
    form is understood as a pair of real forms.
    """

    chart: Chart
    degree: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.degree <= DIM):
            raise ValueError(f"degree {self.degree} out of range")
        clean = {}
        for idx, f in self.terms.items():
            idx = tuple(int(i) for i in idx)
            _check_index_tuple(idx, self.degree)
            clean[idx] = _as_callable(f)
        object.__setattr__(self, "terms", clean)

    # -- evaluation helpers

    def coeff(self, idx, coords):
        f = self.terms.get(tuple(idx))
        if f is None:
            return 0.0
        return f(np.asarray(coords, dtype=float))

    def evaluate(self, coords):
        coords = np.asarray(coords, dtype=float)
        return {idx: f(coords) for idx, f in self.terms.items()}

    def as_vector(self, coords):
        """Coordinate components of a 1-form as a length-4 array."""
        if self.degree != 1:
            raise ValueError("as_vector is defined for degree-1 forms")
        vals = self.evaluate(coords)
        out = np.zeros(DIM, dtype=complex)
        for (i,), v in vals.items():
            out[i] = v
        if np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    def as_matrix(self, coords):
        """Antisymmetric component matrix of a 2-form."""
        if self.degree != 2:
            raise ValueError("as_matrix is defined for degree-2 forms")
        vals = self.evaluate(coords)
        out = np.zeros((DIM, DIM), dtype=complex)
        for (i, j), v in vals.items():
            out[i, j] = v
            out[j, i] = -v
        if np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    def max_abs(self, coords):
        vals = self.evaluate(coords)
        if not vals:
            return 0.0
        return max(abs(v) for v in vals.values())

    # -- algebra

    def __add__(self, other):
        self._check_compat(other, self.degree)
        keys = set(self.terms) | set(other.terms)
        terms = {}
        for k in keys:
            f, g = self.terms.get(k), other.terms.get(k)
            if f is None:
                terms[k] = g
            elif g is None:
                terms[k] = f
            else:
                terms[k] = lambda c, _f=f, _g=g: _f(c) + _g(c)
        return CoefficientForm(self.chart, self.degree, terms)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        if callable(scalar):
            terms = {k: (lambda c, _f=f, _s=scalar: _s(c) * _f(c)) for k, f in self.terms.items()}
        else:
            terms = {k: (lambda c, _f=f, _s=scalar: _s * _f(c)) for k, f in self.terms.items()}
        return CoefficientForm(self.chart, self.degree, terms)

    __rmul__ = __mul__

    def _check_compat(self, other, degree):
        if not isinstance(other, CoefficientForm):
            raise TypeError("expected a CoefficientForm")
        if other.chart is not self.chart:
            raise ValueError(f"chart mismatch: {self.chart.name} vs {other.chart.name}")
        if other.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {other.degree}")


def zero_form(chart, f):
    return CoefficientForm(chart, 0, {(): f})


def one_form(chart, components):
    """Build a 1-form from a dict {index: coefficient} or a length-4 sequence."""
    if isinstance(components, dict):
        terms = {(int(i),): f for i, f in components.items()}
    else:
        terms = {(i,): components[i] for i in range(DIM) if components[i] is not None}
    return CoefficientForm(chart, 1, terms)


def coordinate_differential(chart, index):
    return CoefficientForm(chart, 1, {(int(index),): 1.0})


def _merge_sign(idx_a, idx_b):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    merged = idx_a + idx_b
    if len(set(merged)) != len(merged):
        return None, 0
    perm = sorted(range(len(merged)), key=lambda i: merged[i])
    # count inversions of the permutation
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return tuple(sorted(merged)), -1 if inv % 2 else 1


def wedge(f, g):
    """Canonical wedge product; bilinear, with the permutation sign rule."""
    if f.chart is not g.chart:
        raise ValueError(f"wedge chart mismatch: {f.chart.name} vs {g.chart.name}")
    degree = f.degree + g.degree
    if degree > DIM:
        raise ValueError(f"wedge degree overflow: {f.degree} + {g.degree} > {DIM}")
    terms = {}
    for ia, fa in f.terms.items():
        for ib, gb in g.terms.items():
            merged, sign = _merge_sign(ia, ib)
            if sign == 0:
                continue

            def coeff(c, _fa=fa, _gb=gb, _s=sign):
                return _s * _fa(c) * _gb(c)

            if merged in terms:
                prev = terms[merged]
                terms[merged] = lambda c, _p=prev, _n=coeff: _p(c) + _n(c)
            else:
                terms[merged] = coeff
    return CoefficientForm(f.chart, degree, terms)


def ext_d(f, step=1e-4):
    """Numerical exterior derivative by central differences, built lazily.

    Each coefficient of the result is a closure that differentiates the
    parent coefficients at evaluation time, so ``ext_d(ext_d(f))`` is
    meaningful and the chart margin is enforced where evaluation
    actually happens.
    """
    if f.degree >= DIM:
        return CoefficientForm(f.chart, DIM, {}) if f.degree == DIM else None
    chart = f.chart
    out_terms = {}
    for idx, coeff_fn in f.terms.items():
        for j in range(DIM):
            if j in idx:
                continue
            merged, sign = _merge_sign((j,), idx)

            def d_coeff(c, _fn=coeff_fn, _j=j, _s=sign, _h=step):
                chart.validate(c, margin=0.0)
                cp = np.array(c, dtype=float)
                cm = np.array(c, dtype=float)
                cp[_j] += _h
                cm[_j] -= _h
                chart.validate(cp)
                chart.validate(cm)
                return _s * (_fn(cp) - _fn(cm)) / (2 * _h)

            if merged in out_terms:
                prev = out_terms[merged]
                out_terms[merged] = lambda c, _p=prev, _n=d_coeff: _p(c) + _n(c)
            else:
                out_terms[merged] = d_coeff
    return CoefficientForm(chart, f.degree + 1, out_terms)


def pullback(m, f):
    """Pull a form on the target chart of ``m`` back to the source chart."""
    if f.chart is not m.target:
        raise ValueError(f"pullback: form lives on {f.chart.name}, map targets {m.target.name}")
    k = f.degree
    if k == 0:
        return CoefficientForm(m.source, 0, {(): lambda c: f.coeff((), m.forward(c))})
    source_tuples = list(itertools.combinations(range(DIM), k))
    terms = {}
    for jdx in source_tuples:

        def coeff(c, _jdx=jdx):
            c = np.asarray(c, dtype=float)
            y = np.asarray(m.forward(c), dtype=float)
            J = m.jacobian(c)
            total = 0.0
            for idx, fn in f.terms.items():
                minor = J[np.ix_(idx, _jdx)]
                total = total + fn(y) * np.linalg.det(minor)
            return total

        terms[jdx] = coeff
    return CoefficientForm(m.source, k, terms)


# ---------------------------------------------------------------------------
# complex structure on a declared coframe


@dataclass(frozen=True)
class ComplexStructure:
    """Almost complex structure presented in an orthonormal coframe.

    ``action`` row i holds the coframe components of the image of the
    i-th frame element, so patterns like "the first frame vector maps to
    the last" are legible directly in the rows.  Acting on a 1-form
    precomposes with the structure (components transform by ``action``
    applied on the left), which is the convention under which potentials
    reproduce their associated 2-forms.
    """

    name: str
    action: np.ndarray
    chart: Chart
    coframe: callable  # coords -> 4x4 matrix, row i = coordinate components of e_i

    def __post_init__(self):
        A = np.asarray(self.action, dtype=float)
        if A.shape != (DIM, DIM):
            raise ValueError("action must be 4x4")
        if not np.array_equal(A @ A, -np.eye(DIM)):
            raise ValueError(f"structure {self.name}: action squared is not minus identity")
        object.__setattr__(self, "action", A)


def apply_J(structure, f):
    """Act on a 1-form with a complex structure through its coframe."""
    if f.degree != 1:
        raise ValueError(f"apply_J needs a degree-1 form, got degree {f.degree}")
    if f.chart is not structure.chart:
        raise ValueError(
            f"coframe mismatch: form on {f.chart.name}, structure {structure.name} declared on {structure.chart.name}"
        )

    def component(c, index):
        c = np.asarray(c, dtype=float)
        E = np.asarray(structure.coframe(c), dtype=float)
        comps = f.as_vector(c)
        frame_comps = np.linalg.solve(E.T, comps)
        rotated = structure.action @ frame_comps
        return (E.T @ rotated)[index]

    terms = {(i,): (lambda c, _i=i: component(c, _i)) for i in range(DIM)}
    return CoefficientForm(f.chart, 1, terms)


# ---------------------------------------------------------------------------
# i del delbar on the standard complex chart


def hermitian_from_second_derivs(d2):
    """Combine real second derivatives into the 2x2 matrix of mixed
    complex second derivatives.

    ``d2[..., m, n]`` holds the derivative along real coordinates m, n in
    the ordering (x1, y1, x2, y2).  Works on scalars or broadcast arrays.
    """
    d2 = np.asarray(d2)
    h = np.empty(d2.shape[:-2] + (2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * j, 2 * j + 1
            h[..., i, j] = 0.25 * ((d2[..., xi, xj] + d2[..., yi, yj]) + 1j * (d2[..., xi, yj] - d2[..., yi, xj]))
    return h


def hermitian_to_real_two_form(h):
    """Real coordinate components of i * sum h_ij dz_i ^ dzbar_j.

    Returns a dict keyed by increasing index pairs in the ordering
    (x1, y1, x2, y2).  ``h`` must be Hermitian 2x2.
    """
    a12 = h[0, 1].real
    b12 = h[0, 1].imag
    return {
        (0, 1): 2 * h[0, 0].real,
        (2, 3): 2 * h[1, 1].real,
        (0, 2): -2 * b12,
        (1, 3): -2 * b12,
        (0, 3): 2 * a12,
        (1, 2): -2 * a12,
    }


def second_derivative_matrix(phi, coords, step=1e-4):
    """Full 4x4 matrix of second partials by central differences.

    Pure second derivatives use the 3-point stencil, mixed ones the
    4-point cross stencil.
    """
    coords = np.asarray(coords, dtype=float)
    h = step
    f0 = phi(coords)
    if not np.isfinite(f0):
        raise ValueError(f"non-finite sample at {coords}")
    d2 = np.empty((DIM, DIM))
    for m in range(DIM):
        cp = coords.copy()
        cm = coords.copy()
        cp[m] += h
        cm[m] -= h
        d2[m, m] = (phi(cp) - 2 * f0 + phi(cm)) / h**2
    for m in range(DIM):
        for n in range(m + 1, DIM):
            cpp = coords.copy()
            cpm = coords.copy()
            cmp_ = coords.copy()
            cmm = coords.copy()
            cpp[[m, n]] += h
            cmm[[m, n]] -= h
            cpm[m] += h
            cpm[n] -= h
            cmp_[m] -= h
            cmp_[n] += h
            d2[m, n] = d2[n, m] = (phi(cpp) - phi(cpm) - phi(cmp_) + phi(cmm)) / (4 * h**2)
    if not np.all(np.isfinite(d2)):
        raise ValueError(f"non-finite second derivatives at {coords}")
    return d2


def i_ddbar(phi, step=1e-4, chart=COMPLEX2):
    """The (1,1)-form i del delbar phi as a real 2-form on the complex chart.

    ``phi`` is a real scalar function of the real coordinates
    (x1, y1, x2, y2).  The coefficient matrix is Hermitian by
    construction of the symmetrized stencils.
    """

    def term(c, idx):
        d2 = second_derivative_matrix(phi, c, step)
        h = hermitian_from_second_derivs(d2)
        return hermitian_to_real_two_form(h)[idx]

    keys = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    terms = {k: (lambda c, _k=k: term(c, _k)) for k in keys}
    return CoefficientForm(chart, 2, terms)
