"""Minimal exterior calculus on 4-dimensional coordinate patches.

A form holds its strictly increasing index tuples and one function
that returns all their coefficients at a batch of points.  A leaf form
is built from one function or constant per index tuple; a derived form
(a sum, a product with a scalar, a wedge, d, a pullback, J acting,
i del delbar) evaluates each of its operands once per batch, so a
quantity its coefficients share (a frame solve, a map and its jacobian,
a second-derivative matrix) is computed once.  The exterior derivative
is a lazy central finite difference, so nested applications (d of d)
stay well defined and second-order accurate.  Pullbacks contract
coefficients with jacobian minors.  A small complex-structure type acts
on 1-forms through a declared orthonormal coframe.

Every function here, and every coefficient, metric and chart map of
eguchi_hanson and gibbons_hawking, evaluates on a batch of points: a
float array with the four chart coordinates on its leading axis and the
samples after it, of which one point, shape (4,), is the case without
sample axes; a point is its coordinate array and has no type of its
own.  Values keep the same layout, component and derivative axes first
and sample axes last: a coefficient has the samples' shape, a 1-form's
components (4, ...), a metric or a jacobian (4, 4, ...).  A guard
raises if any sample of the batch is bad, with the message it gives
for that sample alone.  as_stack moves the two matrix axes to
the end for np.linalg.  power and product raise to a power and
multiply complex values on a batch as on one point, so that a batch
gives each of its points the bits the point gets alone wherever numpy's
array and scalar functions agree.

central_partials is the central difference behind finite-difference
jacobians, the curvature and the Cauchy-Riemann and curl residuals
(ext_d keeps its own, and validates every sample it evaluates: the
stencil points, which cover the centre).  Hermitian 2x2 matrices are
the components (h11, h22, Re h12, Im h12) along a leading axis, the
layout of kummer.Field11.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

DIM = 4

# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class Chart:
    """A named 4-dimensional coordinate patch.

    ``lower``/``upper`` bound the non-periodic coordinates (open
    intervals, infinities allowed).  Periodic coordinates are flagged in
    ``periodic`` and accept any finite value.
    """

    name: str
    coord_names: tuple
    lower: tuple = (-np.inf,) * DIM
    upper: tuple = (np.inf,) * DIM
    periodic: tuple = (False,) * DIM

    def validate(self, coords, margin=0.0):
        coords = np.asarray(coords, dtype=float)
        if coords.shape[:1] != (DIM,):
            raise ValueError(f"chart {self.name}: expected {DIM} coordinates, got {coords.shape}")
        lower = _leading(np.array(self.lower) + margin, coords)
        upper = _leading(np.array(self.upper) - margin, coords)
        periodic = _leading(np.array(self.periodic), coords)
        # a periodic coordinate has no bounds, but must be finite
        inside = np.isfinite(coords) & (periodic | ((lower < coords) & (coords < upper)))
        bad = ~np.all(inside, axis=0)
        if np.any(bad):
            c = first_bad(coords, bad)
            if not np.all(np.isfinite(c)):
                raise ValueError(f"chart {self.name}: non-finite coordinates {c}")
            i = int(np.argmin(first_bad(inside, bad)))
            raise ValueError(
                f"chart {self.name}: coordinate {self.coord_names[i]}={c[i]:.6g} "
                f"violates open bounds ({self.lower[i]:.6g}, {self.upper[i]:.6g}) with margin {margin:.3g}"
            )
        return coords


def _leading(values, coords):
    """A length-4 array of per-coordinate values, shaped to broadcast
    along the leading axis of a batch of coordinates."""
    return np.reshape(values, (DIM,) + (1,) * (np.ndim(coords) - 1))


def first_bad(values, bad):
    """The sample of values at the first sample, in C order, where the
    boolean array bad holds.  values has bad's shape after any leading
    component axes, or is a scalar."""
    values = np.asarray(values)
    lead = max(values.ndim - np.ndim(bad), 0)
    values = np.broadcast_to(values, values.shape[:lead] + np.shape(bad))
    k = np.flatnonzero(bad)[0]
    return values.reshape(values.shape[:lead] + (-1,))[..., k]


def as_stack(m):
    """Matrices stored with their two axes first, as the (..., rows,
    columns) stack that np.linalg and matmul take."""
    return np.moveaxis(m, (0, 1), (-2, -1))


def power(x, n):
    """x**n, entry by entry by libm's pow.  On numpy and Python scalars,
    so on one point's coordinates, ** calls libm's pow, while numpy's
    array power takes SIMD paths that round otherwise; np.float_power
    calls libm on both, so a batch gets each point's bits."""
    return np.float_power(x, n)


def product(x, y):
    """x * y, with a product of two complex values rounded as numpy
    rounds it on scalars, (ac - bd) + i(ad + bc) in plain arithmetic,
    where its array multiply fuses multiply-adds."""
    if np.iscomplexobj(x) and np.iscomplexobj(y):
        return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)
    return x * y


def central_partials(fn, coords, step, axes=range(DIM)):
    """Central differences (fn(c + step e_j) - fn(c - step e_j)) / (2 step)
    of an array-valued ``fn`` at a batch of ``coords`` for each j in
    ``axes``, stacked along a new axis after fn's component axes and
    before the sample axes."""
    coords = np.asarray(coords, dtype=float)
    cols = []
    for j in axes:
        cp = coords.copy()
        cm = coords.copy()
        cp[j] += step
        cm[j] -= step
        cols.append((np.asarray(fn(cp)) - np.asarray(fn(cm))) / (2 * step))
    return np.stack(cols, axis=cols[0].ndim - (coords.ndim - 1))


# Charts used throughout the package.  Angles are radians; the fiber
# angle psi has period 4*pi on the unquotiented geometry.
EH_R = Chart(
    "eh_r",
    ("r", "theta", "phi", "psi"),
    lower=(0.0, 0.0, -np.inf, -np.inf),
    upper=(np.inf, np.pi, np.inf, np.inf),
    periodic=(False, False, True, True),
)
EH_U = Chart(
    "eh_u",
    ("u", "theta", "phi", "psi"),
    lower=(0.0, 0.0, -np.inf, -np.inf),
    upper=(np.inf, np.pi, np.inf, np.inf),
    periodic=(False, False, True, True),
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
)
PROLATE = Chart(
    "prolate",
    ("mu", "nu", "phi", "psi"),
    lower=(1.0, -1.0, -np.inf, -np.inf),
    upper=(np.inf, 1.0, np.inf, np.inf),
    periodic=(False, False, True, True),
)


# ---------------------------------------------------------------------------
# chart maps


@dataclass(frozen=True)
class ChartMap:
    """Smooth map between charts with an optional analytic jacobian.

    ``forward`` maps a batch of coordinates to a batch of coordinates,
    and ``jac`` to the (4, 4, ...) jacobians.  When no jacobian is
    supplied a central finite difference with step ``fd_step`` is used.
    ``jacobian_floor`` guards against evaluating pullbacks where the map
    degenerates.
    """

    source: Chart
    target: Chart
    forward: callable
    jac: callable = None
    name: str = ""
    fd_step: float = 1e-6
    jacobian_floor: float = 1e-12

    def __call__(self, coords):
        return np.asarray(self.forward(np.asarray(coords, dtype=float)), dtype=float)

    def jacobian(self, coords):
        coords = np.asarray(coords, dtype=float)
        if self.jac is not None:
            J = np.asarray(self.jac(coords), dtype=float)
        else:
            J = central_partials(self.forward, coords, self.fd_step)
        det = np.linalg.det(as_stack(J))
        bad = np.abs(det) < self.jacobian_floor
        if np.any(bad):
            raise ValueError(f"map {self.name}: jacobian determinant {first_bad(det, bad):.3g} "
                             f"below floor at {first_bad(coords, bad)}")
        return J


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


def _sum(values):
    """((v0 + v1) + v2) + ..., left to right, with no leading 0."""
    return functools.reduce(operator.add, values)


class CoefficientForm:
    """Degree-k differential form with numerically evaluated coefficients.

    Only strictly increasing index tuples are stored, so antisymmetry is
    canonical.  Coefficients may be real or complex valued; a complex
    form is understood as a pair of real forms.

    A leaf form is built from ``terms``, a mapping from index tuples to
    functions of a batch or constants.  A derived form passes its index
    tuples as ``terms`` and, as ``values``, one function that returns
    all their coefficients at a batch, in that order.  ``indices`` and
    ``values`` hold the same for either kind.
    """

    def __init__(self, chart, degree, terms=None, values=None):
        if not (0 <= degree <= DIM):
            raise ValueError(f"degree {degree} out of range")
        if values is None:
            terms = {tuple(int(i) for i in idx): _as_callable(f) for idx, f in (terms or {}).items()}
            fns = tuple(terms.values())

            def values(c):
                return [f(c) for f in fns]

        self.chart, self.degree, self.values = chart, degree, values
        self.indices = tuple(terms)
        for idx in self.indices:
            _check_index_tuple(idx, degree)

    # -- evaluation helpers

    def evaluate(self, coords):
        """The coefficients at a batch, keyed by their index tuples."""
        return dict(zip(self.indices, self.values(np.asarray(coords, dtype=float))))

    def coeff(self, idx, coords):
        idx = tuple(idx)
        if idx not in self.indices:
            return 0.0
        return self.evaluate(coords)[idx]

    def as_vector(self, coords):
        """Coordinate components of a 1-form, shape (4, ...)."""
        if self.degree != 1:
            raise ValueError("as_vector is defined for degree-1 forms")
        vals = self.evaluate(coords)
        out = np.zeros((DIM,) + np.shape(coords)[1:], dtype=complex)
        for (i,), v in vals.items():
            out[i] = v
        if not out.imag.any():
            return out.real
        return out

    def as_matrix(self, coords):
        """Antisymmetric component matrix of a 2-form, shape (4, 4, ...)."""
        if self.degree != 2:
            raise ValueError("as_matrix is defined for degree-2 forms")
        vals = self.evaluate(coords)
        out = np.zeros((DIM, DIM) + np.shape(coords)[1:], dtype=complex)
        for (i, j), v in vals.items():
            out[i, j] = v
            out[j, i] = -v
        if not out.imag.any():
            return out.real
        return out

    def max_abs(self, coords):
        """The largest coefficient modulus at each sample."""
        samples = np.shape(coords)[1:]
        vals = [np.broadcast_to(v, samples) for v in self.values(np.asarray(coords, dtype=float))]
        if not vals:
            return np.zeros(samples)[()]
        # np.max returns NaN wherever one occurs
        return np.max(np.abs(vals), axis=0)

    # -- algebra

    def __add__(self, other):
        self._check_compat(other, self.degree)
        keys = tuple(set(self.indices) | set(other.indices))

        def values(c):
            a = dict(zip(self.indices, self.values(c)))
            b = dict(zip(other.indices, other.values(c)))
            return [a[k] + b[k] if k in a and k in b else a.get(k, b.get(k)) for k in keys]

        return CoefficientForm(self.chart, self.degree, keys, values)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        def values(c):
            s = scalar(c) if callable(scalar) else scalar
            return [s * v for v in self.values(c)]

        return CoefficientForm(self.chart, self.degree, self.indices, values)

    __rmul__ = __mul__

    def _check_compat(self, other, degree):
        if not isinstance(other, CoefficientForm):
            raise TypeError("expected a CoefficientForm")
        if other.chart is not self.chart:
            raise ValueError(f"chart mismatch: {self.chart.name} vs {other.chart.name}")
        if other.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {other.degree}")


def one_form(chart, components):
    """Build a 1-form from a dict {index: coefficient} or a length-4 sequence."""
    if isinstance(components, dict):
        terms = {(int(i),): f for i, f in components.items()}
    else:
        terms = {(i,): components[i] for i in range(DIM) if components[i] is not None}
    return CoefficientForm(chart, 1, terms)


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
    """Canonical wedge product; bilinear, with the permutation sign rule.

    Each coefficient sums its products in the order of f's and then g's
    index tuples, and is placed where its first product occurs."""
    if f.chart is not g.chart:
        raise ValueError(f"wedge chart mismatch: {f.chart.name} vs {g.chart.name}")
    degree = f.degree + g.degree
    if degree > DIM:
        raise ValueError(f"wedge degree overflow: {f.degree} + {g.degree} > {DIM}")
    plan = {}
    for a, ia in enumerate(f.indices):
        for b, ib in enumerate(g.indices):
            merged, sign = _merge_sign(ia, ib)
            if sign:
                plan.setdefault(merged, []).append((a, b, sign))

    def values(c):
        fv, gv = f.values(c), g.values(c)
        return [_sum(product(s * fv[a], gv[b]) for a, b, s in terms) for terms in plan.values()]

    return CoefficientForm(f.chart, degree, tuple(plan), values)


def ext_d(f, step=1e-4):
    """Numerical exterior derivative by central differences, built lazily.

    The result evaluates f, once per batch and point, at the stencil
    points c + step e_j and c - step e_j for each axis j that some index
    tuple of f lacks, and validates each of them on the chart first, so
    ``ext_d(ext_d(f))`` is meaningful and the chart margin is enforced
    where evaluation actually happens; the stencil points cover the
    centre c, which is neither evaluated nor validated.  Coefficients
    sum and are placed as in wedge.
    """
    if f.degree == DIM:
        return CoefficientForm(f.chart, DIM, {})
    plan = {}
    for a, idx in enumerate(f.indices):
        for j in range(DIM):
            if j not in idx:
                merged, sign = _merge_sign((j,), idx)
                plan.setdefault(merged, []).append((a, j, sign))
    axes = sorted({j for terms in plan.values() for _, j, _ in terms})

    def values(c):
        plus, minus = {}, {}
        for j in axes:
            cp = np.array(c, dtype=float)
            cm = np.array(c, dtype=float)
            cp[j] += step
            cm[j] -= step
            f.chart.validate(cp)
            f.chart.validate(cm)
            plus[j], minus[j] = f.values(cp), f.values(cm)
        return [_sum(s * (plus[j][a] - minus[j][a]) / (2 * step) for a, j, s in terms)
                for terms in plan.values()]

    return CoefficientForm(f.chart, f.degree + 1, tuple(plan), values)


def pullback(m, f):
    """Pull a form on the target chart of ``m`` back to the source chart,
    with one map, one jacobian and one evaluation of f per batch."""
    if f.chart is not m.target:
        raise ValueError(f"pullback: form lives on {f.chart.name}, map targets {m.target.name}")
    k = f.degree
    if k == 0:
        return CoefficientForm(m.source, 0, {(): lambda c: f.coeff((), m.forward(c))})
    source_tuples = tuple(itertools.combinations(range(DIM), k))

    def values(c):
        y = np.asarray(m.forward(c), dtype=float)
        J = m.jacobian(c)
        fv = f.values(y)
        out = []
        for jdx in source_tuples:
            total = 0.0
            for idx, v in zip(f.indices, fv):
                total = total + v * np.linalg.det(as_stack(J[np.ix_(idx, jdx)]))
            out.append(total)
        return out

    return CoefficientForm(m.source, k, source_tuples, values)


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
    coframe: callable  # coords -> (4, 4, ...) matrices, row i = coordinate components of e_i

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

    # the four components share one frame solve; the explicit (..., 4, 1)
    # right-hand side keeps numpy 2.0's solve from reading a stack of
    # vectors as one matrix
    def values(c):
        Et = np.swapaxes(as_stack(np.asarray(structure.coframe(c), dtype=float)), -1, -2)
        frame_comps = np.linalg.solve(Et, np.moveaxis(f.as_vector(c), 0, -1)[..., None])
        return np.moveaxis((Et @ (structure.action @ frame_comps))[..., 0], -1, 0)

    return CoefficientForm(f.chart, 1, [(i,) for i in range(DIM)], values)


# ---------------------------------------------------------------------------
# i del delbar on the standard complex chart


def hermitian_from_second_derivs(d2):
    """Combine symmetric real second derivatives into the Hermitian 2x2
    matrix of mixed complex second derivatives, as the components
    (h11, h22, Re h12, Im h12) along a new leading axis.

    ``d2[..., m, n]`` holds the derivative along real coordinates m, n in
    the ordering (x1, y1, x2, y2).  Works on scalars or broadcast arrays.
    """
    d2 = np.asarray(d2)
    return 0.25 * np.stack([
        d2[..., 0, 0] + d2[..., 1, 1],
        d2[..., 2, 2] + d2[..., 3, 3],
        d2[..., 0, 2] + d2[..., 1, 3],
        d2[..., 0, 3] - d2[..., 1, 2],
    ])


def hermitian_to_real_two_form(h):
    """Real coordinate components of i * sum h_ij dz_i ^ dzbar_j for the
    Hermitian components h = (h11, h22, Re h12, Im h12).

    Returns a dict keyed by increasing index pairs in the ordering
    (x1, y1, x2, y2).
    """
    h11, h22, a12, b12 = h
    return {
        (0, 1): 2 * h11,
        (2, 3): 2 * h22,
        (0, 2): -2 * b12,
        (1, 3): -2 * b12,
        (0, 3): 2 * a12,
        (1, 2): -2 * a12,
    }


def second_derivative_matrix(phi, coords, step=1e-4):
    """Full matrix of second partials by central differences, shape
    (4, 4, ...) on a batch.

    Pure second derivatives use the 3-point stencil, mixed ones the
    4-point cross stencil.
    """
    coords = np.asarray(coords, dtype=float)
    h = step
    f0 = phi(coords)
    bad = ~np.isfinite(f0)
    if np.any(bad):
        raise ValueError(f"non-finite sample at {first_bad(coords, bad)}")
    d2 = np.empty((DIM, DIM) + coords.shape[1:])
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
    bad = ~np.all(np.isfinite(d2), axis=(0, 1))
    if np.any(bad):
        raise ValueError(f"non-finite second derivatives at {first_bad(coords, bad)}")
    return d2


def i_ddbar(phi, step=1e-4, chart=COMPLEX2):
    """The (1,1)-form i del delbar phi as a real 2-form on the complex chart.

    ``phi`` is a real scalar function of the real coordinates
    (x1, y1, x2, y2).  The coefficient matrix is Hermitian by
    construction of the symmetrized stencils.
    """

    # the six coefficients, in hermitian_to_real_two_form's order, share
    # one second-derivative matrix
    def values(c):
        d2 = second_derivative_matrix(phi, c, step)
        return list(hermitian_to_real_two_form(hermitian_from_second_derivs(as_stack(d2))).values())

    keys = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    return CoefficientForm(chart, 2, keys, values)
