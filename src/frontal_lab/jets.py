"""Truncated Taylor (jet) arithmetic in two variables, orders 0..3.

A Jet stores the raw partial derivatives of a scalar quantity at a base
point: coefficient (i, j) is d^(i+j) f / du1^i du2^j, *not* the
factorial-scaled Taylor coefficient.  Indices are ordered by total
degree, (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), (3,0), ...

Coefficients are numpy arrays of a shared broadcastable shape, so one
Jet can carry a whole grid of base points at once; every operation in
this module is elementwise over that shape.  All values are immutable
by convention (nothing here writes into a coefficient array it did not
allocate), so one frame bundle can be shared by every consumer of a
point set.

Binary operations truncate to the smaller operand order; requesting a
partial beyond the carried order raises InsufficientJetOrder.

A constant jet (`Jet.const`) is one whose derivative coefficients are
all +-0.  Only `Jet.constant` makes one; truncation, negation, scaling
by a non-jet and the sum or difference of two constants keep the flag,
and every other construction (`Jet.variable`, `deriv`, a hand-built
`Jet(order, coeffs)`) leaves it False, so no jet claims zeros it does
not have.  A product with a constant factor skips the Leibniz terms of
that factor's zero derivatives: constant x constant is the product of
the values, and constant x general scales each coefficient by the
constant's value.  The general loop starts every accumulator at +0.0,
which is never -0.0 under round-to-nearest, so adding a +-0 term to it
changes no bit: on lanes where the other operand is finite the short
paths give the general loop's bits, signed zeros included.  On a lane
holding inf or NaN a skipped 0*inf would have been NaN, so a derivative
coefficient there may be finite where the loop gives NaN; the value
coefficient keeps every bit.  Division keeps the general loop: its
accumulator starts at a numerator coefficient, which may be -0.0, and
dropping a +-0 term there could flip that zero's sign.

Also here: JetVec3 (three jets sharing a base point), a central
finite-difference oracle `fd_jet` kept deliberately independent of the
jet arithmetic, and Gauss-Legendre quadrature of jet-valued integrands
with a moving endpoint (`integrate_jet`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DivisionByZeroValue,
    DomainError,
    InsufficientJetOrder,
    QuadratureNonConvergent,
)

MAX_ORDER = 3


def _build_indices(order):
    out = []
    for deg in range(order + 1):
        for i in range(deg, -1, -1):
            out.append((i, deg - i))
    return tuple(out)


INDICES = {n: _build_indices(n) for n in range(MAX_ORDER + 1)}
POSITION = {n: {ij: k for k, ij in enumerate(INDICES[n])} for n in range(MAX_ORDER + 1)}
NCOEFF = {n: len(INDICES[n]) for n in range(MAX_ORDER + 1)}


def _build_product_table(order):
    # For each target (i, j): all (pos_a, pos_b, binom(i,a)*binom(j,b)).
    table = []
    pos = POSITION[order]
    for (i, j) in INDICES[order]:
        terms = []
        for a in range(i + 1):
            for b in range(j + 1):
                c = math.comb(i, a) * math.comb(j, b)
                terms.append((pos[(a, b)], pos[(i - a, j - b)], float(c)))
        table.append(terms)
    return table


_PRODUCT = {n: _build_product_table(n) for n in range(MAX_ORDER + 1)}


def _farray(x):
    """Float array view, preserving wider float dtypes (probe paths may
    run in extended precision)."""
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        return arr.astype(float)
    return arr


class Jet:
    __slots__ = ("order", "coeffs", "const")

    def __init__(self, order, coeffs, const=False):
        self.order = order
        self.coeffs = coeffs  # list of arrays, one per multi-index
        self.const = const    # every derivative coefficient is +-0

    # --- constructors ---------------------------------------------------

    @staticmethod
    def constant(value, order):
        value = _farray(value)
        zero = np.zeros_like(value)
        coeffs = [value] + [zero] * (NCOEFF[order] - 1)
        return Jet(order, coeffs, True)

    @staticmethod
    def variable(value, var, order):
        """Jet of the coordinate u1 (var=0) or u2 (var=1) at `value`."""
        value = _farray(value)
        zero = np.zeros_like(value)
        one = np.ones_like(value)
        coeffs = [value] + [zero] * (NCOEFF[order] - 1)
        if order >= 1:
            coeffs[POSITION[order][(1, 0) if var == 0 else (0, 1)]] = one
        return Jet(order, coeffs)

    # --- basic access ---------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    def value_on(self, shape):
        """Float value array broadcast to `shape` (a read-only view)."""
        return np.broadcast_to(np.asarray(self.value, dtype=float), shape)

    def partial(self, i, j):
        if i + j > self.order:
            raise InsufficientJetOrder(
                f"partial ({i},{j}) beyond carried order {self.order}")
        return self.coeffs[POSITION[self.order][(i, j)]]

    def truncate(self, order):
        if order > self.order:
            raise InsufficientJetOrder(
                f"cannot raise order {self.order} -> {order}")
        if order == self.order:
            return self
        return Jet(order, self.coeffs[: NCOEFF[order]], self.const)

    def deriv(self, var):
        """Jet of df/du_var, carried at one order lower."""
        if self.order == 0:
            raise InsufficientJetOrder("derivative of an order-0 jet")
        new_order = self.order - 1
        shift = (1, 0) if var == 0 else (0, 1)
        coeffs = [self.coeffs[POSITION[self.order][(i + shift[0], j + shift[1])]]
                  for (i, j) in INDICES[new_order]]
        return Jet(new_order, coeffs)

    def __repr__(self):
        vals = ", ".join(f"{ij}:{np.asarray(c).flat[0]:.6g}"
                         for ij, c in zip(INDICES[self.order], self.coeffs))
        return f"Jet(order={self.order}, {vals})"

    # --- ring operations --------------------------------------------------

    def _match(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return self.truncate(n), other.truncate(n)
        return self, Jet.constant(other, self.order)

    def __add__(self, other):
        a, b = self._match(other)
        return Jet(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)],
                   a.const and b.const)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, [-x for x in self.coeffs], self.const)

    def __sub__(self, other):
        a, b = self._match(other)
        return Jet(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)],
                   a.const and b.const)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = _farray(other)
            return Jet(self.order, [other * x for x in self.coeffs],
                       self.const)
        a, b = self._match(other)
        # A constant factor's derivative terms are +-0 and add nothing to
        # an accumulator that starts at +0.0 (see the module docstring).
        if a.const:
            a0 = a.coeffs[0]
            if b.const:
                return Jet.constant(0.0 + a0 * b.coeffs[0], a.order)
            return Jet(a.order, [0.0 + a0 * y for y in b.coeffs])
        if b.const:
            b0 = b.coeffs[0]
            return Jet(a.order, [0.0 + x * b0 for x in a.coeffs])
        out = []
        for terms in _PRODUCT[a.order]:
            acc = 0.0
            for pa, pb, c in terms:
                term = a.coeffs[pa] * b.coeffs[pb]
                acc = acc + (term if c == 1.0 else c * term)
            out.append(acc)
        return Jet(a.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / _farray(other))
        a, b = self._match(other)
        den = b.coeffs[0]
        if np.any(den == 0.0) or not np.all(np.isfinite(den)):
            raise DivisionByZeroValue("jet denominator vanishes at base point")
        inv_den = 1.0 / den
        out = [None] * NCOEFF[a.order]
        for k, terms in enumerate(_PRODUCT[a.order]):
            # Solve a = q*b coefficientwise in graded order.
            acc = a.coeffs[k]
            for pa, pb, c in terms:
                if pa == k:        # the unknown q_k * b_(0,0) term
                    continue
                term = out[pa] * b.coeffs[pb]
                acc = acc - (term if c == 1.0 else c * term)
            out[k] = acc * inv_den
        return Jet(a.order, out)

    def __rtruediv__(self, other):
        return Jet.constant(_farray(other), self.order) / self

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet ** exponent must be an integer; use powf")
        if n < 0:
            return (1.0 / self) ** (-n)
        if n < 2:
            one = Jet.constant(np.ones(np.shape(self.value)), self.order)
            return one * self if n else one
        # the first factor, not a constant one, starts the product: the
        # result is still a genuine product, whose accumulation from 0.0
        # signs every zero as a product with one first would
        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # --- analytic composition --------------------------------------------

    def compose_series(self, cs):
        """Horner evaluation of sum cs[k] * (self - value)^k, truncated."""
        delta = self - Jet.constant(self.value, self.order)
        acc = Jet.constant(cs[-1], self.order)
        for c in reversed(cs[:-1]):
            acc = acc * delta + Jet.constant(c, self.order)
        return acc

    def _taylor(self, derivs):
        # derivs[k] = F^(k)(value); composition needs F^(k)/k!.
        cs = [d / math.factorial(k) for k, d in enumerate(derivs)]
        return self.compose_series(cs)

    def sin(self):
        v = self.value
        table = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        return self._taylor(table[: self.order + 1])

    def cos(self):
        v = self.value
        table = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        return self._taylor(table[: self.order + 1])

    def exp(self):
        e = np.exp(self.value)
        return self._taylor([e] * (self.order + 1))

    def sqrt(self):
        return self.powf(0.5)

    def powf(self, alpha):
        """self**alpha for real alpha; base value must be positive."""
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError("powf/sqrt of a non-positive base value")
        derivs, fac = [], 1.0
        for k in range(self.order + 1):
            derivs.append(fac * v ** (alpha - k))
            fac *= (alpha - k)
        return self._taylor(derivs)

    def log(self):
        v = self.value
        if np.any(v <= 0.0):
            raise DomainError("log of a non-positive value")
        derivs = [np.log(v)]
        for k in range(1, self.order + 1):
            derivs.append((-1.0) ** (k - 1) * math.factorial(k - 1) * v ** (-k))
        return self._taylor(derivs)

    def absolute(self):
        """|self| where the value is sign-definite pointwise; 0 is rejected."""
        s = np.sign(self.value)
        if np.any(s == 0.0):
            raise DomainError("abs at a point where the argument vanishes")
        return self * s


def jets_allclose(a, b, tol=1e-12):
    a, b = a._match(b)
    return all(np.all(np.abs(x - y) <= tol * np.maximum(1.0, np.abs(x)))
               for x, y in zip(a.coeffs, b.coeffs))


# --- 3-vectors of jets ------------------------------------------------------


class JetVec3:
    __slots__ = ("c",)

    def __init__(self, c0, c1, c2):
        self.c = (c0, c1, c2)

    @staticmethod
    def constant(vec, order):
        return JetVec3(*(Jet.constant(v, order) for v in vec))

    @property
    def order(self):
        return min(j.order for j in self.c)

    def __getitem__(self, k):
        return self.c[k]

    def __add__(self, other):
        return JetVec3(*(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        return JetVec3(*(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self):
        return JetVec3(*(-a for a in self.c))

    def scale(self, s):
        return JetVec3(*(a * s for a in self.c))

    def dot(self, other):
        return self.c[0] * other.c[0] + self.c[1] * other.c[1] + self.c[2] * other.c[2]

    def cross(self, other):
        a, b = self.c, other.c
        return JetVec3(a[1] * b[2] - a[2] * b[1],
                       a[2] * b[0] - a[0] * b[2],
                       a[0] * b[1] - a[1] * b[0])

    def norm(self):
        return self.dot(self).sqrt()

    def deriv(self, var):
        return JetVec3(*(a.deriv(var) for a in self.c))

    def truncate(self, order):
        return JetVec3(*(a.truncate(order) for a in self.c))

    def value(self):
        """(3, ...) array of component values."""
        return np.stack([np.asarray(a.value, dtype=float) for a in
                         _broadcast_jets(self.c)])

    def values_stacked(self):
        """(..., 3) array of component values (base shape leading)."""
        return np.moveaxis(self.value(), 0, -1)

    def values_on(self, shape):
        """(..., 3) component values broadcast to `shape` + (3,) (a
        read-only view)."""
        return np.broadcast_to(self.values_stacked(), tuple(shape) + (3,))


def _broadcast_jets(jets):
    shape = np.broadcast_shapes(*(np.shape(j.value) for j in jets))
    out = []
    for j in jets:
        if np.shape(j.value) == shape:
            out.append(j)
        else:
            out.append(Jet(j.order, [np.broadcast_to(c, shape) for c in j.coeffs]))
    return out


# --- finite-difference oracle -----------------------------------------------

# Central stencils, all with O(h^2) truncation error.
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _fd_once(f, point, order, h):
    p1, p2 = point
    cache = {}

    def sample(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = float(f(p1 + a * h, p2 + b * h))
        return cache[(a, b)]

    coeffs = []
    for (i, j) in INDICES[order]:
        acc = 0.0
        for oa, ca in _STENCILS[i]:
            for ob, cb in _STENCILS[j]:
                acc += ca * cb * sample(oa, ob)
        coeffs.append(np.asarray(acc / h ** (i + j)))
    return Jet(order, coeffs)


def fd_jet(f, point, order, step=1e-3):
    """Estimate the jet of a scalar evaluator by central differences.

    Independent of the Jet arithmetic on purpose: this is the oracle the
    analytic path is checked against.  Plain stencils are O(step^2); one
    Richardson level (step vs. step/2) pushes smooth cases to O(step^4).
    The caller judges accuracy; nothing is raised here.
    """
    coarse = _fd_once(f, point, order, step)
    fine = _fd_once(f, point, order, step / 2.0)
    coeffs = [(4.0 * cf - cc) / 3.0 for cc, cf in zip(coarse.coeffs, fine.coeffs)]
    return Jet(order, coeffs)


# --- quadrature of jet-valued integrands --------------------------------------

_GL_CACHE = {}


def _gauss_legendre(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# Lanes (nodes x base points) per batched integrand call in _quad_fixed:
# small grids get many nodes per call, grids of LANES points or more get one,
# so peak memory does not grow with the node count.
LANES = 1 << 14


def _quad_fixed(integrand, lower, upper_value, order, nodes):
    """Sum w_k * integrand(t_k) over [lower, upper_value]; upper may be an array.

    Node 0 is evaluated alone to learn the integrand's output base shape;
    the other nodes go in batches on a leading node axis, up to LANES
    lanes per call.  Terms are added in node order, so the result equals
    a node-by-node loop bit for bit.
    """
    xs, ws = _gauss_legendre(nodes)
    upper_value = np.asarray(upper_value, dtype=float)
    half = (upper_value - lower) / 2.0
    mid = (upper_value + lower) / 2.0
    total = integrand(Jet.constant(mid + half * xs[0], order)) * (ws[0] * half)
    # Closures may carry more axes than the interval (a fixed scalar range
    # over grid jets, or an outer node axis), so the node axis goes in
    # front of the output shape, not of upper_value's.
    shape = np.broadcast_shapes(half.shape, *(np.shape(c) for c in total.coeffs))
    half = np.broadcast_to(half, shape)
    mid = np.broadcast_to(mid, shape)
    # A 0-d integrand stays node by node: numpy computes powers of scalars
    # with libm's pow and powers of arrays with its own loops, whose low
    # bits differ.  One node per call gets no node axis either, since a
    # length-one axis would only make every jet operation broadcast.
    batch = max(1, LANES // math.prod(shape)) if shape else 1
    node_axis = (-1,) + (1,) * len(shape) if batch > 1 else ()
    for start in range(1, nodes, batch):
        x = xs[start:start + batch].reshape(node_axis)
        w = ws[start:start + batch].reshape(node_axis)
        terms = integrand(Jet.constant(mid + half * x, order)) * (w * half)
        if batch == 1:
            total = total + terms
            continue
        for k in range(len(x)):
            total = total + Jet(terms.order, [c[k] for c in terms.coeffs])
    return total


def _classify_upper(upper, var):
    """Return ('fixed', value) or ('moving', value) for a Jet upper limit."""
    derivs = np.concatenate([np.atleast_1d(np.asarray(c, dtype=float)).ravel()
                             for c in upper.coeffs[1:]]) if upper.order > 0 else np.zeros(1)
    if np.all(np.abs(derivs) < 1e-14):
        return "fixed", upper.value
    if var is None:
        raise ValueError("moving upper limit requires var=0 or var=1")
    want = (1, 0) if var == 0 else (0, 1)
    for (i, j), c in zip(INDICES[upper.order], upper.coeffs):
        if (i, j) == (0, 0):
            continue
        target = 1.0 if (i, j) == want else 0.0
        if np.any(np.abs(np.asarray(c) - target) > 1e-12):
            raise ValueError("upper limit must be a coordinate jet in u1 or u2")
    return "moving", upper.value


def integrate_jet(integrand, lower, upper, var=None, order=3,
                  nodes=32, max_nodes=512, tol=1e-11):
    """Jet of I(u) = integral of integrand(t) dt from `lower` to `upper`.

    integrand: callable taking a Jet `t` (constant at quadrature nodes, a
        coordinate jet at the moving endpoint) and returning a Jet in the
        base-point variables; close over any parameter jets you need.
        At quadrature nodes `t` may arrive with a leading node axis in
        front of the base shape, one entry per node.  The integrand must
        therefore be elementwise over its base shape: it may broadcast,
        but must not reduce over that shape or branch on it.
    upper: float/array for a fixed interval, or a coordinate Jet in
        variable `var` for a moving endpoint.

    With a fixed interval this is differentiation under the integral sign
    via Gauss-Legendre on the parameter jets.  With a moving endpoint,
    coefficients with no derivative in `var` come from quadrature and the
    rest are read off the integrand evaluated *at* the endpoint, which is
    the fundamental theorem of calculus applied once per order.  The
    integrand must not depend on the endpoint variable except through t;
    a leaked dependence is detected and rejected.

    Raises QuadratureNonConvergent when doubling nodes past `max_nodes`
    still moves some coefficient by more than `tol` (relative).
    """
    if isinstance(upper, Jet):
        kind, upper_value = _classify_upper(upper, var)
    else:
        kind, upper_value = "fixed", np.asarray(upper, dtype=float)

    def converged_quad():
        n = nodes
        prev = _quad_fixed(integrand, lower, upper_value, order, n)
        while n < max_nodes:
            n *= 2
            cur = _quad_fixed(integrand, lower, upper_value, order, n)
            scale = max(1.0, max(float(np.max(np.abs(c))) for c in cur.coeffs))
            delta = max(float(np.max(np.abs(a - b)))
                        for a, b in zip(cur.coeffs, prev.coeffs))
            if delta <= tol * scale:
                return cur
            prev = cur
        raise QuadratureNonConvergent(
            f"quadrature still moving after {max_nodes} nodes")

    area = converged_quad()
    if kind == "fixed":
        return area

    endpoint = integrand(upper)
    shape = np.broadcast_shapes(*(np.shape(c) for c in area.coeffs),
                                *(np.shape(c) for c in endpoint.coeffs))
    coeffs = []
    scale = max(1.0, max(float(np.max(np.abs(c))) for c in area.coeffs))
    for (i, j) in INDICES[order]:
        k_var = i if var == 0 else j
        if k_var == 0:
            coeffs.append(np.broadcast_to(np.asarray(area.partial(i, j), dtype=float),
                                          shape).copy())
        else:
            if float(np.max(np.abs(area.partial(i, j)))) > 1e-9 * scale:
                raise ValueError(
                    "integrand depends on the endpoint variable directly")
            src = (i - 1, j) if var == 0 else (i, j - 1)
            coeffs.append(np.broadcast_to(
                np.asarray(endpoint.partial(*src), dtype=float), shape).copy())
    return Jet(order, coeffs)


# --- small helpers used across modules ---------------------------------------


def _mat_values(m, shape=None, var=None):
    """(..., k, k) float values of a k x k jet matrix, or of its entries'
    u_var-derivatives; `shape` defaults to the entries' broadcast shape."""
    if var is not None:
        m = [[c.deriv(var) for c in row] for row in m]
    if shape is None:
        shape = np.broadcast_shapes(*(np.shape(c.value) for row in m
                                      for c in row))
    return np.stack([np.stack([c.value_on(shape) for c in row], axis=-1)
                     for row in m], axis=-2)


def det2_jet(m):
    """det of a 2x2 jet matrix given as [[a, b], [c, d]]."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def inv2_jet(m):
    d = det2_jet(m)
    return [[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]]


def mat2_mul_jet(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def triple_product_jet(v1, v2, v3):
    """det(v1 v2 v3) for JetVec3 columns."""
    return v1.cross(v2).dot(v3)
