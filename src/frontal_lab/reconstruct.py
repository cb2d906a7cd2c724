"""Rebuild a frontal from its structure data and audit the rebuild.

The data of the game is (Lambda, I_Omega, h, D1, D2, S, phi) on a
rectangle, together with an initial frame W0 = (v1 v2 v3) and position p
at a base point.  The frame field solves the linear system

    W_u1 = W A_1^T,   W_u2 = W A_2^T

with the augmented 3x3 blocks A_j that append the h-column and the
(negated) shape rows to the 2x2 connection symbols, and the position solves
Dx = Omega Lambda^T with Omega the first two frame columns.  Both are
integrated jointly by RK4 (the position block is triangular over the
frame block, so this is frame-then-position in one sweep), first down a
spine and then along rows; the opposite sweep order is always run as a
path-independence audit, which turns compatibility into a measurable.

Every structure entry is a callable (u1, u2, order) -> jets on the
broadcast of u1 and u2: a 2x2 jet matrix, or a jet for phi.  Entries are
expression-backed (evaluated exactly through jets), grid-backed (the
not-a-knot bicubic spline of `GridField`, in numpy), or extracted
(closures over a frontal and a transversal field that solve the frame
systems in jet arithmetic at any requested point).  The connection
blocks are defined per axis: `StructureData.blocks` returns the
augmented 3x3 block A_j = [[D_j, h column j], [-S row j, 0]] of each
axis asked for.  A sweep along u_j reads A_j alone; the
residuals, the block extension and the export read both axes at one
point set, with one call.

The two sweep orders march together: one RK4 loop carries both spines
(the rows lattice's along u2 and the columns lattice's along u1, up and
down from the basepoint's node) and a second one both families, each
lane with its own step, wherever the sweeps share a node count and a
substep count.  A sweep knows all of its abscissae before it takes a
step, so a loop reads its segments in batches, as many whole lattice
segments as fit in frame.SWEEP_LANES points on its widest sweep (at
least one), and each sweep samples its own coefficients of a batch
with one call, on the open mesh (substep abscissae) x (lanes); a grid
entry contracts its u2 axis once per distinct u2 value of the call,
then its u1 axis point by point.  A call is evaluated by
frame.in_lane_blocks, so no evaluation holds more points than the
budget.

Every sampling call of a march is fixed by the lattice before its first
step, so the march lists its calls in the order it reads them, batch by
batch and sweep by sweep, and runs them through forks.fork_map, whose
rules decide where each call runs; its unit of work is a point sampled.
Forked children claim the calls as they get free, and the marching
process samples a call only while the one it reads next is not yet
back.  A call's one result is its RK4 matrices, sent back from a child
as raw float bytes, and every entry gives a point the same bits in any
batch (the adaptive quadrature behind some of them decides convergence
lane by lane), so the march is bit-identical wherever a call ran.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .blaschke import (extended_values, membership_certificate_fn,
                       nudged_points)
from .config import DEFAULT, Config
from .equiaffine import TransversalField
from .errors import (CompatibilityViolated, ConditionFailed, DegenerateMetric,
                     FrameDegenerate, Indeterminate, InputError,
                     InsufficientJetOrder, IntegrabilityViolated,
                     NotExtendable, RankDeficient, SingularPoint)
from . import frame as frame_mod
from .forks import fork_map
from .frame import Frontal, _gram, frame_bundle
from .jets import (INDICES, MAX_ORDER, Jet, JetVec3, _mat_values, det2_jet,
                   mat2_mul_jet)


# --- structure entries -------------------------------------------------------------


def expr_entry(sources):
    """Entry evaluating 1 expression (a scalar) or 4 (a row-major 2x2)."""
    if isinstance(sources, str):
        sources = [sources]
    asts = [expr_mod.parse(s) for s in sources]
    if len(asts) not in (1, 4):
        raise InputError("expression field needs 1 or 4 components")
    return expr_mod.jets_fn(asts)


def _not_a_knot(n):
    """(n + 2, n) matrix taking samples at the n nodes of a uniform grid
    to the coefficients of their not-a-knot cubic spline (the
    interpolant of FITPACK's s=0 knots) in the uniform cubic B-spline
    basis: coefficient k weighs the B-spline centred on node k - 1.
    Rows: the value at each node, then a zero jump of the third
    derivative at the second and the second-to-last node."""
    a = np.zeros((n + 2, n + 2))
    for k in range(n):
        a[k, k:k + 3] = (1.0, 4.0, 1.0)
    a[n, :5] = a[n + 1, -5:] = (1.0, -4.0, 6.0, -4.0, 1.0)
    return np.linalg.solve(a, np.eye(n + 2, n) * 6.0)


def _bspline_weights(t, lo, hi, n, order):
    """(first coefficient, weights) of coordinates t on the uniform grid
    of n nodes on [lo, hi]: weights[p][a] is the p-th derivative of the
    B-spline of coefficient first + a at t.  Coordinates outside the grid
    are clamped to its edge, as FITPACK's fpbisp does.  Elementwise, so
    a coordinate gets the same bits in any batch."""
    inv_h = (n - 1) / (hi - lo)
    u = (np.clip(t, lo, hi) - lo) * inv_h
    first = np.fmin(np.floor(u), n - 2)     # fmin sends NaN to a cell
    s = u - first
    r = 1.0 - s
    weights = [[r * r * r / 6.0, ((3.0 * s - 6.0) * s * s + 4.0) / 6.0,
                ((3.0 * r - 6.0) * r * r + 4.0) / 6.0, s * s * s / 6.0]]
    if order >= 1:
        weights.append([-0.5 * r * r * inv_h,
                        0.5 * s * (3.0 * s - 4.0) * inv_h,
                        -0.5 * r * (3.0 * r - 4.0) * inv_h,
                        0.5 * s * s * inv_h])
    if order >= 2:
        inv_h2 = inv_h * inv_h
        weights.append([r * inv_h2, (3.0 * s - 2.0) * inv_h2,
                        (3.0 * r - 2.0) * inv_h2, s * inv_h2])
    return first.astype(np.intp), weights


def _contract(pick, weights):
    """For each list w in `weights`, the sum of pick(a) * w[a] over the
    four B-splines a, always as ((t0 w0 + t1 w1) + t2 w2) + t3 w3, so a
    point does the same arithmetic in any batch.  pick(a) builds a
    fresh array, and one is held at a time."""
    t = pick(0)
    out = [t * w[0] for w in weights]
    for a in (1, 2, 3):
        t = pick(a)
        for acc, w in zip(out, weights):
            acc += t * w[a]
    return out


class GridField:
    """Entry sampled on a rectangular grid, interpolated bicubically.

    The spline is the not-a-knot interpolant along each axis (FITPACK's
    s=0 knots), held as uniform cubic B-spline coefficients.  A call
    contracts the u2 axis first, once per distinct u2 value (one per
    lane on a sweep's mesh), then the u1 axis point by point; every
    point does the same arithmetic in any batch, so a mesh and its
    points give the same bits.  Third partials are beyond the bicubic
    spline, so jets stop at order SPLINE_ORDER.  The not-a-knot spline
    needs MIN_SAMPLES samples per axis, so a structure file may hold no
    smaller grid.
    """

    SPLINE_ORDER = 2
    MIN_SAMPLES = 4

    def __init__(self, domain, values):
        # values: (nx, ny) or (4, nx, ny) row-major component grids
        a1, b1, a2, b2 = domain
        values = np.asarray(values, dtype=float)
        self.matrix = values.ndim == 3
        comps = values if self.matrix else values[None, ...]
        nx, ny = comps.shape[1:]
        self.axes = ((a1, b1, nx), (a2, b2, ny))
        # (components, ny + 2, nx + 2): a u2 contraction takes whole rows
        self.coeffs = np.ascontiguousarray(np.swapaxes(
            _not_a_knot(nx) @ comps @ _not_a_knot(ny).T, 1, 2))

    def __call__(self, u1, u2, order):
        if order > self.SPLINE_ORDER:
            raise InsufficientJetOrder(
                f"order-{order} jets of a grid entry need third partials, "
                f"beyond the bicubic spline's limit of order "
                f"{self.SPLINE_ORDER}")
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        # distinct u2 values by their bits, so -0.0 keeps its own
        bits, lane = np.unique(np.ascontiguousarray(u2).view(np.int64),
                               return_inverse=True)
        first2, w2 = _bspline_weights(bits.view(float), *self.axes[1], order)
        first1, w1 = _bspline_weights(u1, *self.axes[0], order)
        # only the u1 coefficients some point reads: a spine's lane reads 4
        k0 = first1.min(initial=self.axes[0][2] - 2)
        coeffs = np.ascontiguousarray(
            self.coeffs[..., k0:first1.max(initial=k0) + 4])
        ncomp, _, width = coeffs.shape
        # u2 first, per distinct u2 value and u2 partial: (components,
        # distinct u2 values x u1 coefficients)
        rows = _contract(lambda b: np.take(coeffs, first2 + b, axis=1),
                         [[w[:, None] for w in wj] for wj in w2])
        # then u1, each point in its own u2 value's row
        at = lane.reshape(u2.shape) * width + (first1 - k0)
        partials = {}
        for j, row in enumerate(rows):
            row = row.reshape(ncomp, -1)
            cols = _contract(lambda a: np.take(row, at + a, axis=1),
                             w1[:order + 1 - j])
            partials.update(((i, j), col) for i, col in enumerate(cols))
        vals = [Jet(order, [partials[ij][c] for ij in INDICES[order]])
                for c in range(ncomp)]
        if not self.matrix:
            return vals[0]
        return [[vals[0], vals[1]], [vals[2], vals[3]]]


def _augmented_block(d, h_col, bottom, h00):
    """A_j = [[D_j, h column j], [-S row j, 0]] as a 3x3 jet matrix, from
    D_j, h column j and `bottom`, the row -S_j.  The corner is h00 * 0.0
    with h00 = h[0][0], so a NaN there reaches the block of either axis."""
    return [[d[0][0], d[0][1], h_col[0]],
            [d[1][0], d[1][1], h_col[1]],
            [bottom[0], bottom[1], h00 * 0.0]]


def split_blocks(a1, a2):
    """(D1, D2, h, S) jet matrices read off the augmented blocks of both
    axes, S in rows S_i^j."""
    d1, d2 = ([row[:2] for row in a[:2]] for a in (a1, a2))
    h = [[a1[i][2], a2[i][2]] for i in range(2)]
    s = [[-c for c in a[2][:2]] for a in (a1, a2)]
    return d1, d2, h, s


def stack_blocks(d1, d2, h, s):
    """The `blocks` callable of four entries stored one by one: h and S
    are evaluated whole, D only on the axes asked for."""
    def blocks(u1, u2, order, axes=(0, 1)):
        h_j, s_j = h(u1, u2, order), s(u1, u2, order)
        return tuple(_augmented_block((d1, d2)[j](u1, u2, order),
                                     [h_j[0][j], h_j[1][j]],
                                     [-s_j[j][0], -s_j[j][1]], h_j[0][0])
                     for j in axes)
    return blocks


@dataclass
class StructureData:
    """Everything the frame and position systems consume.

    lam, i_omega and phi are entries; blocks(u1, u2, order, axes=(0, 1))
    returns the augmented block (`_augmented_block`) of each axis in
    `axes`, as jets of order `order`.  The proper hypothesis
    (regular set dense) and symmetry of I_Omega are the caller's
    responsibility for grid data; extracted and expression data satisfy
    them by construction.

    Every entry gives a point the same bits in any batch, so a march
    evaluates each sampling call in lane blocks (frame.in_lane_blocks).
    """
    domain: tuple
    basepoint: tuple
    W0: np.ndarray            # (3, 3), columns (v1 v2 v3)
    p: np.ndarray             # (3,)
    lam: object
    i_omega: object
    blocks: object
    phi: object

    # -- evaluation helpers -------------------------------------------------

    def aug_values(self, u1, u2, axis):
        """What a sweep along u_axis reads, on the broadcast shape of u1
        and u2: the (..., 3, 3) values of the augmented block A_axis and
        the (..., 2) values of Lambda's row `axis`."""
        shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
        block, = self.blocks(u1, u2, 0, (axis,))
        lam_row = self.lam(u1, u2, 0)[axis]
        return (_mat_values(block, shape),
                _mat_values([lam_row], shape)[..., 0, :])

    def lam_det_values(self, u1, u2):
        shape = np.shape(np.asarray(u1, dtype=float))
        return det2_jet(self.lam(u1, u2, 0)).value_on(shape)

    def regular_sample(self, u1_nodes, u2_nodes, config: Config):
        """Regular points (u1, u2) of the node lattice, and det Lambda on
        the whole lattice, flattened.

        Raises SingularPoint when no node is regular: reconstruction
        assumes the regular set is dense.
        """
        g1, g2 = np.meshgrid(u1_nodes, u2_nodes, indexing="ij")
        g1, g2 = g1.ravel(), g2.ravel()
        lam_det = self.lam_det_values(g1, g2)
        reg = np.abs(lam_det) > config.eps_sing
        if not np.any(reg):
            raise SingularPoint(
                "det Lambda vanishes at every sampled node; the structure "
                "data violate the hypothesis that the regular set is dense")
        return g1[reg], g2[reg], lam_det


# --- extraction from a frontal + transversal field -----------------------------------


def solver3_jet(c1: JetVec3, c2: JetVec3, c3: JetVec3):
    """Cramer solver (rhs, comps) -> the components `comps` of y, where
    (c1 c2 c3) y = rhs, in jet arithmetic; c1 x c2 and the determinant
    are formed once for every rhs."""
    c12 = c1.cross(c2)
    det = c12.dot(c3)
    numerators = (lambda rhs: rhs.cross(c2).dot(c3),
                  lambda rhs: c1.cross(rhs).dot(c3), c12.dot)

    def solve(rhs: JetVec3, comps=(0, 1, 2)):
        return tuple(numerators[k](rhs) / det for k in comps)
    return solve


def _full_points(u1, u2):
    """Contiguous float arrays of the broadcast of u1 and u2.  The frame
    routes index points (the Blaschke nudge), and stride-0 views could
    send numpy's transcendental loops down another path."""
    return tuple(np.array(a, dtype=float) for a in np.broadcast_arrays(u1, u2))


def extract_structure(f: Frontal, xi: TransversalField) -> StructureData:
    """Sample-free structure data: every entry evaluates jets on demand.

    A `regular_only` field (the affine normal) is evaluated at points
    nudged transversally off the singular set when a sweep lands on it;
    the structure symbols themselves extend smoothly, so a 1e-7 nudge
    perturbs them by the same order.  The basepoint is the domain's
    lower-left corner, inset by 2 %, shifted by an irrational multiple of
    the domain width so integration lattices avoid exact singular hits.
    Symbols of order k come from a frame bundle of order k + the orders
    they lose; beyond jets.MAX_ORDER the request raises
    InsufficientJetOrder.
    """
    a1, b1, a2, b2 = f.domain
    offset = (b1 - a1) * 1e-4 * math.sqrt(2.0)
    margin1 = 0.02 * (b1 - a1)
    margin2 = 0.02 * (b2 - a2)
    lo1, hi1 = a1 + margin1 + offset, b1 - margin1
    lo2, hi2 = a2 + margin2 + offset, b2 - margin2

    def frame_and_xi(u1, u2, order):
        """Frame bundle at `order` and field jets at the evaluation points;
        a regular-only field evaluates both at the nudged points."""
        if xi.regular_only:
            u1, u2 = nudged_points(f, u1, u2)
        b = frame_bundle(f, u1, u2, order)
        return b, xi.jets(b)

    q1 = np.asarray([lo1])
    q2 = np.asarray([lo2])
    b0, xj0 = frame_and_xi(q1, q2, MAX_ORDER)
    # Orders the symbols lose against the bundle: whatever the moving basis
    # or the field loses, plus one for the derivatives of w1, w2 and xi
    # they solve for.
    carried = min(b0.w1.order, b0.w2.order, xj0.order)
    loss = 1 + b0.order - carried

    def bundle_for(u1, u2, order):
        """Frame bundle and field jets that carry order-`order` symbols."""
        if order + loss > MAX_ORDER:
            raise InsufficientJetOrder(
                f"order-{order} structure jets need order-{order + loss} "
                f"frame jets, beyond the jet budget of order {MAX_ORDER}: "
                f"on {f.name} with the {xi.label} field each symbol loses "
                f"{loss} orders (the moving basis and the field carry "
                f"order {carried} of {b0.order}, and the solve for their "
                f"derivatives takes one more)")
        return frame_and_xi(*_full_points(u1, u2), order + loss)

    def blocks(u1, u2, order, axes=(0, 1)):
        b, xj = bundle_for(u1, u2, order)
        # The symbols solve for the derivatives of w1, w2 and xi in the
        # frame (w1, w2, xi).  Jet arithmetic is graded, so solving on
        # jets truncated to the order read changes no coefficient read.
        cols = [v.truncate(order + 1) for v in (b.w1, b.w2, xj)]
        solve = solver3_jet(*(c.truncate(order) for c in cols))
        # coefficients of w1_uj and w2_uj: rows of D_j, then h column j
        w = {j: [solve(c.deriv(j)) for c in cols[:2]] for j in axes}
        h00 = w[0][0][2] if 0 in axes else solve(cols[0].deriv(0), (2,))[0]
        return tuple(_augmented_block([y[:2] for y in w[j]],
                                     [y[2] for y in w[j]],
                                     solve(cols[2].deriv(j), (0, 1)), h00)
                     for j in axes)

    def phi(u1, u2, order):
        b, xj = bundle_for(u1, u2, order)
        return xj.dot(b.n)

    def lam(u1, u2, order):
        return f.lam(*_full_points(u1, u2), order)

    def i_omega(u1, u2, order):
        return _gram(*f.omega(*_full_points(u1, u2), order))

    W0 = np.stack([b0.w1.values_on((1,))[0], b0.w2.values_on((1,))[0],
                   xj0.values_on((1,))[0]], axis=-1)
    p0 = f.x(q1, q2, 0).values_on((1,))[0]

    return StructureData(
        domain=(lo1, hi1, lo2, hi2), basepoint=(lo1, lo2),
        W0=W0, p=p0, lam=lam, i_omega=i_omega, blocks=blocks, phi=phi)


# --- compatibility and integrability residuals -----------------------------------------


def compat_residual(sd: StructureData, u1, u2):
    """(max Frobenius norm of the frame-system flatness defect, its scale).

    The defect is A1_u2 - A2_u1 + [A1, A2] over the sampled points, with
    the augmented 3x3 blocks, from one order-1 evaluation; the scale,
    max(1, max |A1|, max |A2|), is what the compatibility gate
    multiplies its tolerance by.
    """
    shape = np.shape(np.asarray(u1, dtype=float))
    a1, a2 = sd.blocks(u1, u2, 1)
    A1 = _mat_values(a1, shape)
    A2 = _mat_values(a2, shape)
    R = (_mat_values(a1, shape, 1) - _mat_values(a2, shape, 0)
         + A1 @ A2 - A2 @ A1)
    fro = np.sqrt(np.sum(R * R, axis=(-2, -1)))
    scale = max(1.0, float(np.max(np.abs(A1))), float(np.max(np.abs(A2))))
    return float(np.max(fro)), scale


def integrability_residual(sd: StructureData, u1, u2):
    """(symmetry residual, row-identity residual) of the position system."""
    shape = np.shape(np.asarray(u1, dtype=float))
    lam_j = sd.lam(u1, u2, 1)
    d1_j, d2_j, h_j, _ = split_blocks(*sd.blocks(u1, u2, 0))

    lam_h_01 = lam_j[0][0] * h_j[0][1] + lam_j[0][1] * h_j[1][1]
    lam_h_10 = lam_j[1][0] * h_j[0][0] + lam_j[1][1] * h_j[1][0]
    sym = float(np.max(np.abs(lam_h_01.value_on(shape)
                              - lam_h_10.value_on(shape))))

    row = []
    for col in range(2):
        left = (lam_j[1][0] * d1_j[0][col] + lam_j[1][1] * d1_j[1][col]
                + lam_j[1][col].deriv(0))
        right = (lam_j[0][0] * d2_j[0][col] + lam_j[0][1] * d2_j[1][col]
                 + lam_j[0][col].deriv(1))
        row.append(np.max(np.abs(left.value_on(shape)
                                 - right.value_on(shape))))
    # np.max, unlike the builtin, keeps a NaN for the gate to see
    return sym, float(np.max(row))


# --- constructive extension of the connection blocks ------------------------------------


def _efg_jets(sd, u1, u2, order):
    lam = sd.lam(u1, u2, order)
    io = sd.i_omega(u1, u2, order)
    lio = mat2_mul_jet(lam, io)
    lam_t = [[lam[0][0], lam[1][0]], [lam[0][1], lam[1][1]]]
    I_cl = mat2_mul_jet(lio, lam_t)
    return I_cl[0][0], I_cl[0][1], I_cl[1][1]


def extend_D(sd: StructureData, which, u1, u2, config: Config = DEFAULT):
    """Connection block D_which on all sampled points, plus its certificate.

    The five smooth ingredients (the correction products and the skew
    scalar) are evaluated directly at regular points and probed at
    singular ones; the constructive formula assembles D from them.
    Raises ConditionFailed when a probe fails, which is exactly the
    failure of the membership criterion.
    """
    certificate = membership_certificate_fn(
        lambda u1, u2: sd.lam(u1, u2, 1),
        lambda u1, u2: sd.i_omega(u1, u2, 1),
        lambda u1, u2: _efg_jets(sd, u1, u2, 1), which)
    k = 0 if which == 1 else 1

    def ingredients(uu1, uu2):
        """(C_k entries (4), omega_k) stacked, (5, n), at regular points."""
        sshape = np.shape(uu1)
        h_j = split_blocks(*sd.blocks(uu1, uu2, 0))[2]
        phi_j = sd.phi(uu1, uu2, 1)

        def v(jet):
            return jet.value_on(sshape)

        # tangential coefficients from the transposed relative form:
        # (phi h)^T (a, b)^T = -grad phi
        M = np.stack([
            np.stack([v(phi_j * h_j[0][0]), v(phi_j * h_j[1][0])], axis=-1),
            np.stack([v(phi_j * h_j[0][1]), v(phi_j * h_j[1][1])], axis=-1)],
            axis=-2)
        rhs = -np.stack([v(phi_j.deriv(0)), v(phi_j.deriv(1))], axis=-1)
        ab = np.linalg.solve(M, rhs[..., None])[..., 0]
        return np.stack([
            2.0 * ab[..., 0] * v(h_j[0][k]),
            2.0 * ab[..., 1] * v(h_j[0][k]),
            2.0 * ab[..., 0] * v(h_j[1][k]),
            2.0 * ab[..., 1] * v(h_j[1][k]),
            certificate(uu1, uu2)[0]], axis=0)

    try:
        vals, _ = extended_values(ingredients, sd.lam_det_values, u1, u2,
                                  sd.domain, "extension certificate", config)
    except (NotExtendable, Indeterminate) as failed:
        raise ConditionFailed(str(failed)) from failed
    shape, omega = vals.shape[1:], vals[4]
    C = np.moveaxis(vals[:4], 0, -1).reshape(shape + (2, 2))
    io_j = sd.i_omega(u1, u2, 1)
    I = _mat_values(io_j, shape)
    I_k = _mat_values(io_j, shape, k)
    skew = np.zeros(shape + (2, 2))
    skew[..., 0, 1] = -omega
    skew[..., 1, 0] = omega
    return 0.5 * (I_k - C @ I + skew) @ np.linalg.inv(I), omega


# --- apolarity ---------------------------------------------------------------------


def apolarity_check(sd: StructureData, u1, u2, config: Config = DEFAULT):
    """Max residual of the parallel-volume condition of the affine metric.

    resid_k = d/du_k sqrt|det c| - trace(Gamma~_k) sqrt|det c| with
    c = Lambda h and Gamma~_k = (Lambda_uk + Lambda D_k) Lambda^{-1},
    sampled on regular points only.
    """
    shape = np.shape(np.asarray(u1, dtype=float))
    lam_j = sd.lam(u1, u2, 1)
    h_j = split_blocks(*sd.blocks(u1, u2, 1))[2]
    c_j = mat2_mul_jet(lam_j, h_j)
    det_c = c_j[0][0] * c_j[1][1] - c_j[0][1] * c_j[1][0]
    det_v = det_c.value_on(shape)
    if np.any(np.abs(det_v) <= 1e-14):
        raise DegenerateMetric("det of the affine fundamental form vanishes "
                               "on the sample")
    sign = np.sign(det_v)
    s_j = (det_c * sign).powf(0.5)

    lam_det = sd.lam_det_values(u1, u2)
    if np.any(np.abs(lam_det) <= config.eps_sing):
        raise DegenerateMetric("apolarity sampled on the singular set")
    lam_v = _mat_values(lam_j, shape)
    lam_inv = np.linalg.inv(lam_v)

    resid = []
    for k, dk in enumerate(split_blocks(*sd.blocks(u1, u2, 0))[:2]):
        d_v = _mat_values(dk, shape)
        lam_uk = _mat_values(lam_j, shape, k)
        gamma = (lam_uk + lam_v @ d_v) @ lam_inv
        trace = gamma[..., 0, 0] + gamma[..., 1, 1]
        ds = s_j.deriv(k).value_on(shape)
        s_v = s_j.value_on(shape)
        resid.append(np.max(np.abs(ds - trace * s_v)))
    # np.max, unlike the builtin, keeps a NaN for the gate to see
    return float(np.max(resid))


# --- integration -------------------------------------------------------------------


@dataclass
class FrameField:
    u1_nodes: np.ndarray
    u2_nodes: np.ndarray
    W: np.ndarray             # (n1, n2, 3, 3)
    x: np.ndarray             # (n1, n2, 3), the position grid
    discrepancy: float        # path-independence audit, frame part
    x_discrepancy: float      # audit on the position part
    min_det: float
    # residuals on the regular lattice nodes, as gated
    compat: float
    symmetry: float
    row_identity: float


# Most RK4 substeps a march takes between two of its nodes.  A segment's
# 2 nsub + 1 abscissae are held as RK4 matrices (128 B per lane and
# abscissa), and sampled as one call, in lane blocks (about 1 KB of jets
# per point of a block); the loop runs nsub Python-level steps per
# segment, so nsub sets a march's peak memory and time.  2^14 admits the
# default step (1e-3) on a two-node axis of every catalog domain (at most
# 8 wide, so 8,000 substeps) and keeps a one-lane segment near 33,000
# points; a step that needs more is refused before any array is sized.
MAX_SUBSTEPS = 1 << 14


def _rk4_blocks(sd, call):
    """The (abscissae, lanes, 4, 4) RK4 matrices [[A_axis^T, Lambda
    row^T], [0, 0]] of one aug_values call, sampled in lane blocks
    (frame.in_lane_blocks)."""
    u1, u2, axis = call

    def rk4(u1, u2):
        daug, lam_row = sd.aug_values(u1, u2, axis)
        A = np.zeros(daug.shape[:-2] + (4, 4))
        A[..., :3, :3] = np.swapaxes(daug, -1, -2)
        A[..., :2, 3] = lam_row
        return {"A": A}
    return frame_mod.in_lane_blocks(rk4, u1, u2)["A"]


def _march(sd, sweeps, step):
    """RK4 sweeps, each `(state, fixed, nodes, axis)`: march `state`
    (m, 3, 4) along `nodes` from its first entry, with the other
    coordinate fixed per lane.  Returns the states at every node of each
    sweep, (n_nodes, m, 3, 4), in order.

    Sweeps with the same node count and substep count march their lanes
    together in one loop; each lane carries its own step, so the
    operations on a lane are those of a sweep marched alone.  The loop
    reads its segments in batches of as many whole segments as fit in
    frame.SWEEP_LANES points on its widest sweep (at least one), and
    each sweep samples a batch with one aug_values call on the open mesh
    (substep abscissae) x (lanes).  The calls, batch by batch and sweep
    by sweep, the order the loop reads them, run through forks.fork_map,
    with the points they sample as its work."""
    out = [state[None] for state, *_ in sweeps]
    groups = {}
    for i, (_, _, nodes, _) in enumerate(sweeps):
        if nodes.size > 1:
            span = abs(float(nodes[1] - nodes[0]))
            if not span / step <= MAX_SUBSTEPS:
                raise InputError(
                    f"RK4 step {step!r} needs more than {MAX_SUBSTEPS} "
                    f"substeps between march nodes {span!r} apart; take a "
                    f"larger step or more lattice nodes")
            nsub = max(1, int(math.ceil(span / step)))
            groups.setdefault((nodes.size, nsub), []).append(i)
    for (n, nsub), members in groups.items():
        width = 2 * nsub + 1
        sizes = [sweeps[i][1].size for i in members]
        lanes = sum(sizes)
        per = max(1, frame_mod.SWEEP_LANES // (width * max(sizes)))
        hs, meshes = [], []
        for i in members:
            state, fixed, nodes, axis = sweeps[i]
            h = (nodes[1] - nodes[0]) / nsub
            hs.append(np.full(state.shape[0], h))
            # (n - 1, 2 nsub + 1) abscissae of every segment's substeps,
            # by h/2
            ts = nodes[:-1, None] + 0.5 * h * np.arange(width)
            meshes.append((ts, fixed[None, :], axis))
        calls = []
        for first in range(0, n - 1, per):
            for ts, fixed, axis in meshes:
                mesh = (ts[first:first + per].reshape(-1, 1), fixed)
                calls.append((*(mesh if axis == 0 else mesh[::-1]), axis))
        Y = np.empty((n, lanes, 3, 4))
        y = Y[0] = np.concatenate([sweeps[i][0] for i in members])
        # each lane's step, its half and its sixth, over the state shape
        h = np.ascontiguousarray(np.broadcast_to(
            np.concatenate(hs)[:, None, None], y.shape))
        half, sixth = 0.5 * h, h / 6.0
        k1, k2, k3, k4, stage, term = (np.empty_like(y) for _ in range(6))
        # a batch of every member side by side; a lone member's batch is
        # read where its call left it
        side = (np.empty((per, width, lanes, 4, 4))
                if len(members) > 1 else None)
        sampled = fork_map(lambda call: _rk4_blocks(sd, call), calls,
                           (n - 1) * width * lanes)
        with contextlib.closing(sampled):
            for seg in range(1, n):
                if (seg - 1) % per == 0:
                    parts = [np.frombuffer(next(sampled)).reshape(
                        -1, width, m, 4, 4) for m in sizes]
                    batch = (parts[0] if side is None else np.concatenate(
                        parts, axis=2, out=side[:len(parts[0])]))
                A = batch[(seg - 1) % per]
                for i in range(nsub):
                    a0, a1, a2 = A[2 * i], A[2 * i + 1], A[2 * i + 2]
                    # k2 = (y + half k1) a1 and so on, into the stage
                    # buffers; y += sixth (((k1 + 2 k2) + 2 k3) + k4)
                    np.matmul(y, a0, out=k1)
                    for k, c, a, kn in ((k1, half, a1, k2),
                                        (k2, half, a1, k3),
                                        (k3, h, a2, k4)):
                        np.add(y, np.multiply(c, k, out=stage), out=stage)
                        np.matmul(stage, a, out=kn)
                    np.add(k1, np.multiply(2.0, k2, out=stage), out=stage)
                    np.add(stage, np.multiply(2.0, k3, out=term), out=stage)
                    np.add(stage, k4, out=stage)
                    np.add(y, np.multiply(sixth, stage, out=stage), out=y)
                Y[seg] = y
        for i, part in zip(members, np.split(Y, np.cumsum(sizes)[:-1],
                                             axis=1)):
            out[i] = part
    return out


def integrate_frame(sd: StructureData, shape=(21, 21), step=None,
                    config: Config = DEFAULT) -> FrameField:
    """Integrate the frame and the carried position over a node lattice.

    The compatibility and integrability residuals are evaluated once, on
    the regular nodes of the lattice, before the sweeps.  Two lattices
    are then marched from the basepoint's node: rows (a spine along u2,
    then the rows along u1) and columns (a spine along u1, then the
    columns along u2), both spines in one march and both families in
    another.  The rows lattice is the result, and its disagreement with
    the columns lattice is the path audit.  The gates, in order, each
    failed by a NaN: the compatibility residual (CompatibilityViolated),
    det W collapsing or flipping sign (FrameDegenerate), the frame audit
    (CompatibilityViolated), the integrability residuals and the
    position audit (IntegrabilityViolated).  A step whose half does not
    move the largest lattice coordinate is refused first (InputError), and
    so is one that needs more than MAX_SUBSTEPS substeps between two nodes
    of a march, before that march sizes any array.
    """
    step = step or config.rk4_step
    reach = max(abs(float(v)) for v in sd.domain)
    if not step / 2 > np.finfo(float).eps * reach:
        raise InputError(
            f"RK4 step {step!r} is too small: half a step does not move a "
            f"lattice coordinate of magnitude {reach!r}")
    a1, b1, a2, b2 = sd.domain
    u1_nodes = np.linspace(a1, b1, shape[0])
    u2_nodes = np.linspace(a2, b2, shape[1])
    u1r, u2r, lam_det = sd.regular_sample(u1_nodes, u2_nodes, config)
    compat, scale = compat_residual(sd, u1r, u2r)
    sym, row = integrability_residual(sd, u1r, u2r)
    if not compat <= config.tol_compat * scale:
        raise CompatibilityViolated(
            f"compatibility residual {compat:.2e} exceeds "
            f"{config.tol_compat * scale:.2e} before integration")

    nodes = (u1_nodes, u2_nodes)
    base = [int(np.argmin(np.abs(t - q))) for t, q in zip(nodes, sd.basepoint)]
    state = np.concatenate([sd.W0, sd.p[:, None]], axis=1)[None, ...]
    # from the basepoint to its nearest node, along u1 and then u2; no
    # step along an axis where the basepoint is on a node
    for axis, fixed in ((0, sd.basepoint[1]), (1, u1_nodes[base[0]])):
        start, node = sd.basepoint[axis], nodes[axis][base[axis]]
        if start != node:
            state = _march(sd, [(state, np.array([fixed]),
                                 np.array([start, node]), axis)], step)[0][-1]

    def both_ways(state, fixed, axis):
        """The sweeps up and down `axis` from the base node."""
        k, t = base[axis], nodes[axis]
        return [(state, fixed, t[k:], axis), (state, fixed, t[k::-1], axis)]

    def joined(up, down, axis):
        """The states of both sweeps of `axis` at every node of it."""
        k = base[axis]
        Y = np.empty((nodes[axis].size,) + up.shape[1:])
        Y[k:] = up
        Y[k::-1] = down
        return Y

    # rows lattice first in each march, then columns
    spines = _march(sd, both_ways(state, u1_nodes[base[0]:base[0] + 1], 1)
                    + both_ways(state, u2_nodes[base[1]:base[1] + 1], 0),
                    step)
    families = _march(
        sd, both_ways(joined(*spines[:2], 1)[:, 0], u2_nodes, 0)
        + both_ways(joined(*spines[2:], 0)[:, 0], u1_nodes, 1), step)
    Y_rows = joined(*families[:2], 0)
    Y_cols = np.moveaxis(joined(*families[2:], 1), 0, 1)
    W = Y_rows[..., :3]
    disc_w = float(np.max(np.abs(Y_rows[..., :3] - Y_cols[..., :3])))
    disc_x = float(np.max(np.abs(Y_rows[..., 3] - Y_cols[..., 3])))
    det = np.linalg.det(W)
    min_det = float(np.min(np.abs(det)))
    if not (min_det > 1e-12
            and float(np.max(det)) * float(np.min(det)) >= 0.0):
        raise FrameDegenerate("integrated frame lost invertibility")
    if not disc_w <= config.tol_path:
        raise CompatibilityViolated(
            f"path-independence audit {disc_w:.2e} exceeds {config.tol_path}")
    gate = 10.0 * config.tol_compat * max(1.0, float(np.max(np.abs(lam_det))))
    if not (sym <= gate and row <= gate):
        raise IntegrabilityViolated(
            f"integrability residuals ({sym:.2e}, {row:.2e}) exceed gate")
    if not disc_x <= config.tol_path:
        raise IntegrabilityViolated(
            f"position path audit {disc_x:.2e} exceeds {config.tol_path}")
    return FrameField(u1_nodes, u2_nodes, W, Y_rows[..., 3], disc_w, disc_x,
                      min_det, compat, sym, row)


# --- affine alignment ----------------------------------------------------------------


def affine_align(x_grid, y_grid):
    """Least-squares affine map y ~ L x + a over matching grids.

    Returns (L, a, sup_error).  Raises RankDeficient when the source
    points are affinely degenerate (coplanar), in which case no unique
    map exists.
    """
    X = np.asarray(x_grid, dtype=float).reshape(-1, 3)
    Y = np.asarray(y_grid, dtype=float).reshape(-1, 3)
    if X.shape != Y.shape:
        raise InputError("affine_align needs matching grids")
    B = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    if np.linalg.matrix_rank(B) < 4:
        raise RankDeficient("source points are affinely degenerate")
    beta, *_ = np.linalg.lstsq(B, Y, rcond=None)
    L = beta[:3].T
    a = beta[3]
    sup = float(np.max(np.linalg.norm(X @ L.T + a - Y, axis=1)))
    return L, a, sup
