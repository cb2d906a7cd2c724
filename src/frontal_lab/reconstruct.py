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
expression-backed (evaluated exactly through jets), grid-backed (bicubic
interpolation), or extracted (closures over a frontal and a transversal
field that solve the frame systems in jet arithmetic at any requested
point).  The connection blocks are defined per axis: `StructureData.blocks`
returns the augmented 3x3 block A_j = [[D_j, h column j], [-S row j, 0]]
of each axis asked for.  A sweep along u_j reads A_j alone; the
residuals, the block extension and the export read both axes at one
point set, with one call.

The two sweep orders march together: one RK4 loop carries both spines
(the rows lattice's along u2 and the columns lattice's along u1, up and
down from the basepoint's node) and a second one both families, each
lane with its own step, wherever the sweeps share a node count and a
substep count.  A sweep knows all of its abscissae before it takes a
step, so each sweep still samples its own coefficients, as many whole
lattice segments as fit in SWEEP_LANES lanes with one call, on the open
mesh (substep abscissae) x (lanes); grid entries evaluate an open mesh
with one spline grid call per component and partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from .blaschke import (BlaschkeField, extended_values,
                       membership_certificate_fn)
from .config import DEFAULT, Config
from .errors import (CompatibilityViolated, ConditionFailed, DegenerateMetric,
                     FrameDegenerate, Indeterminate, InputError,
                     InsufficientJetOrder, IntegrabilityViolated,
                     NotExtendable, RankDeficient, SingularPoint)
from .frame import Frontal, frame_bundle
from .jets import INDICES, MAX_ORDER, Jet, JetVec3, _mat_values, mat2_mul_jet


# --- structure entries -------------------------------------------------------------


def expr_entry(sources):
    """Entry evaluating 1 expression (a scalar) or 4 (a row-major 2x2)."""
    if isinstance(sources, str):
        sources = [sources]
    asts = [expr_mod.parse(s) for s in sources]
    if len(asts) not in (1, 4):
        raise InputError("expression field needs 1 or 4 components")
    return expr_mod.jets_fn(asts)


def _open_mesh(u1, u2):
    """(x, y, transposed) when u1, u2 form an open mesh, (n, 1) x (1, m)
    or (1, m) x (n, 1); x runs along u1 and y along u2, and `transposed`
    says the broadcast shape is (y.size, x.size).  None otherwise."""
    if u1.ndim != 2 or u2.ndim != 2:
        return None
    if u1.shape[1] == 1 and u2.shape[0] == 1:
        return u1[:, 0], u2[0], False
    if u1.shape[0] == 1 and u2.shape[1] == 1:
        return u1[0], u2[:, 0], True
    return None


class GridField:
    """Entry sampled on a rectangular grid, interpolated bicubically.

    An open mesh is evaluated with one FITPACK grid call per component
    and partial, any other points with `ev` point by point; both give
    the same bits.  Third partials are beyond the bicubic spline, so
    jets stop at order SPLINE_ORDER.  A bicubic spline needs
    MIN_SAMPLES samples per axis, so a structure file may hold no
    smaller grid.
    """

    SPLINE_ORDER = 2
    MIN_SAMPLES = 4

    def __init__(self, domain, values):
        # scipy is imported here, its one use, so that commands which
        # never read a grid entry do not load it
        from scipy.interpolate import RectBivariateSpline

        # values: (nx, ny) or (4, nx, ny) row-major component grids
        a1, b1, a2, b2 = domain
        values = np.asarray(values, dtype=float)
        self.matrix = values.ndim == 3
        comps = values if self.matrix else values[None, ...]
        nx, ny = comps.shape[1:]
        xs = np.linspace(a1, b1, nx)
        ys = np.linspace(a2, b2, ny)
        self.splines = [RectBivariateSpline(xs, ys, c, kx=3, ky=3)
                        for c in comps]

    def __call__(self, u1, u2, order):
        if order > self.SPLINE_ORDER:
            raise InsufficientJetOrder(
                f"order-{order} jets of a grid entry need third partials, "
                f"beyond the bicubic spline's limit of order "
                f"{self.SPLINE_ORDER}")
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        mesh = _open_mesh(u1, u2)
        if mesh is None:
            def partial(sp, i, j):
                return np.asarray(sp.ev(u1, u2, dx=i, dy=j))
        else:
            # FITPACK's grid routines want ascending axes; down sweeps
            # descend and segment ends can repeat, so sort stably and
            # scatter back
            x, y, transposed = mesh
            ix = np.argsort(x, kind="stable")
            iy = np.argsort(y, kind="stable")

            def partial(sp, i, j):
                out = np.empty((x.size, y.size))
                out[np.ix_(ix, iy)] = sp(x[ix], y[iy], dx=i, dy=j, grid=True)
                return out.T if transposed else out
        vals = [Jet(order, [partial(sp, i, j) for (i, j) in INDICES[order]])
                for sp in self.splines]
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
        lam = self.lam(u1, u2, 0)
        det = lam[0][0] * lam[1][1] - lam[0][1] * lam[1][0]
        return det.value_on(shape)

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


def extract_structure(f: Frontal, xi_field) -> StructureData:
    """Sample-free structure data: every entry evaluates jets on demand.

    xi_field: a TransversalField, or a BlaschkeField (whose evaluation is
    nudged transversally off the singular set when a sweep lands on it;
    the structure symbols themselves extend smoothly, so a 1e-7 nudge
    perturbs them by the same order).  The basepoint is the domain's
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

    is_blaschke = isinstance(xi_field, BlaschkeField)
    xi = xi_field.as_transversal() if is_blaschke else xi_field

    def frame_and_xi(u1, u2, order):
        """Frame bundle at `order` and field jets at the evaluation points;
        the Blaschke field evaluates both at the nudged points."""
        if is_blaschke:
            u1, u2 = xi_field.nudged_points(u1, u2)
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
        w1, w2 = f.omega(*_full_points(u1, u2), order)
        return [[w1.dot(w1), w1.dot(w2)], [w2.dot(w1), w2.dot(w2)]]

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


# Lanes (points) per coefficient evaluation of one sweep: as many whole
# segments as fit go in one call.  4,096 keeps a family segment of a
# 21x21 lattice (4,053 points) in one call and a whole spine in one call
# instead of 20; more lanes per call trade fewer calls for a larger peak
# of the per-call jet arrays.  Sweeps that march together still sample
# apart, each with its own calls.
SWEEP_LANES = 4096


def _segment_blocks(sd, fixed, ts, axis):
    """Yield, segment by segment, the (2 nsub + 1, m, 4, 4) RK4 matrices
    [[A_axis^T, Lambda row^T], [0, 0]] of one sweep along u_axis whose
    substep abscissae are the rows of `ts`, with the other coordinate
    `fixed` per lane."""
    m = fixed.size
    per_call = max(1, SWEEP_LANES // (ts.shape[1] * m))
    for first in range(0, len(ts), per_call):
        batch = ts[first:first + per_call]
        mesh = (batch.reshape(-1, 1), fixed[None, :])
        daug, lam_row = sd.aug_values(*(mesh if axis == 0 else mesh[::-1]),
                                      axis)
        A = np.zeros(daug.shape[:-2] + (4, 4))
        A[..., :3, :3] = np.swapaxes(daug, -1, -2)
        A[..., :2, 3] = lam_row
        yield from A.reshape(batch.shape + (m, 4, 4))


def _march(sd, sweeps, step):
    """RK4 sweeps, each `(state, fixed, nodes, axis)`: march `state`
    (m, 3, 4) along `nodes` from its first entry, with the other
    coordinate fixed per lane.  Returns the states at every node of each
    sweep, (n_nodes, m, 3, 4), in order.

    Sweeps with the same node count and substep count march their lanes
    together in one loop; each lane carries its own step, so the
    operations on a lane are those of a sweep marched alone."""
    out = [state[None] for state, *_ in sweeps]
    groups = {}
    for i, (_, _, nodes, _) in enumerate(sweeps):
        if nodes.size > 1:
            nsub = max(1, int(math.ceil(abs(nodes[1] - nodes[0]) / step)))
            groups.setdefault((nodes.size, nsub), []).append(i)
    for (n, nsub), members in groups.items():
        hs, segments = [], []
        for i in members:
            state, fixed, nodes, axis = sweeps[i]
            h = (nodes[1] - nodes[0]) / nsub
            hs.append(np.full(state.shape[0], h))
            # (n - 1, 2 nsub + 1) abscissae of every segment's substeps,
            # by h/2
            ts = nodes[:-1, None] + 0.5 * h * np.arange(2 * nsub + 1)
            segments.append(_segment_blocks(sd, fixed, ts, axis))
        h = np.concatenate(hs)[:, None, None]
        half, sixth = 0.5 * h, h / 6.0
        Y = np.empty((n, h.size, 3, 4))
        y = Y[0] = np.concatenate([sweeps[i][0] for i in members])
        for seg, blocks in enumerate(zip(*segments), start=1):
            A = np.concatenate(blocks, axis=1)
            for i in range(nsub):
                a0, a1, a2 = A[2 * i], A[2 * i + 1], A[2 * i + 2]
                k1 = y @ a0
                k2 = (y + half * k1) @ a1
                k3 = (y + half * k2) @ a1
                k4 = (y + h * k3) @ a2
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            Y[seg] = y
        lanes = np.cumsum([sweeps[i][0].shape[0] for i in members])
        for i, part in zip(members, np.split(Y, lanes[:-1], axis=1)):
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
    position audit (IntegrabilityViolated).
    """
    step = step or config.rk4_step
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
