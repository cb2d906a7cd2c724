"""Rebuild a frontal from its structure data and audit the rebuild.

The data of the game is (Lambda, I_Omega, h, D1, D2, S, phi) on a
rectangle, together with an initial frame W0 = (v1 v2 v3) and position p
at a base point.  The frame field solves the linear system

    W_u1 = W D1aug^T,   W_u2 = W D2aug^T

with the 3x3 blocks that append the h-column and the (negated) shape
rows to the 2x2 connection symbols, and the position solves
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
point).  The four connection blocks (D1, D2, h, S) come from one
callable, `StructureData.blocks`, because every consumer reads them
together at one point set.

A sweep knows all of its abscissae before it takes a step, so it samples
the coefficients of as many whole lattice segments as fit in
SWEEP_LANES lanes with one call, on the open mesh (substep abscissae) x
(lanes); grid entries evaluate an open mesh with one spline grid call
per component and partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .blaschke import (BlaschkeField, membership_certificate_fn,
                       probe_limits)
from .config import DEFAULT, Config
from .errors import (UNUSABLE_SAMPLE, CompatibilityViolated, ConditionFailed,
                     DegenerateMetric, FrameDegenerate, InputError,
                     InsufficientJetOrder, IntegrabilityViolated,
                     RankDeficient, SingularPoint)
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
    return expr_mod._jets_fn(
        asts, expr_mod._scalar if len(asts) == 1 else expr_mod._mat2)


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
    jets stop at order SPLINE_ORDER.
    """

    SPLINE_ORDER = 2

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


def stack_blocks(d1, d2, h, s):
    """The `blocks` callable of four entries stored one by one."""
    def blocks(u1, u2, order):
        return (d1(u1, u2, order), d2(u1, u2, order), h(u1, u2, order),
                s(u1, u2, order))
    return blocks


@dataclass
class StructureData:
    """Everything the frame and position systems consume.

    lam, i_omega and phi are entries; blocks(u1, u2, order) returns the
    jets of (D1, D2, h, S), S in rows S_i^j.  The proper hypothesis
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
    meta: dict = field(default_factory=dict)

    # -- evaluation helpers -------------------------------------------------

    def aug_jets(self, u1, u2, order):
        """3x3 augmented blocks (D1aug, D2aug) as jet matrices."""
        d1, d2, h, s = self.blocks(u1, u2, order)
        zero = h[0][0] * 0.0
        d1aug = [[d1[0][0], d1[0][1], h[0][0]],
                 [d1[1][0], d1[1][1], h[1][0]],
                 [-s[0][0], -s[0][1], zero]]
        d2aug = [[d2[0][0], d2[0][1], h[0][1]],
                 [d2[1][0], d2[1][1], h[1][1]],
                 [-s[1][0], -s[1][1], zero]]
        return d1aug, d2aug

    def aug_values(self, u1, u2):
        """(..., 3, 3) value arrays of both augmented blocks, plus Lambda,
        on the broadcast shape of u1 and u2."""
        shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
        d1aug, d2aug = self.aug_jets(u1, u2, 0)
        lam = self.lam(u1, u2, 0)
        return (_mat_values(d1aug, shape), _mat_values(d2aug, shape),
                _mat_values(lam, shape))

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
    """Cramer solver rhs -> y of (c1 c2 c3) y = rhs in jet arithmetic;
    c1 x c2 and the determinant are formed once for every rhs."""
    c12 = c1.cross(c2)
    det = c12.dot(c3)

    def solve(rhs: JetVec3):
        return (rhs.cross(c2).dot(c3) / det, c1.cross(rhs).dot(c3) / det,
                c12.dot(rhs) / det)
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

    def blocks(u1, u2, order):
        b, xj = bundle_for(u1, u2, order)
        solve = solver3_jet(b.w1, b.w2, xj)
        # coefficients of w_i,uj and xi_ui in the frame (w1, w2, xi)
        w = [[solve(wi.deriv(j)) for j in range(2)] for wi in (b.w1, b.w2)]
        d1, d2 = [[[w[i][j][0], w[i][j][1]] for i in range(2)]
                  for j in range(2)]
        h = [[w[i][j][2] for j in range(2)] for i in range(2)]
        s = [[-y for y in solve(xj.deriv(i))[:2]] for i in range(2)]
        return d1, d2, h, s

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
        W0=W0, p=p0, lam=lam, i_omega=i_omega, blocks=blocks, phi=phi,
        meta={"frontal": f.name, "field": getattr(xi_field, "label", "field")})


# --- compatibility and integrability residuals -----------------------------------------


def _flatness(sd: StructureData, u1, u2):
    """(max Frobenius norm of the flatness defect, D1aug values, D2aug
    values) from one order-1 evaluation of the augmented blocks."""
    shape = np.shape(np.asarray(u1, dtype=float))
    d1aug, d2aug = sd.aug_jets(u1, u2, 1)
    D1 = _mat_values(d1aug, shape)
    D2 = _mat_values(d2aug, shape)
    R = (_mat_values(d1aug, shape, 1) - _mat_values(d2aug, shape, 0)
         + D1 @ D2 - D2 @ D1)
    fro = np.sqrt(np.sum(R * R, axis=(-2, -1)))
    return float(np.max(fro)), D1, D2


def compat_residual(sd: StructureData, u1, u2):
    """Max Frobenius norm of the frame-system flatness defect.

    D1_u2 - D2_u1 + [D1, D2] over the sampled points, with the augmented
    3x3 blocks.  Points on the singular set are included in the report;
    gating on the regular part is the caller's choice.
    """
    return _flatness(sd, u1, u2)[0]


def integrability_residual(sd: StructureData, u1, u2):
    """(symmetry residual, row-identity residual) of the position system."""
    shape = np.shape(np.asarray(u1, dtype=float))
    lam_j = sd.lam(u1, u2, 1)
    d1_j, d2_j, h_j, _ = sd.blocks(u1, u2, 0)

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


def membership_scalar_fn(sd: StructureData, which, config: Config):
    """Certificate ratio G_k / det Lambda as a masked value function."""
    return membership_certificate_fn(
        lambda u1, u2: sd.lam(u1, u2, 1),
        lambda u1, u2: sd.i_omega(u1, u2, 1),
        lambda u1, u2: _efg_jets(sd, u1, u2, 1), which, config)


def extend_D(sd: StructureData, which, u1, u2, config: Config = DEFAULT):
    """Connection block D_which on all sampled points, plus its certificate.

    Regular points evaluate the constructive formula directly; singular
    points probe the five smooth ingredients (the correction products and
    the skew scalar).  Raises ConditionFailed when a probe fails, which
    is exactly the failure of the membership criterion.
    """
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2, dtype=float))
    shape = u1.shape
    lam_det = sd.lam_det_values(u1, u2)
    regular = np.abs(lam_det) > config.eps_sing

    out = np.empty(shape + (2, 2))
    omega_out = np.empty(shape)

    def ingredients(uu1, uu2):
        """(C_k entries (4), omega_k) as value arrays on regular points."""
        sshape = np.shape(uu1)
        h_j = sd.blocks(uu1, uu2, 0)[2]
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
        h_col = 0 if which == 1 else 1
        c_entries = np.stack([
            2.0 * ab[..., 0] * v(h_j[0][h_col]),
            2.0 * ab[..., 1] * v(h_j[0][h_col]),
            2.0 * ab[..., 0] * v(h_j[1][h_col]),
            2.0 * ab[..., 1] * v(h_j[1][h_col])], axis=0)
        mem = membership_scalar_fn(sd, which, config)
        omega = mem(uu1, uu2)[0]
        return c_entries, omega

    if np.any(regular):
        c_ent, omega = ingredients(u1[regular], u2[regular])
        out[regular], omega_out[regular] = _assemble_extension(
            sd, which, u1[regular], u2[regular], c_ent, omega)

    if np.any(~regular):
        targets = np.stack([u1[~regular], u2[~regular]], axis=-1)

        def probe_fn(p1, p2):
            p1 = np.asarray(p1, dtype=float)
            p2 = np.asarray(p2, dtype=float)
            vals = np.full((5,) + p1.shape, np.nan)
            det = sd.lam_det_values(p1, p2)
            ok = np.abs(det) > config.eps_sing
            if np.any(ok):
                try:
                    c_ent, om = ingredients(p1[ok], p2[ok])
                except UNUSABLE_SAMPLE + (np.linalg.LinAlgError,):
                    return vals
                for k in range(4):
                    vals[k][ok] = c_ent[k]
                vals[4][ok] = om
            return vals

        results = probe_limits(probe_fn, targets, sd.domain, config,
                               m_components=5)
        c_list, om_list = [], []
        for res in results:
            if not res.ok:
                raise ConditionFailed(
                    f"extension certificate fails at {res.target}: "
                    f"spread {res.spread:.2e}, settled={res.settled}")
            c_list.append(res.value[:4])
            om_list.append(res.value[4])
        c_ent = np.stack(c_list, axis=-1)
        omega = np.asarray(om_list)
        out[~regular], omega_out[~regular] = _assemble_extension(
            sd, which, u1[~regular], u2[~regular], c_ent, omega)
    return out, omega_out


def _assemble_extension(sd, which, u1, u2, c_entries, omega):
    shape = np.shape(u1)
    k = 0 if which == 1 else 1
    io_j = sd.i_omega(u1, u2, 1)
    I = _mat_values(io_j, shape)
    I_k = _mat_values(io_j, shape, k)
    C = np.stack([np.stack([c_entries[0], c_entries[1]], axis=-1),
                  np.stack([c_entries[2], c_entries[3]], axis=-1)], axis=-2)
    skew = np.zeros(shape + (2, 2))
    skew[..., 0, 1] = -omega
    skew[..., 1, 0] = omega
    D = 0.5 * (I_k - C @ I + skew) @ np.linalg.inv(I)
    return D, omega


# --- apolarity ---------------------------------------------------------------------


def apolarity_check(sd: StructureData, u1, u2, config: Config = DEFAULT):
    """Max residual of the parallel-volume condition of the affine metric.

    resid_k = d/du_k sqrt|det c| - trace(Gamma~_k) sqrt|det c| with
    c = Lambda h and Gamma~_k = (Lambda_uk + Lambda D_k) Lambda^{-1},
    sampled on regular points only.
    """
    shape = np.shape(np.asarray(u1, dtype=float))
    lam_j = sd.lam(u1, u2, 1)
    h_j = sd.blocks(u1, u2, 1)[2]
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

    worst = 0.0
    for k, dk in enumerate(sd.blocks(u1, u2, 0)[:2]):
        d_v = _mat_values(dk, shape)
        lam_uk = _mat_values(lam_j, shape, k)
        gamma = (lam_uk + lam_v @ d_v) @ lam_inv
        trace = gamma[..., 0, 0] + gamma[..., 1, 1]
        ds = s_j.deriv(k).value_on(shape)
        s_v = s_j.value_on(shape)
        worst = max(worst, float(np.max(np.abs(ds - trace * s_v))))
    return worst


# --- integration -------------------------------------------------------------------


@dataclass
class FrameField:
    u1_nodes: np.ndarray
    u2_nodes: np.ndarray
    W: np.ndarray             # (n1, n2, 3, 3)
    x: np.ndarray             # (n1, n2, 3)
    discrepancy: float        # path-independence audit, frame part
    x_discrepancy: float      # audit on the position part
    min_det: float
    sd: StructureData = None


# Lanes (points) per coefficient evaluation of a sweep: as many whole
# segments as fit go in one call.  4,096 keeps a family segment of a
# 21x21 lattice (4,053 points) in one call and a whole spine in one call
# instead of 20.  On the roundtrip benchmark (2-core VM) 16,384 lanes ran
# 1.48-1.53 s against 1.64-1.67 s, but at 108 MB peak RSS against 102 MB.
SWEEP_LANES = 4096


def _rk4_sweep(sd, state, fixed, moving_nodes, axis, step):
    """March `state` (m, 3, 4) along `moving_nodes` starting at its first
    entry, with the other coordinate fixed per lane; returns states at
    every node, (n_nodes, m, 3, 4)."""
    m = state.shape[0]
    n = moving_nodes.size
    out = np.empty((n,) + state.shape)
    out[0] = state
    if n == 1:
        return out
    delta = moving_nodes[1] - moving_nodes[0]
    nsub = max(1, int(math.ceil(abs(delta) / step)))
    h = delta / nsub
    # (n - 1, 2 nsub + 1) abscissae of every segment's substeps, by h/2
    ts = moving_nodes[:-1, None] + 0.5 * h * np.arange(2 * nsub + 1)
    per_call = max(1, SWEEP_LANES // (ts.shape[1] * m))
    for first in range(0, n - 1, per_call):
        batch = ts[first:first + per_call]
        mesh = (batch.reshape(-1, 1), fixed[None, :])
        d1aug, d2aug, lam = sd.aug_values(*(mesh if axis == 0 else mesh[::-1]))
        daug = d1aug if axis == 0 else d2aug
        A = np.zeros(daug.shape[:-2] + (4, 4))
        A[..., :3, :3] = np.swapaxes(daug, -1, -2)
        A[..., 0, 3] = lam[..., axis, 0]
        A[..., 1, 3] = lam[..., axis, 1]
        A = A.reshape(batch.shape + (m, 4, 4))
        for seg, As in enumerate(A, start=first):
            y = out[seg]
            for i in range(nsub):
                a0, a1, a2 = As[2 * i], As[2 * i + 1], As[2 * i + 2]
                k1 = y @ a0
                k2 = (y + 0.5 * h * k1) @ a1
                k3 = (y + 0.5 * h * k2) @ a1
                k4 = (y + h * k3) @ a2
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[seg + 1] = y
    return out


def _integrate_lattice(sd: StructureData, u1_nodes, u2_nodes, step,
                       spine_axis):
    """Spine along `spine_axis` from the basepoint node, then sweeps of
    the whole family of lanes along the other axis, both directions."""
    nodes = (u1_nodes, u2_nodes)
    base = [int(np.argmin(np.abs(t - q))) for t, q in zip(nodes, sd.basepoint)]
    state0 = np.concatenate([sd.W0, sd.p[:, None]], axis=1)[None, ...]

    def both_ways(state, fixed, axis):
        """States at every node of `axis`, marched up and down from the
        base node: (n_axis, m, 3, 4)."""
        k, t = base[axis], nodes[axis]
        out = np.empty((t.size,) + state.shape)
        out[k:] = _rk4_sweep(sd, state, fixed, t[k:], axis, step)
        out[k::-1] = _rk4_sweep(sd, state, fixed, t[k::-1], axis, step)
        return out

    other = 1 - spine_axis
    spine = both_ways(state0, nodes[other][base[other]:base[other] + 1],
                      spine_axis)[:, 0]
    Y = both_ways(spine, nodes[spine_axis], other)
    return Y if other == 0 else np.moveaxis(Y, 0, 1)


def lattice_nodes(sd: StructureData, shape=(21, 21)):
    a1, b1, a2, b2 = sd.domain
    return (np.linspace(a1, b1, shape[0]), np.linspace(a2, b2, shape[1]))


def integrate_frame(sd: StructureData, shape=(21, 21), step=None,
                    config: Config = DEFAULT, check_compat=True,
                    audit_gate=True) -> FrameField:
    """Integrate the frame (and carried position) over a node lattice.

    Runs the row-major and column-major sweeps and reports their maximum
    disagreement; raises CompatibilityViolated when the audit exceeds the
    path gate (suppressed by audit_gate=False for step-refinement
    probes), FrameDegenerate when det W collapses or flips sign.
    """
    step = step or config.rk4_step
    u1_nodes, u2_nodes = lattice_nodes(sd, shape)
    if check_compat:
        u1r, u2r, _ = sd.regular_sample(u1_nodes[::4], u2_nodes[::4], config)
        resid, d1aug, d2aug = _flatness(sd, u1r, u2r)
        scale = max(1.0, float(np.max(np.abs(d1aug))),
                    float(np.max(np.abs(d2aug))))
        if not resid <= config.tol_compat * scale:
            raise CompatibilityViolated(
                f"compatibility residual {resid:.2e} exceeds "
                f"{config.tol_compat * scale:.2e} before integration")

    Y_rows = _integrate_lattice(sd, u1_nodes, u2_nodes, step, spine_axis=1)
    Y_cols = _integrate_lattice(sd, u1_nodes, u2_nodes, step, spine_axis=0)
    W = Y_rows[..., :3]
    x = Y_rows[..., 3]
    disc_w = float(np.max(np.abs(Y_rows[..., :3] - Y_cols[..., :3])))
    disc_x = float(np.max(np.abs(Y_rows[..., 3] - Y_cols[..., 3])))
    det = np.linalg.det(W)
    min_det = float(np.min(np.abs(det)))
    if not (min_det > 1e-12
            and float(np.max(det)) * float(np.min(det)) >= 0.0):
        raise FrameDegenerate("integrated frame lost invertibility")
    if audit_gate and not disc_w <= config.tol_path:
        raise CompatibilityViolated(
            f"path-independence audit {disc_w:.2e} exceeds {config.tol_path}")
    return FrameField(u1_nodes, u2_nodes, W, x, disc_w, disc_x, min_det, sd)


def integrate_position(frame_field: FrameField, sd: StructureData = None,
                       config: Config = DEFAULT):
    """Position grid from an integrated frame, with integrability gates.

    The joint sweep already carried the position block; this validates
    the position-system integrability residuals and the path audit, and
    returns the grid.  Raises IntegrabilityViolated on a gate failure.
    """
    sd = sd or frame_field.sd
    u1r, u2r, lam_det = sd.regular_sample(frame_field.u1_nodes[::4],
                                          frame_field.u2_nodes[::4], config)
    sym, row = integrability_residual(sd, u1r, u2r)
    gate = 10.0 * config.tol_compat * max(1.0, float(np.max(np.abs(lam_det))))
    if not (sym <= gate and row <= gate):
        raise IntegrabilityViolated(
            f"integrability residuals ({sym:.2e}, {row:.2e}) exceed gate")
    if not frame_field.x_discrepancy <= config.tol_path:
        raise IntegrabilityViolated(
            f"position path audit {frame_field.x_discrepancy:.2e} exceeds "
            f"{config.tol_path}")
    return frame_field.x


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
