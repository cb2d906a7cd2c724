"""Frontal kernel: decomposition of the differential through a moving basis.

A frontal here is a parametrization x: U -> R^3 on a rectangle together
with a tangent moving basis, a 3x2 field Omega = (w1 w2) of pointwise
independent columns spanning the limiting tangent planes, such that
Dx = Omega Lambda^T for a smooth 2x2 factor Lambda.  The singular set is
exactly the zero set of lambda = det Lambda.

Everything is evaluated through jets so each derived quantity carries
its own derivatives; u1/u2 arguments may be floats or same-shaped numpy
arrays, in which case all per-point work is vectorized elementwise.

A grid command reads a few values per point off jets it never keeps.
`in_lane_blocks` is the one rule that evaluates a set of points in
blocks of at most SWEEP_LANES points, keeping only such values: the
frame bundle of a grid (`evaluate_grid`) and the sampling calls of an
RK4 march (reconstruct) go through it.  It hands its blocks to
forks.fork_map, so from forks.PARALLEL_WORK points on they run on every
usable core, with the bits, values and errors of one process.  The grid
tests take the values: `singular_scan` det Lambda, `wavefront_test` the
per-point verdicts of `wavefront_mask`, `nonparabolic_test` K_omega.

A rank-2 test of a stack of m x 2 matrices (the wave-front verdict, the
conormal's rank) goes through `rank2_mask`: its verdict is the SVD's,
s1 > eps_rank * max(1, s0), but the singular values come from a closed
form, and LAPACK computes them only for the matrices whose s1 lies
within 1e-12 s0 of the threshold, whose s0 is under 1e-140, or that
hold a NaN or inf.

Matrix conventions (all row/column choices follow from the two
decompositions and are exercised by the cross-checks in the tests):

    I  = [[E, F], [F, G]],          entries <w_i, w_j>
    II = [[e, f1], [f2, g]],        entries -<w_i, n_uj>  (not symmetric)
    mu = -II^T I^{-1},              rows give n_ui in the basis (w1, w2)
    relative curvature K = det(mu); classical Gauss curvature K/det(Lambda)
    on the regular part.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT, Config
from .errors import DegenerateBasis, NotAFrontal
from .forks import fork_map
from .jets import MAX_ORDER, JetVec3, det2_jet, inv2_jet, mat2_mul_jet
from . import expr as expr_mod

# The lane budget: the most points one block of `in_lane_blocks`
# evaluates at a time, a frame bundle of `evaluate_grid` or a sampling
# call of an RK4 march (reconstruct).  With its forms read, a bundle
# holds about 0.4 KB of jets per point at jet order 1 and 1.3 KB at
# order 3, so a block stays within a few MB; fewer lanes trade more
# Python-level jet calls for a lower peak.  4,096 keeps a family segment
# of a 21x21 march lattice (4,053 points) in one call.
SWEEP_LANES = 4096


class Frontal:
    """A parametrized frontal with its tangent moving basis.

    x, omega (and optionally lam, gauss, blaschke_known) are callables
    (u1, u2, order) -> jets.  `gauss` is the analytically extended Gauss
    curvature when a closed form is known; `blaschke_known` is a printed
    reference field used only for verification, never by construction.
    `config` holds the settings of every computation on the frontal, and
    `open_domain` keeps the default grid off the domain's boundary.

    x, Omega and Lambda evaluate each point on its own (a generator's
    quadrature decides convergence lane by lane), so a point gets the
    same bits in any batch and `evaluate_grid` may split a grid.
    """

    def __init__(self, name, x, omega, domain, lam=None, gauss=None,
                 blaschke_known=None, config: Config = DEFAULT,
                 open_domain=False):
        self.name = name
        self._x = x
        self._omega = omega
        self.domain = tuple(float(v) for v in domain)
        self._lam = lam
        self.gauss = gauss
        self.blaschke_known = blaschke_known
        self.config = config
        self.open_domain = open_domain

    def stripped(self):
        """Copy without the closed-form curvature and reference field,
        forcing the numeric routes."""
        return Frontal(self.name + "~numeric", self._x, self._omega,
                       self.domain, lam=self._lam,
                       gauss=None, blaschke_known=None, config=self.config,
                       open_domain=self.open_domain)

    def x(self, u1, u2, order):
        return self._x(u1, u2, order)

    def omega(self, u1, u2, order):
        return self._omega(u1, u2, order)

    @cached_property
    def omega_loss(self):
        """Jet orders the moving basis carries below the order it is asked
        for, read once at the centre of the domain: 1 where Omega is the
        derivative of an integral evaluated at the requested order
        (gen-extendable-nc), 0 otherwise."""
        a1, b1, a2, b2 = self.domain
        w1, w2 = self.omega(np.asarray([0.5 * (a1 + b1)]),
                            np.asarray([0.5 * (a2 + b2)]), MAX_ORDER)
        return MAX_ORDER - min(w1.order, w2.order)

    def bundle_order(self, need):
        """Order of the frame bundle whose moving basis carries `need`
        orders: need plus the Omega loss, capped at jets.MAX_ORDER (past
        the cap a consumer meets InsufficientJetOrder where it reads)."""
        return min(need + self.omega_loss, MAX_ORDER)

    def lam(self, u1, u2, order):
        """2x2 jet matrix Lambda; analytic when supplied, factored otherwise."""
        if self._lam is not None:
            return self._lam(u1, u2, order)
        return factor_lambda(self, u1, u2, order)

    def grid(self, shape):
        """Default evaluation grid; open domains are inset slightly so the
        boundary (where catalog data may degenerate) is never sampled."""
        if self.open_domain:
            return self.interior_grid(shape, margin=0.005)
        a1, b1, a2, b2 = self.domain
        nx, ny = shape
        return np.meshgrid(np.linspace(a1, b1, nx), np.linspace(a2, b2, ny),
                           indexing="ij")

    def interior_grid(self, shape, margin=0.0):
        a1, b1, a2, b2 = self.domain
        m1 = margin * (b1 - a1)
        m2 = margin * (b2 - a2)
        nx, ny = shape
        return np.meshgrid(np.linspace(a1 + m1, b1 - m1, nx),
                           np.linspace(a2 + m2, b2 - m2, ny), indexing="ij")


def frontal_from_expressions(name, x_srcs, omega_srcs, domain, lam_srcs=None,
                             gauss_src=None, blaschke_srcs=None,
                             config: Config = DEFAULT, open_domain=False):
    """Build a Frontal from component expression strings, each sign-probed
    on the domain at load time.

    omega_srcs is a pair of 3-component lists (the two basis columns);
    lam_srcs, when given, is a row-major list of 4 strings.
    """
    groups = [x_srcs, [*omega_srcs[0], *omega_srcs[1]], lam_srcs,
              [gauss_src] if gauss_src else None, blaschke_srcs]
    asts = [[expr_mod.parse(s) for s in srcs] if srcs else None
            for srcs in groups]
    for group in filter(None, asts):
        for ast in group:
            expr_mod.validate_on_domain(ast, domain)
    x, omega, lam, gauss, known = (expr_mod.jets_fn(a) if a else None
                                   for a in asts)
    return Frontal(name, x, omega, domain, lam=lam, gauss=gauss,
                   blaschke_known=known, config=config,
                   open_domain=open_domain)


def affine_image(f: Frontal, A, b, name=None):
    """The frontal Phi(x) = A x + b with basis columns mapped through A.

    The analytic curvature shortcut is dropped on purpose: Gauss
    curvature is not an affine invariant, so the image must go through
    the generic numeric route.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def x_fn(u1, u2, order):
        base = f.x(u1, u2, order)
        comps = []
        for i in range(3):
            acc = base.c[0] * A[i, 0] + base.c[1] * A[i, 1] + base.c[2] * A[i, 2]
            comps.append(acc + b[i])
        return JetVec3(*comps)

    def map_vec(v):
        return JetVec3(*(v.c[0] * A[i, 0] + v.c[1] * A[i, 1] + v.c[2] * A[i, 2]
                         for i in range(3)))

    def omega_fn(u1, u2, order):
        w1, w2 = f.omega(u1, u2, order)
        return map_vec(w1), map_vec(w2)

    return Frontal(name or f"{f.name}+affine", x_fn, omega_fn, f.domain,
                   lam=f._lam, gauss=None, blaschke_known=None,
                   config=f.config, open_domain=f.open_domain)


# --- core per-point computations ------------------------------------------------


def check_basis_rank(w1: JetVec3, w2: JetVec3, eps_rank):
    """Smallest singular value of (w1 w2), scaled by column norms.  Only
    values are read, so the dot products are taken of order-0 jets (the
    value of a jet product is the product of the values)."""
    w1, w2 = w1.truncate(0), w2.truncate(0)
    E = np.asarray(w1.dot(w1).value, dtype=float)
    F = np.asarray(w1.dot(w2).value, dtype=float)
    G = np.asarray(w2.dot(w2).value, dtype=float)
    tr = E + G
    det = E * G - F * F
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    lam_min = 0.5 * (tr - disc)
    scale = np.maximum(E, G)
    if np.any(lam_min <= (eps_rank ** 2) * scale):
        raise DegenerateBasis("moving-basis columns numerically dependent")


def _gram(w1: JetVec3, w2: JetVec3):
    """The Gram matrix <w_i, w_j> of the moving basis, as 2x2 jets."""
    return [[w1.dot(w1), w1.dot(w2)], [w2.dot(w1), w2.dot(w2)]]


def unit_normal(w1: JetVec3, w2: JetVec3, eps_rank=1e-9) -> JetVec3:
    """n = (w1 x w2)/|w1 x w2| with a rank guard."""
    check_basis_rank(w1, w2, eps_rank)
    cr = w1.cross(w2)
    return cr.scale(1.0 / cr.norm())


def factor_lambda(f: Frontal, u1, u2, order):
    """Solve Dx = Omega Lambda^T for Lambda as a 2x2 jet matrix.

    Lambda^T = (Omega^T Omega)^{-1} Omega^T Dx; the residual of the
    reconstruction is checked at value level and NotAFrontal is raised
    when the basis fails to factor the differential.
    """
    config = f.config
    xj = f.x(u1, u2, order + 1 if order + 1 <= MAX_ORDER else order)
    w1, w2 = f.omega(u1, u2, order)
    check_basis_rank(w1, w2, config.eps_rank)
    x_u = [xj.deriv(0), xj.deriv(1)]
    I = _gram(w1, w2)
    B = [[w1.dot(x_u[0]), w1.dot(x_u[1])],
         [w2.dot(x_u[0]), w2.dot(x_u[1])]]
    lam_t = mat2_mul_jet(inv2_jet(I), B)
    lam = [[lam_t[0][0], lam_t[1][0]], [lam_t[0][1], lam_t[1][1]]]
    resid, scale = _decomposition_residual(x_u, w1, w2, lam)
    if not resid <= config.eps_dec * scale:
        raise NotAFrontal(
            f"decomposition residual {resid:.3e} exceeds gate "
            f"{config.eps_dec * scale:.3e}; Omega is not a tangent moving "
            f"basis for x")
    return lam


def _decomposition_residual(x_u, w1, w2, lam):
    """(max |x_uj - (Lambda_j0 w1 + Lambda_j1 w2)|, its scale
    max(1, |x_uj|)) over both directions and every point.  np.max keeps a
    NaN that the builtin max drops, so a gate on the residual fails on it."""
    resid, scale = [], [1.0]
    for j in range(2):
        rec = w1.scale(lam[j][0]) + w2.scale(lam[j][1])
        resid.append(np.max(np.abs((x_u[j] - rec).value())))
        scale.append(np.max(np.abs(x_u[j].value())))
    return float(np.max(resid)), float(np.max(scale))


class FrameBundle:
    """Jets of the first-layer quantities of a frontal at a (possibly
    array) point set, with the points, jet order and config they belong to.
    The points are the broadcast of u1 and u2, which may be an open mesh
    of a (k, 1) and a (1, m) axis; `shape` is the broadcast shape.

    The moving basis and the unit normal (with its rank guard) are
    evaluated at construction; every form built on them is evaluated on
    first read, so a consumer pays only for what it reads.
    """

    def __init__(self, f: Frontal, u1, u2, order=MAX_ORDER):
        self.f = f
        self.u1 = u1
        self.u2 = u2
        self.order = order
        self.config = f.config
        self.shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
        self.w1, self.w2 = f.omega(u1, u2, order)
        self.n = unit_normal(self.w1, self.w2, self.config.eps_rank)

    @cached_property
    def x_u(self):
        """[x_u1, x_u2] as JetVec3."""
        xj = self.f.x(self.u1, self.u2, self.order)
        return [xj.deriv(0), xj.deriv(1)]

    @cached_property
    def lam(self):
        """Lambda as 2x2 jets; NotAFrontal surfaces here when the basis
        does not factor Dx."""
        return self.f.lam(self.u1, self.u2, self.order)

    @cached_property
    def lam_det(self):
        return det2_jet(self.lam)

    @cached_property
    def I(self):
        """[[E, F], [F, G]] = <w_i, w_j>."""
        return _gram(self.w1, self.w2)

    @cached_property
    def II(self):
        """[[e, f1], [f2, g]] = -<w_i, n_uj>."""
        n_u = [self.n.deriv(0), self.n.deriv(1)]
        return [[-(w.dot(n_u[0])), -(w.dot(n_u[1]))]
                for w in (self.w1, self.w2)]

    @cached_property
    def K_omega(self):
        """Relative curvature det(mu), mu = -II^T I^{-1}."""
        II = self.II
        II_t = [[II[0][0], II[1][0]], [II[0][1], II[1][1]]]
        mu = [[-x for x in row]
              for row in mat2_mul_jet(II_t, inv2_jet(self.I))]
        return det2_jet(mu)

    def classical_I(self):
        """First fundamental form <x_ui, x_uj> as 2x2 jets."""
        dx = self.x_u
        return [[dx[i].dot(dx[j]) for j in range(2)] for i in range(2)]

    def classical_II(self):
        """Second fundamental form -<x_ui, n_uj> as 2x2 jets."""
        n_u = [self.n.deriv(0), self.n.deriv(1)]
        return [[-(self.x_u[i].dot(n_u[j])) for j in range(2)]
                for i in range(2)]


def frame_bundle(f: Frontal, u1, u2, order=MAX_ORDER) -> FrameBundle:
    return FrameBundle(f, u1, u2, order)


def lam_det_values(lam, u1, u2):
    """det Lambda on the broadcast of u1 and u2, Lambda given by the
    callable `lam` (u1, u2, order) -> 2x2 jets: a frontal's or a
    structure entry."""
    shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
    return det2_jet(lam(u1, u2, 0)).value_on(shape)


def in_lane_blocks(evaluate, u1, u2):
    """evaluate(u1, u2) over the broadcast of u1 and u2, block by block.

    `evaluate` returns a dict of per-point value arrays, the broadcast
    shape of its arguments leading.  The points are evaluated in
    contiguous row-major blocks of at most SWEEP_LANES points of the
    broadcast, one forks.fork_map job each, with the points as its work:
    from forks.PARALLEL_WORK points on, the blocks run on every usable
    core, block 0 always in the calling process.  A block's values travel
    as one buffer, its arrays' bytes in the layout of block 0 (its keys
    in order, their dtypes and trailing shapes), and go into arrays
    allocated over all the points; what evaluate built for a block is
    dropped before the next one.  Points that fit one block are evaluated
    once, as given.  Returns the dict with each array over the broadcast
    shape.

    A block gives the bits the whole set gives at its points, but a gate
    reduces over its batch: an any() guard raises in the first batch
    holding a bad point, a max-type gate scales with the batch's largest
    value.  So when a block raises, wherever it ran (fork_map raises it
    again in this process, at its turn), or its buffer does not fit
    block 0's layout, u1 and u2 are evaluated again as one call, and what
    that raises or returns stands.
    """
    shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
    n = math.prod(shape)
    if n <= SWEEP_LANES:
        return evaluate(u1, u2)
    flat1, flat2 = (np.broadcast_to(u, shape).flat for u in (u1, u2))
    blocks = [slice(a, min(a + SWEEP_LANES, n))
              for a in range(0, n, SWEEP_LANES)]
    out = {}        # over all the points, laid out as block 0's values

    def packed(block):
        values = evaluate(flat1[block], flat2[block])
        if block.start == 0:
            out.update((key, np.empty((n,) + vals.shape[1:], vals.dtype))
                       for key, vals in values.items())
        return b"".join(np.ascontiguousarray(vals)
                        for vals in values.values())

    try:
        with contextlib.closing(fork_map(packed, blocks, n)) as results:
            for block, buf in zip(blocks, results):
                parts = [vals[block] for vals in out.values()]
                if len(buf) != sum(part.nbytes for part in parts):
                    raise ValueError("a block's values do not fit the "
                                     "layout of block 0")
                at = 0
                for part in parts:
                    part[...] = np.frombuffer(
                        buf, part.dtype, part.size, at).reshape(part.shape)
                    at += part.nbytes
    except Exception:
        return evaluate(u1, u2)
    return {key: vals.reshape(shape + vals.shape[1:])
            for key, vals in out.items()}


def evaluate_grid(f: Frontal, u1, u2, order, read):
    """read(bundle) over the same-shaped points (u1, u2), in lane blocks
    (`in_lane_blocks`): `read` takes the frame bundle, of jet order
    `order`, of some of the points and returns a dict of per-point value
    arrays, the bundle's shape leading."""
    return in_lane_blocks(
        lambda v1, v2: read(frame_bundle(f, v1, v2, order)), u1, u2)


def ii_omega_normal_route(bundle: FrameBundle):
    """II recomputed as <w_i,uj , n> (independent of the -Omega^T Dn route)."""
    w_u = [[bundle.w1.deriv(0), bundle.w1.deriv(1)],
           [bundle.w2.deriv(0), bundle.w2.deriv(1)]]
    return [[w_u[i][j].dot(bundle.n) for j in range(2)] for i in range(2)]


# --- grid classification ----------------------------------------------------------


@dataclass
class SingularScan:
    cells: np.ndarray                # (n, 2) lower-left grid indices (i, j)
    regular_dense: bool
    lam_det: np.ndarray
    singular_points: np.ndarray      # (m, 2) (u1, u2) of the exact grid hits

    @property
    def empty(self):
        return len(self.cells) == 0


def singular_scan(u1, u2, lam_det, eps_sing) -> SingularScan:
    """Conservative cell cover of the zero set of det Lambda, given by its
    values `lam_det` on the grid (u1, u2).

    A cell enters the cover when some corner is below eps_sing in
    magnitude, or when det Lambda does not keep one strict sign at all
    four corners (a NaN corner keeps none); cells are listed in row-major
    order.  The scan also reports whether the regular set is dense at
    grid resolution (no cell has all four corners singular).  The corners
    are reduced pairwise as boolean grids, one cell smaller each way, and
    the cells and exact hits are kept as arrays, whose prefixes a report
    lists.
    """
    small = np.abs(lam_det) <= eps_sing

    def corners(reduce, a):
        return reduce(reduce(a[:-1, :-1], a[1:, :-1]),
                      reduce(a[:-1, 1:], a[1:, 1:]))

    keeps_sign = (corners(np.logical_and, lam_det > 0)
                  | corners(np.logical_and, lam_det < 0))
    hit = corners(np.logical_or, small) | ~keeps_sign
    return SingularScan(cells=np.argwhere(hit),
                        regular_dense=not np.any(corners(np.logical_and,
                                                         small)),
                        lam_det=lam_det,
                        singular_points=np.column_stack((u1[small],
                                                         u2[small])))


def rank2_mask(J, eps_rank):
    """Per matrix of the (..., m, 2) stack J, whether its second singular
    value s1 exceeds eps_rank * max(1, s0): the verdict np.linalg.svd's
    singular values give, without a LAPACK call per matrix.

    One Gram-Schmidt step factors the columns (a, c) as Q R with
    R = [[f, g], [0, h]], f = |a|, g = a.c / f, h = |c - (g / f) a|, and
    R's singular values follow in closed form (LAPACK's dlas2):
    s0 = (hypot(f + h, g) + hypot(f - h, g)) / 2 and s1 = f h / s0.  This
    does not square the condition number as J^T J would, and s1 is off
    the SVD's by a few ulps of s0.  So np.linalg.svd, which takes each
    matrix on its own, decides only where the closed form cannot: s1
    within 1e-12 s0 of the threshold, s0 under 1e-140 (where squares of
    entries may be subnormal), or a NaN or inf in J or from an overflow
    (each comparison below is False on a NaN).  A NaN lane raises the
    SVD's LinAlgError, as one SVD of the whole stack would.
    """
    lanes = J.reshape(-1, *J.shape[-2:])
    a, c = lanes[..., 0], lanes[..., 1]
    with np.errstate(all="ignore"):
        f = np.sqrt(np.einsum("ij,ij->i", a, a))
        g = np.einsum("ij,ij->i", a, c) / f
        r = c - (g / f)[:, None] * a
        h = np.sqrt(np.einsum("ij,ij->i", r, r))
        s0 = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
        s1 = f * h / s0
        thr = eps_rank * np.maximum(1.0, s0)
        out = s1 > thr
        near = ~((np.abs(s1 - thr) > 1e-12 * s0) & (s0 > 1e-140))
    if near.any():
        s = np.linalg.svd(lanes[near], compute_uv=False)
        out[near] = s[:, 1] > eps_rank * np.maximum(1.0, s[:, 0])
    return out.reshape(J.shape[:-2])


def wavefront_mask(bundle: FrameBundle):
    """Per point of the bundle, whether (x, n) is an immersion there:
    whether the stacked 6x2 Jacobian [Dx; Dn] has its second singular
    value above eps_rank (scaled by the largest singular value).  The
    test is `rank2_mask`'s closed form, with LAPACK only within
    1e-12 s0 of the threshold, so each verdict is the SVD's.
    """
    shape = bundle.shape
    n_u = [bundle.n.deriv(0), bundle.n.deriv(1)]
    cols = []
    for k in range(2):
        cols.append(np.concatenate([bundle.x_u[k].values_on(shape),
                                    n_u[k].values_on(shape)], axis=-1))
    return rank2_mask(np.stack(cols, axis=-1), bundle.config.eps_rank)


def wavefront_test(u1, u2, immersive):
    """True iff (x, n) is an immersion at every point (u1, u2), given the
    per-point verdicts `immersive` of `wavefront_mask`.  Returns
    (verdict, witnesses), the (n, 2) array of the points (u1, u2) where
    the rank drops, in row-major order."""
    drops = ~immersive
    return bool(np.all(immersive)), np.column_stack((u1[drops], u2[drops]))


def nonparabolic_test(K_omega, eps_k):
    """True iff |K_omega| stays above eps_k at every point of the values
    `K_omega`."""
    return bool(np.all(np.abs(K_omega) > eps_k))
