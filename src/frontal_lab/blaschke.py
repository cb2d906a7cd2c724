"""Extended Gauss curvature, the affine-normal field, and conormals.

On the regular part of a frontal the Gauss curvature is the ratio
K = K_omega / det Lambda; when that ratio extends across the singular set
the extension is certified numerically by a limit probe: radial samples
along several directions, Richardson-extrapolated, accepted only when
every usable direction settles and the directional limits agree.  That
is an agreement certificate, not a smoothness proof.

The affine-normal (Blaschke) field is built from phi = |K|^(1/4): the
tangential coefficients solve the transposed second-form system against
-grad phi on the regular part and are probed in the limit at singular
points.  Construction never consults a printed answer; catalog closed
forms are checked against it, not the other way around.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Config
from .equiaffine import (EquiaffineStructure, TransversalField,
                         structure_from_field)
from .errors import (UNUSABLE_SAMPLE, DivisionByZeroValue, DomainError,
                     Indeterminate, InsufficientJetOrder, KVanishes,
                     NotExtendable, NotTransversal, SingularIIOmega,
                     SingularPoint)
from .frame import (FrameBundle, Frontal, _gram, evaluate_grid,
                    frame_bundle, lam_det_values, rank2_mask)
from .jets import Jet, JetVec3, det2_jet, inv2_jet
from . import expr as expr_mod


# --- limit probes ------------------------------------------------------------------


@dataclass
class ProbeResult:
    target: tuple                # (u1, u2) as Python floats
    ok: bool
    value: np.ndarray            # (m,) component limits (direction average)
    spread: float                # worst relative disagreement across directions
    settled: bool                # every usable direction Cauchy
    diverging: bool
    n_directions: int
    starved: bool = False        # too few usable directions for a verdict

    def require(self, what="limit"):
        if self.ok:
            return self.value
        if self.diverging or (self.settled and not self.ok):
            raise NotExtendable(
                f"{what} at {self.target}: directional limits disagree "
                f"(spread {self.spread:.2e}) or diverge")
        raise Indeterminate(
            f"{what} at {self.target}: probe sequences did not settle")


def _probe_once(fn, targets, domain, config, ndir):
    npts = targets.shape[0]
    nrad = config.probe_levels
    angles = 2.0 * np.pi * np.arange(ndir) / ndir
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    radii = config.probe_r0 * config.probe_ratio ** np.arange(nrad)

    pts = (targets[:, None, None, :]
           + radii[None, None, :, None] * dirs[None, :, None, :])
    a1, b1, a2, b2 = domain
    inside = ((pts[..., 0] >= a1) & (pts[..., 0] <= b1)
              & (pts[..., 1] >= a2) & (pts[..., 1] <= b2))

    flat = pts.reshape(-1, 2)
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(flat[:, 0], flat[:, 1]), dtype=float)
    vals = vals.reshape(-1, npts, ndir, nrad)        # (m, npts, ndir, nrad)
    usable = inside[None, ...] & np.isfinite(vals)
    dir_ok = usable.all(axis=(0, 3))                 # (npts, ndir)

    # Richardson tableau for a geometric radius sequence; level m removes
    # the r^m error term.  The limit is read off the column where the
    # successive differences bottom out: truncation shrinks them going
    # inward, sample noise (which grows near the singular set) blows them
    # up again, and the turning point is the best available estimate.
    tab = np.where(dir_ok[None, :, :, None], vals, 0.0)
    levels = min(config.probe_richardson, nrad - 3)
    rho = config.probe_ratio
    for m in range(1, levels + 1):
        w = rho ** m
        tab = (tab[..., 1:] - w * tab[..., :-1]) / (1.0 - w)
    gaps = np.abs(np.diff(tab, axis=-1))              # (m, npts, ndir, g)
    pick_score = gaps.sum(axis=0)                     # shared column choice
    k_star = np.argmin(pick_score, axis=-1)           # (npts, ndir)
    limit = np.take_along_axis(
        tab[..., 1:], k_star[None, :, :, None], axis=-1)[..., 0]
    err_est = np.take_along_axis(
        gaps, k_star[None, :, :, None], axis=-1)[..., 0]

    raw_tail = np.abs(vals[..., -3:])
    growing = ((raw_tail[..., 2] > 1.5 * raw_tail[..., 1])
               & (raw_tail[..., 1] > 1.5 * raw_tail[..., 0]))

    results = []
    for p in range(npts):
        sel = dir_ok[p]
        n_ok = int(sel.sum())
        if n_ok < 3:
            results.append(ProbeResult(tuple(targets[p].tolist()), False,
                                       np.full(vals.shape[0], np.nan),
                                       np.inf, False, False, n_ok,
                                       starved=True))
            continue
        lim = limit[:, p, sel]                        # (m, n_ok)
        scale = np.maximum(1.0, np.abs(lim).max())
        settled = bool(np.all(err_est[:, p, sel] <= config.tol_limit * scale))
        diverging = bool(np.any(growing[:, p, sel])) and not settled
        spread = float(np.max(lim.max(axis=1) - lim.min(axis=1)) / scale)
        ok = settled and spread <= config.tol_limit
        results.append(ProbeResult(tuple(targets[p].tolist()), ok,
                                   lim.mean(axis=1), spread, settled,
                                   diverging, n_ok))
    return results


def probe_limits(fn, targets, domain, config: Config = DEFAULT):
    """Directional Richardson limits of a (possibly vector) function.

    fn(u1_flat, u2_flat) -> (m, N) array with nan marking unusable
    samples (e.g. the function undefined on the singular set).  Radii
    follow a geometric sequence; two Richardson levels remove the linear
    and quadratic error terms of each directional restriction.  A
    direction is culled when any of its samples is unusable or leaves
    the domain; targets starved of directions (domain corners with the
    singular set through them) are retried with denser fans before a
    verdict is given up on.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    results = _probe_once(fn, targets, domain, config,
                          config.probe_directions)
    for factor in (3, 6):
        starved = [k for k, r in enumerate(results) if r.starved]
        if not starved:
            break
        retry = _probe_once(fn, targets[starved], domain, config,
                            config.probe_directions * factor)
        for k, res in zip(starved, retry):
            results[k] = res
    return results


def regular_part(fn, lam_det_fn, config: Config = DEFAULT):
    """The probe function of fn(u1, u2) -> (m, n) values at regular
    points: fn's values where |lam_det_fn| > eps_sing, nan elsewhere,
    over the broadcast of u1 and u2.

    A call that raises an UNUSABLE_SAMPLE error or LinAlgError gives one
    row of nan (m is unknown then); any other exception is a fault and
    propagates.
    """
    def part(u1, u2):
        shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
        try:
            ok = np.abs(lam_det_fn(u1, u2)) > config.eps_sing
            if np.any(ok):
                v1, v2 = np.broadcast_arrays(u1, u2)
                vals = fn(v1[ok], v2[ok])
                out = np.full((len(vals),) + shape, np.nan)
                out[:, ok] = vals
                return out
        except UNUSABLE_SAMPLE + (np.linalg.LinAlgError,):
            pass
        return np.full((1,) + shape, np.nan)
    return part


def extended_values(fn, lam_det_fn, u1, u2, domain, what,
                    config: Config = DEFAULT):
    """fn's values at the regular points of the broadcast of u1 and u2,
    its certified limits at the singular ones, where `regular_part(fn)`
    is probed.

    Returns (values (m,) + the broadcast shape, the singular points'
    probe results in row-major order); a failed certificate raises
    NotExtendable/Indeterminate naming `what`.
    """
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    u2 = np.atleast_1d(np.asarray(u2, dtype=float))
    regular = np.abs(lam_det_fn(u1, u2)) > config.eps_sing
    v1, v2 = np.broadcast_arrays(u1, u2)
    parts, results = [], []
    if np.any(regular):
        parts.append((regular, fn(v1[regular], v2[regular])))
    if not np.all(regular):
        targets = np.stack([v1[~regular], v2[~regular]], axis=-1)
        results = probe_limits(regular_part(fn, lam_det_fn, config),
                               targets, domain, config)
        parts.append((~regular, np.stack([r.require(what) for r in results],
                                         axis=-1)))
    values = np.empty((len(parts[0][1]),) + v1.shape)
    for mask, vals in parts:
        values[:, mask] = vals
    return values, results


def _field_order(f: Frontal, xi_order):
    """Frame-bundle order at which the affine normal carries `xi_order`
    orders.  Its tangential part solves the second form (built on n_u)
    against grad phi, one order below the basis, and loses one more when
    K is the quotient K_omega / det Lambda rather than a closed form."""
    return f.bundle_order(xi_order + (1 if f.gauss is not None else 2))


# --- extended Gauss curvature --------------------------------------------------------


def _gauss_ratio_fn(f: Frontal):
    """K_omega/det Lambda at regular points.

    Samples are evaluated in extended precision where the platform has
    it: the curvature ratio is a 0/0 cancellation near the singular set
    and the probe quality is set by the arithmetic's epsilon there.
    """
    def fn(u1, u2):
        b = frame_bundle(f, np.asarray(u1, dtype=np.longdouble),
                         np.asarray(u2, dtype=np.longdouble),
                         f.bundle_order(1))
        return (b.K_omega.value_on(b.shape)
                / b.lam_det.value_on(b.shape))[None, :]
    return fn


def extended_gauss(f: Frontal, u1, u2):
    """Extended Gauss curvature at the points (u1, u2).

    The analytic closed form when the frontal carries one; otherwise
    K_omega/det Lambda on the regular set and its probed limit on the
    singular set, raising NotExtendable/Indeterminate when the
    certificate fails.
    """
    if f.gauss is not None:
        return f.gauss(u1, u2, 0).value_on(
            np.broadcast_shapes(np.shape(u1), np.shape(u2)))
    return extended_values(_gauss_ratio_fn(f),
                           functools.partial(lam_det_values, f.lam), u1, u2,
                           f.domain, "extended Gauss curvature",
                           f.config)[0][0]


def gauss_extension(f: Frontal, point):
    """Extended Gauss curvature at one point (see extended_gauss)."""
    return float(extended_gauss(f, np.asarray([point[0]], dtype=float),
                                np.asarray([point[1]], dtype=float))[0])


# --- the affine-normal construction ---------------------------------------------------


def _phi_jet(bundle: FrameBundle):
    """|K|^(1/4) as a jet on the regular part."""
    f = bundle.f
    if f.gauss is not None:
        K = f.gauss(bundle.u1, bundle.u2, bundle.order)
    else:
        K = bundle.K_omega / bundle.lam_det
    K_val = np.asarray(K.value, dtype=float)
    if np.any(np.abs(K_val) <= bundle.config.eps_k):
        raise KVanishes("extended Gauss curvature vanishes on the sample; "
                        "no affine normal exists")
    return (K * np.sign(K_val)).powf(0.25)


def _tangent_coeff_jets(bundle: FrameBundle, phi: Jet):
    """Solve the transposed second-form system for the tangential part."""
    e, f1 = bundle.II[0][0], bundle.II[0][1]
    f2, g = bundle.II[1][0], bundle.II[1][1]
    det = e * g - f2 * f1
    det_val = np.asarray(det.value, dtype=float)
    if np.any(np.abs(det_val) <= 1e-300):
        raise SingularIIOmega(
            "second-form matrix singular at a point treated as regular; "
            "inconsistent with non-vanishing curvature")
    Minv = inv2_jet([[e, f2], [f1, g]])
    rhs0 = -(phi.deriv(0))
    rhs1 = -(phi.deriv(1))
    a = Minv[0][0] * rhs0 + Minv[0][1] * rhs1
    b = Minv[1][0] * rhs0 + Minv[1][1] * rhs1
    return a, b


def _regular_field(b: FrameBundle):
    """Affine normal xi = phi n + a w1 + b w2 at the points of the frame
    bundle `b`, as jets (phi, a, b, xi); DivisionByZeroValue on the
    singular set."""
    lam = np.asarray(b.lam_det.value, dtype=float)
    if np.any(np.abs(lam) <= b.config.eps_sing):
        raise DivisionByZeroValue(
            "affine-normal jets requested on the singular set")
    phi = _phi_jet(b)
    av, bv = _tangent_coeff_jets(b, phi)
    xi = b.n.scale(phi) + b.w1.scale(av) + b.w2.scale(bv)
    return phi, av, bv, xi


# The affine normal as a transversal field: jets over the regular part.
AFFINE_NORMAL = TransversalField(lambda b: _regular_field(b)[-1],
                                 label="affine normal", regular_only=True)


# Distance a sweep point within 10 eps_sing of the singular set is moved
# along grad det Lambda before the affine normal is evaluated there.
NUDGE = 1e-7


def nudged_points(f: Frontal, u1, u2):
    """Move points off the singular set along the gradient of det Lambda.

    det Lambda is read on the broadcast of u1 and u2; when no point lies
    within 10 eps_sing of the singular set, u1 and u2 come back as they
    came, and otherwise as fresh arrays of the broadcast's points.
    SingularPoint when a point is left on the singular set: where the
    gradient (nearly) vanishes the shift cannot clear eps_sing.
    """
    lam_det = det2_jet(f.lam(u1, u2, 1))
    shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
    near = np.abs(lam_det.value_on(shape)) <= 10.0 * f.config.eps_sing
    if not np.any(near):
        return u1, u2
    u1, u2 = (np.array(a, dtype=float) for a in np.broadcast_arrays(u1, u2))
    g1 = lam_det.deriv(0).value_on(shape)[near]
    g2 = lam_det.deriv(1).value_on(shape)[near]
    norm = np.hypot(g1, g2)
    p1, p2 = u1[near], u2[near]
    stuck = norm <= 1e-12
    if not np.any(stuck):
        u1[near] = p1 + NUDGE * g1 / norm
        u2[near] = p2 + NUDGE * g2 / norm
        stuck = (np.abs(lam_det_values(f.lam, u1[near], u2[near]))
                 <= f.config.eps_sing)
    if np.any(stuck):
        k = int(np.flatnonzero(stuck)[0])
        raise SingularPoint(
            f"node ({p1[k]:.6g}, {p2[k]:.6g}) stays on the singular "
            f"set after a {NUDGE:g} shift along grad det Lambda: "
            f"|grad det Lambda| = {norm[k]:.3e} there; the affine "
            f"normal is not evaluated on the singular set")
    return u1, u2


@dataclass
class BlaschkeField:
    """The affine normal of a frontal sampled on a grid: the grid
    (u1, u2), the field values xi there and the construction
    diagnostics.  Its jets are those of the transversal field
    AFFINE_NORMAL."""
    frontal: Frontal
    u1: np.ndarray
    u2: np.ndarray
    xi: np.ndarray                # (..., 3)
    diagnostics: dict


def _tangent_value_fn(f: Frontal):
    """(a, b) values at regular points.

    Evaluated in extended precision: near the singular set these values
    come from a near-singular solve fed by a 0/0 curvature quotient, and
    the limit-probe accuracy is set by the epsilon of this arithmetic.
    """
    def fn(u1, u2):
        b = frame_bundle(f, np.asarray(u1, dtype=np.longdouble),
                         np.asarray(u2, dtype=np.longdouble),
                         _field_order(f, 0))
        av, bv = _tangent_coeff_jets(b, _phi_jet(b))
        return np.stack([av.value_on(b.shape), bv.value_on(b.shape)])
    return fn


def _singular_field(f: Frontal, targets):
    """Affine normal at singular points.

    phi is |K|^(1/4) of the extended curvature, the tangential
    coefficients (a, b) are the limits `extended_values` certifies, and
    the frame is evaluated at the points themselves, in that order: K's
    certificate and its KVanishes gate are judged before those of (a, b).
    Returns (xi (n, 3), the probe results of (a, b)); a failed
    certificate raises NotExtendable/Indeterminate naming its quantity.
    """
    u1, u2 = targets[:, 0], targets[:, 1]
    K_vals = extended_gauss(f, u1, u2)
    if np.any(np.abs(K_vals) <= f.config.eps_k):
        raise KVanishes("extended curvature vanishes on the singular set")
    ab, results = extended_values(
        _tangent_value_fn(f), functools.partial(lam_det_values, f.lam), u1,
        u2, f.domain, "affine-normal tangential part", f.config)
    n_sing = targets.shape[0]
    bq = frame_bundle(f, u1, u2, f.bundle_order(0))
    n_at = bq.n.values_on((n_sing,))
    w1_at = bq.w1.values_on((n_sing,))
    w2_at = bq.w2.values_on((n_sing,))
    xis = np.empty((n_sing, 3))
    for k in range(n_sing):
        phi = abs(K_vals[k]) ** 0.25
        xis[k] = n_at[k] * phi + w1_at[k] * ab[0, k] + w2_at[k] * ab[1, k]
    return xis, results


def _read_regular(b: FrameBundle):
    """The affine normal at the points of the frame bundle `b`: its
    values "xi" and, only when its jets carry a first order, "parts",
    (..., 3) per point: max |tau_i| of its induced structure, theta^2
    and |det h|, what `_tau_volume` reduces."""
    xi = _regular_field(b)[-1]
    out = {"xi": xi.values_on(b.shape)}
    if xi.order >= 1:
        s = structure_from_field(b.f, AFFINE_NORMAL, b.u1, b.u2, bundle=b,
                                 xi_jets=xi)
        det_h = (s.h[..., 0, 0] * s.h[..., 1, 1]
                 - s.h[..., 0, 1] * s.h[..., 1, 0])
        out["parts"] = np.stack([np.max(np.abs(s.tau), axis=-1),
                                 s.theta ** 2, np.abs(det_h)], axis=-1)
    return out


def _tau_volume(parts, lam):
    """(max |tau|, max volume-match residual) of the affine normal's
    induced structure from its parts (`_read_regular`), at points where
    det Lambda takes the values `lam`."""
    vol_ratio = np.sqrt(parts[..., 1] * np.abs(lam) / parts[..., 2])
    return (float(np.max(parts[..., 0])),
            float(np.max(np.abs(vol_ratio - 1.0))))


def blaschke_field(f: Frontal, shape=(101, 101), grid=None) -> BlaschkeField:
    """Construct the affine-normal field over a grid.

    Raises KVanishes when |K| drops below the parabolicity gate anywhere,
    NotExtendable/Indeterminate when a singular-point limit certificate
    fails (the field then does not exist in the sense of the existence
    characterization), SingularIIOmega on inconsistent regular data.

    The regular part, its values and diagnostics (max |tau|, the volume
    match) alike, is read by `_read_regular` through frame.evaluate_grid,
    whose rule decides its errors, before the singular part
    (`_singular_field`) is built.  Quadrature-backed surfaces carry one
    jet order less than closed-form ones; where the field's jets cannot
    support the derivative diagnostics, they are None and the values
    (and their probe certificates) stand alone.
    """
    cfg = f.config
    u1, u2 = grid if grid is not None else f.grid(shape)
    lam = lam_det_values(f.lam, u1, u2)
    regular = np.abs(lam) > cfg.eps_sing
    xi_g = np.empty(u1.shape + (3,))
    if np.any(regular):
        # tau and the volume match read first derivatives of xi
        values = evaluate_grid(f, u1[regular], u2[regular],
                               _field_order(f, 1), _read_regular)
        xi_g[regular] = values["xi"]

    probe_report = []
    n_sing = int(np.sum(~regular))
    if n_sing:
        targets = np.stack([u1[~regular], u2[~regular]], axis=-1)
        xi_g[~regular], results = _singular_field(f, targets)
        probe_report = [{"point": [float(t[0]), float(t[1])],
                         "spread": res.spread,
                         "directions": res.n_directions,
                         "tolerance": cfg.tol_limit}
                        for t, res in zip(targets, results)]

    diag = {"n_singular": n_sing, "probes": probe_report}
    if np.any(regular):
        if "parts" in values:
            diag["max_tau"], diag["volume_residual"] = _tau_volume(
                values["parts"], lam[regular])
        else:
            diag["max_tau"] = None
            diag["volume_residual"] = None
            diag["note"] = ("field jets too shallow for derivative "
                            "diagnostics on this surface")
    mean_xi = xi_g.reshape(-1, 3).mean(axis=0)
    dev = float(np.max(np.abs(xi_g - mean_xi)))
    diag["improper_sphere"] = dev <= 1e-6
    diag["constancy_deviation"] = dev
    diag["constancy_tolerance"] = 1e-6
    return BlaschkeField(f, u1, u2, xi_g, diag)


def blaschke_verify(bf: BlaschkeField, shape=(41, 41)):
    """Check the two defining conditions on the regular part of a grid.

    (i) equiaffinity: max |tau| of the induced structure;
    (ii) volume match: theta(w1,w2)^2 |lambda| must equal |det h|, i.e.
    the induced volume agrees with the volume of the relative form.
    The regular points are read by `_read_regular` through
    frame.evaluate_grid.  Returns a report dict; SingularPoint when no
    grid point is regular, InsufficientJetOrder when the field's jets
    carry no first order.
    """
    f = bf.frontal
    u1, u2 = f.interior_grid(shape, margin=0.005)
    lam = lam_det_values(f.lam, u1, u2)
    regular = np.abs(lam) > f.config.eps_sing
    if not np.any(regular):
        raise SingularPoint(
            "det Lambda vanishes at every verification point; the frontal "
            "violates the hypothesis that the regular set is dense")
    order = _field_order(f, 1)
    values = evaluate_grid(f, u1[regular], u2[regular], order, _read_regular)
    if "parts" not in values:
        raise InsufficientJetOrder(
            f"tau needs order-1 affine-normal jets, but on {f.name} the field "
            f"carries order 0 from order-{order} frame jets"
            + ("" if f.gauss else " (no closed-form Gauss curvature)"))
    max_tau, volume_residual = _tau_volume(values["parts"], lam[regular])
    return {
        "max_tau": max_tau,
        "tau_tolerance": 1e-6,
        "volume_residual": volume_residual,
        "volume_tolerance": 1e-6,
        "points_checked": int(np.sum(regular)),
    }


# --- extension criteria -------------------------------------------------------------


def membership_certificate_fn(lam_fn, i_omega_fn, efg_fn, which):
    """Extension certificate ratio G_k / det Lambda at regular points.

    lam_fn(u1, u2) -> 2x2 jets, i_omega_fn -> 2x2 jets, efg_fn -> three
    jets (E, F, G).  G_1 uses E_u2 - F_u1, G_2 uses F_u2 - G_u1, matching
    the two criteria; the ratio extends smoothly iff the membership
    condition holds.
    """
    k = 0 if which == 1 else 1

    def fn(u1, u2):
        lam = lam_fn(u1, u2)
        I = i_omega_fn(u1, u2)
        E, F, G = efg_fn(u1, u2)
        row1 = [lam[0][0], lam[0][1]]
        row2 = [lam[1][0], lam[1][1]]
        row1_d = [c.deriv(k) for c in row1]
        row2_d = [c.deriv(k) for c in row2]

        def row_I_row(r, s):
            return (r[0] * (I[0][0] * s[0] + I[0][1] * s[1])
                    + r[1] * (I[1][0] * s[0] + I[1][1] * s[1]))

        skew = (E.deriv(1) - F.deriv(0)) if which == 1 else \
               (F.deriv(1) - G.deriv(0))
        big_g = row_I_row(row1_d, row2) - row_I_row(row1, row2_d) + skew
        shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
        return (big_g.value_on(shape)
                / det2_jet(lam).value_on(shape))[None, :]
    return fn


def extension_condition_fields(lam_fn, i_omega_fn, efg_fn, which, point,
                               domain, config: Config = DEFAULT):
    """Probe verdict for the certificate ratio at a singular point."""
    fn = membership_certificate_fn(lam_fn, i_omega_fn, efg_fn, which)

    def lam_det(u1, u2):
        return det2_jet(lam_fn(u1, u2)).value_on(
            np.broadcast_shapes(np.shape(u1), np.shape(u2)))
    return probe_limits(regular_part(fn, lam_det, config), [point], domain,
                        config)[0]


def extension_condition(f: Frontal, which, point):
    """Extension criterion of the factor-conjugated connection blocks.

    which = 1 probes the u1-block certificate, which = 2 the u2-block.
    Returns the ProbeResult; the certified limit is the skew scalar that
    the constructive extension consumes.
    """
    # the certificate reads first derivatives of Lambda, I_Omega and E, F, G
    def i_omega_fn(u1, u2):
        return _gram(*f.omega(u1, u2, 1))

    def efg_fn(u1, u2):
        xj = f.x(u1, u2, 2)
        xu = [xj.deriv(0), xj.deriv(1)]
        return xu[0].dot(xu[0]), xu[0].dot(xu[1]), xu[1].dot(xu[1])

    return extension_condition_fields(lambda u1, u2: f.lam(u1, u2, 1),
                                      i_omega_fn, efg_fn, which, point,
                                      f.domain, f.config)


# --- closed form for the rank-1 wave-front class --------------------------------------


def rank1_closed_form(h_src, c_src, point):
    """Affine normal of the rank-1 wave-front class, by direct evaluation.

    Valid on the regular part (h_u1u1 nonzero at the point) for positive
    curvature ratio c; for constant c the field degenerates to the
    constant vertical vector (0, 0, c^(1/4)).
    """
    h = expr_mod.parse(h_src) if isinstance(h_src, str) else h_src
    c = expr_mod.parse(c_src) if isinstance(c_src, str) else c_src
    h_u1 = expr_mod.differentiate(h, "u1")
    h_u1u1 = expr_mod.differentiate(h_u1, "u1")
    h_u1u2 = expr_mod.differentiate(h_u1, "u2")
    c_u1 = expr_mod.differentiate(c, "u1")
    c_u2 = expr_mod.differentiate(c, "u2")
    env = {"u1": float(point[0]), "u2": float(point[1])}
    cv = float(expr_mod.eval_num(c, env))
    if cv <= 0.0:
        raise DomainError("curvature ratio must be positive for the "
                          "closed form")
    h11 = float(expr_mod.eval_num(h_u1u1, env))
    c1 = float(expr_mod.eval_num(c_u1, env))
    c2 = float(expr_mod.eval_num(c_u2, env))
    h12 = float(expr_mod.eval_num(h_u1u2, env))
    h1 = float(expr_mod.eval_num(h_u1, env))
    u2 = float(point[1])
    if h11 == 0.0:
        if c1 == 0.0 and c2 == 0.0:
            return np.array([0.0, 0.0, cv ** 0.25])
        raise DivisionByZeroValue(
            "h_u1u1 vanishes at the point with no cancellation")
    c34 = cv ** 0.75
    xi1 = -0.25 * c1 / (c34 * h11)
    xi2 = -0.25 * (c2 * h11 - c1 * h12) / (c34 * h11)
    xi3 = 0.25 * (-u2 * c2 * h11 + u2 * c1 * h12 + 4.0 * cv * h11
                  - c1 * h1) / (c34 * h11)
    return np.array([xi1, xi2, xi3])


# --- conormal field ----------------------------------------------------------------


def conormal(bundle: FrameBundle, xi_jets: JetVec3):
    """nu = n / <n, xi>: the unique covector with <nu, xi> = 1 that kills
    the limiting tangent planes, at the points of `bundle`, where the
    field has jets `xi_jets`; one jet order lower than its inputs."""
    denom = bundle.n.dot(xi_jets)
    if np.any(np.asarray(denom.value) == 0.0):
        raise NotTransversal("<n, xi> vanishes; conormal undefined")
    return bundle.n.scale(1.0 / denom)


def conormal_verify(bundle: FrameBundle, xi_jets: JetVec3,
                    structure: EquiaffineStructure):
    """Residuals of the defining and derivative identities of the conormal.

    Checks <nu, xi> = 1, <nu, w_i> = 0, <nu_ui, xi> = 0 and the pairing
    <nu_ui, w_j> = -h_ji on the points of `bundle`, where the field has
    jets `xi_jets` and induces `structure`, and reports whether D nu has
    rank 2 everywhere (true on non-parabolic samples).
    """
    shape = bundle.shape
    nu = conormal(bundle, xi_jets)

    def mx(*values):
        # np.max, unlike the builtin max, keeps a NaN
        return float(np.max([np.max(np.abs(np.asarray(v, dtype=float)))
                             for v in values]))

    nu_u = [nu.deriv(0), nu.deriv(1)]
    rep = {
        "pairing_xi": mx((nu.dot(xi_jets) - 1.0).value),
        "pairing_w": mx(nu.dot(bundle.w1).value, nu.dot(bundle.w2).value),
        "derivative_xi": mx(nu_u[0].dot(xi_jets).value,
                            nu_u[1].dot(xi_jets).value),
        "derivative_w": mx(*(nu_u[i].dot(w).value_on(shape)
                             + structure.h[..., j, i]
                             for i in range(2)
                             for j, w in enumerate((bundle.w1, bundle.w2)))),
    }

    J = np.stack([nu_u[k].values_on(shape) for k in range(2)], axis=-1)
    # a point with a NaN or inf is not rank 2; it is zeroed first, since
    # rank2_mask hands such a point to the SVD, which fails on a NaN
    finite = np.all(np.isfinite(J), axis=(-2, -1))
    rep["rank2_everywhere"] = bool(np.all(finite & rank2_mask(
        np.where(finite[..., None, None], J, 0.0), bundle.config.eps_rank)))
    rep["tolerance"] = 1e-8
    return rep
