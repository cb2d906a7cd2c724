"""Structure symbols induced on a frontal by a transversal vector field.

Writing each basis-column derivative in the frame (w1, w2, xi) gives

    w_i,uj = D^1_ij w1 + D^2_ij w2 + h_ij xi
    xi_ui  = -S_i^1 w1 - S_i^2 w2 + tau_i xi

and everything in this module is a per-point 3x3 linear solve against
the matrix (w1 w2 xi); no formula transcription is used on the primary
path, so the solves stay valid at singular points where routes through
Lambda^{-1} fail.  The classical-symbol and factor-conjugation routes
are provided as independent cross-checks, valid on the regular part.

Layout: D1[i][j] = D^{j+1}_{(i+1)1}, i.e. row i holds the (w1, w2)
coefficients of w_{i+1},u1; likewise D2 for u2-derivatives.  h[i][j] is
the xi-coefficient of w_{i+1},u{j+1}; S[i][j] = S_{i+1}^{j+1}; tau is
indexed by the derivative direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotTransversal, SingularPoint, VerificationError
from .frame import FrameBundle, Frontal, frame_bundle, ii_omega_normal_route
from .jets import (Jet, JetVec3, _mat_values, inv2_jet, mat2_mul_jet,
                   triple_product_jet)


class TransversalField:
    """A candidate transversal field: a constant vector, the unit normal,
    the affine normal, or any callable of a frame bundle.

    A field is evaluated against the frame bundle of its points, at the
    bundle's points and jet order, so fields built from the frame read it
    instead of evaluating it again.  A `regular_only` field (the affine
    normal) has jets only off the singular set.
    """

    def __init__(self, fn, label="field", regular_only=False):
        self._fn = fn          # bundle -> JetVec3 at bundle.order
        self.label = label
        self.regular_only = regular_only

    @staticmethod
    def constant(vec, label=None):
        vec = tuple(float(v) for v in vec)

        def fn(b):
            return JetVec3(*(Jet.constant(np.full(b.shape, v), b.order)
                             for v in vec))
        return TransversalField(fn, label or f"constant{vec}")

    @staticmethod
    def unit_normal():
        return TransversalField(lambda b: b.n, "unit normal")

    def jets(self, bundle: FrameBundle) -> JetVec3:
        """Field jets at the points of `bundle`."""
        return self._fn(bundle)


@dataclass
class EquiaffineStructure:
    """Per-point structure symbols; all arrays share the base-point shape."""
    h: np.ndarray        # (..., 2, 2)
    D1: np.ndarray
    D2: np.ndarray
    S: np.ndarray
    tau: np.ndarray      # (..., 2)
    theta: np.ndarray    # induced volume det(w1 w2 xi)

    def max_tau(self):
        return float(np.max(np.abs(self.tau)))


def _stack3(vecs, shape):
    return np.stack([v.values_on(shape) for v in vecs], axis=-1)


def check_transversal(bundle: FrameBundle, xi: JetVec3):
    theta = triple_product_jet(bundle.w1, bundle.w2, xi).value
    scale = (np.asarray(bundle.w1.norm().value) * np.asarray(bundle.w2.norm().value)
             * np.asarray(xi.norm().value))
    if np.any(np.abs(theta) <= bundle.config.eps_rank
              * np.maximum(scale, 1e-300)):
        raise NotTransversal("field lies in a limiting tangent plane "
                             "somewhere on the sample")


def structure_from_field(f: Frontal, xi: TransversalField, u1, u2,
                         bundle: FrameBundle = None,
                         xi_jets: JetVec3 = None) -> EquiaffineStructure:
    """Solve the six 3x3 frame systems for (h, D1, D2, S, tau) pointwise."""
    b = bundle if bundle is not None else frame_bundle(f, u1, u2)
    shape = b.shape
    xj = xi_jets if xi_jets is not None else xi.jets(b)
    check_transversal(b, xj)

    M = _stack3((b.w1, b.w2, xj), shape)
    rhs = _stack3((b.w1.deriv(0), b.w2.deriv(0), b.w1.deriv(1),
                   b.w2.deriv(1), xj.deriv(0), xj.deriv(1)), shape)
    sol = np.linalg.solve(M, rhs)          # (..., 3, 6)

    resid = M @ sol - rhs
    scale = np.maximum(1.0, np.max(np.abs(rhs)))
    worst = float(np.max(np.abs(resid)))
    if not worst <= 1e-9 * scale:
        raise VerificationError(
            f"frame-system solve residual {worst:.2e} exceeds gate")

    # columns: w1_u1, w2_u1, w1_u2, w2_u2, xi_u1, xi_u2
    D1 = np.stack([sol[..., :2, 0], sol[..., :2, 1]], axis=-2)
    D2 = np.stack([sol[..., :2, 2], sol[..., :2, 3]], axis=-2)
    h = np.stack([np.stack([sol[..., 2, 0], sol[..., 2, 2]], axis=-1),
                  np.stack([sol[..., 2, 1], sol[..., 2, 3]], axis=-1)],
                 axis=-2)
    S = np.stack([-sol[..., :2, 4], -sol[..., :2, 5]], axis=-2)
    tau = np.stack([sol[..., 2, 4], sol[..., 2, 5]], axis=-1)
    theta = triple_product_jet(b.w1, b.w2, xj).value_on(shape)
    return EquiaffineStructure(h=h, D1=D1, D2=D2, S=S, tau=tau, theta=theta)


def check_tau_formula(bundle: FrameBundle, phi_j: Jet, a_j: Jet, b_j: Jet):
    """Residuals of the split-field identities for h and tau.

    For xi = phi*n + Z with Z = a*w1 + b*w2 (phi, a and b given as jets
    at the points and order of `bundle`) and p the normal-component form
    of the basis derivatives, h must equal p/phi and
    tau_i = (p(Z, w_i) + phi_ui)/phi.  Returns (max |h - p/phi|,
    max |tau - predicted|); both vanish for exact data.
    """
    xi = (bundle.n.scale(phi_j) + bundle.w1.scale(a_j)
          + bundle.w2.scale(b_j))
    s = structure_from_field(bundle.f, None, bundle.u1, bundle.u2,
                             bundle=bundle, xi_jets=xi)

    shape = bundle.shape
    phi = phi_j.value_on(shape)
    if np.any(phi == 0.0):
        raise NotTransversal("phi vanishes; split field not transversal")
    a_val = a_j.value_on(shape)
    b_val = b_j.value_on(shape)

    # p_ij = <w_i,uj , n>, arranged like the second-form matrix
    p = _mat_values(ii_omega_normal_route(bundle), shape)

    h_resid = float(np.max(np.abs(s.h - p / phi[..., None, None])))

    dphi = [phi_j.deriv(k).value_on(shape) for k in range(2)]
    # p(Z, w_i) = a p_1i + b p_2i
    tau_pred = np.stack(
        [(a_val * p[..., 0, i] + b_val * p[..., 1, i] + dphi[i]) / phi
         for i in range(2)], axis=-1)
    tau_resid = float(np.max(np.abs(s.tau - tau_pred)))
    return h_resid, tau_resid


def parallel_volume_check(bundle: FrameBundle, xi_jets: JetVec3,
                          structure: EquiaffineStructure):
    """Residual of the derivative identity for the induced volume.

    d/du_k theta(w1, w2) always equals (trace D_k + tau_k) theta; the
    equiaffine content is that the connection-only part (tau = 0) grabs
    the whole derivative.  Returns (max residual, max |tau|) of the field
    with jets `xi_jets` and `structure` at the points of `bundle`.
    """
    shape = bundle.shape
    if np.any(np.abs(np.asarray(bundle.lam_det.value))
              <= bundle.config.eps_sing):
        raise SingularPoint("volume check sampled on the singular set")
    theta_j = triple_product_jet(bundle.w1, bundle.w2, xi_jets)
    theta = theta_j.value_on(shape)
    resid = []
    for k in range(2):
        dtheta = theta_j.deriv(k).value_on(shape)
        trek = structure.D1 if k == 0 else structure.D2
        trace = trek[..., 0, 0] + trek[..., 1, 1]
        resid.append(np.max(np.abs(
            dtheta - (trace + structure.tau[..., k]) * theta)))
    return float(np.max(resid)), structure.max_tau()


# --- classical (regular-part) routes ----------------------------------------------


def _gamma_jets(I):
    """Christoffel blocks Gamma_1, Gamma_2 from the first-form jets."""
    E, F, G = I[0][0], I[0][1], I[1][1]
    I_inv = inv2_jet(I)
    out = []
    for k in range(2):
        I_k = [[E.deriv(k), F.deriv(k)], [F.deriv(k), G.deriv(k)]]
        skew = (E.deriv(1) - F.deriv(0)) if k == 0 else (F.deriv(1) - G.deriv(0))
        A = [[skew * 0.0, -skew], [skew, skew * 0.0]]
        half = [[(I_k[i][j] + A[i][j]) * 0.5 for j in range(2)]
                for i in range(2)]
        out.append(mat2_mul_jet(half, I_inv))
    return out


@dataclass
class ClassicalSymbols:
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma1_t: np.ndarray     # connection blocks of the transversal split
    gamma2_t: np.ndarray
    c: np.ndarray            # affine fundamental form, (..., 2, 2) symmetric
    split: np.ndarray        # (..., 3): a, b, phi with xi = phi n + a x_u1 + b x_u2


def classical_symbols(bundle: FrameBundle,
                      xi_jets: JetVec3) -> ClassicalSymbols:
    """Regular-part symbols in the basis (x_u1, x_u2, n or xi), at the
    points of `bundle`, where the field has jets `xi_jets`."""
    shape = bundle.shape
    lam_det = np.asarray(bundle.lam_det.value)
    if np.any(np.abs(lam_det) <= bundle.config.eps_sing):
        raise SingularPoint("classical symbols need the regular part")

    x1, x2 = bundle.x_u
    gamma = [_mat_values(g, shape) for g in _gamma_jets(bundle.classical_I())]

    M = _stack3((x1, x2, bundle.n), shape)
    abphi = np.linalg.solve(M, xi_jets.values_on(shape)[..., None])[..., 0]
    a_v, b_v, phi = abphi[..., 0], abphi[..., 1], abphi[..., 2]
    if np.any(phi == 0.0):
        raise NotTransversal("<xi, n> vanishes on the sample")

    II_cl = _mat_values(bundle.classical_II(), shape)
    e, fq, g = II_cl[..., 0, 0], II_cl[..., 0, 1], II_cl[..., 1, 1]

    c = II_cl / phi[..., None, None]
    corr1 = np.stack([np.stack([a_v * e, b_v * e], axis=-1),
                      np.stack([a_v * fq, b_v * fq], axis=-1)], axis=-2)
    corr2 = np.stack([np.stack([a_v * fq, b_v * fq], axis=-1),
                      np.stack([a_v * g, b_v * g], axis=-1)], axis=-2)
    gamma1_t = gamma[0] - corr1 / phi[..., None, None]
    gamma2_t = gamma[1] - corr2 / phi[..., None, None]
    return ClassicalSymbols(gamma1=gamma[0], gamma2=gamma[1],
                            gamma1_t=gamma1_t, gamma2_t=gamma2_t, c=c,
                            split=abphi)


def d_from_gamma(bundle: FrameBundle, xi_jets: JetVec3):
    """(D1, D2) via the factor-conjugated classical route, regular part only.

    D_k = Lambda^{-1} (Gamma~_k Lambda - Lambda_uk); must agree with the
    direct frame solve wherever both are defined.
    """
    shape = bundle.shape
    sym = classical_symbols(bundle, xi_jets)
    lam = _mat_values(bundle.lam, shape)
    lam_inv = np.linalg.inv(lam)
    out = []
    for k, gt in ((0, sym.gamma1_t), (1, sym.gamma2_t)):
        lam_uk = _mat_values(bundle.lam, shape, k)
        out.append(lam_inv @ (gt @ lam - lam_uk))
    return out[0], out[1]
