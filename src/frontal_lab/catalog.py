"""Built-in frontals with known answers, plus representation-formula generators.

Fixed entries store parametrization, moving basis and factor as expression
text; their known-answer block (factor determinant, extended Gauss
curvature, affine-normal field, improper-sphere flag) is verified at load
and used by the golden tests.  Generator entries assemble a surface whose
third component is an iterated integral, evaluated through integrate_jet,
and derive the moving basis analytically or from the integral jets.  An
integral whose integrand reads one coordinate only is integrated once per
distinct value of that coordinate (_integral_per_value).

Known-answer curvature carries the honest sign of det II / det I; the
affine-normal closed forms were cross-checked against the defining
conditions (vanishing transversal connection form and volume match) to
machine precision before being frozen here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .config import DEFAULT, Config
from .errors import DomainError, InputError, NotAFrontal
from .expr import Bin, Num, Unary, Var
from .frame import (Frontal, _decomposition_residual,
                    frontal_from_expressions)
from .jets import (INDICES, Jet, JetVec3, _classify_upper, det2_jet,
                   integrate_jet)
from .structio import read_domain

# Shared polynomial pieces of the cuspidal-cross-cap entry.
_RHO = "54*u1^4*u2^4 + 9*u1^2*u2^5 + 4*u2^6 + 54*u1^2*u2^2 + 12*u2^3 + 9"
_MU = ("2025*u1^4*u2^8 + 720*u1^2*u2^9 + 900*u1^6*u2^4 + 64*u2^10"
       " + 1200*u1^4*u2^5 + 3100*u1^2*u2^6 + 480*u2^7 + 1800*u1^4*u2^2"
       " + 1200*u1^2*u2^3 + 900*u2^4 + 900*u1^2 + 900")
_XI1 = ("216*u1^6*u2^4 - 189*u1^4*u2^5 + 66*u1^2*u2^6 + 16*u2^7"
        " + 324*u1^4*u2^2 + 9*u1^2*u2^3 + 48*u2^4 + 108*u1^2 + 36*u2")
_XI2 = ("(216*u1^4*u2^4 + 87*u1^2*u2^5 - 16*u2^6 + 252*u1^2*u2^2"
        " + 24*u2^3 + 72)*u2^2")
_XI3 = ("145800*u1^8*u2^8 + 35721*u1^6*u2^9 + 25326*u1^4*u2^10"
        " + 4896*u1^2*u2^11 + 277020*u1^6*u2^6 + 896*u2^12"
        " + 114129*u1^4*u2^7 + 39204*u1^2*u2^8 + 5088*u2^9"
        " + 179820*u1^4*u2^4 + 88938*u1^2*u2^5 + 12096*u2^6"
        " + 48600*u1^2*u2^2 + 14040*u2^3 + 6480")


@dataclass
class CatalogEntry:
    name: str
    description: str
    domain: tuple
    x: list | None = None                 # component sources
    omega: tuple | None = None            # (col1 sources, col2 sources)
    lam: list | None = None               # row-major 2x2 sources
    known: dict = field(default_factory=dict)
    open_domain: bool = False
    params: dict = field(default_factory=dict)
    builder: object = None                # callable(entry, config) -> Frontal

    def build(self, config: Config = DEFAULT) -> Frontal:
        if self.builder is not None:
            f = self.builder(self, config)
            f.open_domain = self.open_domain
        else:
            f = frontal_from_expressions(
                self.name, self.x, self.omega, self.domain,
                lam_srcs=self.lam,
                gauss_src=self.known.get("K"),
                blaschke_srcs=self.known.get("xi"), config=config,
                open_domain=self.open_domain)
        validate_entry(f, self)
        return f

    def summary(self):
        out = {
            "name": self.name,
            "description": self.description,
            "domain": list(self.domain),
            "open_domain": self.open_domain,
        }
        if self.x:
            out["x"] = list(self.x)
        if self.params:
            out["params"] = {k: str(v) for k, v in self.params.items()}
        out["known"] = {key: self.known[key]
                        for key in ("lambda_det", "K", "xi", "improper_sphere")
                        if key in self.known}
        return out


def validate_entry(f: Frontal, entry: CatalogEntry):
    """Load-time checks on a 9x9 grid (inset on an open domain): the
    decomposition residual of x_u against Omega Lambda^T, and the factor
    determinant against its known answer where the entry has one.  Both
    read values only, so x (whose order-1 jet carries x_u), Omega and
    Lambda are asked for order 1."""
    u1, u2 = f.interior_grid((9, 9), margin=0.02 if entry.open_domain else 0.0)
    xj = f.x(u1, u2, 1)
    w1, w2 = f.omega(u1, u2, 1)
    lam = f.lam(u1, u2, 1)
    resid, scale = _decomposition_residual([xj.deriv(0), xj.deriv(1)],
                                           w1, w2, lam)
    if not resid <= f.config.eps_dec * scale * 10.0:
        raise NotAFrontal(
            f"catalog entry {entry.name}: decomposition residual {resid:.2e}")
    if "lambda_det" in entry.known:
        ref = expr_mod.eval_num(expr_mod.parse(entry.known["lambda_det"]),
                                {"u1": u1, "u2": u2})
        lam_det = det2_jet(lam).value
        if not float(np.max(np.abs(lam_det - ref))) <= 1e-8 * max(
                1.0, float(np.max(np.abs(ref)))):
            raise InputError(
                f"catalog entry {entry.name}: factor determinant does not "
                f"match its known answer")


ENTRIES = {}


def _register(entry):
    ENTRIES[entry.name] = entry
    return entry


_register(CatalogEntry(
    name="plane",
    description="flat immersed plane; every curvature object vanishes",
    domain=(-1.0, 1.0, -1.0, 1.0),
    x=["u1", "u2", "0"],
    omega=(["1", "0", "0"], ["0", "1", "0"]),
    lam=["1", "0", "0", "1"],
    known={"lambda_det": "1", "K": "0"},
))

_register(CatalogEntry(
    name="paraboloid",
    description="elliptic paraboloid, the model improper affine sphere",
    domain=(-1.0, 1.0, -1.0, 1.0),
    x=["u1", "u2", "(u1^2 + u2^2)/2"],
    omega=(["1", "0", "u1"], ["0", "1", "u2"]),
    lam=["1", "0", "0", "1"],
    known={
        "lambda_det": "1",
        "K": "1/(1 + u1^2 + u2^2)^2",
        "xi": ["0", "0", "1"],
        "improper_sphere": True,
    },
))

_register(CatalogEntry(
    name="ex-5.8",
    description="cuspidal cross-cap from a 5/2-cuspidal edge, singular "
                "along u2 = 0, with a closed-form affine normal",
    domain=(-1.0, 1.0, -4.0, 4.0),
    open_domain=True,
    x=["u1", "u2^2", "4/15*u1*u2^5 + 1/2*u1^3*u2^4 + u1*u2^2"],
    omega=(["1", "0", "u2^2*(4/15*u2^3 + 3/2*u1^2*u2^2 + 1)"],
           ["0", "1", "1/3*u1*(3*u1^2*u2^2 + 2*u2^3 + 3)"]),
    lam=["1", "0", "0", "2*u2"],
    known={
        "lambda_det": "2*u2",
        "K": f"-90000*({_RHO})/({_MU})^2",
        "K_magnitude": f"90000*({_RHO})/({_MU})^2",
        "xi": [f"-3*sqrt(3)/8*({_XI1})/sqrt(sqrt(({_RHO})^7))",
               f"-9*sqrt(3)/8*u1*({_XI2})/sqrt(sqrt(({_RHO})^7))",
               f"sqrt(3)/240*({_XI3})/sqrt(sqrt(({_RHO})^7))"],
        "improper_sphere": False,
    },
))

_register(CatalogEntry(
    name="ex-5.9",
    description="quintic cuspidal-edge frontal, singular along u2 = 0; "
                "its affine normal depends on u2 alone",
    domain=(-1.0, 1.0, -1.0, 1.0),
    open_domain=True,
    x=["u1", "2/5*u2^5 + u2^2", "u1*u2^2"],
    omega=(["1", "0", "u2^2"], ["0", "u2^3 + 1", "u1"]),
    lam=["1", "0", "0", "2*u2"],
    known={
        "lambda_det": "2*u2",
        "K": "-((u2 + 1)^2*(u2^2 - u2 + 1)^2)"
             "/(u2^10 + 2*u2^7 + u2^6 + u2^4 + 2*u2^3 + u1^2 + 1)^2",
        "K_magnitude": "((u2 + 1)^2*(u2^2 - u2 + 1)^2)"
                       "/(u2^10 + 2*u2^7 + u2^6 + u2^4 + 2*u2^3 + u1^2 + 1)^2",
        "xi": ["3*u2/(4*sqrt((u2 + 1)^3)*sqrt((u2^2 - u2 + 1)^3))",
               "0",
               "(7*u2^3 + 4)/(4*sqrt((u2 + 1)^3)*sqrt((u2^2 - u2 + 1)^3))"],
        "improper_sphere": False,
    },
))

_register(CatalogEntry(
    name="ex-5.10",
    description="rank-1 wave front, singular along u2 = +-u1, whose affine "
                "normal is the constant vertical field",
    domain=(-1.0, 1.0, -1.0, 1.0),
    x=["u1", "12*u1^2*u2 - 4*u2^3", "u1^4 + 6*u1^2*u2^2 - 3*u2^4"],
    omega=(["1", "24*u1*u2", "4*u1^3 + 12*u1*u2^2"], ["0", "1", "u2"]),
    lam=["1", "0", "0", "12*u1^2 - 12*u2^2"],
    known={
        "lambda_det": "12*u1^2 - 12*u2^2",
        "K": "1/(16*u1^6 - 96*u1^4*u2^2 + 144*u1^2*u2^4 + u2^2 + 1)^2",
        "K_magnitude": "1/(16*u1^6 - 96*u1^4*u2^2 + 144*u1^2*u2^4"
                       " + u2^2 + 1)^2",
        "xi": ["0", "0", "1"],
        "improper_sphere": True,
    },
))


# --- representation-formula generators --------------------------------------------


def _integral(cfg: Config, integrand, upper, var, order):
    """integral_0^upper integrand(t) dt at the configured quadrature sizes."""
    return integrate_jet(integrand, 0.0, upper, var=var, order=order,
                         nodes=cfg.quad_nodes, max_nodes=cfg.quad_max_nodes)


def _integral_per_value(cfg: Config, integrand, upper, var, order):
    """_integral of an integrand that reads t alone, with `upper` a
    coordinate jet in u_var: integrated once per distinct value of upper,
    on a 1-D coordinate jet at upper's order, and scattered back to
    upper's shape.

    Values are told apart by their float64 bits, so +0.0, -0.0 and NaNs
    of different payloads stay apart.  converged_quad decides each lane
    on its own, an integral nested in the integrand (as in t34) too, and
    fewer lanes only put more nodes into each batched call, which
    _quad_fixed sums in node order; so every coefficient keeps its bits.
    A 0-d upper keeps the plain path, since as a 1-D array its powers
    would leave libm's pow (see _quad_fixed); so does one of another
    dtype (the extended-precision probes), whose padding bytes are no
    part of its values."""
    value = upper.value
    if value.ndim == 0 or value.dtype != np.float64:
        return _integral(cfg, integrand, upper, var, order)
    bits, inverse = np.unique(np.ascontiguousarray(value).view(np.int64),
                              return_inverse=True)
    distinct = Jet.variable(bits.view(np.float64), var, upper.order)
    out = _integral(cfg, integrand, distinct, var, order)
    return Jet(out.order, [c[inverse].reshape(value.shape)
                           for c in out.coeffs], out.const)


def _last_point_set(fn):
    """fn(u1, u2, order), remembering its last result: a call with the
    same order and coordinate arrays of the same dtype, shape and bytes
    returns that result again.  Nothing looser matches: converged_quad
    reads every coefficient of a lane, so a lower-order result is never
    cut from a higher-order one."""
    last = []

    def memo(u1, u2, order):
        key = (order, *((a.dtype.str, a.shape, a.tobytes())
                        for a in map(np.asarray, (u1, u2))))
        if not last or last[0] != key:
            last[:] = key, fn(u1, u2, order)
        return last[1]
    return memo


def _zero_integral(upper, var):
    """What _integral returns for an integrand that is +0 everywhere, with
    no quadrature and the same signed zeros: coefficients taken from the
    quadrature carry the sign of the upper limit, and those a moving
    endpoint reads off the integrand are +0."""
    kind, value = _classify_upper(upper, var)
    signed = np.copysign(0.0, value)
    plus = np.zeros_like(signed)
    return Jet(upper.order, [signed if kind == "fixed" or (i, j)[var] == 0
                             else plus for (i, j) in INDICES[upper.order]])


def _identically_zero(ast):
    """True when a parsed profile holds no variable and evaluates to the
    constant 0 (+0 or -0).  A profile with a variable is integrated
    whatever it simplifies to, so one that fails somewhere (0*(1/u2) at
    u2 = 0, or 0*(1e300*u2*1e300), NaN off u2 = 0) fails as its integral
    does; a constant that fails to evaluate (0*(1/0)) is not zero."""
    if any(isinstance(n, Var) for n in expr_mod._nodes(ast)):
        return False
    try:
        return bool(expr_mod.eval_num(ast, {}) == 0.0)
    except DomainError:
        return False


def _partial(ast, var):
    """d(ast)/d(var) as a simplified AST."""
    return expr_mod.simplify(expr_mod.differentiate(ast, var))


def _at(ast, u1, u2):
    """Jet of an AST with u1 and u2 bound to the given jets (u2 None for
    a profile in u1 alone)."""
    return expr_mod.eval_jet(ast, {"u1": u1, "u2": u2})


def _path_x(comps, P, Q):
    """Callable (cfg, u1, u2, order) -> the JetVec3 of
    x = (comps[0], comps[1], int_0^{u1} P(t, u2) dt + int_0^{u2} Q(0, t) dt),
    the parametrization of the path-integral generators (all ASTs).  The
    u2-only integral runs once per distinct u2 value."""
    def x_fn(cfg, u1, u2, order):
        env = expr_mod._jet_env(u1, u2, order)

        def along_u1(t):
            return _at(P, t, env["u2"])

        def along_u2(t):
            zero = Jet.constant(np.zeros(np.shape(np.asarray(t.value))),
                                t.order)
            return _at(Q, zero, t)

        third = (_integral(cfg, along_u1, env["u1"], 0, order)
                 + _integral_per_value(cfg, along_u2, env["u2"], 1, order))
        return JetVec3(*(expr_mod.eval_jet(c, env) for c in comps), third)
    return x_fn


def gen_rank1_wavefront(h="u1^2 - u2^2", c="1",
                        domain=(-1.0, 1.0, -1.0, 1.0)) -> CatalogEntry:
    """Rank-1 wave front built from a potential h(u1, u2).

    y = (u1, -h_u2, int_0^{u1}(h_u1(t,u2) - u2 h_u2u1(t,u2)) dt
                    - int_0^{u2} t h_u2u2(0,t) dt),
    with moving basis columns (1, 0, h_u1) and (0, 1, u2), so the factor
    determinant is -h_u2u2.  When h_u1u1 + c h_u2u2 = 0 for a smooth c the
    Gauss curvature extends as c/(1 + h_u1^2 + u2^2)^2.
    """
    h_ast = expr_mod.parse(h)
    expr_mod.parse(c)       # a bad c fails here, not when the entry builds
    h_u1 = _partial(h_ast, "u1")
    h_u2 = _partial(h_ast, "u2")
    h_u2u1 = _partial(h_u2, "u1")
    h_u2u2 = _partial(h_u2, "u2")
    u2 = Var("u2")
    x_fn = _path_x((Var("u1"), Unary("neg", h_u2)),
                   Bin("-", h_u1, Bin("*", u2, h_u2u1)),
                   Unary("neg", Bin("*", u2, h_u2u2)))

    s = expr_mod.to_source
    lam_det = s(expr_mod.simplify(Unary("neg", h_u2u2)))
    return CatalogEntry(
        name=f"gen-rank1-wavefront[h={h};c={c}]",
        description="rank-1 wave front generated from a potential",
        domain=domain,
        omega=(["1", "0", s(h_u1)], ["0", "1", "u2"]),
        lam=["1", s(expr_mod.simplify(Unary("neg", h_u2u1))), "0", lam_det],
        known={"lambda_det": lam_det,
               "K": f"({c})/(1 + ({s(h_u1)})^2 + u2^2)^2"},
        params={"h": h, "c": c},
        builder=lambda entry, cfg: _build_generated(entry, cfg, x_fn),
    )


def _build_generated(entry: CatalogEntry, config: Config, x_fn) -> Frontal:
    """Expression-backed basis, factor and curvature around the integral
    parametrization x_fn(config, u1, u2, order); none of them is
    sign-probed on the domain."""
    k_src = entry.known.get("K")
    return Frontal(entry.name, functools.partial(x_fn, config),
                   expr_mod.jets_fn([*entry.omega[0], *entry.omega[1]]),
                   entry.domain, lam=expr_mod.jets_fn(entry.lam),
                   gauss=expr_mod.jets_fn([k_src]) if k_src else None,
                   config=config)


def gen_extendable_nc(b="u2^2", h="0", l="1", r="0",
                      domain=(-1.0, 1.0, -1.0, 1.0)) -> CatalogEntry:
    """Frontal with extendable normal curvature from profile data.

    y = (u1, b(u1,u2), C) where C stacks four iterated integrals of the
    profile functions; l and r are single-variable expressions in u1.
    The second basis column is (0, 1, G) with G the u2-derivative cofactor
    of C, and the first column's third entry is recovered from the jets of
    C, so no closed form of C is ever needed.  int_0^{u1} l and the u1-only
    terms of C (t34) run once per distinct u1 value.  A point gets C's
    bits alone or in any batch, so a grid goes in lane blocks; x and Omega
    of one block share C: each build keeps the last C it evaluated, with
    its coordinate jets and int_0^{u1} l, and hands it to either of them
    asked for the same order at the same points (_last_point_set).
    """
    b_ast = expr_mod.parse(b)
    h_ast = expr_mod.parse(h)
    l_ast = expr_mod.parse(l)
    r_ast = expr_mod.parse(r)
    for ast in (l_ast, r_ast):
        names = {n.name for n in expr_mod._nodes(ast)
                 if isinstance(n, expr_mod.Var)}
        if "u2" in names or "t" in names:
            raise InputError("profile functions l and r must depend on u1 only")
    b_u1 = _partial(b_ast, "u1")
    b_u2 = _partial(b_ast, "u2")
    hb = Bin("*", h_ast, b_u2)

    h_zero = _identically_zero(h_ast)
    r_zero = _identically_zero(r_ast)

    def ell(t):
        return _at(l_ast, t, None)

    def arr(t):
        return _at(r_ast, t, None)

    def big_g(cfg, u1, u2, order, ell_int):
        # G(u1, u2) = int_0^{u2} h(u1,t) b_u2(u1,t) dt + ell_int, where
        # ell_int = int_0^{u1} l(t) dt is the caller's, integrated once.
        # With h = 0 the first integral is a jet of signed zeros, added
        # so that G keeps the signs of its zeros.
        if h_zero:
            return _zero_integral(u2, 1) + ell_int
        return _integral(cfg, lambda t: _at(hb, u1, t), u2, 1, order) + ell_int

    def third_component(cfg, u1, u2, order, ell_int):
        # C = int_0^{u2} G(u1, t2)|_{l-part fixed} b_u2(u1,t2) dt2  (terms 1+2)
        #   + int_0^{u1} (int_0^{t2} l) b_u1(t2, 0) dt2 + int_0^{u1} int_0^{t2} r
        # r = 0 drops the last inner integral: a jet product has no -0
        # coefficient, so adding that integral's signed zeros changes no bit
        def outer_u2(t2):
            return big_g(cfg, u1, t2, t2.order, ell_int) * _at(b_u2, u1, t2)

        def outer_u1(t2):
            inner_l = _integral(cfg, ell, t2, 0, t2.order)
            zero2 = Jet.constant(np.zeros(np.shape(np.asarray(t2.value))),
                                 t2.order)
            term = inner_l * _at(b_u1, t2, zero2)
            if r_zero:
                return term
            return term + _integral(cfg, arr, t2, 0, t2.order)

        t12 = _integral(cfg, outer_u2, u2, 1, order)
        t34 = _integral_per_value(cfg, outer_u1, u1, 0, order)
        return t12 + t34

    def c_jets(cfg, u1, u2, order):
        # the coordinate jets at `order`, int_0^{u1} l and C on them
        v1, v2 = expr_mod._jet_env(u1, u2, order).values()
        ell_int = _integral_per_value(cfg, ell, v1, 0, order)
        return v1, v2, ell_int, third_component(cfg, v1, v2, order, ell_int)

    def build(entry, cfg):
        # x and Omega of one build share C per order and point set
        shared = _last_point_set(functools.partial(c_jets, cfg))

        def x_fn(u1, u2, order):
            v1, v2, _, c3 = shared(u1, u2, order)
            return JetVec3(v1, _at(b_ast, v1, v2), c3)

        def omega_fn(u1, u2, order):
            one = Jet.constant(np.ones(np.shape(np.asarray(u1, dtype=float))),
                               order)
            zero = Jet.constant(np.zeros(np.shape(np.asarray(u1, dtype=float))),
                                order)
            if order:
                v1, v2, ell_int, c3 = shared(u1, u2, order)
            else:
                # g1 reads one derivative of C, so order 0 takes C at order 1
                v1, v2 = expr_mod._jet_env(u1, u2, 0).values()
                ell_int = _integral_per_value(cfg, ell, v1, 0, 0)
                c3 = shared(u1, u2, 1)[3]
            g2 = big_g(cfg, v1, v2, order, ell_int)
            g1 = c3.deriv(0) - _at(b_u1, v1, v2) * g2
            return JetVec3(one, zero, g1), JetVec3(zero, one, g2)

        return Frontal(entry.name, x_fn, omega_fn, entry.domain, lam=lam_fn,
                       config=cfg)

    lam_fn = expr_mod.jets_fn([Num(1.0), b_u1, Num(0.0), b_u2])
    return CatalogEntry(
        name=f"gen-extendable-nc[b={b};h={h};l={l};r={r}]",
        description="frontal with extendable normal curvature from profiles",
        domain=domain,
        known={"lambda_det": expr_mod.to_source(b_u2)},
        params={"b": b, "h": h, "l": l, "r": r},
        builder=build,
    )


def gen_nonparabolic(a="u1", b="u2",
                     domain=(-1.0, 1.0, -1.0, 1.0)) -> CatalogEntry:
    """Non-parabolic normal form from a pair (a, b) with a_u2 = b_u1.

    y = (a, b, int_0^{u1}(t a_u1(t,u2) + u2 b_u1(t,u2)) dt
             + int_0^{u2} t b_u2(0,t) dt)
    with moving basis ((1,0,u1), (0,1,u2)) and factor equal to the
    Jacobian of (a, b).  The closure condition a_u2 = b_u1 is probed
    numerically at load.
    """
    a_ast = expr_mod.parse(a)
    b_ast = expr_mod.parse(b)
    a_u1 = _partial(a_ast, "u1")
    a_u2 = _partial(a_ast, "u2")
    b_u1 = _partial(b_ast, "u1")
    b_u2 = _partial(b_ast, "u2")

    # closure check on a coarse grid
    g1, g2 = np.meshgrid(np.linspace(domain[0], domain[1], 9),
                         np.linspace(domain[2], domain[3], 9), indexing="ij")
    env_num = {"u1": g1, "u2": g2}
    gap = np.max(np.abs(np.asarray(expr_mod.eval_num(a_u2, env_num))
                        - np.asarray(expr_mod.eval_num(b_u1, env_num))))
    if gap > 1e-9:
        raise InputError(f"profiles violate a_u2 = b_u1 (gap {gap:.2e})")

    u1, u2 = Var("u1"), Var("u2")
    x_fn = _path_x((a_ast, b_ast),
                   Bin("+", Bin("*", u1, a_u1), Bin("*", u2, b_u1)),
                   Bin("*", u2, b_u2))

    s = expr_mod.to_source
    lam_det = s(expr_mod.simplify(expr_mod.parse(
        f"({s(a_u1)})*({s(b_u2)}) - ({s(b_u1)})*({s(a_u2)})")))
    return CatalogEntry(
        name=f"gen-nonparabolic[a={a};b={b}]",
        description="non-parabolic frontal normal form from a closed pair",
        domain=domain,
        omega=(["1", "0", "u1"], ["0", "1", "u2"]),
        lam=[s(a_u1), s(b_u1), s(a_u2), s(b_u2)],
        known={"lambda_det": lam_det},
        params={"a": a, "b": b},
        builder=lambda entry, cfg: _build_generated(entry, cfg, x_fn),
    )


GENERATORS = {
    "gen-rank1-wavefront": (gen_rank1_wavefront, ("h", "c", "domain")),
    "gen-extendable-nc": (gen_extendable_nc, ("b", "h", "l", "r", "domain")),
    "gen-nonparabolic": (gen_nonparabolic, ("a", "b", "domain")),
}


def list_entries():
    return [ENTRIES[k].summary() for k in sorted(ENTRIES)]


def get_entry(name, params=None) -> CatalogEntry:
    """Fixed entry by name, or a generator entry with keyword params."""
    if name in ENTRIES:
        if params:
            raise InputError(f"{name} is a fixed entry and takes no "
                             f"parameters, got {sorted(params)}")
        return ENTRIES[name]
    if name in GENERATORS:
        fn, allowed = GENERATORS[name]
        params = dict(params or {})
        bad = set(params) - set(allowed)
        if bad:
            raise InputError(f"unknown parameters for {name}: {sorted(bad)}")
        if "domain" in params:
            params["domain"] = read_domain(params["domain"])
        return fn(**params)
    raise InputError(f"no catalog entry or generator named {name!r}")
