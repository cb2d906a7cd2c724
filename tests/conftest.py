import math

import numpy as np
import pytest

from frontal_lab.catalog import get_entry
from frontal_lab.config import Config

# integrate_frame with every gate open; a NaN still fails them
UNGATED = Config(tol_compat=math.inf, tol_path=math.inf)
# an open mesh of 5 x 3 points, as a sweep samples it: u1 on a column and
# u2 on a row, broadcast against each other
OPEN_MESH = (np.linspace(-0.6, 0.6, 5)[:, None],
             np.array([[-0.45, 0.2, 0.45]]))


@pytest.fixture(scope="session")
def config():
    return Config()


@pytest.fixture(scope="session")
def plane():
    return get_entry("plane").build()


@pytest.fixture(scope="session")
def paraboloid():
    return get_entry("paraboloid").build()


@pytest.fixture(scope="session")
def ex58():
    return get_entry("ex-5.8").build()


@pytest.fixture(scope="session")
def ex59():
    return get_entry("ex-5.9").build()


@pytest.fixture(scope="session")
def ex510():
    return get_entry("ex-5.10").build()


def regular_points(f, n, seed=0, margin=0.05, min_lam=1e-2):
    """Random interior points away from the singular set."""
    from frontal_lab.frame import frame_bundle
    rng = np.random.default_rng(seed)
    a1, b1, a2, b2 = f.domain
    out1, out2 = [], []
    while len(out1) < n:
        u1 = rng.uniform(a1 + margin * (b1 - a1), b1 - margin * (b1 - a1),
                         4 * n)
        u2 = rng.uniform(a2 + margin * (b2 - a2), b2 - margin * (b2 - a2),
                         4 * n)
        lam = frame_bundle(f, u1, u2).lam_det.value_on(u1.shape)
        keep = np.abs(lam) > min_lam
        out1.extend(u1[keep][: n - len(out1)])
        out2.extend(u2[keep][: n - len(out2)])
    return np.asarray(out1), np.asarray(out2)


def field_jets(f, field, u1, u2):
    """(frame bundle, field jets) at the points (u1, u2)."""
    from frontal_lab.frame import frame_bundle
    b = frame_bundle(f, u1, u2)
    return b, field.jets(b)


def with_structure(f, field, u1, u2):
    """(frame bundle, field jets, induced structure) at the points
    (u1, u2), each computed once, as the structure checks read them."""
    from frontal_lab.equiaffine import structure_from_field
    b, xj = field_jets(f, field, u1, u2)
    return b, xj, structure_from_field(f, field, u1, u2, bundle=b,
                                       xi_jets=xj)


def expression_field(sources, label=None):
    """Transversal field of three component expressions in u1 and u2,
    evaluated at the points and order of the bundle it is handed."""
    from frontal_lab.equiaffine import TransversalField
    from frontal_lab.expr import jets_fn
    fn = jets_fn(sources)
    return TransversalField(lambda b: fn(b.u1, b.u2, b.order),
                            label or "expr(" + ", ".join(sources) + ")")


def is_equiaffine(structure, tol=1e-6):
    """(verdict, max |tau_i|) of a structure over its sampled points."""
    worst = structure.max_tau()
    return worst <= tol, worst


def jets_allclose(a, b, tol=1e-12):
    """Whether every coefficient of the jets a and b agrees to `tol`,
    relative to max(1, |a's coefficient|)."""
    a, b = a._match(b)
    return all(np.all(np.abs(x - y) <= tol * np.maximum(1.0, np.abs(x)))
               for x, y in zip(a.coeffs, b.coeffs))


def random_unimodular(rng, scale=1.0):
    """Random 3x3 with determinant exactly +1 (well away from singular)."""
    while True:
        A = rng.uniform(-scale, scale, size=(3, 3))
        det = np.linalg.det(A)
        if abs(det) > 0.2:
            break
    A = A * np.sign(det)
    return A / abs(det) ** (1.0 / 3.0)


def with_nan_x(f, lam=None):
    """Copy of frontal `f` whose x3 has a NaN u2-derivative at the first
    sample point, with Lambda `lam` (factored from x and Omega when None)."""
    from frontal_lab.frame import Frontal
    from frontal_lab.jets import POSITION, Jet, JetVec3

    def x(u1, u2, order):
        xj = f.x(u1, u2, order)
        coeffs = [np.array(np.broadcast_to(c, np.shape(u1)), dtype=float)
                  for c in xj[2].coeffs]
        coeffs[POSITION[order][(0, 1)]].flat[0] = np.nan
        return JetVec3(xj[0], xj[1], Jet(order, coeffs))

    return Frontal(f.name + "-nan", x, f.omega, f.domain, lam=lam,
                   config=f.config)
