"""Structure data: residuals, constructive extension, integration, alignment."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_unimodular, regular_points
from frontal_lab import reconstruct
from frontal_lab.blaschke import blaschke_field
from frontal_lab.equiaffine import TransversalField
from frontal_lab.errors import (CompatibilityViolated, ConditionFailed,
                                FrameDegenerate, InsufficientJetOrder,
                                IntegrabilityViolated, RankDeficient)
from frontal_lab.jets import Jet
from frontal_lab.reconstruct import (GridField, StructureData, affine_align,
                                     apolarity_check, compat_residual,
                                     expr_entry, extend_D, extract_structure,
                                     integrability_residual, integrate_frame,
                                     integrate_position, lattice_nodes,
                                     stack_blocks)
from frontal_lab.structio import read_structure_file, write_structure_file

VERTICAL = TransversalField.constant((0.0, 0.0, 1.0))


def synthetic_sd(d1, d2, h=None, s=None, lam=None, i_omega=None, phi=None,
                 domain=(-1.0, 1.0, -1.0, 1.0), W0=None, p=(0.0, 0.0, 0.0)):
    return StructureData(
        domain=domain, basepoint=(domain[0], domain[2]),
        W0=np.eye(3) if W0 is None else np.asarray(W0, dtype=float),
        p=np.asarray(p, dtype=float),
        lam=expr_entry(lam or ["1", "0", "0", "1"]),
        i_omega=expr_entry(i_omega or ["1", "0", "0", "1"]),
        blocks=stack_blocks(expr_entry(d1), expr_entry(d2),
                            expr_entry(h or ["0", "0", "0", "0"]),
                            expr_entry(s or ["0", "0", "0", "0"])),
        phi=expr_entry(phi or "1"))


class TestCompatResidual:
    def test_zero_symbols(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        u = np.linspace(-0.9, 0.9, 7)
        assert compat_residual(sd, u, u) == 0.0

    def test_u2_dependent_entry_measures_derivative(self):
        # D1 with a u2-dependent corner entry and D2 = 0: the commutator
        # vanishes, so the defect is exactly the u2-derivative (= 3)
        sd = synthetic_sd(["3*u2", "0", "0", "0"], ["0"] * 4)
        u = np.linspace(-0.5, 0.5, 5)
        assert compat_residual(sd, u, u) == pytest.approx(3.0, abs=1e-12)

    def test_extracted_wavefront_structure(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 30, seed=1)
        assert compat_residual(sd, u1, u2) < 1e-7

    def test_extracted_blaschke_structure(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        u1, u2 = regular_points(ex59, 30, seed=2)
        assert compat_residual(sd, u1, u2) < 1e-7


class TestIntegrabilityResidual:
    def test_plane_data(self, plane):
        sd = extract_structure(plane, VERTICAL)
        u = np.linspace(-0.9, 0.9, 7)
        sym, row = integrability_residual(sd, u, u)
        assert sym == pytest.approx(0.0, abs=1e-14)
        assert row == pytest.approx(0.0, abs=1e-14)

    def test_quintic_edge_structure(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        u1, u2 = regular_points(ex59, 30, seed=3)
        sym, row = integrability_residual(sd, u1, u2)
        assert sym < 1e-8 and row < 1e-8

    def test_injected_asymmetry_detected(self):
        # Lambda = I, h with asymmetric off-diagonal: residual is the gap
        sd = synthetic_sd(["0"] * 4, ["0"] * 4,
                          h=["0", "1/4", "-1/4", "0"])
        u = np.linspace(-0.5, 0.5, 5)
        sym, row = integrability_residual(sd, u, u)
        assert sym == pytest.approx(0.5, abs=1e-14)
        assert row == pytest.approx(0.0, abs=1e-14)


class TestExtendD:
    def test_matches_direct_solve_everywhere(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        # includes points on the singular diagonals
        u1 = np.array([0.5, 0.3, 0.3, -0.4])
        u2 = np.array([0.1, 0.3, -0.3, 0.1])
        for which in (1, 2):
            D, omega = extend_D(sd, which, u1, u2)
            ref = sd.blocks(u1, u2, 0)[which - 1]
            ref_v = np.stack([np.stack(
                [np.broadcast_to(np.asarray(ref[i][j].value, dtype=float),
                                 u1.shape) for j in range(2)], axis=-1)
                for i in range(2)], axis=-2)
            assert np.max(np.abs(D - ref_v)) < 1e-7

    def test_identity_factor_trivial_extension(self):
        # Lambda = I means the membership ratio is plain division by 1
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, i_omega=["1", "0", "0", "1"],
                          h=["1", "0", "0", "1"], phi="1")
        D, omega = extend_D(sd, 1, np.array([0.2]), np.array([0.3]))
        assert np.max(np.abs(omega)) < 1e-12

    def test_condition_failed_on_bad_data(self, config):
        # factor rows (1,0),(1,u2) with first form diag(2+u2, 1) puts the
        # constant 1 into the certificate numerator: 1/u2 diverges
        sd = synthetic_sd(["0"] * 4, ["0"] * 4,
                          lam=["1", "0", "1", "u2"],
                          i_omega=["2 + u2", "0", "0", "1"],
                          h=["1", "0", "0", "1"], phi="1")
        with pytest.raises(ConditionFailed):
            extend_D(sd, 1, np.array([0.3]), np.array([0.0]), config)

    def test_fault_in_a_field_propagates(self, config):
        # a programming error inside a field is not an unusable probe
        # sample: it must surface instead of becoming a failed certificate
        def broken(u1, u2, order):
            raise TypeError("broken field")

        sd = synthetic_sd(["0"] * 4, ["0"] * 4, lam=["1", "0", "0", "u2"],
                          h=["1", "0", "0", "1"])
        sd.phi = broken
        with pytest.raises(TypeError, match="broken field"):
            extend_D(sd, 1, np.array([0.3]), np.array([0.0]), config)


class TestApolarity:
    def test_paraboloid_blaschke(self, paraboloid):
        bf = blaschke_field(paraboloid, shape=(15, 15))
        sd = extract_structure(paraboloid, bf)
        u1, u2 = regular_points(paraboloid, 25, seed=4)
        assert apolarity_check(sd, u1, u2) < 1e-8

    def test_rank1_wavefront_blaschke(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 25, seed=5)
        assert apolarity_check(sd, u1, u2) < 1e-6

    def test_constant_scaling_preserves_apolarity(self, ex510):
        # doubling the field rescales the affine metric volume by a
        # constant, so the parallel-volume defect stays zero; the scaling
        # is caught by the volume-match verification instead
        doubled = TransversalField.constant((0.0, 0.0, 2.0))
        sd = extract_structure(ex510, doubled)
        u1, u2 = regular_points(ex510, 25, seed=6)
        assert apolarity_check(sd, u1, u2) < 1e-6


class TestIntegrateFrame:
    def test_zero_symbols_keep_initial_frame(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, W0=np.diag([1.0, 2.0, 3.0]))
        ff = integrate_frame(sd, shape=(7, 7), step=1e-2)
        assert np.max(np.abs(ff.W - np.diag([1.0, 2.0, 3.0]))) < 1e-13

    def test_constant_coefficients_match_matrix_exponential(self):
        # D1 constant, D2 = 0 is flat; the frame is W0 exp(u1 D1aug^T)
        d1 = ["0", "1/2", "0", "0"]
        h = ["1/4", "0", "0", "0"]
        s = ["0", "1/8", "0", "0"]
        sd = synthetic_sd(d1, ["0"] * 4, h=h, s=s)
        ff = integrate_frame(sd, shape=(9, 9), step=1e-3)
        D1aug = np.array([[0.0, 0.5, 0.25], [0.0, 0.0, 0.0],
                          [0.0, -0.125, 0.0]])
        q1 = sd.basepoint[0]
        for i in (0, 4, 8):
            t = ff.u1_nodes[i] - q1
            ref = expm(t * D1aug.T)
            assert np.max(np.abs(ff.W[i, 0] - ref)) < 1e-9

    def test_wavefront_frame_matches_analytic(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        ff = integrate_frame(sd, shape=(11, 11), step=2e-3)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        from frontal_lab.frame import frame_bundle
        b = frame_bundle(ex510, U1, U2)
        W_true = np.stack([
            b.w1.values_on(U1.shape), b.w2.values_on(U1.shape),
            np.broadcast_to([0.0, 0.0, 1.0], U1.shape + (3,))], axis=-1)
        assert np.max(np.abs(ff.W - W_true)) < 1e-5

    def test_incompatible_data_rejected(self):
        sd = synthetic_sd(["3*u2", "0", "0", "0"], ["0"] * 4)
        with pytest.raises(CompatibilityViolated):
            integrate_frame(sd, shape=(7, 7), step=1e-2)

    def test_compat_check_beyond_jet_budget_named(self, ex59, monkeypatch):
        # without closed-form K the affine normal loses three orders, so
        # the order-1 symbols of the compatibility check need order-4 jets
        numeric = ex59.stripped()
        sd = extract_structure(numeric, blaschke_field(numeric, (9, 9)))
        calls = []
        monkeypatch.setattr(StructureData, "aug_values",
                            lambda self, u1, u2: calls.append(u1))
        with pytest.raises(InsufficientJetOrder, match="jet budget") as exc:
            integrate_frame(sd, shape=(9, 9), check_compat=True)
        assert "order-1 structure jets need order-4" in str(exc.value)
        assert "loses 3 orders" in str(exc.value)
        assert calls == []


class TestRoundTrips:
    def test_plane_from_trivial_data(self):
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, p=(1.0, -2.0, 3.0))
        ff = integrate_frame(sd, shape=(7, 7), step=1e-2)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        expected = np.stack([U1 - sd.basepoint[0] + 1.0,
                             U2 - sd.basepoint[1] - 2.0,
                             np.full_like(U1, 3.0)], axis=-1)
        assert np.max(np.abs(x - expected)) < 1e-12

    def test_quintic_edge_round_trip(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex59.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4
        assert ff.discrepancy < 1e-4

    def test_rank1_wavefront_round_trip(self, ex510):
        sd = extract_structure(ex510, VERTICAL)
        ff = integrate_frame(sd, shape=(11, 11), step=1e-3)
        x = integrate_position(ff)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = ex510.x(U1, U2, 0).values_stacked()
        L, a, sup = affine_align(x, x_true)
        assert sup < 1e-4

    def test_step_refinement_is_fourth_order(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        coarse = integrate_frame(sd, shape=(9, 9), step=4e-3,
                                 audit_gate=False, check_compat=False)
        fine = integrate_frame(sd, shape=(9, 9), step=2e-3,
                               audit_gate=False, check_compat=False)
        assert coarse.discrepancy / fine.discrepancy >= 8.0

    def test_frame_determinant_keeps_sign(self, ex59):
        bf = blaschke_field(ex59, shape=(21, 21))
        sd = extract_structure(ex59, bf)
        ff = integrate_frame(sd, shape=(9, 9), step=2e-3)
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        det = np.linalg.det(ff.W)
        assert np.min(det) * np.max(det) > 0.0

    def test_gamma_flatness_tracks_d_flatness(self, ex510):
        # on the regular part the conjugated blocks satisfy the same
        # flatness identity as the extended blocks; the conjugated route
        # blows up near the singular set, so sample well away from it
        sd = extract_structure(ex510, VERTICAL)
        u1, u2 = regular_points(ex510, 20, seed=7, min_lam=4.0)
        h = 1e-5

        def gamma(k, uu1, uu2):
            lam_j = sd.lam(uu1, uu2, 1)
            d_j = sd.blocks(uu1, uu2, 0)[k]
            shape = np.shape(uu1)

            def v(m):
                return np.stack([np.stack(
                    [np.broadcast_to(np.asarray(m[i][j].value, dtype=float),
                                     shape) for j in range(2)], axis=-1)
                    for i in range(2)], axis=-2)

            lam_v = v(lam_j)
            lam_uk = np.stack([np.stack(
                [np.broadcast_to(np.asarray(lam_j[i][j].deriv(k).value,
                                            dtype=float), shape)
                 for j in range(2)], axis=-1) for i in range(2)], axis=-2)
            return (lam_uk + lam_v @ v(d_j)) @ np.linalg.inv(lam_v)

        g1_u2 = (gamma(0, u1, u2 + h) - gamma(0, u1, u2 - h)) / (2 * h)
        g2_u1 = (gamma(1, u1 + h, u2) - gamma(1, u1 - h, u2)) / (2 * h)
        g1 = gamma(0, u1, u2)
        g2 = gamma(1, u1, u2)
        resid = g1_u2 - g2_u1 + g1 @ g2 - g2 @ g1
        assert np.max(np.abs(resid)) < 1e-6


# --- open-mesh evaluation and the batched sweep -----------------------------


def _full(u1, u2):
    """The points of an open mesh, materialised."""
    return tuple(np.array(a) for a in np.broadcast_arrays(u1, u2))


def _coeff_arrays(jets, shape):
    """Every coefficient of a jet or 2x2 jet matrix, broadcast to shape."""
    rows = jets if isinstance(jets, list) else [[jets]]
    return [np.broadcast_to(c, shape) for row in rows for jet in row
            for c in jet.coeffs]


def _assert_equal_on_mesh(entry, mesh, order):
    shape = np.broadcast_shapes(*(np.shape(a) for a in mesh))
    got = _coeff_arrays(entry(*mesh, order), shape)
    want = _coeff_arrays(entry(*_full(*mesh), order), shape)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


ABSCISSAE = {
    "ascending": np.linspace(-0.9, 0.8, 7),
    "descending": np.linspace(0.8, -0.9, 7),
    # segment ends can repeat, and the down sweeps descend
    "repeated": np.array([0.3, -0.2, 0.3, 0.3, 0.55, -0.2, -0.9]),
}


def _mesh(ts, lanes, transposed):
    """Open mesh of sweep abscissae ts by fixed lanes: ts along u1, or
    along u2 when transposed."""
    mesh = (ts[:, None], lanes[None, :])
    return mesh[::-1] if transposed else mesh


class TestOpenMesh:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(ABSCISSAE))
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["along-u1", "along-u2"])
    def test_grid_entry_matches_pointwise(self, order, kind, transposed):
        rng = np.random.default_rng(11)
        entry = GridField((-1.0, 1.0, -1.0, 1.0), rng.normal(size=(4, 9, 7)))
        lanes = np.array([-0.7, 0.1, 0.6, 0.95])
        _assert_equal_on_mesh(
            entry, _mesh(ABSCISSAE[kind], lanes, transposed), order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["along-u1", "along-u2"])
    def test_expression_entry_matches_pointwise(self, order, transposed):
        entry = expr_entry(["sin(u1*u2) + u1", "exp(u2)/(2 + u1^2)",
                            "sqrt(3 + u1 - u2)", "u1/(3 + u2)"])
        lanes = np.array([-0.7, 0.1, 0.6])
        for ts in ABSCISSAE.values():
            _assert_equal_on_mesh(entry, _mesh(ts, lanes, transposed), order)

    def test_grid_entry_order_3_names_the_spline_limit(self):
        entry = GridField((-1.0, 1.0, -1.0, 1.0), np.zeros((5, 5)))
        u = np.array([0.1, 0.2])
        with pytest.raises(InsufficientJetOrder,
                           match="order-3 .* limit of order 2"):
            entry(u, u, 3)


def per_segment_sweep(sd, state, fixed, moving_nodes, axis, step):
    """Reference RK4 sweep: one coefficient evaluation per segment, on
    flattened points.  The batched sweep must match it bit for bit."""
    m = state.shape[0]
    n = moving_nodes.size
    out = np.empty((n,) + state.shape)
    out[0] = state
    if n == 1:
        return out
    delta = moving_nodes[1] - moving_nodes[0]
    nsub = max(1, int(math.ceil(abs(delta) / step)))
    h = delta / nsub
    for seg in range(n - 1):
        ts = moving_nodes[seg] + 0.5 * h * np.arange(2 * nsub + 1)
        if axis == 0:
            uu1, uu2 = np.repeat(ts, m), np.tile(fixed, ts.size)
        else:
            uu1, uu2 = np.tile(fixed, ts.size), np.repeat(ts, m)
        d1aug, d2aug, lam = sd.aug_values(uu1, uu2)
        daug = d1aug if axis == 0 else d2aug
        A = np.zeros(uu1.shape + (4, 4))
        A[..., :3, :3] = np.swapaxes(daug, -1, -2)
        A[..., 0, 3] = lam[..., axis, 0]
        A[..., 1, 3] = lam[..., axis, 1]
        A = A.reshape(ts.size, m, 4, 4)
        y = out[seg]
        for i in range(nsub):
            a0, a1, a2 = A[2 * i], A[2 * i + 1], A[2 * i + 2]
            k1 = y @ a0
            k2 = (y + 0.5 * h * k1) @ a1
            k3 = (y + 0.5 * h * k2) @ a1
            k4 = (y + h * k3) @ a2
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[seg + 1] = y
    return out


@pytest.fixture(scope="module")
def file_backed_sd(ex510, tmp_path_factory):
    path = tmp_path_factory.mktemp("structure") / "s.json"
    write_structure_file(path, extract_structure(ex510, VERTICAL), (17, 17))
    return read_structure_file(path)


def _nan_where(mask):
    """2x2 entry that is NaN where mask(u1, u2) holds and 0 elsewhere."""
    def entry(u1, u2, order):
        u1, u2 = np.broadcast_arrays(u1, u2)
        jet = Jet.constant(np.where(mask(u1, u2), np.nan, 0.0), order)
        return [[jet, jet], [jet, jet]]
    return entry


class TestBatchedSweep:
    @pytest.mark.parametrize("source", ["ex-5.9-blaschke", "file"])
    def test_matches_per_segment_sweep(self, source, ex59, file_backed_sd,
                                       monkeypatch):
        if source == "file":
            sd = file_backed_sd
        else:
            sd = extract_structure(ex59, blaschke_field(ex59, (21, 21)))

        def run():
            return integrate_frame(sd, shape=(9, 9), step=1e-2,
                                   check_compat=False, audit_gate=False)

        with monkeypatch.context() as patch:
            patch.setattr(reconstruct, "_rk4_sweep", per_segment_sweep)
            ref = run()
        # one segment per call, several, and the module's lane bound
        for lanes in (1, 1000, reconstruct.SWEEP_LANES):
            monkeypatch.setattr(reconstruct, "SWEEP_LANES", lanes)
            ff = run()
            assert np.array_equal(ff.W, ref.W)
            assert np.array_equal(ff.x, ref.x)
            assert ff.discrepancy == ref.discrepancy
            assert ff.x_discrepancy == ref.x_discrepancy
            assert ff.min_det == ref.min_det

    def test_sweeps_sample_whole_segments(self, monkeypatch):
        # 21x21 lattice, 193 abscissae per segment: each family segment
        # (21 lanes, 4,053 points) is one call and each spine (20
        # segments, 3,860 points) one call, 42 in all where one call per
        # segment made 80; the points sampled stay the same
        sd = synthetic_sd(["0"] * 4, ["0"] * 4, domain=(0.0, 1.91, 0.0, 1.91))
        sizes = []
        aug_values = StructureData.aug_values

        def counted(self, u1, u2):
            sizes.append(np.broadcast(u1, u2).size)
            return aug_values(self, u1, u2)

        monkeypatch.setattr(StructureData, "aug_values", counted)
        integrate_frame(sd, (21, 21), step=1e-3)
        assert len(sizes) == 42
        assert sum(sizes) == 2 * 20 * (193 + 193 * 21)

    # every gate is written so that a NaN fails it; D2 is NaN for u1 > 0,
    # which the column sweeps read but the row sweeps do not
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_fails_every_gate(self):
        zero = expr_entry(["0"] * 4)
        sd = synthetic_sd(["0"] * 4, ["0"] * 4)
        sd.blocks = stack_blocks(zero, _nan_where(lambda u1, u2: u1 > 0.0),
                                 zero, zero)
        with pytest.raises(CompatibilityViolated, match="residual nan"):
            integrate_frame(sd, (7, 7), step=1e-2)
        with pytest.raises(CompatibilityViolated, match="audit nan"):
            integrate_frame(sd, (7, 7), step=1e-2, check_compat=False)
        ff = integrate_frame(sd, (7, 7), step=1e-2, check_compat=False,
                             audit_gate=False)
        clean = synthetic_sd(["0"] * 4, ["0"] * 4)
        with pytest.raises(IntegrabilityViolated, match="position path"):
            integrate_position(ff, clean)
        clean_ff = integrate_frame(clean, (7, 7), step=1e-2)
        with pytest.raises(IntegrabilityViolated, match="residuals"):
            integrate_position(clean_ff, sd)
        sd.blocks = stack_blocks(_nan_where(lambda u1, u2: True), zero, zero,
                                 zero)
        with pytest.raises(FrameDegenerate):
            integrate_frame(sd, (7, 7), step=1e-2, check_compat=False)


class TestAffineAlign:
    def test_identity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (40, 3))
        L, a, sup = affine_align(x, x)
        np.testing.assert_allclose(L, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(a, 0.0, atol=1e-12)
        assert sup < 1e-12

    def test_recovers_random_affine_map(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (60, 3))
        A = random_unimodular(rng)
        b = rng.uniform(-1, 1, 3)
        y = x @ A.T + b
        L, a, sup = affine_align(x, y)
        np.testing.assert_allclose(L, A, atol=1e-10)
        np.testing.assert_allclose(a, b, atol=1e-10)
        assert sup < 1e-10

    def test_coplanar_rejected(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (30, 3))
        x[:, 2] = 0.0
        with pytest.raises(RankDeficient):
            affine_align(x, x)
