"""Grid evaluation in lane blocks, and RK4 sampling calls within the lane
budget: the same bytes and the same errors whatever the budget, memory
that grows with the values a command keeps, and generator points that
get the same bits alone as in a grid, so their grids go in blocks too."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from frontal_lab import blaschke, cli, forks, frame
from frontal_lab.catalog import get_entry
from frontal_lab.equiaffine import TransversalField
from frontal_lab.frame import evaluate_grid, frame_bundle, in_lane_blocks
from frontal_lab.reconstruct import (StructureData, extract_structure,
                                     integrate_frame)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
WHOLE = 10 ** 9          # a lane budget no grid here reaches


def run(argv, out_dir, capsys):
    """(exit code, stdout, stderr, {file name: bytes}) of one command,
    `{out}` in argv standing for `out_dir`."""
    out_dir.mkdir()
    rc = cli.main([a.replace("{out}", str(out_dir)) for a in argv])
    out, err = (text.replace(str(out_dir), "{out}")
                for text in capsys.readouterr())
    return (rc, out, err,
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})


def frontal_file(path, x, omega, domain=(-1.0, 1.0, -1.0, 1.0), lam=None,
                 open_domain=False):
    doc = {"name": "user", "domain": list(domain), "x": x, "omega": omega,
           "open_domain": open_domain}
    if lam is not None:
        doc["lambda"] = lam
    path.write_text(json.dumps(doc))
    return str(path)


def ex59_without_lambda(tmp_path):
    """ex-5.9 as a frontal file without `lambda`: Lambda is factored."""
    e = get_entry("ex-5.9")
    return frontal_file(tmp_path / "ex59-nolam.json", e.x,
                        [list(c) for c in e.omega], e.domain,
                        open_domain=e.open_domain)


def same_under_budgets(argv, tmp_path, capsys, monkeypatch, row):
    """Run argv with lane budgets of one grid row and of the whole grid;
    assert the two runs agree byte for byte and return the first."""
    runs = []
    for lanes in (row, WHOLE):
        monkeypatch.setattr(frame, "SWEEP_LANES", lanes)
        runs.append(run(argv, tmp_path / f"out-{lanes}", capsys))
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("command", ["analyze", "blaschke"])
@pytest.mark.parametrize("source", ["ex-5.8", "ex-5.9", "ex-5.10",
                                    "ex-5.9 file without lambda"])
def test_blocked_reports_and_exports_keep_their_bytes(
        command, source, tmp_path, capsys, monkeypatch):
    where = (["--input", ex59_without_lambda(tmp_path)] if " " in source
             else ["--entry", source])
    rc, out, _, files = same_under_budgets(
        [command, *where, "--grid", "15x13", "--out", "{out}", "--json"],
        tmp_path, capsys, monkeypatch, row=13)
    assert rc == 0 and json.loads(out)["command"] == command
    assert len(files) == (2 if command == "analyze" else 3)


def test_blocked_field_export_keeps_its_bytes(tmp_path, capsys,
                                              monkeypatch):
    rc, *_ = same_under_budgets(
        ["export", "--entry", "ex-5.9", "--what", "field", "--grid", "15x13",
         "--out", "{out}/field.csv"], tmp_path, capsys, monkeypatch, row=13)
    assert rc == 0


# each fails in some blocks and not in others; the error is the whole
# grid's, exit code and message
@pytest.mark.parametrize("command, spec, message", [
    # x_u1 = (1, 0, 3 u1^2) against Omega = (e1, e2): the residual grows
    # from 0 on the first row to 3 on the last, so the first failing
    # block's worst residual is not the grid's
    ("analyze", (["u1", "u2", "u1^3"], [["1", "0", "0"], ["0", "1", "0"]],
                 (0.0, 1.0, 0.0, 1.0), None),
     "NotAFrontal: decomposition residual 3.000e+00 exceeds gate"),
    # K = 12 u1 / (...)^2 vanishes on the row u1 = 0 alone
    ("blaschke", (["u1", "u2", "u1^3 + u2^2"],
                  [["1", "0", "3*u1^2"], ["0", "1", "2*u2"]],
                  (-1.0, 1.0, -1.0, 1.0), ["1", "0", "0", "1"]),
     "KVanishes: extended Gauss curvature vanishes on the sample"),
    # the basis columns are dependent on the row u1 = 0 alone
    ("analyze", (["u1", "u2", "0"], [["1", "0", "0"], ["u1", "u1", "0"]],
                 (-1.0, 1.0, -1.0, 1.0), ["1", "0", "0", "1"]),
     "DegenerateBasis: moving-basis columns numerically dependent"),
], ids=["not-a-frontal", "k-vanishes", "degenerate-basis"])
def test_blocked_errors_are_the_whole_grids(command, spec, message, tmp_path,
                                            capsys, monkeypatch):
    x, omega, domain, lam = spec
    path = frontal_file(tmp_path / "f.json", x, omega, domain, lam)
    rc, out, err, _ = same_under_budgets(
        [command, "--input", path, "--grid", "15x13"], tmp_path, capsys,
        monkeypatch, row=13)
    assert rc == cli.EXIT_PRECONDITION and not out
    assert err.startswith(f"precondition failed: {message}")


def bundle_sizes(monkeypatch, *also):
    """The point counts of the frame bundles frame, and the modules
    `also` that import frame_bundle, build from here on."""
    sizes, real = [], frame.frame_bundle

    def counted(f, u1, u2, *args):
        sizes.append(int(np.size(u1)))
        return real(f, u1, u2, *args)

    for module in (frame, *also):
        monkeypatch.setattr(module, "frame_bundle", counted)
    return sizes


def test_pointwise_grid_goes_in_contiguous_blocks(monkeypatch):
    f = get_entry("ex-5.10").build()
    u1, u2 = f.grid((70, 71))
    read = lambda b: {"K": b.K_omega.value_on(b.shape),   # noqa: E731
                      "n": b.n.values_on(b.shape)}
    whole = read(frame_bundle(f, u1, u2))
    sizes = bundle_sizes(monkeypatch)
    got = evaluate_grid(f, u1, u2, frame.MAX_ORDER, read)
    assert sizes == [4096, 70 * 71 - 4096]
    for key, vals in whole.items():
        assert got[key].shape == vals.shape
        assert np.array_equal(got[key].view(np.int64), vals.view(np.int64))


def test_a_raising_block_hands_the_grid_to_one_bundle(monkeypatch):
    f = get_entry("plane").build()
    u1, u2 = f.grid((9, 9))
    monkeypatch.setattr(frame, "SWEEP_LANES", 20)
    sizes = bundle_sizes(monkeypatch)

    def read(b):
        if len(sizes) == 2:
            raise ValueError("a fault in the second block")
        return {"u1": np.asarray(b.u1)}

    assert np.array_equal(evaluate_grid(f, u1, u2, 1, read)["u1"], u1)
    assert sizes == [20, 20, 81]


def test_generator_grid_goes_in_lane_blocks(monkeypatch, capsys):
    sizes = bundle_sizes(monkeypatch)
    assert cli.main(["analyze", "--entry", "gen-nonparabolic", "--grid",
                     "101x101"]) == 0
    assert "wavefront=True" in capsys.readouterr().out
    assert sizes == [4096, 4096, 101 * 101 - 2 * 4096]
    assert max(sizes) <= frame.SWEEP_LANES


def test_shallow_field_diagnostics_build_no_whole_bundle(monkeypatch):
    # gen-extendable-nc's affine normal carries order 0, so every block's
    # tau raises InsufficientJetOrder; rebuilding the 6,480 regular points
    # as one bundle would only raise it again
    sizes = bundle_sizes(monkeypatch, blaschke)
    bf = blaschke.blaschke_field(get_entry("gen-extendable-nc").build(),
                                 (81, 81))
    assert bf.diagnostics["note"].startswith("field jets too shallow")
    assert bf.diagnostics["max_tau"] is None
    assert max(sizes) <= frame.SWEEP_LANES


# Nested quadrature whose inner integrals need more nodes at some outer
# nodes than at others: a rule that decided convergence over a whole
# batch moved x at order 1 by up to 1.2e-12 between a point alone and
# the same point in this grid.
NESTED_NC = {"h": "1/(u2^2+0.01)", "l": "1/(u1+1.02)", "r": "1/(u1^2+0.001)"}


def generator_values(f, u1, u2):
    """Every coefficient of x and of Omega at order 1, (..., 27)."""
    x = f.x(u1, u2, 1)
    w1, w2 = f.omega(u1, u2, 1)
    return np.stack([np.broadcast_to(c, np.shape(u1))
                     for v in (x, w1, w2) for jet in v.c
                     for c in jet.coeffs], axis=-1)


@pytest.mark.parametrize("name, params", [
    ("gen-rank1-wavefront", None), ("gen-nonparabolic", None),
    ("gen-extendable-nc", None), ("gen-extendable-nc", NESTED_NC)],
    ids=["rank1", "nonparabolic", "extendable-nc", "extendable-nc-nested"])
def test_generator_point_alone_keeps_its_grid_bits(name, params):
    f = get_entry(name, params).build()
    u1, u2 = f.grid((21, 21))
    grid = generator_values(f, u1, u2)
    for i in range(0, 21, 2):
        for j in range(0, 21, 2):
            alone = generator_values(f, u1[i:i + 1, j], u2[i:i + 1, j])
            assert same_bits(alone[0], grid[i, j]), (i, j)


@pytest.fixture(scope="module")
def sd(paraboloid):
    """The paraboloid's structure data with the field (0, 0, 1)."""
    return extract_structure(paraboloid, TransversalField.constant((0, 0, 1)))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


class TestInLaneBlocks:
    """frame.in_lane_blocks on the open mesh of an RK4 sampling call,
    (abscissae, 1) x (1, lanes): 7 abscissae x 5 lanes of the
    paraboloid's structure data, 35 points."""

    @staticmethod
    def mesh(sd):
        a1, b1, a2, b2 = sd.domain
        return (np.linspace(a1, b1, 7).reshape(-1, 1),
                np.linspace(a2, b2, 5)[None, :])

    @staticmethod
    def evaluate(sd, calls, fail=None):
        """aug_values along u1 as an evaluator that records its arguments
        in `calls` and raises at call number `fail`."""
        def evaluate(u1, u2):
            calls.append((u1, u2))
            if len(calls) == fail:
                raise ValueError("a fault in one block")
            daug, lam_row = sd.aug_values(u1, u2, 0)
            return {"A": daug, "lam": lam_row}
        return evaluate

    # 3 cuts one abscissa's row across its lanes, 5 takes one row a
    # block, 8 a row and part of the next; below 35, every lane's
    # abscissae spread over several blocks
    @pytest.mark.parametrize("lanes", [3, 5, 8, 34])
    def test_blocks_give_the_bits_of_one_call(self, sd, lanes, monkeypatch):
        u1, u2 = self.mesh(sd)
        whole = self.evaluate(sd, [])(u1, u2)
        monkeypatch.setattr(frame, "SWEEP_LANES", lanes)
        calls = []
        got = in_lane_blocks(self.evaluate(sd, calls), u1, u2)
        blocks, rest = divmod(35, lanes)
        assert ([np.size(v1) for v1, _ in calls]
                == [lanes] * blocks + [rest] * (rest > 0))
        assert all(np.shape(v1) == np.shape(v2) for v1, v2 in calls)
        assert got.keys() == whole.keys()
        for key, vals in whole.items():
            assert vals.shape[:2] == (7, 5)
            assert same_bits(got[key], vals), key

    def test_a_raising_block_hands_the_call_to_one_evaluation(
            self, sd, monkeypatch):
        u1, u2 = self.mesh(sd)
        whole = self.evaluate(sd, [])(u1, u2)
        monkeypatch.setattr(frame, "SWEEP_LANES", 8)
        calls = []
        got = in_lane_blocks(self.evaluate(sd, calls, fail=2), u1, u2)
        assert [np.size(v1) for v1, _ in calls[:2]] == [8, 8]
        assert len(calls) == 3
        assert calls[2][0] is u1 and calls[2][1] is u2
        for key, vals in whole.items():
            assert same_bits(got[key], vals), key


class TestSweepCalls:
    """reconstruct --entry paraboloid --field=0,0,1 --grid 3x41: a row
    segment holds 1,921 abscissae x 41 lanes at the default step."""

    def test_calls_fit_the_budget_and_keep_the_bits(self, sd, monkeypatch):
        points, real = [], StructureData.aug_values

        def counted(self, u1, u2, axis):
            points.append(np.broadcast(u1, u2).size)
            return real(self, u1, u2, axis)

        monkeypatch.setattr(StructureData, "aug_values", counted)
        monkeypatch.setattr(forks, "usable_cores", lambda: 1)
        cut = integrate_frame(sd, (3, 41))
        assert points and max(points) <= frame.SWEEP_LANES
        points.clear()
        # a budget of one row segment samples each segment in one piece
        monkeypatch.setattr(frame, "SWEEP_LANES", 1921 * 41)
        whole = integrate_frame(sd, (3, 41))
        assert max(points) == 1921 * 41
        for name in ("W", "x", "discrepancy", "x_discrepancy", "min_det",
                     "compat", "symmetry", "row_identity"):
            assert (np.asarray(getattr(cut, name)).tobytes()
                    == np.asarray(getattr(whole, name)).tobytes()), name

    def test_a_raising_piece_hands_back_its_segment(self, sd, monkeypatch):
        # a fault on the last row lane that names the size of its call:
        # the lane blocks holding that lane raise, so their whole call,
        # one segment, is sampled again, and its message stands
        last = np.linspace(*sd.domain[2:], 41)[-1]
        real = StructureData.aug_values

        def sized(self, u1, u2, axis):
            size = np.broadcast(u1, u2).size
            if axis == 0 and last in np.asarray(u2):
                raise ValueError(f"a fault in a call of {size} points")
            return real(self, u1, u2, axis)

        monkeypatch.setattr(StructureData, "aug_values", sized)
        with pytest.raises(ValueError, match="^a fault in a call of 78761 "):
            integrate_frame(sd, (3, 41))


# Peak resident memory of this process in kB.  ru_maxrss keeps the
# resident size of the process that forked it before exec (Linux), so
# VmHWM, the peak of this process image alone, is read where it exists.
PEAK_KB = """
import resource
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


def peak_rss_mb(argv):
    """Peak resident memory, in MB, of a fresh interpreter that runs one
    command in-process; the command must succeed."""
    code = ("import sys; from frontal_lab import cli; "
            "rc = cli.main(sys.argv[1:])\n" + PEAK_KB
            + "print(peak); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1]) / 1024.0


# A whole 601x601 frame bundle peaked at 212 MB (numpy 2.4, CPython 3.11);
# lane blocks keep the analysis near 63 MB.
def test_analyze_601_grid_in_bounded_memory():
    assert peak_rss_mb(["analyze", "--entry", "ex-5.8", "--grid",
                        "601x601"]) <= 130.0


# A generator grid held as one frame bundle peaked at 218 MB at 601x601
# (numpy 2.4, CPython 3.11); in lane blocks it peaks near 48 MB.
def test_generator_601_grid_in_bounded_memory():
    assert peak_rss_mb(["analyze", "--entry", "gen-nonparabolic", "--grid",
                        "601x601"]) <= 100.0


# Whole row segments (78,761 points a call) peaked at 71 MB in the
# marching process; lane blocks of 4,096 points, with one member's
# segments read where its calls left them, keep it near 51 MB.
def test_long_segment_march_in_bounded_memory():
    assert peak_rss_mb(["reconstruct", "--entry", "paraboloid",
                        "--field=0,0,1", "--grid", "3x41"]) <= 60.0


# A frontal file whose x and Lambda vanish everywhere makes every point a
# wave-front witness, every cell singular and every node an exact zero.
# Python lists of all of them peaked at 183 MB at 601x601 (numpy 2.4,
# CPython 3.11), against 47 MB for the plane; arrays of them, and lists
# only of the prefixes the report keeps, peak near 68 MB.
def test_vanishing_frontal_analysis_in_bounded_memory(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "name": "zero", "domain": [-1, 1, -1, 1], "x": ["0", "0", "0"],
        "omega": [["1", "0", "0"], ["0", "1", "0"]],
        "lambda": ["0", "0", "0", "0"]}))
    assert peak_rss_mb(["analyze", "--input", str(path), "--grid",
                        "601x601"]) <= 100.0
