"""CLI surface: commands, exports, exit codes, deterministic reports."""

import json

import numpy as np
import pytest

from frontal_lab import cli
from frontal_lab.structio import (read_structure_file, write_report,
                                  write_structure_file)


def run(args):
    return cli.main(args)


class TestCatalogCommand:
    def test_listing(self, capsys):
        assert run(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in ("ex-5.8", "ex-5.9", "ex-5.10", "paraboloid", "plane"):
            assert name in out

    def test_json_listing_deterministic(self, capsys):
        assert run(["catalog", "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["catalog", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["entries"]

    def test_generator_build(self, capsys):
        code = run(["catalog", "gen-rank1-wavefront", "--h", "u1^2 - u2^2",
                    "--c", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["known"]["lambda_det"] == "2.0"

    def test_unknown_entry_is_input_error(self, capsys):
        assert run(["catalog", "nope"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("spaced, joined", [
    (["catalog", "gen-rank1-wavefront", "--domain", "-0.8,0.8,-0.8,0.8",
      "--h", "-u1*u2", "--c", "-1"],
     ["catalog", "gen-rank1-wavefront", "--domain=-0.8,0.8,-0.8,0.8",
      "--h=-u1*u2", "--c=-1"]),
    (["export", "--entry", "ex-5.10", "--what", "structure", "--field",
      "-0.1,0,1", "--grid", "5x5", "--out", "{tmp}/s.json"],
     ["export", "--entry", "ex-5.10", "--what", "structure",
      "--field=-0.1,0,1", "--grid", "5x5", "--out", "{tmp}/s.json"]),
])
def test_dash_values_parse_spaced_or_joined(spaced, joined, tmp_path, capsys):
    def fill(argv):
        return [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(fill(joined)) == 0
    want = capsys.readouterr().out
    assert run(fill(spaced)) == 0
    assert capsys.readouterr().out == want


class TestAnalyze:
    def test_quintic_edge_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = run(["analyze", "--entry", "ex-5.9", "--grid", "41x41",
                    "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["singular"]["n_cells"] > 0
        assert doc["singular"]["regular_dense"]
        assert doc["wavefront"]["verdict"] is False
        assert (out / "analyze.json").exists()
        assert (out / "frame.csv").exists()
        # singular cover hugs the u2 = 0 line: report carries tolerance
        assert doc["singular"]["tolerance"] == 1e-9

    def test_wavefront_verdict(self, capsys):
        code = run(["analyze", "--entry", "ex-5.10", "--grid", "21x21",
                    "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wavefront"]["verdict"] is True
        assert doc["nonparabolic"]["verdict"] is False

    def test_plane_not_nonparabolic(self, capsys):
        code = run(["analyze", "--entry", "plane", "--grid", "9x9", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nonparabolic"]["verdict"] is False


class TestBlaschkeCommand:
    def test_rank1_wavefront_improper(self, tmp_path, capsys):
        out = tmp_path / "bl"
        code = run(["blaschke", "--entry", "ex-5.10", "--grid", "31x31",
                    "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["improper_sphere"]["verdict"] is True
        assert doc["known_answer"]["max_abs_error"] < 1e-6
        obj = (out / "surface.obj").read_text().splitlines()
        assert obj[0].startswith("v ")
        assert any(line.startswith("f ") for line in obj)
        csv = (out / "field.csv").read_text().splitlines()
        assert csv[0] == "u1,u2,x,y,z,xi1,xi2,xi3"
        assert len(csv) == 31 * 31 + 1

    def test_plane_exit_code(self, capsys):
        assert run(["blaschke", "--entry", "plane",
                    "--grid", "9x9"]) == cli.EXIT_PRECONDITION

    def test_quintic_edge_known_answer(self, capsys):
        code = run(["blaschke", "--entry", "ex-5.9", "--grid", "21x21",
                    "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["known_answer"]["max_abs_error"] < 1e-6
        assert doc["improper_sphere"]["verdict"] is False
        assert doc["verify"]["max_tau"] < 1e-6
        assert doc["verify"]["volume_residual"] < 1e-6


class TestReconstructCommand:
    def test_entry_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rc"
        code = run(["reconstruct", "--entry", "ex-5.10", "--field", "0,0,1",
                    "--grid", "11x11", "--step", "0.002", "--out", str(out),
                    "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alignment"]["sup_error"] < 1e-4
        assert doc["path_audit"]["frame"] < 1e-4
        assert (out / "reconstructed.obj").exists()

    def test_structure_file_round_trip(self, tmp_path, capsys):
        # expression-backed structure file for the trivial flat data
        doc = {
            "schema_version": 1,
            "domain": [0.0, 1.0, 0.0, 1.0],
            "basepoint": [0.0, 0.0],
            "W0": np.eye(3).tolist(),
            "p": [0.0, 0.0, 0.0],
            "entries": {
                "Lambda": {"expr": ["1", "0", "0", "1"]},
                "I_Omega": {"expr": ["1", "0", "0", "1"]},
                "h": {"expr": ["0", "0", "0", "0"]},
                "D1": {"expr": ["0", "0", "0", "0"]},
                "D2": {"expr": ["0", "0", "0", "0"]},
                "S": {"expr": ["0", "0", "0", "0"]},
                "phi": {"expr": ["1"]},
            },
        }
        path = tmp_path / "flat.json"
        write_report(path, doc)
        code = run(["reconstruct", "--input", str(path), "--grid", "9x9",
                    "--step", "0.01", "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["path_audit"]["frame"] < 1e-10

    def test_incompatible_structure_exit_code(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "domain": [0.0, 1.0, 0.0, 1.0],
            "basepoint": [0.0, 0.0],
            "W0": np.eye(3).tolist(),
            "p": [0.0, 0.0, 0.0],
            "entries": {
                "Lambda": {"expr": ["1", "0", "0", "1"]},
                "I_Omega": {"expr": ["1", "0", "0", "1"]},
                "h": {"expr": ["0", "0", "0", "0"]},
                "D1": {"expr": ["3*u2", "0", "0", "0"]},
                "D2": {"expr": ["0", "0", "0", "0"]},
                "S": {"expr": ["0", "0", "0", "0"]},
                "phi": {"expr": ["1"]},
            },
        }
        path = tmp_path / "bad.json"
        write_report(path, doc)
        assert run(["reconstruct", "--input", str(path), "--grid", "9x9",
                    "--step", "0.01"]) == cli.EXIT_VERIFICATION

    def test_missing_file_is_input_error(self):
        assert run(["reconstruct", "--input", "/no/such/file.json",
                    "--grid", "9x9"]) == cli.EXIT_INPUT

    def test_no_regular_point_is_precondition(self, tmp_path, capsys):
        # det Lambda vanishes identically, so the lattice has no regular
        # point and the dense-regular-set hypothesis fails
        doc = {
            "schema_version": 1,
            "domain": [0.0, 1.0, 0.0, 1.0],
            "basepoint": [0.0, 0.0],
            "W0": np.eye(3).tolist(),
            "p": [0.0, 0.0, 0.0],
            "entries": {
                "Lambda": {"expr": ["u2^2", "0", "0", "0"]},
                "I_Omega": {"expr": ["1", "0", "0", "1"]},
                "h": {"expr": ["0", "0", "0", "0"]},
                "D1": {"expr": ["0", "0", "0", "0"]},
                "D2": {"expr": ["0", "0", "0", "0"]},
                "S": {"expr": ["0", "0", "0", "0"]},
                "phi": {"expr": ["1"]},
            },
        }
        path = tmp_path / "degenerate.json"
        write_report(path, doc)
        assert run(["reconstruct", "--input", str(path), "--grid", "9x9",
                    "--step", "0.01"]) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "SingularPoint" in err and "dense" in err


class TestCheckCommand:
    @pytest.mark.parametrize("entry", ["plane", "paraboloid", "ex-5.8",
                                       "ex-5.9", "ex-5.10"])
    def test_property_suite_passes(self, entry, capsys):
        code = run(["check", "--entry", entry, "--grid", "21x21", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"]
        assert all(c["ok"] for c in doc["checks"])


class TestFrontalFileInput:
    def test_analyze_user_frontal(self, tmp_path, capsys):
        doc = {
            "name": "tilted-paraboloid",
            "domain": [-1.0, 1.0, -1.0, 1.0],
            "x": ["u1", "u2", "(u1^2 + 3*u2^2)/2 + u1/4"],
            "omega": [["1", "0", "u1 + 1/4"], ["0", "1", "3*u2"]],
            "lambda": ["1", "0", "0", "1"],
        }
        path = tmp_path / "frontal.json"
        write_report(path, doc)
        code = run(["analyze", "--input", str(path), "--grid", "15x15",
                    "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["entry"] == "tilted-paraboloid"
        assert rep["wavefront"]["verdict"] is True
        assert rep["singular"]["n_cells"] == 0

    def test_config_file_flows_through(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("eps_sing = 1e-6\n")
        code = run(["analyze", "--entry", "plane", "--grid", "9x9",
                    "--config", str(cfg), "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["singular"]["tolerance"] == 1e-6


class TestExport:
    def test_surface_and_structure(self, tmp_path, capsys):
        obj = tmp_path / "p.obj"
        assert run(["export", "--entry", "paraboloid", "--what", "surface",
                    "--grid", "9x9", "--out", str(obj)]) == 0
        assert obj.read_text().startswith("v ")

        struct = tmp_path / "p-structure.json"
        assert run(["export", "--entry", "paraboloid", "--what", "structure",
                    "--field", "0,0,1", "--grid", "17x17",
                    "--out", str(struct)]) == 0
        sd = read_structure_file(struct)
        assert sd.W0.shape == (3, 3)
        capsys.readouterr()
        code = run(["reconstruct", "--input", str(struct), "--grid", "9x9",
                    "--step", "0.005", "--json"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["path_audit"]["frame"] < 1e-4

    def test_deterministic_structure_file(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert run(["export", "--entry", "ex-5.10", "--what", "structure",
                        "--field", "0,0,1", "--grid", "9x9",
                        "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_export(self, tmp_path):
        csv = tmp_path / "field.csv"
        assert run(["export", "--entry", "ex-5.10", "--what", "field",
                    "--grid", "9x9", "--out", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "u1,u2,x,y,z,xi1,xi2,xi3"
        assert len(lines) == 82

    def test_grid_backed_reconstruction_accuracy(self, tmp_path):
        # sample the structure to grids, reload through the bicubic
        # route, reconstruct, and compare against the source surface
        from frontal_lab.catalog import get_entry
        from frontal_lab.reconstruct import (affine_align, integrate_frame,
                                             integrate_position)
        import numpy as np
        struct = tmp_path / "grid-structure.json"
        assert run(["export", "--entry", "paraboloid", "--what", "structure",
                    "--field", "0,0,1", "--grid", "33x33",
                    "--out", str(struct)]) == 0
        sd = read_structure_file(struct)
        ff = integrate_frame(sd, shape=(9, 9), step=2e-3)
        x = integrate_position(ff)
        f = get_entry("paraboloid").build()
        U1, U2 = np.meshgrid(ff.u1_nodes, ff.u2_nodes, indexing="ij")
        x_true = f.x(U1, U2, 0).values_stacked()
        _, _, sup = affine_align(x, x_true)
        assert sup < 1e-4

    def test_analyze_report_bytes_deterministic(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["analyze", "--entry", "ex-5.9", "--grid", "21x21",
                        "--out", str(out)]) == 0
            outs.append((out / "analyze.json").read_bytes())
        assert outs[0] == outs[1]

