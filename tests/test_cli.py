"""CLI surface: commands, exports, exit codes, deterministic reports."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from frontal_lab import cli
from frontal_lab.structio import (export_field_csv, export_frame_csv,
                                  read_structure_file, write_report,
                                  write_structure_file)


def run(args):
    return cli.main(args)


def flat_structure(**entries):
    """Structure file of the flat data on [0, 1]^2 (Lambda = I_Omega = I,
    zero blocks, phi = 1), with `entries` replacing some of them."""
    zero = {"expr": ["0", "0", "0", "0"]}
    doc = {"schema_version": 1, "domain": [0.0, 1.0, 0.0, 1.0],
           "basepoint": [0.0, 0.0], "W0": np.eye(3).tolist(),
           "p": [0.0, 0.0, 0.0],
           "entries": {"Lambda": {"expr": ["1", "0", "0", "1"]},
                       "I_Omega": {"expr": ["1", "0", "0", "1"]},
                       "h": zero, "D1": zero, "D2": zero, "S": zero,
                       "phi": {"expr": ["1"]}}}
    doc["entries"].update(entries)
    return doc


PARABOLOID_FILE = {"name": "paraboloid-file",
                   "domain": [-1.0, 1.0, -1.0, 1.0],
                   "x": ["u1", "u2", "(u1^2 + u2^2)/2"],
                   "omega": [["1", "0", "u1"], ["0", "1", "u2"]]}

# A frontal file with no extendable Blaschke field.
CUSP2_FILE = {"name": "cusp2", "domain": [-1, 1, -1, 1],
              "x": ["u1", "u2^2", "u2^3 + u1^2*u2^2 + u1^2"],
              "omega": [["1", "0", "2*u1*u2^2 + 2*u1"],
                        ["0", "2", "3*u2 + 2*u1^2"]],
              "lambda": ["1", "0", "0", "u2"], "open_domain": False}


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

    def test_save_needs_expression_text(self, tmp_path, capsys):
        # a generator's x is a quadrature, which a frontal file cannot hold
        path = tmp_path / "f.json"
        assert run(["catalog", "gen-nonparabolic", "--save",
                    str(path)]) == cli.EXIT_INPUT
        assert not path.exists()
        assert "has no expression text for x" in capsys.readouterr().err


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

    def test_not_extendable_names_its_point_as_floats(self, tmp_path,
                                                     capsys):
        # the extended Gauss curvature of this cusp has no limit at
        # (-1, 0), where its directional limits disagree
        path = tmp_path / "cusp2.json"
        path.write_text(json.dumps(CUSP2_FILE))
        assert run(["blaschke", "--input", str(path)]) == \
            cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "NotExtendable: extended Gauss curvature at (-1.0, 0.0): " \
            "directional limits disagree" in err
        assert "np.float64" not in err

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

    @pytest.mark.parametrize("field", ["normal", "0,0,1"])
    def test_plane_reports_no_unique_alignment(self, field, tmp_path,
                                               capsys):
        # the plane rebuilds into a plane and passes every gate; only the
        # comparison with the original has no unique affine map to fit
        out = tmp_path / "rc"
        assert run(["reconstruct", "--entry", "plane", "--field", field,
                    "--grid", "5x5", "--out", str(out)]) == 0
        assert "no unique alignment: source points are affinely degenerate" \
            in capsys.readouterr().out
        doc = json.loads((out / "reconstruct.json").read_text())
        assert doc["alignment"]["unique_fit"] is False
        assert "sup_error" not in doc["alignment"]
        assert doc["path_audit"]["frame"] < 1e-4

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

    # a D1 grid the reader must refuse, naming the entry, before the
    # spline fit sees it: below the bicubic minimum of 4x4, incomplete,
    # or not finite
    @pytest.mark.parametrize("grid, message", [
        ({"nx": 3, "ny": 3, "values": [[0.0] * 9] * 4}, "3x3 samples"),
        ({"nx": 1, "ny": 5, "values": [[0.0] * 5] * 4}, "1x5 samples"),
        ({"nx": 0, "ny": 0, "values": [[]] * 4}, "0x0 samples"),
        ({"nx": 4, "values": [[0.0] * 16] * 4}, "missing 'ny'"),
        ({"nx": 4, "ny": 4, "values": [[float("nan")] + [0.0] * 15]
          + [[0.0] * 16] * 3}, "must be finite"),
    ], ids=["3x3", "1x5", "0x0", "no-ny", "nan"])
    def test_malformed_grid_is_input_error(self, grid, message, tmp_path,
                                           capsys):
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
                "D1": {"grid": grid},
                "D2": {"expr": ["0", "0", "0", "0"]},
                "S": {"expr": ["0", "0", "0", "0"]},
                "phi": {"expr": ["1"]},
            },
        }
        path = tmp_path / "malformed.json"
        write_report(path, doc)
        assert run(["reconstruct", "--input", str(path), "--grid", "5x5",
                    "--step", "0.01"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "input error: D1:" in err and message in err

    @pytest.mark.parametrize("key, value", [
        ("domain", [0.0, float("nan"), 0.0, 1.0]),
        ("basepoint", [0.0, float("inf")]),
        ("W0", [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("p", [0.0, float("inf"), 0.0]),
    ], ids=["domain-nan", "basepoint-inf", "W0-nan", "p-inf"])
    def test_non_finite_header_is_input_error(self, key, value, tmp_path,
                                              capsys):
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
        doc[key] = value
        path = tmp_path / "non-finite.json"
        write_report(path, doc)
        assert run(["reconstruct", "--input", str(path), "--grid", "5x5",
                    "--step", "0.01"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"input error: {key}: values must be finite" in err

    @pytest.mark.parametrize("key, value", [
        ("basepoint", {"a": 1}), ("basepoint", ["0", "0"]),
        ("basepoint", [True, False]), ("W0", [[1.0, 0.0, 0.0], [0.0, 1.0]]),
        ("W0", None), ("p", [0.0, 10 ** 400, 0.0]), ("p", "0,0,0"),
        ("basepoint", [0.5, True]),
    ], ids=["basepoint-object", "basepoint-strings", "basepoint-booleans",
            "W0-ragged", "W0-null", "p-huge-int", "p-string",
            "basepoint-number-and-boolean"])
    def test_header_that_is_not_numbers_is_input_error(self, key, value,
                                                       tmp_path, capsys):
        path = tmp_path / "header.json"
        path.write_text(json.dumps(dict(flat_structure(), **{key: value})))
        assert run(["reconstruct", "--input", str(path), "--grid", "5x5"]) \
            == cli.EXIT_INPUT
        assert f"input error: {key} must be " in capsys.readouterr().err

    # a JSON integer past float range, and an infinite grid size, are
    # read as numbers and refused, not raised as OverflowError
    @pytest.mark.parametrize("doc, message", [
        (dict(flat_structure(), domain=[0, 10 ** 400, 0, 1]),
         "domain: expected four numbers"),
        (flat_structure(D1={"grid": {"nx": math.inf, "ny": 4,
                                     "values": [[0.0] * 16] * 4}}),
         "D1: unreadable grid entry"),
    ], ids=["domain-huge-int", "grid-infinite-size"])
    def test_number_past_float_range_is_input_error(self, doc, message,
                                                    tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run(["reconstruct", "--input", str(path), "--grid", "5x5"]) \
            == cli.EXIT_INPUT
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["basepoint", "W0", "p"])
    def test_missing_header_is_input_error(self, key, tmp_path, capsys):
        doc = flat_structure()
        del doc[key]
        path = tmp_path / "header.json"
        write_report(path, doc)
        assert run(["reconstruct", "--input", str(path), "--grid", "5x5"]) \
            == cli.EXIT_INPUT
        assert f"input error: structure file missing {key!r}" in \
            capsys.readouterr().err

    def test_defect_between_sampled_rows_fails_compatibility(self, tmp_path,
                                                            capsys):
        # D1_u2 = cos(40 pi u1) sin(5 pi u2) is the flatness defect; on the
        # 21x21 nodes it is sin(5 pi u2), which is 1 on some rows and 0 on
        # every fourth
        k1, k2 = 40.0 * math.pi, 5.0 * math.pi
        path = tmp_path / "hidden.json"
        write_report(path, flat_structure(D1={"expr": [
            f"cos({k1!r}*u1)*(-cos({k2!r}*u2)/{k2!r})", "0", "0", "0"]}))
        assert run(["reconstruct", "--input", str(path), "--grid",
                    "21x21"]) == cli.EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert "compatibility residual 1.00e+00 exceeds 1.00e-06" in err

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


    def test_nudge_left_on_singular_set_is_singular_point(self, capsys):
        # the default base point sits on the singular line u2 = u1 next to
        # the origin, where grad det Lambda is too small for the nudge
        assert run(["reconstruct", "--entry", "ex-5.10"]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "SingularPoint" in err
        assert "node (0.000141421, 0.000141421)" in err
        assert "|grad det Lambda| = 4.800e-03" in err


@pytest.mark.parametrize("command, doc, message", [
    ("analyze", [1, 2], "a frontal file holds a JSON object, not a list"),
    ("reconstruct", [1, 2],
     "a structure file holds a JSON object, not a list"),
    ("reconstruct", flat_structure(Lambda="expr"),
     "Lambda: entry must be an object with 'expr' or 'grid'"),
    ("reconstruct", flat_structure(D1={"expr": [0, 0, 0, 0]}),
     "D1: expected a list of 4 expression strings"),
    ("analyze", dict(PARABOLOID_FILE, x=[1, "u2", "0"]),
     "x: expected a list of 3 expression strings"),
    ("analyze", dict(PARABOLOID_FILE, omega=[["1", "0", "u1"]]),
     "omega: expected 2 basis columns"),
    ("analyze", dict(PARABOLOID_FILE, open_domain="false"),
     "open_domain: expected true or false"),
    ("analyze", dict(PARABOLOID_FILE, domain=[1.0, -1.0, -1.0, 1.0]),
     "domain: needs a1 < b1 and a2 < b2"),
    ("reconstruct", dict(flat_structure(), domain=[0.0, 0.0, 0.0, 1.0]),
     "domain: needs a1 < b1 and a2 < b2"),
    ("reconstruct", dict(flat_structure(), basepoint=[0.0, 0.0, 0.0]),
     "basepoint must be two numbers"),
    ("reconstruct", dict(flat_structure(), entries=[1]),
     "entries: expected an object"),
    ("reconstruct", dict(flat_structure(), basepoint=[5.0, -3.0]),
     "basepoint [5.0, -3.0] lies outside the domain [0.0, 1.0, 0.0, 1.0]"),
    ("analyze", dict(PARABOLOID_FILE, domain=["-1", "1", True, "2"]),
     "domain: expected four numbers a1,b1,a2,b2"),
    ("reconstruct", dict(flat_structure(), domain=[0, True, 0.0, 1.0]),
     "domain: expected four numbers a1,b1,a2,b2"),
], ids=["frontal-list", "structure-list", "entry-string", "expr-numbers",
        "x-number", "one-column", "open-domain-string", "frontal-reversed",
        "structure-empty", "basepoint-three", "entries-list",
        "basepoint-outside", "frontal-domain-strings",
        "structure-domain-boolean"])
def test_malformed_file_is_input_error(command, doc, message, tmp_path,
                                       capsys):
    path = tmp_path / "malformed.json"
    write_report(path, doc)
    assert run([command, "--input", str(path), "--grid", "5x5"]) \
        == cli.EXIT_INPUT
    assert f"input error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--entry", "paraboloid", "--domain=0,1,0,1",
      "--grid", "5x5"],
     "paraboloid is a fixed entry and takes no parameters, got ['domain']"),
    (["catalog", "paraboloid", "--h=u1"],
     "paraboloid is a fixed entry and takes no parameters, got ['h']"),
    (["analyze", "--entry", "gen-nonparabolic", "--domain=1,-1,-1,1",
      "--grid", "5x5"],
     "--domain: needs a1 < b1 and a2 < b2, got [1.0, -1.0, -1.0, 1.0]"),
    (["analyze", "--entry", "gen-nonparabolic", "--domain=0,0,-1,1",
      "--grid", "5x5"],
     "--domain: needs a1 < b1 and a2 < b2"),
    (["check", "--entry", "gen-nonparabolic", "--domain=0,0,0,0"],
     "--domain: needs a1 < b1 and a2 < b2"),
    (["analyze", "--entry", "gen-nonparabolic", "--domain=nan,1,-1,1",
      "--grid", "5x5"],
     "--domain: values must be finite"),
    (["analyze", "--entry", "gen-nonparabolic", "--domain=0,1,0",
      "--grid", "5x5"],
     "--domain: expected four numbers a1,b1,a2,b2"),
    (["analyze", "--entry", "gen-nonparabolic", "--domain=0,1,0,x",
      "--grid", "5x5"],
     "--domain: expected four numbers a1,b1,a2,b2"),
], ids=["fixed-domain", "fixed-generator-flag", "reversed", "empty",
        "point", "nan", "three", "word"])
def test_bad_domain_is_input_error(argv, message, capsys):
    assert run(argv) == cli.EXIT_INPUT
    assert f"input error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("analyze", b'{"domain": [0, 1, 0, 1], "x": ["u1", "u2", "0"]'),
    ("reconstruct", b'{"schema_version": 1, "domain": "\xff"}'),
], ids=["truncated-json", "not-utf-8"])
def test_unreadable_file_is_input_error(command, text, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    path.write_bytes(text)
    assert run([command, "--input", str(path), "--grid", "5x5"]) \
        == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")


def test_division_by_zero_in_a_frontal_file_is_input_error(tmp_path,
                                                           capsys):
    # 1/0 holds no variable, so it is evaluated in plain floats
    path = tmp_path / "div.json"
    write_report(path, dict(PARABOLOID_FILE, x=["u1", "u2", "abs(1/0 + u1)"]))
    assert run(["analyze", "--input", str(path), "--grid", "5x5"]) \
        == cli.EXIT_INPUT
    assert "input error: division by zero in plain evaluation" in \
        capsys.readouterr().err


def test_internal_linalg_fault_is_not_an_input_error(monkeypatch):
    # LinAlgError is a ValueError; a fault inside a command propagates
    # instead of exiting 2 as if the input were wrong
    def fail(f):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_property_suite", fail)
    with pytest.raises(np.linalg.LinAlgError):
        run(["check", "--entry", "paraboloid"])


class TestGridSpec:
    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--entry", "ex-5.10", "--field", "0,0,1",
         "--grid", "0x0"],
        ["analyze", "--entry", "ex-5.8", "--grid", "0x5"],
        ["blaschke", "--entry", "paraboloid", "--grid", "3x-1"],
    ])
    def test_sizes_below_one_are_input_errors(self, argv, capsys):
        assert run(argv) == cli.EXIT_INPUT
        assert f"bad grid spec {argv[-1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--entry", "ex-5.8", "--grid", "1x1"],
        ["blaschke", "--entry", "paraboloid", "--grid", "1x1"],
        ["export", "--entry", "ex-5.8", "--what", "field", "--grid", "1x1",
         "--out", "{tmp}/f.csv"],
    ])
    def test_single_point_grid_accepted(self, argv, tmp_path, capsys):
        assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0

    def test_no_regular_verification_point_is_precondition(self, capsys):
        # on a 2x2 grid every verification point of ex-5.10 lies on the
        # singular set |u1| = |u2|
        assert run(["blaschke", "--entry", "ex-5.10", "--grid", "2x2"]) \
            == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "SingularPoint" in err and "dense" in err


_RECONSTRUCT_PARA = ["reconstruct", "--entry", "paraboloid", "--field",
                     "0,0,1"]


@pytest.mark.parametrize("argv, message", [
    (_RECONSTRUCT_PARA + ["--set", "rk4_step=0"], "rk4_step = 0.0"),
    (_RECONSTRUCT_PARA + ["--set", "rk4_step=-0.001"], "rk4_step = -0.001"),
    (_RECONSTRUCT_PARA + ["--step", "-0.5"], "--step must be > 0"),
    (_RECONSTRUCT_PARA + ["--step", "0"], "--step must be > 0"),
    (["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "probe_levels=2"],
     "probe_levels = 2 is out of range; expected >= 3"),
    (["analyze", "--entry", "gen-nonparabolic", "--grid", "5x5",
      "--set", "quad_nodes=0"],
     "quad_nodes = 0 is out of range; expected >= 1"),
    (["analyze", "--entry", "gen-nonparabolic", "--grid", "5x5",
      "--set", "quad_max_nodes=32"],
     "quad_max_nodes = 32 must exceed quad_nodes = 32"),
    (["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "probe_directions=0"],
     "probe_directions = 0 is out of range; expected >= 1"),
    (["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "probe_r0=0"],
     "probe_r0 = 0.0 is out of range; expected > 0"),
    (["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "probe_ratio=1"],
     "probe_ratio = 1.0 is out of range; expected strictly between 0 and 1"),
    (["blaschke", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "probe_ratio=0"],
     "probe_ratio = 0.0 is out of range; expected strictly between 0 and 1"),
    (["analyze", "--entry", "ex-5.9", "--grid", "5x5",
      "--set", "eps_sing=-1e-9"],
     "eps_sing = -1e-09 is out of range; expected >= 0"),
    (_RECONSTRUCT_PARA + ["--set", "tol_path=-1"],
     "tol_path = -1.0 is out of range; expected >= 0"),
    # half of such a step does not move a coordinate of [-1, 1]^2
    (["reconstruct", "--entry", "paraboloid", "--grid", "3x3",
      "--step", "1e-300"], "RK4 step 1e-300 is too small"),
    (["reconstruct", "--entry", "paraboloid", "--grid", "3x3",
      "--set", "rk4_step=1e-300"], "RK4 step 1e-300 is too small"),
    # such a step moves the coordinates but needs about 1e15 substeps
    # between two nodes, arrays no machine holds
    (["reconstruct", "--entry", "paraboloid", "--grid", "3x3",
      "--step", "1e-15"], "RK4 step 1e-15 needs more than 16384 substeps"),
], ids=["rk4_step=0", "rk4_step<0", "step<0", "step=0", "probe_levels=2",
        "quad_nodes=0", "quad_max_nodes=quad_nodes", "probe_directions=0",
        "probe_r0=0", "probe_ratio=1", "probe_ratio=0", "eps_sing<0",
        "tol_path<0", "step-below-resolution", "rk4_step-below-resolution",
        "step-beyond-substep-bound"])
def test_out_of_range_settings_are_input_errors(argv, message, capsys):
    assert run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


def test_jet_order_is_not_a_setting(capsys):
    # each consumer asks for the jet order it reads
    assert run(["analyze", "--entry", "ex-5.9", "--grid", "5x5",
                "--set", "jet_order=2"]) == cli.EXIT_INPUT
    assert "unknown config key 'jet_order'" in capsys.readouterr().err


def test_blaschke_check_beyond_field_order_names_orders(capsys):
    # without closed-form K the quadrature-backed field carries order 0,
    # and tau needs its first derivatives
    assert run(["blaschke", "--entry", "gen-extendable-nc",
                "--domain=-0.8,0.8,-0.8,0.8", "--grid", "3x3"]) \
        == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "InsufficientJetOrder" in err
    assert "tau needs order-1 affine-normal jets" in err
    assert "carries order 0" in err


@pytest.mark.parametrize("field", ["0,1", "nan,0,1"])
@pytest.mark.parametrize("command", [
    ["reconstruct", "--entry", "paraboloid", "--grid", "5x5"],
    ["export", "--entry", "paraboloid", "--what", "structure",
     "--grid", "5x5", "--out", "{tmp}/s.json"],
], ids=["reconstruct", "export"])
def test_field_is_blaschke_normal_or_three_finite_numbers(command, field,
                                                           tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
    assert run(argv + [f"--field={field}"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "--field" in err


@pytest.mark.parametrize("command", [
    ["reconstruct", "--input", "{tmp}/flat.json", "--grid", "5x5",
     "--field", "nonsense"],
    ["export", "--entry", "paraboloid", "--what", "surface", "--grid", "5x5",
     "--field", "nonsense", "--out", "{tmp}/s.obj"],
    ["export", "--entry", "paraboloid", "--what", "field", "--grid", "5x5",
     "--field", "normal", "--out", "{tmp}/f.csv"],
], ids=["reconstruct-input", "export-surface", "export-field"])
def test_field_where_nothing_reads_it_is_input_error(command, tmp_path,
                                                     capsys):
    # only reconstruct --entry and export --what structure read --field;
    # elsewhere it is refused before anything is written
    write_report(tmp_path / "flat.json", flat_structure())
    argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
    assert run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "--field" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flat.json"]


@pytest.mark.parametrize("command, message", [
    (["analyze", "--grid", "5x5"], "one of --entry NAME and --input FILE"),
    (["reconstruct", "--grid", "5x5"],
     "one of --entry NAME and --input FILE"),
    (["analyze", "--entry", "plane", "--input", "{tmp}/missing.json",
      "--grid", "5x5"], "one of --entry NAME and --input FILE"),
    (["reconstruct", "--entry", "nonexistent", "--input", "{tmp}/flat.json",
      "--grid", "5x5"], "one of --entry NAME and --input FILE"),
    (["analyze", "--input", "{tmp}/para.json", "--grid", "5x5",
      "--domain=0,1,0,1", "--h=u1"], "--domain, --h applies only to --entry"),
    (["reconstruct", "--input", "{tmp}/flat.json", "--grid", "5x5",
      "--c=7"], "--c applies only to --entry"),
    (["export", "--input", "{tmp}/para.json", "--what", "surface",
      "--grid", "5x5", "--a=2", "--out", "{tmp}/s.obj"],
     "--a applies only to --entry"),
], ids=["analyze-neither", "reconstruct-neither", "analyze-both",
        "reconstruct-both", "analyze-domain-and-h", "reconstruct-c",
        "export-a"])
def test_source_is_one_entry_or_one_plain_file(command, message, tmp_path,
                                               capsys):
    # the source is --entry NAME or --input FILE, never both, and the
    # catalog settings apply to an entry only; a refusal reads and
    # writes nothing
    write_report(tmp_path / "flat.json", flat_structure())
    write_report(tmp_path / "para.json", PARABOLOID_FILE)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
    assert run(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flat.json",
                                                          "para.json"]


class TestCheckCommand:
    @pytest.mark.parametrize("entry", ["plane", "paraboloid", "ex-5.8",
                                       "ex-5.9", "ex-5.10"])
    def test_property_suite_passes(self, entry, capsys):
        code = run(["check", "--entry", entry, "--json"])
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

    @pytest.mark.parametrize("command", [
        ["analyze", "--grid", "9x9"],
        ["export", "--what", "structure", "--field", "normal",
         "--grid", "9x9", "--out", "{tmp}/s.json"],
    ], ids=["analyze", "export"])
    def test_non_frontal_is_precondition(self, command, tmp_path, capsys):
        # Omega spans the horizontal plane, which is tangent to the
        # paraboloid only at the origin, so it does not factor Dx
        path = tmp_path / "nonfrontal.json"
        write_report(path, {
            "name": "not-a-frontal",
            "domain": [-1.0, 1.0, -1.0, 1.0],
            "x": ["u1", "u2", "(u1^2 + u2^2)/2"],
            "omega": [["1", "0", "0"], ["0", "1", "0"]],
        })
        argv = [a.replace("{tmp}", str(tmp_path)) for a in command]
        assert run(argv + ["--input", str(path)]) == cli.EXIT_PRECONDITION
        assert "NotAFrontal" in capsys.readouterr().err

    def test_blaschke_structure_without_closed_form_curvature(
            self, tmp_path, capsys):
        # a saved catalog frontal carries no "K": the Blaschke extraction
        # runs on the K_omega / det Lambda quotient
        para = tmp_path / "para.json"
        assert run(["catalog", "paraboloid", "--save", str(para)]) == 0
        assert "K" not in json.loads(para.read_text())
        assert run(["export", "--input", str(para), "--what", "structure",
                    "--field", "blaschke", "--grid", "9x9",
                    "--out", str(tmp_path / "s.json")]) == 0
        assert read_structure_file(tmp_path / "s.json").W0.shape == (3, 3)

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

    # the writer refuses what the reader would, before extracting
    @pytest.mark.parametrize("grid", ["2x2", "4x3"])
    def test_structure_below_spline_minimum_is_input_error(
            self, grid, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "extract_structure",
                            lambda *args: pytest.fail("extracted"))
        out = tmp_path / "s.json"
        assert run(["export", "--entry", "paraboloid", "--what",
                    "structure", "--field", "normal", "--grid", grid,
                    "--out", str(out)]) == cli.EXIT_INPUT
        assert "below the 4x4 a bicubic spline needs" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_structure_at_spline_minimum_reads_back(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(["export", "--entry", "paraboloid", "--what",
                    "structure", "--field", "normal", "--grid", "4x4",
                    "--out", str(out)]) == 0
        assert read_structure_file(out).W0.shape == (3, 3)

    def test_structure_without_blaschke_field_writes_nothing(self, tmp_path,
                                                             capsys):
        # the existence gate of the Blaschke field behind a structure
        # export: the extended Gauss curvature of this cusp has no limit
        # at (-1, 0)
        path = tmp_path / "cusp2.json"
        path.write_text(json.dumps(CUSP2_FILE))
        out = tmp_path / "s.json"
        assert run(["export", "--input", str(path), "--what", "structure",
                    "--grid", "9x9", "--out", str(out)]) == \
            cli.EXIT_PRECONDITION
        assert "NotExtendable: extended Gauss curvature at (-1.0, 0.0)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_constant_field_structure_on_generator(self, tmp_path):
        # the symbols lose the order gen-extendable-nc's Omega lacks,
        # although the constant field itself loses none
        assert run(["export", "--entry", "gen-extendable-nc", "--what",
                    "structure", "--field=0,0,1", "--grid", "5x5",
                    "--out", str(tmp_path / "s.json")]) == 0
        assert read_structure_file(tmp_path / "s.json").W0.shape == (3, 3)

    def test_structure_round_trip_runs_without_scipy(self, tmp_path):
        """The runtime needs numpy alone: a fresh interpreter that
        refuses to import scipy writes a grid-backed structure file and
        reconstructs from it."""
        script = """if True:
            import json, sys

            class RefuseScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"{name} is refused")

            sys.meta_path.insert(0, RefuseScipy())
            from frontal_lab import cli
            codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, sorted(
                m for m in sys.modules if m.partition(".")[0] == "scipy")]))
            """
        struct = str(tmp_path / "s.json")
        argvs = [["export", "--entry", "ex-5.10", "--what", "structure",
                  "--field=0,0,1", "--grid", "9x9", "--out", struct],
                 ["reconstruct", "--input", struct, "--grid", "9x9",
                  "--out", str(tmp_path / "rf")]]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script,
                               json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0], done.stderr
        assert loaded == []
        assert (tmp_path / "rf" / "reconstruct.json").exists()

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
        from frontal_lab.reconstruct import affine_align, integrate_frame
        import numpy as np
        struct = tmp_path / "grid-structure.json"
        assert run(["export", "--entry", "paraboloid", "--what", "structure",
                    "--field", "0,0,1", "--grid", "33x33",
                    "--out", str(struct)]) == 0
        sd = read_structure_file(struct)
        ff = integrate_frame(sd, shape=(9, 9), step=2e-3)
        x = ff.x
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


def _csv_reference(header, columns):
    """The row-by-row writer the table writer replaced."""
    flat = [np.asarray(c, dtype=float).ravel() for c in columns]
    lines = [",".join(header) + "\n"]
    for k in range(flat[0].size):
        lines.append(",".join(repr(float(c[k])) for c in flat) + "\n")
    return "".join(lines)


def test_csv_exports_match_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    u1, u2 = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(0, 1, 3),
                         indexing="ij")
    x = rng.normal(size=(4, 3, 3))
    xi = rng.normal(size=(4, 3, 3)) * 1e-300
    x[1, 2] = [np.nan, -0.0, np.inf]
    field = tmp_path / "field.csv"
    export_field_csv(field, u1, u2, x, xi)
    cols = [u1, u2, *np.moveaxis(x, -1, 0), *np.moveaxis(xi, -1, 0)]
    assert field.read_text() == _csv_reference(
        ["u1", "u2", "x", "y", "z", "xi1", "xi2", "xi3"], cols)

    data = {"b": x[..., 0], "a": xi[..., 1]}
    frame = tmp_path / "frame.csv"
    export_frame_csv(frame, u1, u2, data)
    assert frame.read_text() == _csv_reference(
        ["u1", "u2", "a", "b"], [u1, u2, data["a"], data["b"]])
