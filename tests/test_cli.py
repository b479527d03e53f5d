"""Command line interface: subcommands, exit codes, output discipline.

Contract under test: exit code 0 on success, 1 when an invariant check
fails, 2 on usage or validation errors; stdout carries data only and
diagnostics go to stderr; repeated runs produce byte-identical output.
Most tests drive main(argv) in process; one class runs the CLI as
`python -m heistri` in a subprocess through real pipes, and an
entry-point test checks that the `heistri` console script declared in
pyproject.toml maps to heistri.cli.main.
"""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heistri
from heistri import (
    Builder,
    HPoint,
    PLMap,
    SimplexDescriptor,
    build_map,
    chain_from_json,
)
from heistri import cli
from heistri.cli import main as cli_main


# ============================================================
# helpers
# ============================================================


def run_cli(capsys, *argv):
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert err == ""
    return json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ============================================================
# triangulate
# ============================================================


class TestTriangulate:
    def test_single_cube_straight(self, capsys):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        assert doc["k"] == 3
        assert doc["n"] == 1
        assert doc["builder"] == "straight"
        assert doc["provenance"] == {"kind": "cube", "eps": 1.0, "base": [0, 0, 0]}
        assert len(doc["terms"]) == 6
        coeffs = sorted(t["coeff"] for t in doc["terms"])
        assert coeffs == [-1, -1, -1, 1, 1, 1]
        assert all(t["builder"] == "straight" for t in doc["terms"])

    def test_box_region(self, capsys):
        doc = run_json(capsys, "triangulate", "--box", "0,0,0", "2,2,2")
        assert len(doc["terms"]) == 48
        assert doc["provenance"]["kind"] == "region"
        assert doc["provenance"]["cubes"] == 8
        assert doc["provenance"]["lo"] == [0, 0, 0]
        assert doc["provenance"]["hi"] == [2, 2, 2]

    def test_builder_flag(self, capsys):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0",
                       "--builder", "hybrid")
        assert doc["builder"] == "hybrid"
        assert all(t["builder"] == "hybrid" for t in doc["terms"])

    def test_missing_cube_and_box(self, capsys):
        rc, out, err = run_cli(capsys, "triangulate")
        assert rc == 2
        assert out == ""
        assert "exactly one of --cube or --box" in err

    def test_both_cube_and_box(self, capsys):
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "0,0,0",
                               "--box", "0,0,0", "1,1,1")
        assert rc == 2
        assert out == ""

    def test_nonpositive_eps(self, capsys):
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "0,0,0",
                               "--eps", "0")
        assert rc == 2
        assert "--eps must be positive" in err

    def test_wrong_cube_arity(self, capsys):
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "0,0")
        assert rc == 2
        assert "3 comma-separated entries" in err

    def test_non_integer_cube(self, capsys):
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "0,0,0.5")
        assert rc == 2
        assert "must contain integers" in err

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "chain.json"
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "1,2,3",
                               "-o", str(target))
        assert rc == 0
        assert out == ""
        rc, out, err = run_cli(capsys, "triangulate", "--cube", "1,2,3")
        assert target.read_text() == out

    def test_byte_deterministic(self, capsys):
        rc1, out1, _ = run_cli(capsys, "triangulate", "--box", "0,0,0", "2,1,1",
                               "--builder", "hybrid")
        rc2, out2, _ = run_cli(capsys, "triangulate", "--box", "0,0,0", "2,1,1",
                               "--builder", "hybrid")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_box_corners_with_leading_minus(self, capsys):
        doc = run_json(capsys, "triangulate", "--box", "-2,-3,-1", "3,2,4")
        assert len(doc["terms"]) == 5 ** 3 * 6
        assert doc["provenance"]["lo"] == [-2, -3, -1]
        assert doc["provenance"]["hi"] == [3, 2, 4]

    def test_cube_base_with_leading_minus(self, capsys):
        rc, spaced, err = run_cli(capsys, "triangulate", "--cube", "-2,0,0")
        assert rc == 0 and err == ""
        assert json.loads(spaced)["provenance"]["base"] == [-2, 0, 0]
        _, joined, _ = run_cli(capsys, "triangulate", "--cube=-2,0,0")
        assert spaced == joined

    def test_unknown_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["triangulate", "--cube", "0,0,0", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_negative_tuple_without_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["triangulate", "--cube", "0,0,0", "-1,0,0"])
        assert exc.value.code == 2


# ============================================================
# boundary
# ============================================================


class TestBoundary:
    def test_cube_boundary_has_twelve_terms(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        bdoc = run_json(capsys, "boundary", path)
        assert bdoc["k"] == 2
        assert len(bdoc["terms"]) == 12
        assert all(t["coeff"] in (-1, 1) for t in bdoc["terms"])

    def test_triangle_boundary_signs(self, capsys, tmp_path):
        doc = run_json(capsys, "simplex", "--builder", "straight",
                       "--vertices", "0,0,0", "1,0,0", "1,1,0")
        path = write_doc(tmp_path, "tri.json", doc)
        bdoc = run_json(capsys, "boundary", path)
        assert bdoc["k"] == 1
        assert len(bdoc["terms"]) == 3
        assert sum(t["coeff"] for t in bdoc["terms"]) == 1

    def test_boundary_twice_is_empty(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        p1 = write_doc(tmp_path, "c.json", doc)
        b1 = run_json(capsys, "boundary", p1)
        p2 = write_doc(tmp_path, "b.json", b1)
        b2 = run_json(capsys, "boundary", p2)
        assert b2["terms"] == []

    def test_stdin_input(self, capsys, monkeypatch):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        bdoc = run_json(capsys, "boundary", "-")
        assert len(bdoc["terms"]) == 12

    @pytest.mark.parametrize("coeff", [1.5, True, "1", None, 1.0])
    def test_non_integer_coeff_rejected(self, capsys, monkeypatch, coeff):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        doc["terms"][3]["coeff"] = coeff
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "boundary", "-")
        assert rc == 2
        assert out == ""
        assert "term 3: coeff must be an integer" in err

    @pytest.mark.parametrize("field, value", [
        ("k", "3"), ("k", 3.7), ("k", 3.0), ("k", None), ("n", True), ("n", "1"),
    ])
    def test_non_integer_degree_or_group_index_rejected(self, capsys, monkeypatch,
                                                         field, value):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        doc[field] = value
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "boundary", "-")
        assert rc == 2
        assert out == ""
        assert f"{field} must be an integer" in err

    @pytest.mark.parametrize("command", ["boundary", "check"])
    @pytest.mark.parametrize("field, value, low", [
        ("n", 0, 1), ("n", -3, 1), ("k", -2, -1), ("k", -5, -1),
    ])
    def test_out_of_range_degree_or_group_index_rejected(self, capsys, monkeypatch,
                                                          command, field, value, low):
        doc = {"k": 2, "n": 1, "terms": []}  # no term whose vertices would catch it
        doc[field] = value
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, command, "-")
        assert rc == 2
        assert out == ""
        assert f"{field} must be at least {low}, got {value}" in err

    def test_boundary_of_a_zero_chain_reads_back(self, capsys, tmp_path):
        doc = run_json(capsys, "simplex", "--vertices", "1,2,3")
        assert doc["k"] == 0
        b1 = run_json(capsys, "boundary", write_doc(tmp_path, "p.json", doc))
        b2 = run_json(capsys, "boundary", write_doc(tmp_path, "b.json", b1))
        assert b1 == b2 == {"k": -1, "n": 1, "terms": []}

    @pytest.mark.parametrize("terms", [{}, {"0": 1}, "[]", None])
    def test_terms_that_are_not_a_list_rejected(self, capsys, monkeypatch, terms):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        doc["terms"] = terms
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "boundary", "-")
        assert rc == 2
        assert out == ""
        assert "terms must be a list" in err

    @pytest.mark.parametrize("coord", ["1e0", "0", True, False, None, [0.0], 10**400])
    def test_non_number_coordinate_rejected(self, capsys, monkeypatch, coord):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        doc["terms"][2]["vertices"][1][0] = coord
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "boundary", "-")
        assert rc == 2
        assert out == ""
        assert "term 2: coordinates must be numbers" in err

    def test_integer_coordinates_read_as_floats(self, capsys, monkeypatch):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        texts = [json.dumps(doc)]
        for term in doc["terms"]:
            term["vertices"] = [[int(c) for c in v] for v in term["vertices"]]
        texts.append(json.dumps(doc))
        outputs = []
        for text in texts:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            outputs.append(run_cli(capsys, "boundary", "-"))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_wrong_vertex_count_rejected(self, capsys, monkeypatch):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        doc["terms"][4]["vertices"].pop()
        doc["terms"][4]["coeff"] = 0  # a zero term must not hide the error
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "boundary", "-")
        assert rc == 2
        assert out == ""
        assert "term 4:" in err and "needs 4 vertices, got 3" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ this is not json")
        rc, out, err = run_cli(capsys, "boundary", str(path))
        assert rc == 2
        assert out == ""
        assert "malformed JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "boundary", str(tmp_path / "nope.json"))
        assert rc == 2
        assert out == ""
        assert err != ""


# ============================================================
# check
# ============================================================


class TestCheck:
    CHECK_NAMES = ["boundary_squared_zero", "horizontality", "cell_consistency",
                   "equivariance_spot", "cone_relation"]

    def test_hybrid_cube_passes_all_checks(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0",
                       "--builder", "hybrid")
        path = write_doc(tmp_path, "hybrid.json", doc)
        rc, out, err = run_cli(capsys, "check", path)
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == self.CHECK_NAMES
        assert all(c["passed"] for c in report["checks"])

    def test_straight_region_passes(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--box", "0,0,0", "2,1,1")
        path = write_doc(tmp_path, "region.json", doc)
        rc, out, err = run_cli(capsys, "check", path)
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_path_chain_passes(self, capsys, tmp_path):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "0,0,1")
        path = write_doc(tmp_path, "path.json", doc)
        rc, out, err = run_cli(capsys, "check", path)
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_corrupted_path_fails_horizontality(self, capsys, tmp_path):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "0,0,1")
        doc["terms"][0]["vertices"][1][2] += 0.25
        path = write_doc(tmp_path, "broken.json", doc)
        rc, out, err = run_cli(capsys, "check", path)
        assert rc == 1
        report = json.loads(out)
        assert report["passed"] is False
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["horizontality"]["passed"] is False
        assert by_name["horizontality"]["residual"] > 1e-3
        assert by_name["boundary_squared_zero"]["passed"] is True

    def test_empty_chain_passes_trivially(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        p1 = write_doc(tmp_path, "c.json", doc)
        b1 = run_json(capsys, "boundary", p1)
        p2 = write_doc(tmp_path, "b.json", b1)
        b2 = run_json(capsys, "boundary", p2)
        p3 = write_doc(tmp_path, "empty.json", b2)
        rc, out, err = run_cli(capsys, "check", p3)
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def assert_all_pass(self, capsys, monkeypatch, chain_text):
        monkeypatch.setattr("sys.stdin", io.StringIO(chain_text))
        rc, out, err = run_cli(capsys, "check", "-")
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == self.CHECK_NAMES
        assert [c["passed"] for c in report["checks"]] == [True] * 5
        assert rc == 0 and report["passed"] is True

    def test_large_coordinate_cube_passes(self, capsys, monkeypatch):
        # cell spreads are scaled by 1 + max|coord| like the other suites
        _, chain, _ = run_cli(capsys, "triangulate", "--cube=100000,3,-7", "--builder", "hybrid")
        self.assert_all_pass(capsys, monkeypatch, chain)

    def test_n2_hybrid_cube_passes_all_checks(self, capsys, monkeypatch):
        _, chain, _ = run_cli(capsys, "triangulate", "--n", "2", "--cube=0,0,0,0,0",
                              "--builder", "hybrid")
        assert len(json.loads(chain)["terms"]) == 120
        self.assert_all_pass(capsys, monkeypatch, chain)

    def test_moved_apex_fails_cone_relation(self, capsys):
        # every cell still ends at the apex, so only the apex position check
        # can see that the interior vertex's image moved
        chain = chain_from_json(run_json(capsys, "triangulate", "--cube", "0,0,0",
                                         "--builder", "hybrid"))
        desc = next(iter(chain.terms))
        m = build_map(desc)
        apex = HPoint(1, m.meta["apex"].w[:2] + (m.meta["apex"].w[2] + 1e-6,))
        images = m.images.copy()
        images[:, -1] = apex.w
        moved = PLMap(m.k, m.n, m.domain, images, desc, dict(m.meta, apex=apex))
        result = cli._check_cones(chain, 1e-12, {desc.vertices: moved})
        assert result["passed"] is False and result["residual"] > 1e-9

    @pytest.mark.parametrize("tol", ["-1", "-1e-300", "nan", "inf", "-inf"])
    def test_negative_or_non_finite_tolerance_rejected(self, capsys, tmp_path, tol):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        rc, out, err = run_cli(capsys, "check", path, f"--tol={tol}")
        assert rc == 2
        assert out == ""
        assert "--tol must be a finite nonnegative number" in err

    def test_zero_tolerance_runs(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        rc, out, err = run_cli(capsys, "check", path, "--tol", "0")
        assert rc == 0 and json.loads(out)["passed"] is True

    def test_seeded_report_is_deterministic(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0",
                       "--builder", "hybrid")
        path = write_doc(tmp_path, "h.json", doc)
        _, out1, _ = run_cli(capsys, "check", path, "--seed", "3")
        _, out2, _ = run_cli(capsys, "check", path, "--seed", "3")
        assert out1 == out2


# ============================================================
# regularity
# ============================================================


class TestRegularity:
    def test_origin_cube_face_classes(self, capsys):
        reports = run_json(capsys, "regularity", "--cube", "0,0,0")
        assert len(reports) == 6
        by_label = {r["face"]["label"]: r for r in reports}
        for label in ("F_1", "E_1", "F_2", "E_2"):
            assert by_label[label]["classification"] == "FULL_SURFACE"
        for label in ("F_3", "E_3"):
            assert by_label[label]["classification"] == "INTERIOR_ONLY"
            witness = by_label[label]["witnesses"][0]
            assert witness["w"][0] == 0.0 and witness["w"][1] == 0.0

    def test_shifted_cube_all_full(self, capsys):
        reports = run_json(capsys, "regularity", "--cube", "1,1,0")
        assert all(r["classification"] == "FULL_SURFACE" for r in reports)

    def test_subfaces_rejected_for_n1(self, capsys):
        rc, out, err = run_cli(capsys, "regularity", "--cube", "0,0,0",
                               "--subfaces")
        assert rc == 2
        assert out == ""
        assert "no 2-codimensional statement for n=1" in err

    def test_subfaces_n2(self, capsys):
        reports = run_json(capsys, "regularity", "--n", "2",
                           "--cube", "0,0,0,0,0", "--subfaces")
        faces = [r for r in reports if "face" in r]
        subs = [r for r in reports if "subface" in r]
        assert len(faces) == 10
        assert len(subs) == 80
        t_axis = 5
        for r in subs:
            axes = r["subface"]["axes"]
            if t_axis not in axes:
                assert r["classification"] == "FULL_SURFACE"
        interior = [r for r in subs if r["classification"] == "INTERIOR_ONLY"]
        assert interior
        assert all(t_axis in r["subface"]["axes"] for r in interior)

    def test_eps_validation(self, capsys):
        rc, out, err = run_cli(capsys, "regularity", "--cube", "0,0,0",
                               "--eps", "-1")
        assert rc == 2


# ============================================================
# hpath
# ============================================================


class TestHpath:
    def test_vertical_displacement_square_loop(self, capsys):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "0,0,1")
        assert doc["kind"] == "path"
        assert doc["segments"] == 4
        assert doc["k"] == 1
        assert len(doc["terms"]) == 4
        assert doc["endpoints"][0]["w"] == [0.0, 0.0, 0.0]
        assert doc["endpoints"][1]["w"] == [0.0, 0.0, 1.0]
        corners = {tuple(t["vertices"][0]) for t in doc["terms"]}
        corners |= {tuple(t["vertices"][1]) for t in doc["terms"]}
        assert corners == {(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.5),
                           (0.0, 1.0, 1.0), (0.0, 0.0, 1.0)}

    def test_horizontal_move_single_segment(self, capsys):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "1,2,0")
        assert doc["segments"] == 1
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["vertices"] == [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]]

    def test_generic_move_five_segments(self, capsys):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "1,2,1")
        assert doc["segments"] == 5
        assert doc["terms"][-1]["vertices"][1] == [1.0, 2.0, 1.0] or any(
            t["vertices"][1] == [1.0, 2.0, 1.0] for t in doc["terms"])

    def test_same_point(self, capsys):
        doc = run_json(capsys, "hpath", "--from", "0.5,0.5,0.25",
                       "--to", "0.5,0.5,0.25")
        assert doc["segments"] == 1
        assert doc["terms"][0]["vertices"][0] == doc["terms"][0]["vertices"][1]

    def test_n2_path(self, capsys):
        doc = run_json(capsys, "hpath", "--n", "2", "--from", "0,0,0,0,0",
                       "--to", "1,0,0,1,0")
        assert doc["n"] == 2
        assert doc["segments"] == 1

    def test_endpoints_with_leading_minus(self, capsys):
        doc = run_json(capsys, "hpath", "--from", "-1,0,0", "--to", "0,0,1")
        assert doc["endpoints"][0]["w"] == [-1.0, 0.0, 0.0]
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "-1,0,0")
        assert doc["endpoints"][1]["w"] == [-1.0, 0.0, 0.0]
        assert doc["segments"] == 1

    def test_wrong_coordinate_count(self, capsys):
        rc, out, err = run_cli(capsys, "hpath", "--from", "0,0", "--to", "0,0,1")
        assert rc == 2
        assert "--from needs 3 comma-separated entries" in err


# ============================================================
# simplex
# ============================================================


class TestSimplex:
    def test_chain_output(self, capsys):
        doc = run_json(capsys, "simplex", "--builder", "straight",
                       "--vertices", "0,0,0", "1,0,0", "1,1,0")
        assert doc["k"] == 2
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["coeff"] == 1
        assert doc["terms"][0]["builder"] == "straight"

    def test_eval_straight_midpoint(self, capsys):
        doc = run_json(capsys, "simplex", "--builder", "straight",
                       "--vertices", "0,0,0", "1,0,0",
                       "--eval", "0.5,0.5")
        assert doc == {"n": 1, "w": [0.5, 0.0, 0.0]}

    def test_eval_matches_library(self, capsys):
        verts = (HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (1.0, 0.0, 0.0)),
                 HPoint(1, (1.0, 1.0, 0.0)))
        m = build_map(SimplexDescriptor(Builder.HYBRID, verts, 1))
        expected = m.eval((0.25, 0.25, 0.5))
        doc = run_json(capsys, "simplex", "--builder", "hybrid",
                       "--vertices", "0,0,0", "1,0,0", "1,1,0",
                       "--eval", "0.25,0.25,0.5")
        assert doc["w"] == pytest.approx(list(expected.w), abs=1e-15)

    def test_eval_validation(self, capsys):
        rc, out, err = run_cli(capsys, "simplex", "--builder", "straight",
                               "--vertices", "0,0,0", "1,0,0",
                               "--eval", "0.5,0.6")
        assert rc == 2
        assert out == ""

    def test_vertex_arity_validation(self, capsys):
        rc, out, err = run_cli(capsys, "simplex", "--vertices", "0,0", "1,0,0")
        assert rc == 2

    def test_vertices_with_leading_minus(self, capsys):
        doc = run_json(capsys, "simplex", "--vertices", "0,0,0", "-1,0,0")
        assert doc["terms"][0]["vertices"] == [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
        doc = run_json(capsys, "simplex", "--vertices", "-1,0,0", "1,0,0")
        assert doc["terms"][0]["vertices"] == [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


# ============================================================
# export
# ============================================================


class TestExport:
    def triangle_doc(self, capsys):
        return run_json(capsys, "simplex", "--builder", "straight",
                        "--vertices", "0,0,0", "1,0,0", "1,1,0")

    def test_obj_triangle(self, capsys, tmp_path):
        path = write_doc(tmp_path, "tri.json", self.triangle_doc(capsys))
        out_path = tmp_path / "tri.obj"
        rc, out, err = run_cli(capsys, "export", path, "--format", "obj",
                               "-o", str(out_path))
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 3
        assert [l for l in lines if l.startswith("f ")] == ["f 1 2 3"]

    def test_obj_refinement(self, capsys, tmp_path):
        path = write_doc(tmp_path, "tri.json", self.triangle_doc(capsys))
        out_path = tmp_path / "tri2.obj"
        rc, _, _ = run_cli(capsys, "export", path, "--format", "obj",
                           "--samples", "2", "-o", str(out_path))
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 6
        assert sum(1 for l in lines if l.startswith("f ")) == 4

    def test_vtk_cube(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        out_path = tmp_path / "cube.vtk"
        rc, _, _ = run_cli(capsys, "export", path, "--format", "vtk",
                           "-o", str(out_path))
        assert rc == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "POINTS 8 double" in lines
        assert "CELLS 6 30" in lines
        assert lines.count("10") == 6

    def test_json_roundtrip(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        out_path = tmp_path / "cube_out.json"
        rc, _, _ = run_cli(capsys, "export", path, "--format", "json",
                           "-o", str(out_path))
        assert rc == 0
        round_doc = json.loads(out_path.read_text())
        assert chain_from_json(round_doc) == chain_from_json(doc)

    def test_obj_needs_three_ambient_dims(self, capsys, tmp_path):
        doc = run_json(capsys, "simplex", "--n", "2", "--builder", "straight",
                       "--vertices", "0,0,0,0,0", "1,0,0,0,0", "1,1,0,0,0")
        path = write_doc(tmp_path, "tri5.json", doc)
        rc, out, err = run_cli(capsys, "export", path, "--format", "obj")
        assert rc == 2
        assert out == ""
        assert "3 ambient dimensions" in err

    def test_obj_needs_two_chain(self, capsys, tmp_path):
        doc = run_json(capsys, "triangulate", "--cube", "0,0,0")
        path = write_doc(tmp_path, "cube.json", doc)
        rc, out, err = run_cli(capsys, "export", path, "--format", "obj")
        assert rc == 2
        assert "2-chain" in err

    def test_vtk_rejects_one_chain(self, capsys, tmp_path):
        doc = run_json(capsys, "hpath", "--from", "0,0,0", "--to", "1,0,0")
        path = write_doc(tmp_path, "path.json", doc)
        rc, out, err = run_cli(capsys, "export", path, "--format", "vtk")
        assert rc == 2

    def test_samples_validation(self, capsys, tmp_path):
        path = write_doc(tmp_path, "tri.json", self.triangle_doc(capsys))
        rc, out, err = run_cli(capsys, "export", path, "--format", "obj",
                               "--samples", "0")
        assert rc == 2
        assert "samples_per_edge" in err

    def test_unknown_format_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, "tri.json", self.triangle_doc(capsys))
        with pytest.raises(SystemExit) as exc:
            cli_main(["export", path, "--format", "stl"])
        assert exc.value.code == 2


# ============================================================
# golden bytes
# ============================================================


class TestGoldenBytes:
    """sha256 of CLI outputs; any change to chain order, float formatting,
    the merge or the export shows up here."""

    @staticmethod
    def output(capsys, *argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0 and err == ""
        return out

    @staticmethod
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_n1_box_boundary_and_obj(self, capsys, monkeypatch):
        chain = self.output(capsys, "triangulate", "--box", "0,0,0", "3,3,3")
        assert self.sha(chain) == "2108f5f44e6b40f79161a35735ba5ad4573003315c8065c64a21ba98b128c749"
        monkeypatch.setattr("sys.stdin", io.StringIO(chain))
        bnd = self.output(capsys, "boundary", "-")
        assert self.sha(bnd) == "8d160b59b6215bb9e4bc65fda930e3b4e8078093a914c1f574b49983f1309a69"
        monkeypatch.setattr("sys.stdin", io.StringIO(bnd))
        obj = self.output(capsys, "export", "-", "--format", "obj", "--samples", "2")
        assert self.sha(obj) == "3bc5c4b0d1f6edf0ff97c2d9b3077614ef54f20f92d7e3c47e3d17c0056eb4dd"

    def test_n2_hybrid_box_and_boundary(self, capsys, monkeypatch):
        chain = self.output(capsys, "triangulate", "--n", "2", "--eps", "0.5",
                            "--box", "0,-1,0,0,-1", "2,1,2,2,1", "--builder", "hybrid")
        assert self.sha(chain) == "d8ca11d6af18307ae8a968b7bd7aa22a464a43c6ef94db0b0ea2dae8c6466a44"
        monkeypatch.setattr("sys.stdin", io.StringIO(chain))
        bnd = self.output(capsys, "boundary", "-")
        assert self.sha(bnd) == "2b9af35d9a89922d75319ebc87df48bf04cb745ea2ecf260dc7c1c043072d061"

    def test_hybrid_cube_vtk(self, capsys, monkeypatch):
        chain = self.output(capsys, "triangulate", "--cube=0,0,0", "--builder", "hybrid")
        monkeypatch.setattr("sys.stdin", io.StringIO(chain))
        vtk = self.output(capsys, "export", "-", "--format", "vtk")
        assert self.sha(vtk) == "2431313575d8c537d369553f3c47be159147ee7b35f67786e77c7c8b4cada824"

    def test_hybrid_cube_check_report(self, capsys, monkeypatch):
        # cell_consistency and cone_relation are rounding noise; only the
        # other three residuals are pinned exactly
        chain = self.output(capsys, "triangulate", "--cube=0,0,0", "--builder", "hybrid")
        monkeypatch.setattr("sys.stdin", io.StringIO(chain))
        report = json.loads(self.output(capsys, "check", "-"))
        assert report["input"] == "-" and report["passed"] is True
        assert [(c["name"], c["passed"], c["detail"]) for c in report["checks"]] == [
            ("boundary_squared_zero", True, "terms remaining after applying the boundary twice"),
            ("horizontality", True, "max scaled segment residual over 134 segments"),
            ("cell_consistency", True,
             "coverage of the domain simplex and spread across shared cell faces"),
            ("equivariance_spot", True, "max relative deviation under dilation/translation on 3 terms"),
            ("cone_relation", True, "max scaled cone-relation residual over 6 hybrid terms"),
        ]
        residual = {c["name"]: c["residual"] for c in report["checks"]}
        assert residual["boundary_squared_zero"] == 0.0
        assert residual["horizontality"] == 6.885648749918358e-17
        assert residual["equivariance_spot"] == 1.4611006033659535e-16
        assert residual["cell_consistency"] <= 1e-15
        assert residual["cone_relation"] <= 1e-15


# ============================================================
# dispatch
# ============================================================


class TestDispatch:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_rebound_subcommand_is_the_one_run(self, capsys, monkeypatch):
        run_json(capsys, "triangulate", "--cube", "0,0,0")
        calls = []
        monkeypatch.setattr(cli, "cmd_boundary", lambda args: calls.append(args.input) or 7)
        assert run_cli(capsys, "boundary", "chain.json") == (7, "", "")
        assert calls == ["chain.json"]


# ============================================================
# CLI subprocess (python -m heistri) and console-script entry point
# ============================================================


class TestConsoleScript:
    def run(self, *argv, stdin=None):
        # Put the directory holding the imported package first on the
        # child's PYTHONPATH, so the child runs this same checkout
        # whatever the working directory and without an install.
        src = str(Path(heistri.__file__).resolve().parent.parent)
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        return subprocess.run([sys.executable, "-m", "heistri", *argv],
                              capture_output=True, text=True, input=stdin,
                              env=env)

    def test_triangulate_boundary_check_pipeline(self, tmp_path):
        chain_path = str(tmp_path / "cube.json")
        proc = self.run("triangulate", "--cube", "0,0,0",
                        "--builder", "hybrid", "-o", chain_path)
        assert proc.returncode == 0
        assert proc.stdout == "" and proc.stderr == ""

        proc = self.run("boundary", chain_path)
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["terms"]) == 12

        proc = self.run("check", chain_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

        vtk_path = str(tmp_path / "cube.vtk")
        proc = self.run("export", chain_path, "--format", "vtk",
                        "-o", vtk_path)
        assert proc.returncode == 0
        assert open(vtk_path).readline().startswith("# vtk DataFile")

    def test_stdin_dash_pipeline(self, tmp_path):
        proc = self.run("triangulate", "--cube", "0,0,0")
        assert proc.returncode == 0
        proc = self.run("boundary", "-", stdin=proc.stdout)
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["terms"]) == 12

    def test_usage_error_exit_code(self):
        proc = self.run("badcmd")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr != ""

    def test_validation_error_exit_code(self):
        proc = self.run("triangulate")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "exactly one of --cube or --box" in proc.stderr


class TestEntryPoint:
    def test_console_script_targets_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["heistri"] == "heistri.cli:main"
        module_name, _, attr = scripts["heistri"].partition(":")
        assert getattr(importlib.import_module(module_name), attr) is cli_main
