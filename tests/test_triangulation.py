"""Cube triangulations: increasing maps, signs, cancellation, region sums.

Golden values are the explicit square and cube triangulations: vertex
tables, orientation signs, the six cancellation identities of the cube
boundary, and the exact surviving term lists.  Sign oracle: the parity of
the axis-raising permutation, computed by inversion count, must equal the
determinant sign.
"""

import itertools
import json

import numpy as np
import pytest

from heistri import (
    Builder,
    Chain,
    CornerAssignment,
    HPoint,
    IncreasingMap,
    SimplexDescriptor,
    TriangulationChain,
    boundary,
    build_map,
    chain_from_json,
    dilate,
    export_mesh,
    grid_cover,
    increasing_maps,
    orientation_sign,
    sample_barycentric,
    translate,
    triangulate_cube,
    triangulate_region,
)

# the two square chains and the six cube chains, keyed by their bit tables
SQUARE_TABLE = {
    ((0, 0), (1, 0), (1, 1)): 1,
    ((0, 0), (0, 1), (1, 1)): -1,
}

CUBE_TABLE = {
    ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)): 1,
    ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)): -1,
    ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)): 1,
    ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)): -1,
    ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)): 1,
    ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)): -1,
}

# the six interior cancellations of the cube boundary: pairs of
# (simplex bits, dropped vertex index) that produce identical faces
CUBE_CANCELLATIONS = [
    ((((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)), 2),
     (((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)), 2)),
    ((((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)), 1),
     (((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)), 1)),
    ((((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)), 1),
     (((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)), 1)),
    ((((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)), 2),
     (((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)), 2)),
    ((((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)), 1),
     (((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)), 1)),
    ((((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)), 2),
     (((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)), 2)),
]


def perm_parity(m: IncreasingMap) -> int:
    """Independent sign oracle: inversion parity of the axis-raising order."""
    order = []
    for a, b in zip(m.seq, m.seq[1:]):
        order.append(next(i for i in range(m.k) if b[i] != a[i]))
    inversions = sum(
        1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j]
    )
    return 1 if inversions % 2 == 0 else -1


def unit_square_corners():
    return CornerAssignment.axis_aligned(1, (0, 0, 0), 1.0, (1, 2))


def unit_cube_corners():
    return CornerAssignment.axis_aligned(1, (0, 0, 0), 1.0, (1, 2, 3))


def bits_to_point(bits, axes=(1, 2, 3)):
    w = [0.0, 0.0, 0.0]
    for axis, b in zip(axes, bits):
        w[axis - 1] = float(b)
    return HPoint(1, tuple(w))


def square_descriptor(bits_list, builder=Builder.AFFINE):
    verts = tuple(bits_to_point(b + (0,), (1, 2, 3)) for b in bits_list)
    return SimplexDescriptor(builder, verts, 1)


def cube_descriptor(bits_list, builder=Builder.AFFINE):
    verts = tuple(bits_to_point(b) for b in bits_list)
    return SimplexDescriptor(builder, verts, 1)


# ============================================================
# increasing maps and orientation signs
# ============================================================


class TestIncreasingMaps:
    def test_square_has_exactly_two(self):
        maps = increasing_maps(2)
        assert {m.seq for m in maps} == set(SQUARE_TABLE)

    def test_cube_matches_vertex_tables(self):
        maps = increasing_maps(3)
        assert {m.seq for m in maps} == set(CUBE_TABLE)

    def test_single_map_for_segment(self):
        maps = increasing_maps(1)
        assert len(maps) == 1 and maps[0].seq == ((0,), (1,))

    def test_trivial_map_for_point(self):
        maps = increasing_maps(0)
        assert len(maps) == 1 and maps[0].seq == ((),)

    def test_factorial_counts(self):
        import math

        for k in range(1, 8):
            assert len(increasing_maps(k)) == math.factorial(k)

    def test_deterministic_order(self):
        a = [m.seq for m in increasing_maps(3)]
        b = [m.seq for m in increasing_maps(3)]
        assert a == b == sorted(a)

    def test_returned_list_is_fresh(self):
        maps = increasing_maps(3)
        expected = list(maps)
        maps.reverse()
        maps.pop()
        maps.append(IncreasingMap(1, ((0,), (1,))))
        assert increasing_maps(3) == expected
        assert increasing_maps(3) is not increasing_maps(3)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            increasing_maps(-1)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            IncreasingMap(2, ((0, 0), (1, 1), (1, 1)))  # raises two bits at once
        with pytest.raises(ValueError):
            IncreasingMap(2, ((1, 0), (1, 1), (1, 1)))  # does not start at zero
        with pytest.raises(ValueError):
            IncreasingMap(2, ((0, 0), (1, 0)))  # wrong length


class TestOrientationSign:
    def test_square_signs(self):
        for seq, sign in SQUARE_TABLE.items():
            assert orientation_sign(IncreasingMap(2, seq)) == sign

    def test_cube_signs(self):
        for seq, sign in CUBE_TABLE.items():
            assert orientation_sign(IncreasingMap(3, seq)) == sign

    def test_parity_oracle(self):
        for k in range(1, 7):
            for m in increasing_maps(k):
                assert orientation_sign(m) == perm_parity(m)

    def test_float_determinant_oracle(self):
        for m in increasing_maps(5):
            rows = [[b - a for a, b in zip(m.seq[0], m.seq[i])] for i in range(1, 6)]
            det = np.linalg.det(np.array(rows, dtype=float))
            assert abs(abs(det) - 1.0) < 1e-9
            assert orientation_sign(m) == (1 if det > 0 else -1)

    def test_point_sign(self):
        assert orientation_sign(IncreasingMap(0, ((),))) == 1


# ============================================================
# corner assignments
# ============================================================


class TestCornerAssignment:
    def test_axis_aligned_square_in_t_plane(self):
        ca = unit_square_corners()
        assert ca.k == 2
        assert ca.corner((0, 0)).w == (0.0, 0.0, 0.0)
        assert ca.corner((1, 0)).w == (1.0, 0.0, 0.0)
        assert ca.corner((0, 1)).w == (0.0, 1.0, 0.0)
        assert ca.corner((1, 1)).w == (1.0, 1.0, 0.0)

    def test_from_cube_matches_corner_rule(self):
        from heistri import Cube

        cube = Cube(1, (2, -1, 0), 0.25)
        ca = CornerAssignment.from_cube(cube)
        for bits in itertools.product((0, 1), repeat=3):
            assert ca.corner(bits).w == cube.corner(bits).w

    def test_incomplete_corners_rejected(self):
        p = HPoint(1, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            CornerAssignment(2, 1, (((0, 0), p), ((1, 1), p)))

    def test_duplicate_keys_rejected(self):
        p = HPoint(1, (0.0, 0.0, 0.0))
        pairs = (((0,), p), ((0,), p))
        with pytest.raises(ValueError):
            CornerAssignment(1, 1, pairs)

    def test_shared_corner_bit_identity(self):
        eps = 0.1
        left = CornerAssignment.axis_aligned(1, (0, 0, 0), eps, (1, 2, 3))
        right = CornerAssignment.axis_aligned(1, (1, 0, 0), eps, (1, 2, 3))
        for yz in itertools.product((0, 1), repeat=2):
            assert left.corner((1,) + yz).w == right.corner((0,) + yz).w


# ============================================================
# cube triangulation
# ============================================================


class TestTriangulateCube:
    def test_square_chain(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        assert len(t.chain) == 2
        for bits, sign in SQUARE_TABLE.items():
            assert t.chain.coeff(square_descriptor(bits)) == sign

    def test_cube_chain_alternating_signs(self):
        t = triangulate_cube(unit_cube_corners(), Builder.STRAIGHT)
        assert len(t.chain) == 6
        for bits, sign in CUBE_TABLE.items():
            assert t.chain.coeff(cube_descriptor(bits, Builder.STRAIGHT)) == sign

    def test_segment_chain(self):
        ca = CornerAssignment.axis_aligned(1, (0, 0, 0), 1.0, (3,))
        t = triangulate_cube(ca, Builder.STRAIGHT)
        assert len(t.chain) == 1
        ((desc, coeff),) = t.chain.items_sorted()
        assert coeff == 1 and [v.w for v in desc.vertices] == [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)]

    def test_hybrid_full_dimension_allowed(self):
        ca = CornerAssignment.axis_aligned(2, (0,) * 5, 1.0, (1, 2, 3, 4))
        t = triangulate_cube(ca, Builder.HYBRID)  # k = 4 <= 2n+1 = 5 is fine
        assert len(t.chain) == 24

    def test_hybrid_dimension_cap(self):
        # a combinatorial 4-cube in H^1 exceeds the ambient dimension bound
        rng = np.random.default_rng(3)
        pairs = []
        for bits in itertools.product((0, 1), repeat=4):
            pairs.append((bits, HPoint(1, tuple(rng.uniform(-1, 1, 3)))))
        ca = CornerAssignment(4, 1, tuple(pairs))
        with pytest.raises(ValueError, match="dimension exceeds 2n\\+1"):
            triangulate_cube(ca, Builder.HYBRID)

    def test_path_builder_rejected(self):
        with pytest.raises(ValueError):
            triangulate_cube(unit_square_corners(), Builder.HORIZONTAL_PATH)

    def test_affine_interior_coverage(self):
        # interior cube points lie in exactly one simplex image
        t = triangulate_cube(unit_cube_corners(), Builder.AFFINE)
        mats = []
        for desc, _ in t.chain.items_sorted():
            verts = np.array([v.w for v in desc.vertices])
            mat = np.vstack([verts.T, np.ones(4)])
            mats.append(np.linalg.inv(mat))
        rng = np.random.default_rng(5)
        kept = 0
        for _ in range(1000):
            p = rng.uniform(0, 1, 3)
            rhs = np.append(p, 1.0)
            lams = [m @ rhs for m in mats]
            if any(np.abs(lam).min() < 1e-9 for lam in lams):
                continue  # too close to a simplex boundary: ownership ambiguous
            kept += 1
            owners = sum(1 for lam in lams if lam.min() > 0)
            assert owners == 1
        assert kept > 800


# ============================================================
# boundary cancellation
# ============================================================


class TestBoundaryOfTriangulation:
    def test_square_boundary_terms(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        b = boundary(t.chain)
        s1 = ((0, 0), (1, 0), (1, 1))
        s2 = ((0, 0), (0, 1), (1, 1))
        expected = {
            square_descriptor((s1[1], s1[2])): 1,   # s1 o F0
            square_descriptor((s1[0], s1[1])): 1,   # s1 o F2
            square_descriptor((s2[1], s2[2])): -1,  # s2 o F0
            square_descriptor((s2[0], s2[1])): -1,  # s2 o F2
        }
        assert len(b) == 4
        for desc, coeff in expected.items():
            assert b.coeff(desc) == coeff

    def test_square_diagonal_cancels(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        b = boundary(t.chain)
        s1 = ((0, 0), (1, 0), (1, 1))
        diag = square_descriptor((s1[0], s1[2]))  # s1 o F1 = s2 o F1
        assert b.coeff(diag) == 0

    def test_cube_cancellation_identities(self):
        for (bits_a, drop_a), (bits_b, drop_b) in CUBE_CANCELLATIONS:
            da = cube_descriptor(bits_a).drop_vertex(drop_a)
            db = cube_descriptor(bits_b).drop_vertex(drop_b)
            assert da == db

    def test_cube_boundary_is_twelve_terms(self):
        t = triangulate_cube(unit_cube_corners(), Builder.AFFINE)
        b = boundary(t.chain)
        assert len(b) == 12
        # the surviving faces are exactly F0 and F3 of each simplex with
        # sign pattern (+sign, -sign)
        for bits, sign in CUBE_TABLE.items():
            desc = cube_descriptor(bits)
            assert b.coeff(desc.drop_vertex(0)) == sign
            assert b.coeff(desc.drop_vertex(3)) == -sign

    def test_boundary_terms_lie_on_cube_surface(self):
        t = triangulate_cube(unit_cube_corners(), Builder.AFFINE)
        b = boundary(t.chain)
        for desc, _ in b.items_sorted():
            m = build_map(desc)
            for s in sample_barycentric(2, 20, seed=9):
                w = m.eval(s).w
                on_wall = any(abs(c) <= 1e-12 or abs(c - 1.0) <= 1e-12 for c in w)
                assert on_wall

    def test_boundary_squared_vanishes(self):
        for builder in (Builder.AFFINE, Builder.STRAIGHT, Builder.HYBRID):
            t = triangulate_cube(unit_cube_corners(), builder)
            assert boundary(boundary(t.chain)).is_zero()


# ============================================================
# regions
# ============================================================


class TestTriangulateRegion:
    def test_single_cube_equals_cube(self):
        r = triangulate_region(1, 1.0, (0, 0, 0), (1, 1, 1), Builder.STRAIGHT)
        c = triangulate_cube(unit_cube_corners(), Builder.STRAIGHT)
        assert r.chain == c.chain

    def test_two_cubes_shared_face_cancels(self):
        r = triangulate_region(1, 1.0, (0, 0, 0), (2, 1, 1), Builder.STRAIGHT)
        assert len(r.chain) == 12
        b = boundary(r.chain)
        # faces on the shared wall x = 1 would have all vertices at x = 1
        for desc, _ in b.items_sorted():
            xs = [v.w[0] for v in desc.vertices]
            assert not all(x == 1.0 for x in xs)
        # the box surface has 10 unit faces, two triangles each
        assert len(b) == 20

    @pytest.mark.parametrize("n, eps, lo, hi", [
        (1, 0.25, (2, -1, 0), (4, 1, 1)), (1, 0.1, (-3, 0, 5), (-1, 1, 7)),
        (2, 0.5, (0, -1, 0, 0, -1), (1, 1, 1, 1, 0)),
    ])
    def test_each_lattice_point_is_one_point_at_its_corner(self, n, eps, lo, hi):
        r = triangulate_region(n, eps, lo, hi, Builder.STRAIGHT)
        corners = {cube.corner(bits).w for cube in grid_cover(n, eps, lo, hi)
                   for bits in itertools.product((0, 1), repeat=2 * n + 1)}
        rows = [tuple(p) for p in r.chain.points.tolist()]
        assert len(rows) == len(set(rows))  # one vertex-table row per lattice point
        assert sorted(rows) == sorted(corners)
        used = {v.w for desc in r.chain.terms for v in desc.vertices}
        assert used == corners

    def test_block_boundary_term_count(self):
        r = triangulate_region(1, 1.0, (0, 0, 0), (2, 2, 2), Builder.STRAIGHT)
        assert len(r.chain) == 48
        assert len(boundary(r.chain)) == 48  # 24 surface faces, 2 triangles each

    def test_region_provenance(self):
        r = triangulate_region(1, 0.5, (0, 0, 0), (2, 1, 1), Builder.AFFINE)
        assert r.provenance["kind"] == "region"
        assert r.provenance["cubes"] == 2

    @staticmethod
    def folded(n, eps, lo, hi, builder):
        """Reference merge: the left fold of the cube chains with Chain.__add__."""
        total = Chain(2 * n + 1, n)
        for cube in grid_cover(n, eps, lo, hi):
            total = total + triangulate_cube(CornerAssignment.from_cube(cube), builder).chain
        return total

    @pytest.mark.parametrize("builder", [Builder.AFFINE, Builder.STRAIGHT, Builder.HYBRID])
    def test_merge_equals_left_fold_n1(self, builder):
        args = (1, 0.5, (-1, 0, -2), (2, 2, 0), builder)
        r = triangulate_region(*args)
        assert len(r.chain) == 12 * 6
        assert r.chain == self.folded(*args)
        assert boundary(r.chain) == boundary(self.folded(*args))

    def test_merge_equals_left_fold_n2(self):
        args = (2, 1.0, (0, -1, 0, 0, -1), (2, 1, 2, 2, 1), Builder.STRAIGHT)
        r = triangulate_region(*args)
        assert len(r.chain) == 32 * 120
        assert r.chain == self.folded(*args)


# ============================================================
# mesh export
# ============================================================


class TestExportMesh:
    def test_square_obj(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        text = export_mesh(t, "obj").decode()
        vlines = [l for l in text.splitlines() if l.startswith("v ")]
        flines = [l for l in text.splitlines() if l.startswith("f ")]
        assert len(vlines) == 4 and len(flines) == 2

    def test_square_obj_refined(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        text = export_mesh(t, "obj", samples_per_edge=2).decode()
        vlines = [l for l in text.splitlines() if l.startswith("v ")]
        flines = [l for l in text.splitlines() if l.startswith("f ")]
        assert len(flines) == 8 and len(vlines) == 9

    def test_cube_vtk(self):
        t = triangulate_cube(unit_cube_corners(), Builder.STRAIGHT)
        text = export_mesh(t, "vtk").decode()
        lines = text.splitlines()
        assert lines[0].startswith("# vtk DataFile")
        idx = lines.index("CELL_TYPES 6")
        assert lines[idx + 1 : idx + 7] == ["10"] * 6
        assert any(l.startswith("POINTS 8 ") for l in lines)

    def test_json_round_trip(self):
        t = triangulate_cube(unit_cube_corners(), Builder.HYBRID)
        doc = json.loads(export_mesh(t, "json").decode())
        assert chain_from_json(doc) == t.chain
        assert doc["builder"] == "hybrid"
        assert doc["provenance"]["kind"] == "cube"

    def test_obj_needs_three_ambient_dimensions(self):
        ca = CornerAssignment.axis_aligned(2, (0,) * 5, 1.0, (1, 2))
        t = triangulate_cube(ca, Builder.AFFINE)
        with pytest.raises(ValueError, match="3 ambient dimensions"):
            export_mesh(t, "obj")

    def test_obj_needs_triangles(self):
        t = triangulate_cube(unit_cube_corners(), Builder.AFFINE)
        with pytest.raises(ValueError, match="need a 2-chain"):
            export_mesh(t, "obj")

    def test_vtk_dimension_range(self):
        ca = CornerAssignment.axis_aligned(1, (0, 0, 0), 1.0, (1,))
        t = triangulate_cube(ca, Builder.AFFINE)
        with pytest.raises(ValueError):
            export_mesh(t, "vtk")

    def test_refinement_limited_to_triangles(self):
        t = triangulate_cube(unit_cube_corners(), Builder.AFFINE)
        with pytest.raises(ValueError, match="triangles only"):
            export_mesh(t, "vtk", samples_per_edge=2)

    def test_bad_arguments(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        with pytest.raises(ValueError):
            export_mesh(t, "obj", samples_per_edge=0)
        with pytest.raises(ValueError, match="unknown format"):
            export_mesh(t, "stl")

    def test_negative_coefficient_flips_winding(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        flipped = TriangulationChain(t.chain.scale(-1), t.provenance, t.builder)
        a = [l for l in export_mesh(t, "obj").decode().splitlines() if l.startswith("f ")]
        b = [l for l in export_mesh(flipped, "obj").decode().splitlines() if l.startswith("f ")]
        for fa, fb in zip(a, b):
            ia, ib = fa.split()[1:], fb.split()[1:]
            assert ia != ib and set(ia) == set(ib)

    def test_coefficient_multiplicity(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        doubled = TriangulationChain(t.chain.scale(2), t.provenance, t.builder)
        flines = [l for l in export_mesh(doubled, "obj").decode().splitlines() if l.startswith("f ")]
        assert len(flines) == 4

    def test_deterministic_bytes(self):
        t = triangulate_region(1, 1.0, (0, 0, 0), (2, 1, 1), Builder.STRAIGHT)
        assert export_mesh(t, "vtk") == export_mesh(t, "vtk")
        assert export_mesh(t, "json") == export_mesh(t, "json")

    def test_plain_chain_accepted(self):
        t = triangulate_cube(unit_square_corners(), Builder.AFFINE)
        doc = json.loads(export_mesh(t.chain, "json").decode())
        assert "provenance" not in doc
        assert chain_from_json(doc) == t.chain


def reference_mesh(chain, fmt, samples):
    """The per-cell export loop export_mesh replaced, kept as its reference."""
    bary = tris = None
    if samples > 1:
        points = [(i, j) for i in range(samples + 1) for j in range(samples + 1 - i)]
        vid = {p: idx for idx, p in enumerate(points)}
        tris = []
        for i in range(samples):
            for j in range(samples - i):
                tris.append((vid[i, j], vid[i + 1, j], vid[i, j + 1]))
                if i + j <= samples - 2:
                    tris.append((vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]))
        bary = [((samples - i - j) / samples, i / samples, j / samples) for i, j in points]
    index, cells, faces = {}, [], {}
    for desc, coeff in chain.items_sorted():
        for cell in build_map(desc, faces).images.tolist():
            if tris:
                pts = [tuple(0.0 + b0 * c0 + b1 * c1 + b2 * c2 for c0, c1, c2 in zip(*cell))
                       for b0, b1, b2 in bary]
                pieces = [[pts[i] for i in tri] for tri in tris]
            else:
                pieces = [[tuple(p) for p in cell]]
            for piece in pieces:
                ids = [index.setdefault(p, len(index)) for p in piece]
                if coeff < 0:
                    ids[0], ids[1] = ids[1], ids[0]
                cells += [ids] * abs(coeff)
    verts = [" ".join(map(repr, p)) for p in index]
    if fmt == "obj":
        lines = ["v " + v for v in verts] + ["f " + " ".join(str(i + 1) for i in c) for c in cells]
    else:
        lines = ["# vtk DataFile Version 3.0", "heistri mesh", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {len(verts)} double"] + verts
        lines += [f"CELLS {len(cells)} {len(cells) * (chain.k + 2)}"]
        lines += [f"{len(c)} " + " ".join(map(str, c)) for c in cells]
        lines += [f"CELL_TYPES {len(cells)}"] + [str(5 if chain.k == 2 else 10)] * len(cells)
    return ("\n".join(lines) + "\n").encode()


class TestExportMeshReference:
    @staticmethod
    def surfaces():
        rng = np.random.default_rng(3)
        for builder in (Builder.AFFINE, Builder.STRAIGHT, Builder.HYBRID):
            bnd = boundary(triangulate_region(1, 0.5, (-1, 0, 0), (1, 1, 1), builder).chain)
            yield bnd
            yield Chain(2, 1, {d: int(rng.integers(-3, 4)) or 2 for d in bnd.terms})
        yield chain_from_json({"k": 2, "n": 1, "terms": [
            {"coeff": 2, "builder": "hybrid", "vertices": [[0.0, -0.0, 0.0], [-0.0, 1.0, -0.0],
                                                           [1.0, 0.0, -0.5]]},
            {"coeff": -1, "builder": "affine", "vertices": [[-0.0, 0.0, -0.0], [1.0, 0.0, -0.5],
                                                            [0.0, -1.0, 0.0]]}]})
        yield Chain(2, 1)

    @pytest.mark.parametrize("fmt", ["obj", "vtk"])
    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_surfaces_match_the_per_cell_loop(self, fmt, samples):
        for chain in self.surfaces():
            assert export_mesh(chain, fmt, samples) == reference_mesh(chain, fmt, samples)

    @pytest.mark.parametrize("builder", [Builder.AFFINE, Builder.STRAIGHT, Builder.HYBRID])
    def test_solids_match_the_per_cell_loop(self, builder):
        solid = triangulate_region(1, 0.5, (-1, 0, -1), (1, 1, 1), builder).chain
        for chain in (solid, solid.scale(-2), Chain(3, 1)):
            assert export_mesh(chain, "vtk") == reference_mesh(chain, "vtk", 1)


class TestPipelineEquivariance:
    def test_transformed_corners_give_transformed_simplexes(self):
        rng = np.random.default_rng(13)
        base = unit_cube_corners()
        g = HPoint(1, tuple(rng.uniform(-2, 2, 3)))
        r = 1.7
        for move, tag in ((lambda p: translate(g, p), "translate"),
                          (lambda p: dilate(r, p), "dilate")):
            moved = CornerAssignment(
                3, 1, tuple((bits, move(p)) for bits, p in base.corners)
            )
            t_base = triangulate_cube(base, Builder.STRAIGHT)
            t_moved = triangulate_cube(moved, Builder.STRAIGHT)
            assert len(t_moved.chain) == 6
            # match terms by the moved vertex tuples and compare pointwise
            for desc, coeff in t_base.chain.items_sorted():
                moved_desc = SimplexDescriptor(
                    Builder.STRAIGHT, tuple(move(v) for v in desc.vertices), 1
                )
                assert t_moved.chain.coeff(moved_desc) == coeff
                m0, m1 = build_map(desc), build_map(moved_desc)
                for s in sample_barycentric(3, 5, seed=3):
                    ref = move(m0.eval(s))
                    sc = 1.0 + max(abs(c) for c in ref.w)
                    gap = max(abs(a - b) for a, b in zip(m1.eval(s).w, ref.w))
                    assert gap <= 1e-9 * sc
