"""Standard simplexes, PL maps, the straight builder, and integer chains.

The straight builder stores a collapsed affine form; the oracle here
re-implements the iterated cone recursion directly (translate the new
vertex to the identity, cone in the Lie algebra with apex 0, translate
back) and checks both agree.  Chain arithmetic is exact integers, so the
boundary-of-boundary tests assert emptiness with no tolerance.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heistri import (
    Barycentric,
    Builder,
    Chain,
    HPoint,
    LieVector,
    PLMap,
    SimplexDescriptor,
    affine_simplex,
    barycenter,
    barycentric_vertex,
    boundary,
    chain_from_json,
    chain_text,
    chain_to_json,
    consistency_points,
    dilate,
    exp_map,
    face_map,
    hybrid_simplex,
    inv,
    log_map,
    map_consistency,
    mul,
    restrict_face,
    sample_barycentric,
    simplex_chain,
    standard_simplex,
    straight_simplex,
    translate,
)
from heistri.simplex import json_text, sample_weights


def rand_points(rng, n, count, lo=-5.0, hi=5.0):
    return [HPoint(n, tuple(rng.uniform(lo, hi, 2 * n + 1))) for _ in range(count)]


def straight_eval_recursive(vertices, s):
    """Reference evaluator: the iterated cone construction, un-collapsed.

    Step j translates the previous simplex by the inverse of the new
    vertex, reads it in the Lie algebra, extends along the affine cone
    with apex 0 (scaling by 1 - lambda toward the new domain vertex e_j),
    and translates back.
    """
    j = len(vertices) - 1
    n = vertices[0].n
    if j == 0:
        return vertices[0]
    lam = s.s[j]
    pj = vertices[j]
    if lam >= 1.0 - 1e-14:
        return pj
    rest = [c / (1.0 - lam) for c in s.s[:j]]
    rest[-1] = 1.0 - math.fsum(rest[:-1])
    prev = straight_eval_recursive(vertices[:-1], Barycentric(j - 1, tuple(rest)))
    gamma = log_map(mul(inv(pj), prev)).w
    scaled = LieVector(n, tuple((1.0 - lam) * c for c in gamma))
    return mul(pj, exp_map(scaled))


# ============================================================
# barycentric coordinates and face maps
# ============================================================


class TestBarycentric:
    def test_standard_simplex_k0(self):
        assert [b.s for b in standard_simplex(0)] == [(1.0,)]

    def test_standard_simplex_k1(self):
        assert [b.s for b in standard_simplex(1)] == [(1.0, 0.0), (0.0, 1.0)]

    def test_standard_simplex_k2(self):
        verts = standard_simplex(2)
        assert len(verts) == 3
        for i, b in enumerate(verts):
            assert b.s[i] == 1.0 and math.fsum(b.s) == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Barycentric(1, (1.5, -0.5))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            Barycentric(1, (0.7, 0.7))

    @pytest.mark.parametrize("weights", [
        ("0.25", "0.75"), (True, False), (0.0, True), (None, 1.0), np.array([True, False]),
    ])
    def test_non_numeric_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="ints or floats"):
            Barycentric(1, weights)

    @pytest.mark.parametrize("weights", [(1, 0), (0.25, 0.75), np.array([0.25, 0.75]),
                                         np.array([0, 1])])
    def test_numeric_weights_accepted_as_floats(self, weights):
        b = Barycentric(1, weights)
        assert all(type(c) is float for c in b.s)
        assert b.s == tuple(float(c) for c in weights)

    def test_barycenter(self):
        b = barycenter(2)
        assert all(c == pytest.approx(1.0 / 3.0, abs=1e-15) for c in b.s)

    def test_samples_are_valid(self):
        for s in sample_barycentric(3, 50, seed=1):
            assert s.k == 3
            assert abs(math.fsum(s.s) - 1.0) <= 1e-12

    def test_samples_deterministic(self):
        a = sample_barycentric(2, 10, seed=42)
        b = sample_barycentric(2, 10, seed=42)
        assert [x.s for x in a] == [y.s for y in b]


class TestFaceMap:
    def test_k1_faces_hit_opposite_vertices(self):
        one = Barycentric(0, (1.0,))
        assert face_map(1, 0)(one).s == (0.0, 1.0)
        assert face_map(1, 1)(one).s == (1.0, 0.0)

    def test_insertion_rule(self):
        b = Barycentric(1, (0.3, 0.7))
        assert face_map(2, 1)(b).s == (0.3, 0.0, 0.7)
        assert face_map(2, 0)(b).s == (0.0, 0.3, 0.7)
        assert face_map(2, 2)(b).s == (0.3, 0.7, 0.0)

    def test_image_avoids_omitted_vertex(self):
        b = Barycentric(1, (0.5, 0.5))
        img = face_map(2, 1)(b)
        assert img.s[1] == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            face_map(2, 3)

    def test_simplicial_identity(self):
        # F^j o F^i = F^i o F^{j-1} for i < j, the standard face relation
        b = Barycentric(0, (1.0,))
        for k in (2,):
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    left = face_map(k, j)(face_map(k - 1, i)(b))
                    right = face_map(k, i)(face_map(k - 1, j - 1)(b))
                    assert left.s == right.s


# ============================================================
# affine and straight builders
# ============================================================


class TestAffineSimplex:
    def test_midpoint_interpolation(self):
        m = affine_simplex([HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (2.0, 4.0, 6.0))])
        assert m.eval(Barycentric(1, (0.5, 0.5))).w == (1.0, 2.0, 3.0)

    def test_vertices_exact(self):
        verts = [HPoint(1, (0.1, 0.2, 0.3)), HPoint(1, (0.4, 0.5, 0.6)), HPoint(1, (0.7, 0.8, 0.9))]
        m = affine_simplex(verts)
        for i, v in enumerate(verts):
            assert m.eval(barycentric_vertex(2, i)).w == v.w

    def test_triangle_on_cube_corners(self):
        verts = [HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (1.0, 1.0, 0.0))]
        m = affine_simplex(verts)
        rng = np.random.default_rng(3)
        for s in sample_barycentric(2, 50, seed=8):
            p = np.array(m.eval(s).w)
            expect = s.s[1] * np.array((1.0, 0.0, 0.0)) + s.s[2] * np.array((1.0, 1.0, 0.0))
            assert np.abs(p - expect).max() <= 1e-15

    def test_degenerate_flagged(self):
        p = HPoint(1, (1.0, 1.0, 0.0))
        assert affine_simplex([p, p]).meta["degenerate"]
        assert not affine_simplex([p, HPoint(1, (0.0, 0.0, 0.0))]).meta["degenerate"]


class TestStraightSimplex:
    def test_hand_unrolled_midpoint(self):
        # v = p1^-1 * p0 = (1, -1, 1/2); p1 * (v/2) = (0.5, 0.5, 0)
        m = straight_simplex([HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (0.0, 1.0, 0.0))])
        assert m.eval(Barycentric(1, (0.5, 0.5))).w == (0.5, 0.5, 0.0)

    def test_point_simplex(self):
        p = HPoint(1, (2.0, 3.0, 4.0))
        m = straight_simplex([p])
        assert m.eval(Barycentric(0, (1.0,))).w == p.w

    def test_vertices_bit_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            verts = rand_points(rng, 1, 4)
            m = straight_simplex(verts)
            for i, v in enumerate(verts):
                assert m.eval(barycentric_vertex(3, i)).w == v.w

    def test_recursion_oracle(self):
        # the collapsed affine form must match the explicit cone recursion
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            k = int(rng.integers(1, 5))
            verts = rand_points(rng, n, k + 1)
            m = straight_simplex(verts)
            for s in sample_barycentric(k, 10, seed=int(rng.integers(1 << 30))):
                got = m.eval(s)
                want = straight_eval_recursive(verts, s)
                assert max(abs(a - b) for a, b in zip(got.w, want.w)) <= 1e-12

    def test_affine_coincidence(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            verts = rand_points(rng, n, k + 1)
            ms = straight_simplex(verts)
            ma = affine_simplex(verts)
            for s in sample_barycentric(k, 25, seed=13):
                a, b = ms.eval(s), ma.eval(s)
                assert max(abs(x - y) for x, y in zip(a.w, b.w)) <= 1e-12

    def test_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            verts = rand_points(rng, n, k + 1)
            g = HPoint(n, tuple(rng.uniform(-5, 5, 2 * n + 1)))
            r = float(rng.uniform(0.1, 10.0))
            base = straight_simplex(verts)
            tra = straight_simplex([translate(g, v) for v in verts])
            dil = straight_simplex([dilate(r, v) for v in verts])
            for s in sample_barycentric(k, 8, seed=17):
                ref_t = translate(g, base.eval(s))
                ref_d = dilate(r, base.eval(s))
                sc_t = 1.0 + max(abs(c) for c in ref_t.w)
                sc_d = 1.0 + max(abs(c) for c in ref_d.w)
                err_t = max(abs(a - b) for a, b in zip(tra.eval(s).w, ref_t.w)) / sc_t
                err_d = max(abs(a - b) for a, b in zip(dil.eval(s).w, ref_d.w)) / sc_d
                assert err_t <= 1e-9 and err_d <= 1e-9


# ============================================================
# PL map mechanics
# ============================================================


def two_cell_segment():
    """Delta^1 split at the midpoint, mapped to a vee shape."""
    a, b, mid = HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (2.0, 0.0, 0.0)), HPoint(1, (1.0, 1.0, 0.0))
    domain = [[(1.0, 0.0), (0.5, 0.5)], [(0.5, 0.5), (0.0, 1.0)]]
    images = [[a.w, mid.w], [mid.w, b.w]]
    desc = SimplexDescriptor(Builder.AFFINE, (a, b), 1)
    return PLMap(1, 1, domain, images, desc)


class TestPLMap:
    def test_two_cell_evaluation(self):
        m = two_cell_segment()
        assert m.eval(Barycentric(1, (0.75, 0.25))).w == (0.5, 0.5, 0.0)
        assert m.eval(Barycentric(1, (0.25, 0.75))).w == (1.5, 0.5, 0.0)

    def test_shared_face_point_is_consistent(self):
        m = two_cell_segment()
        assert m.eval(Barycentric(1, (0.5, 0.5))).w == (1.0, 1.0, 0.0)
        covered, spread = map_consistency(m, consistency_points(1, 40, seed=3))
        assert covered and spread <= 1e-12

    def test_vertex_query_returns_stored_image(self):
        m = two_cell_segment()
        assert m.eval(Barycentric(1, (1.0, 0.0))).w == (0.0, 0.0, 0.0)
        assert m.eval(Barycentric(1, (0.0, 1.0))).w == (2.0, 0.0, 0.0)

    def test_single_cell_matches_closed_form(self):
        verts = [HPoint(1, (0.0, 1.0, 2.0)), HPoint(1, (3.0, 4.0, 5.0)), HPoint(1, (6.0, 7.0, 8.0))]
        m = affine_simplex(verts)
        mat = np.array([v.w for v in verts])
        for s in sample_barycentric(2, 30, seed=11):
            expect = np.asarray(s.s) @ mat
            assert np.abs(np.array(m.eval(s).w) - expect).max() <= 1e-13

    def test_invalid_query_rejected(self):
        m = two_cell_segment()
        with pytest.raises(ValueError):
            m.eval((1.4, -0.4))

    def test_disagreeing_cells_spread_is_the_disagreement(self):
        m = two_cell_segment()
        images = m.images.copy()
        images[1, 0, 1] += 0.25  # the right cell starts 0.25 above where the left one ends
        torn = PLMap(1, 1, m.domain, images, m.descriptor)
        assert map_consistency(torn, consistency_points(1, 40, seed=3)) == (True, 0.25)

    def test_gap_between_cells_is_uncovered(self):
        m = two_cell_segment()
        domain = m.domain.copy()
        domain[0, 1] = (0.6, 0.4)  # the cells now cover [0, 0.4] and [0.6, 1],
        domain[1, 0] = (0.4, 0.6)  # missing the midpoint, which is always queried
        gapped = PLMap(1, 1, domain, m.images, m.descriptor)
        covered, _ = map_consistency(gapped, consistency_points(1, 40, seed=3))
        assert covered is False

    @pytest.mark.parametrize("slot, value, message", [
        ("domain", -0.5, "nonnegative"),
        ("domain", 0.75, "sum to 1"),
        ("domain", math.nan, "nonnegative"),
        ("images", math.inf, "finite"),
        ("images", math.nan, "finite"),
    ])
    def test_array_cells_validated(self, slot, value, message):
        m = two_cell_segment()
        arrays = {"domain": m.domain.copy(), "images": m.images.copy()}
        arrays[slot][1, 0, 0] = value
        with pytest.raises(ValueError, match=message):
            PLMap(1, 1, arrays["domain"], arrays["images"], m.descriptor)

    def test_image_width_validated(self):
        m = two_cell_segment()
        with pytest.raises(ValueError, match="group index"):
            PLMap(1, 2, m.domain, m.images, m.descriptor)

    def test_cell_arity_validated(self):
        a = HPoint(1, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="arity"):
            PLMap(1, 1, [[(1.0, 0.0)]], [[a.w]], SimplexDescriptor(Builder.AFFINE, (a,), 1))


def eval_reference(m, s):
    """One query located and interpolated per point, as PLMap.eval did before
    the batch: inverse @ point per cell, the lowest-index cell with weights
    >= -1e-12 (else the nearest), the stored image at a cell vertex."""
    s = np.asarray(s, dtype=float)
    lam = np.linalg.inv(m.domain.transpose(0, 2, 1)) @ s
    mins = lam.min(axis=1)
    inside = np.nonzero(mins >= -1e-12)[0]
    ci = int(inside[0]) if inside.size else int(np.argmax(mins))
    at_vertex = np.nonzero((m.domain[ci] == s).all(axis=1))[0]
    if at_vertex.size:
        return m.images[ci, at_vertex[0]].tolist()
    return (lam[ci] @ m.images[ci]).tolist()


def bits(values):
    return [float(c).hex() for c in values]


class TestEvalMany:
    @pytest.mark.parametrize("builder, n, k", [
        ("straight", 1, 3), ("straight", 2, 5), ("hybrid", 1, 1), ("hybrid", 1, 3),
        ("hybrid", 2, 2), ("hybrid", 2, 5),
    ])
    def test_rows_are_eval_bit_for_bit(self, builder, n, k):
        rng = np.random.default_rng(10 * n + k)
        m = (straight_simplex if builder == "straight" else hybrid_simplex)(rand_points(rng, n, k + 1))
        center = np.full(k + 1, 1.0 / (k + 1))
        # samples, vertices, edge midpoints, the apex of every hybrid piece and
        # points on the spokes from a vertex to it, which pieces share
        spokes = [(1.0 - u) * e + u * center for e in np.eye(k + 1) for u in (0.25, 0.5)]
        points = np.concatenate([consistency_points(k, 30, seed=k), center[None], spokes])
        got = m.eval_many(points)
        assert got.shape == (len(points), 2 * n + 1)
        for row, s in zip(got.tolist(), points):
            assert bits(row) == bits(m.eval(tuple(s)).w) == bits(eval_reference(m, s))

    def test_barycentric_points_and_weight_rows_agree(self):
        m = hybrid_simplex(rand_points(np.random.default_rng(4), 1, 3))
        rows = m.eval_many(sample_weights(2, 12, seed=5))
        assert np.array_equal(m.eval_many(sample_barycentric(2, 12, seed=5)), rows)
        assert m.eval_many([]).shape == (0, 3)

    def test_nearest_cell_within_tolerance(self):
        m = two_cell_segment()
        left = PLMap(1, 1, m.domain[:1], m.images[:1], m.descriptor)  # covers [0, 1/2]
        got = left.eval_many([(0.5 - 1e-10, 0.5 + 1e-10)])
        assert np.abs(got - (1.0, 1.0, 0.0)).max() <= 1e-9

    @pytest.mark.parametrize("points, message", [
        ([(0.25, 0.25, 0.5)], "wrong dimension"),
        ([barycenter(2)], "wrong dimension"),
        ([(0.5, 0.5), (1.5, -0.5)], "nonnegative"),
        ([(0.5, math.nan)], "nonnegative"),
        ([(0.5, 0.5), (0.5, 0.6)], "sum to 1"),
    ])
    def test_invalid_weights_rejected(self, points, message):
        with pytest.raises(ValueError, match=message):
            two_cell_segment().eval_many(points)

    @pytest.mark.parametrize("points", [
        [("0.5", "0.5")], [(0.5, 0.5), (1.0, False)], [(None, 1.0)], [(True, False)],
        np.array([[True, False]]), [np.array([0.5, 0.5]), np.array([True, False])],
    ])
    def test_non_numeric_weights_rejected(self, points):
        m = two_cell_segment()
        with pytest.raises(ValueError, match="ints or floats"):
            m.eval_many(points)
        with pytest.raises(ValueError, match="ints or floats"):
            m.eval(points[-1])

    @pytest.mark.parametrize("row", [("1e0", False), (0.5, True), ("0.5", 0.5)])
    def test_eval_does_not_coerce(self, row):
        with pytest.raises(ValueError, match="ints or floats"):
            two_cell_segment().eval(row)

    def test_int_rows_and_numeric_arrays_accepted(self):
        m = two_cell_segment()
        want = m.eval_many([(1.0, 0.0), (0.0, 1.0)])
        for points in ([(1, 0), (0, 1)], np.array([[1, 0], [0, 1]]),
                       np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)):
            assert np.array_equal(m.eval_many(points), want)
        assert m.eval((1, 0)) == m.eval((1.0, 0.0))

    def test_uncovered_point_rejected(self):
        m = two_cell_segment()
        left = PLMap(1, 1, m.domain[:1], m.images[:1], m.descriptor)
        with pytest.raises(ValueError, match="not covered"):
            left.eval_many([(0.75, 0.25), (0.25, 0.75)])


# ============================================================
# face restriction
# ============================================================


class TestRestrictFace:
    def test_straight_face_is_reduced_straight(self):
        rng = np.random.default_rng(31)
        verts = rand_points(rng, 1, 3)
        m = straight_simplex(verts)
        got = restrict_face(m, 0)
        want = straight_simplex(verts[1:])
        for s in sample_barycentric(1, 20, seed=5):
            assert max(abs(a - b) for a, b in zip(got.eval(s).w, want.eval(s).w)) <= 1e-12
        assert got.descriptor == want.descriptor

    def test_last_face_of_affine(self):
        rng = np.random.default_rng(33)
        verts = rand_points(rng, 1, 3)
        got = restrict_face(affine_simplex(verts), 2)
        want = affine_simplex(verts[:2])
        for s in sample_barycentric(1, 20, seed=7):
            assert max(abs(a - b) for a, b in zip(got.eval(s).w, want.eval(s).w)) <= 1e-13

    def test_matches_face_map_composition(self):
        rng = np.random.default_rng(35)
        verts = rand_points(rng, 2, 4)
        m = straight_simplex(verts)
        for i in range(4):
            face = restrict_face(m, i)
            inc = face_map(3, i)
            for s in sample_barycentric(2, 10, seed=9):
                assert max(abs(a - b) for a, b in zip(face.eval(s).w, m.eval(inc(s)).w)) <= 1e-12

    def test_faces_of_faces_commute(self):
        rng = np.random.default_rng(37)
        verts = rand_points(rng, 1, 4)
        m = straight_simplex(verts)
        for i in range(4):
            for j in range(i + 1, 4):
                # dropping j then i equals dropping i then j-1
                one = restrict_face(restrict_face(m, j), i)
                two = restrict_face(restrict_face(m, i), j - 1)
                assert one.descriptor == two.descriptor
                for s in sample_barycentric(1, 8, seed=2):
                    assert max(abs(a - b) for a, b in zip(one.eval(s).w, two.eval(s).w)) <= 1e-12


# ============================================================
# chains and the boundary operator
# ============================================================


class TestChain:
    def test_segment_boundary_signs(self):
        p0, p1 = HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (1.0, 0.0, 0.0))
        c = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, (p0, p1), 1))
        b = boundary(c)
        assert b.coeff(SimplexDescriptor(Builder.STRAIGHT, (p1,), 1)) == 1
        assert b.coeff(SimplexDescriptor(Builder.STRAIGHT, (p0,), 1)) == -1
        assert len(b) == 2

    def test_boundary_of_boundary_random(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            verts = tuple(rand_points(rng, 1, 4))
            c = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, verts, 1))
            assert boundary(boundary(c)).is_zero()

    def test_boundary_linearity(self):
        rng = np.random.default_rng(43)
        a = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, tuple(rand_points(rng, 1, 3)), 1), 2)
        b = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, tuple(rand_points(rng, 1, 3)), 1), -3)
        assert boundary(a + b) == boundary(a) + boundary(b)

    def test_zero_degree_sentinel(self):
        p = HPoint(1, (1.0, 2.0, 3.0))
        c = simplex_chain(SimplexDescriptor(Builder.AFFINE, (p,), 1))
        b = boundary(c)
        assert b.k == -1 and b.is_zero()
        assert boundary(b).is_zero()

    def test_cancellation(self):
        rng = np.random.default_rng(47)
        c = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, tuple(rand_points(rng, 1, 3)), 1), 5)
        assert (c + c.scale(-1)).is_zero()
        assert c.scale(0).is_zero()

    def test_addition_commutes(self):
        rng = np.random.default_rng(49)
        a = simplex_chain(SimplexDescriptor(Builder.STRAIGHT, tuple(rand_points(rng, 1, 3)), 1), 2)
        b = simplex_chain(SimplexDescriptor(Builder.HYBRID, tuple(rand_points(rng, 1, 3)), 1), 7)
        assert a + b == b + a

    def test_noninteger_coefficients_rejected(self):
        p = HPoint(1, (0.0, 0.0, 0.0))
        desc = SimplexDescriptor(Builder.AFFINE, (p,), 1)
        with pytest.raises(ValueError):
            Chain(0, 1, {desc: 1.5})
        with pytest.raises(ValueError):
            Chain(0, 1, {desc: True})
        with pytest.raises(ValueError):
            simplex_chain(desc).scale(True)

    def test_descriptor_equality_is_exact(self):
        a = HPoint(1, (0.1 + 0.2, 0.0, 0.0))  # 0.30000000000000004
        b = HPoint(1, (0.3, 0.0, 0.0))
        da = SimplexDescriptor(Builder.STRAIGHT, (a,), 1)
        db = SimplexDescriptor(Builder.STRAIGHT, (b,), 1)
        assert da != db
        assert not (simplex_chain(da) - simplex_chain(db)).is_zero()

    def test_builder_tag_distinguishes(self):
        p = (HPoint(1, (0.0, 0.0, 0.0)), HPoint(1, (1.0, 0.0, 0.0)))
        assert SimplexDescriptor(Builder.STRAIGHT, p, 1) != SimplexDescriptor(Builder.AFFINE, p, 1)

    def test_independent_descriptors_equal_hash_and_cancel(self):
        def simplex(*corners):
            # fresh HPoint and tuple objects on every call
            return SimplexDescriptor(Builder.STRAIGHT,
                                     tuple(HPoint(1, tuple(float(c) for c in v)) for v in corners), 1)

        a, b = simplex((0, 0, 0), (1, 0, 0), (1, 1, 0)), simplex((0, 0, 0), (1, 0, 0), (1, 1, 0))
        assert a is not b and a.vertices[0] is not b.vertices[0]
        assert a == b and hash(a) == hash(b) == hash(a)
        assert (simplex_chain(a) - simplex_chain(b)).is_zero()
        # two triangles of the unit square, built separately: the diagonal
        # edge they share cancels exactly in the boundary
        square = simplex_chain(a) + simplex_chain(simplex((0, 0, 0), (1, 1, 0), (0, 1, 0)))
        bnd = boundary(square)
        assert len(bnd) == 4
        assert bnd.coeff(simplex((0, 0, 0), (1, 1, 0))) == 0

    def test_pickled_descriptor_rehashes(self):
        import pickle

        d = SimplexDescriptor(Builder.HYBRID, (HPoint(1, (0.0, 1.0, 2.0)),), 1)
        hash(d)
        back = pickle.loads(pickle.dumps(d))
        assert "_hash" not in back.__dict__
        assert back == d and {d: 1}[back] == 1


@st.composite
def chains(draw):
    """Chains of degree k <= 3 in H^1 or H^2, any builder, coefficients of either sign."""
    n = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(0, 3))
    coord = st.floats(allow_nan=False, allow_infinity=False, width=64)
    point = st.tuples(*[coord] * (2 * n + 1)).map(lambda w: HPoint(n, w))
    term = st.tuples(st.sampled_from(list(Builder)),
                     st.lists(point, min_size=k + 1, max_size=k + 1),
                     st.integers(-5, 5).filter(bool))
    terms = {}
    for builder, verts, coeff in draw(st.lists(term, max_size=6)):
        desc = SimplexDescriptor(builder, tuple(verts), n)
        terms[desc] = terms.get(desc, 0) + coeff
    return Chain(k, n, terms)


class TestChainJson:
    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, chain):
        text = json.dumps(chain_to_json(chain))
        assert chain_from_json(json.loads(text)) == chain

    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_json_text_matches_json_dumps(self, chain):
        doc = chain_to_json(chain, {"provenance": {"kind": "box", "lo": [0, -1]}})
        assert json_text(doc) == json.dumps(doc, indent=2) + "\n"

    def test_json_text_fallbacks_match_json_dumps(self):
        doc = {
            "empty": [[], {}, [[]], [{}]],
            "scalars": [1, True, None, "a, b\u00e9\"\n", -0.0, 1e-300, 5e-324],
            "not_finite": [float("nan"), float("inf"), 1.0, -float("inf")],
            "numpy": [np.float64(0.1), 2.5],
            "tuple": (1.5, (2.5, "x")),
            "keys": {1: "int", 2.5: "float", True: "bool", None: [1.0, {"a": []}]},
            "deep": [{"x": [[0.25, -3.0], [7.0, 1e22]]}, "s"],
        }
        assert json_text(doc) == json.dumps(doc, indent=2) + "\n"
        assert json_text(3.0) == "3.0\n" and json_text([]) == "[]\n"
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"bad": [1.0, object()]})

    def test_from_json_keeps_the_sign_of_zero(self):
        doc = {"k": 0, "n": 1, "terms": [
            {"coeff": 1, "builder": "affine", "vertices": [[-0.0, 1.0, 2.0]]},
            {"coeff": 1, "builder": "horizontal_path", "vertices": [[1, 1, 2]]},
            {"coeff": 1, "builder": "hybrid", "vertices": [[1.0, 1.0, 2.0]]},
            {"coeff": 1, "builder": "straight", "vertices": [[0.0, 1.0, 2.0]]},
        ]}
        back = chain_to_json(chain_from_json(doc))
        assert back == doc
        assert [json_text(t["vertices"][0]).split()[1] for t in back["terms"]] == [
            "-0.0,", "1.0,", "1.0,", "0.0,"]

    def test_round_trip(self):
        rng = np.random.default_rng(51)
        terms = {}
        for _ in range(5):
            terms[SimplexDescriptor(Builder.STRAIGHT, tuple(rand_points(rng, 1, 3)), 1)] = int(
                rng.integers(-4, 5)
            ) or 1
        c = Chain(2, 1, terms)
        assert chain_from_json(chain_to_json(c)) == c

    def test_terms_sorted_for_reproducibility(self):
        p0, p1 = HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (0.0, 0.0, 0.0))
        c = Chain(0, 1, {
            SimplexDescriptor(Builder.AFFINE, (p0,), 1): 1,
            SimplexDescriptor(Builder.AFFINE, (p1,), 1): 1,
        })
        doc = chain_to_json(c)
        assert doc["terms"][0]["vertices"] == [[0.0, 0.0, 0.0]]
        assert doc["terms"][1]["vertices"] == [[1.0, 0.0, 0.0]]


# ============================================================
# array chains against a dict reference
# ============================================================


def ref_merge(items):
    """The dict merge the array chain replaces: items (builder, vertex tuples,
    coeff) are summed per key, the first spelling of a key kept and zeros
    dropped, in order of first appearance."""
    acc = {}
    for builder, verts, coeff in items:
        acc[builder, verts] = acc.get((builder, verts), 0) + coeff
    return [(builder, verts, coeff) for (builder, verts), coeff in acc.items() if coeff]


def ref_boundary(items):
    return ref_merge([(builder, verts[:i] + verts[i + 1:], coeff if i % 2 == 0 else -coeff)
                      for builder, verts, coeff in items for i in range(len(verts))])


def ref_text(items, k, n):
    """The chain document of the items, as json.dumps writes it."""
    terms = [{"coeff": coeff, "builder": builder, "vertices": [list(v) for v in verts]}
             for builder, verts, coeff in sorted(items, key=lambda item: item[:2])]
    return json.dumps({"k": k, "n": n, "terms": terms}, indent=2) + "\n"


def items_of(chain):
    """A chain's terms in their stored order, each vertex as its coordinate tuple."""
    return [(desc.builder.value, tuple(v.w for v in desc.vertices), coeff)
            for desc, coeff in chain.terms.items()]


def spelled(items):
    """repr tells -0.0 from 0.0, so equal spellings mean equal bits."""
    return repr(items)


@st.composite
def chain_docs(draw, k=None, n=None):
    """Chain documents of degree -1..2 whose terms share vertices, spell zeros
    either way, mix builders, and repeat terms so that coefficients add up,
    sometimes to zero or beyond int64."""
    n = draw(st.sampled_from((1, 2))) if n is None else n
    k = draw(st.integers(-1, 2)) if k is None else k
    value = st.sampled_from((0.0, -0.0, 1.0, -1.5, 0.25, 1e300, 5e-324))
    pool = draw(st.lists(st.tuples(*[value] * (2 * n + 1)), min_size=1, max_size=4))
    # the same point with each zero spelled 0.0 or -0.0
    vertex = st.sampled_from(pool).flatmap(lambda w: st.tuples(
        *[st.sampled_from((0.0, -0.0)) if c == 0.0 else st.just(c) for c in w]))
    coeff = st.integers(-3, 3) | st.sampled_from((2 ** 62, -(2 ** 63), 10 ** 30))
    term = st.fixed_dictionaries({
        "coeff": coeff, "builder": st.sampled_from([b.value for b in Builder]),
        "vertices": st.lists(vertex.map(list), min_size=k + 1, max_size=k + 1)})
    terms = draw(st.lists(term, max_size=8)) if k >= 0 else []
    if terms and draw(st.booleans()):
        terms += draw(st.permutations(terms))[:3]  # repeated terms merge
    return {"k": k, "n": n, "terms": terms}


def doc_items(doc):
    return [(t["builder"], tuple(tuple(v) for v in t["vertices"]), t["coeff"])
            for t in doc["terms"]]


class TestChainArraysMatchDictReference:
    @given(chain_docs())
    @settings(max_examples=100, deadline=None)
    def test_read_merge_write_and_boundary(self, doc):
        k, n = doc["k"], doc["n"]
        chain = chain_from_json(doc)
        want = ref_merge(doc_items(doc))
        assert spelled(items_of(chain)) == spelled(want)
        text = ref_text(want, k, n)
        assert chain_text(chain) == json_text(chain_to_json(chain)) == text
        assert json.loads(text) == chain_to_json(chain)
        b = boundary(chain)
        assert b.k == max(k - 1, -1)
        assert spelled(items_of(b)) == spelled(ref_boundary(want) if k > 0 else [])
        assert chain_text(b) == ref_text(ref_boundary(want) if k > 0 else [], b.k, n)
        assert boundary(b).is_zero()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sum_scale_and_equality(self, data):
        first = data.draw(chain_docs())
        second = data.draw(chain_docs(k=first["k"], n=first["n"]))
        a, b = chain_from_json(first), chain_from_json(second)
        items_a, items_b = ref_merge(doc_items(first)), ref_merge(doc_items(second))
        assert spelled(items_of(a + b)) == spelled(ref_merge(items_a + items_b))
        assert spelled(items_of(a - b)) == spelled(
            ref_merge(items_a + [(bl, v, -c) for bl, v, c in items_b]))
        c = data.draw(st.integers(-3, 3) | st.just(2 ** 40))
        assert spelled(items_of(a.scale(c))) == spelled(
            [(bl, v, c * x) for bl, v, x in items_a] if c else [])
        # tuple keys compare 0.0 == -0.0, as the chain does
        assert (a == b) == ({(bl, v): x for bl, v, x in items_a}
                            == {(bl, v): x for bl, v, x in items_b})
        assert a + b - b == a and (a - a).is_zero()
        assert Chain(a.k, a.n, a.terms) == a
        assert chain_text(Chain(a.k, a.n, a.terms)) == chain_text(a)

    def test_zero_spelling_and_degree_limits(self):
        doc = {"k": 1, "n": 1, "terms": [
            {"coeff": 2, "builder": "straight", "vertices": [[0.0, -0.0, 1.0], [1.0, 0.0, 0.0]]},
            {"coeff": -2, "builder": "straight", "vertices": [[-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]]},
            {"coeff": 1, "builder": "hybrid", "vertices": [[-0.0, 0.0, 1.0], [1.0, -0.0, 0.0]]},
            {"coeff": 1, "builder": "affine", "vertices": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]},
        ]}
        chain = chain_from_json(doc)
        assert spelled(items_of(chain)) == spelled(ref_merge(doc_items(doc)))
        assert [t["builder"] for t in chain_to_json(chain)["terms"]] == ["affine", "hybrid"]
        assert len(boundary(chain)) == 4 and boundary(boundary(chain)).k == -1
        empty = chain_from_json({"k": -1, "n": 2, "terms": []})
        assert empty == Chain(-1, 2) and boundary(empty).is_zero()
        assert chain_text(empty) == json.dumps({"k": -1, "n": 2, "terms": []}, indent=2) + "\n"
        point = chain_from_json({"k": 0, "n": 1, "terms": [
            {"coeff": 3, "builder": "affine", "vertices": [[1.0, 2.0, 3.0]]}]})
        assert boundary(point) == Chain(-1, 1) and len(point.scale(10 ** 30)) == 1

    @pytest.mark.parametrize("k, term, error, message", [
        (1, {"coeff": 1, "builder": "affine", "vertices": [[0.0, 0.0, 0.0], [1.0, 2.0]]},
         ValueError, "expected 3 coordinates for n=1, got 2"),
        (1, {"coeff": 1, "builder": "affine", "vertices": [[0.0, 0.0, 0.0], [1.0, 2.0, 1e400]]},
         ValueError, "coordinates must be finite"),
        (1, {"coeff": 1, "builder": "bogus", "vertices": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]},
         ValueError, "'bogus' is not a valid Builder"),
        (-1, {"coeff": 1, "builder": "affine", "vertices": []},
         ValueError, "descriptor needs at least one vertex"),
        (1, {"builder": "affine", "vertices": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]},
         KeyError, "coeff"),
        # every coordinate's type is checked before any vertex's length
        (1, {"coeff": 1, "builder": "affine", "vertices": [[0.0, 0.0], [True, 2.0, 2.0]]},
         ValueError, "term 1: coordinates must be numbers in the float range, got True"),
    ])
    def test_refusals_name_the_first_bad_term(self, k, term, error, message):
        good = {"coeff": 1, "builder": "affine", "vertices": [[0.0, 0.0, 0.0]] * (k + 1)}
        with pytest.raises(error, match=message):
            chain_from_json({"k": k, "n": 1, "terms": [good] * (k >= 0) + [term, good]})

    def test_int_coordinates_and_builder_members_read_as_floats_and_names(self):
        doc = {"k": 1, "n": 1, "terms": [
            {"coeff": 2, "builder": "straight", "vertices": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]}]}
        same = {"k": 1, "n": 1, "terms": [
            {"coeff": 2, "builder": Builder.STRAIGHT, "vertices": [[0, 1, 2.0], [3, 4, 5]]}]}
        assert chain_text(chain_from_json(same)) == chain_text(chain_from_json(doc))

    def test_writer_refuses_keys_json_would_convert(self):
        with pytest.raises(ValueError, match="keys must be strings"):
            chain_text(Chain(0, 1), {1: "one"})
