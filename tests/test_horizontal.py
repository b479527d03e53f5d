"""Horizontal segments and paths, centers of gravity, cones, hybrids.

The horizontality oracle integrates the contact ODE numerically along each
segment and compares with the closed-form residual.  Path endpoints are
checked by accumulating group products independently of the builder.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heistri import (
    Barycentric,
    Builder,
    HPoint,
    PLMap,
    SimplexDescriptor,
    barycenter,
    barycentric_vertex,
    build_map,
    cone_relation_residual,
    cone_to_apex,
    consistency_points,
    dilate,
    exp_center_of_gravity,
    horizontal_path,
    hybrid_simplex,
    inv,
    map_consistency,
    map_segments,
    mul,
    origin,
    restrict_face,
    sample_barycentric,
    segment_is_horizontal,
    segment_residual,
    segment_residuals,
    straight_simplex,
    translate,
)


def rand_points(rng, n, count, lo=-5.0, hi=5.0):
    return [HPoint(n, tuple(rng.uniform(lo, hi, 2 * n + 1))) for _ in range(count)]


def ode_residual(a, b, steps=2000):
    """Numerical oracle: integrate t' = (1/2) sum (x y' - y x') along a->b."""
    n = a.n
    aw, bw = np.array(a.w), np.array(b.w)
    u = np.linspace(0.0, 1.0, steps + 1)
    pts = aw[None, :] + u[:, None] * (bw - aw)[None, :]
    x, y = pts[:, :n], pts[:, n : 2 * n]
    dx, dy = (bw - aw)[:n], (bw - aw)[n : 2 * n]
    integrand = 0.5 * (x @ dy - y @ dx)
    lifted_t = a.w[2 * n] + np.trapezoid(integrand, u)
    return b.w[2 * n] - lifted_t


def cone_relation_loop(m, apex, samples=4, lambdas=(0.25, 0.5, 0.75), seed=7):
    """Reference: the cone relation residual cell by cell, in plain floats."""
    worst = 0.0
    for cell in m.images.tolist():
        base = cell[:-1]
        for mu in sample_barycentric(len(base) - 1, samples, seed):
            u = HPoint(m.n, tuple(math.fsum(w * p[c] for w, p in zip(mu.s, base))
                                  for c in range(2 * m.n + 1)))
            rel = mul(inv(apex), u)
            for lam in lambdas:
                expected = mul(apex, HPoint(m.n, tuple((1.0 - lam) * c for c in rel.w)))
                actual = [(1.0 - lam) * a + lam * b for a, b in zip(u.w, apex.w)]
                worst = max(worst, max(abs(e - a) for e, a in zip(expected.w, actual)))
    return worst


def consistency_loop(m, points):
    """Reference: map_consistency one query point at a time."""
    inverse = np.linalg.inv(m.domain.transpose(0, 2, 1))
    covered, worst = True, 0.0
    for s in points:
        lam = inverse @ s
        inside = np.nonzero(lam.min(axis=1) >= -1e-9)[0]
        if inside.size == 0:
            covered = False
            continue
        vals = np.array([lam[c] @ m.images[c] for c in inside])
        worst = max(worst, float((vals.max(axis=0) - vals.min(axis=0)).max()))
    return covered, worst


def pointwise_gap(m1, m2, k, samples=20, seed=3):
    worst = 0.0
    for s in sample_barycentric(k, samples, seed):
        a, b = m1.eval(s), m2.eval(s)
        worst = max(worst, max(abs(x - y) for x, y in zip(a.w, b.w)))
    return worst


# ============================================================
# segment horizontality
# ============================================================


def segment_residual_reference(a, b, n):
    """The per-segment residual as a plain-Python scalar formula."""
    s = 0.0
    for j in range(n):
        s += a[j] * (b[n + j] - a[n + j]) - a[n + j] * (b[j] - a[j])
    return (b[2 * n] - a[2 * n]) - 0.5 * s


@st.composite
def stacked_segments(draw):
    n = draw(st.integers(1, 3))
    coord = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64)
    point = st.tuples(*([coord] * (2 * n + 1)))
    return n, draw(st.lists(st.tuples(point, point), min_size=1, max_size=8))


class TestSegmentResidual:
    @given(stacked_segments())
    @settings(max_examples=300, deadline=None)
    def test_stacked_residuals_are_the_scalar_formula_bit_for_bit(self, case):
        n, segments = case
        expected = [segment_residual_reference(a, b, n).hex() for a, b in segments]
        got = segment_residuals(np.array(segments), n)
        assert [float(r).hex() for r in got] == expected
        # a (2, S, 2, 2n+1) batch: leading axes are free
        doubled = np.array([segments, segments])
        assert [float(r).hex() for r in segment_residuals(doubled, n).ravel()] == expected * 2
        assert [segment_residual(HPoint(n, a), HPoint(n, b)).hex()
                for a, b in segments] == expected

    def test_x_axis_motion(self):
        ok, res = segment_is_horizontal(origin(1), HPoint(1, (1.0, 0.0, 0.0)))
        assert ok and res == 0.0

    def test_vertical_motion(self):
        ok, res = segment_is_horizontal(origin(1), HPoint(1, (0.0, 0.0, 1.0)))
        assert not ok and res == 1.0

    def test_lifted_segment(self):
        # Delta t = (1/2)(1*1 - 0*0) makes the segment horizontal
        ok, res = segment_is_horizontal(HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (1.0, 1.0, 0.5)))
        assert ok and res == 0.0

    def test_ode_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            a = HPoint(n, tuple(rng.uniform(-3, 3, 2 * n + 1)))
            b = HPoint(n, tuple(rng.uniform(-3, 3, 2 * n + 1)))
            assert segment_residual(a, b) == pytest.approx(ode_residual(a, b), abs=1e-9)

    def test_residual_antisymmetry_fails_in_general(self):
        # the residual is based at a; swapping endpoints changes the base point
        a = HPoint(1, (1.0, 2.0, 0.0))
        b = HPoint(1, (3.0, 5.0, 4.0))
        assert segment_residual(a, b) == pytest.approx(-segment_residual(b, a), abs=1e-12)

    def test_left_invariance_of_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = HPoint(1, tuple(rng.uniform(-4, 4, 3)))
            b = HPoint(1, tuple(rng.uniform(-4, 4, 3)))
            g = HPoint(1, tuple(rng.uniform(-4, 4, 3)))
            lhs = segment_residual(translate(g, a), translate(g, b))
            assert lhs == pytest.approx(segment_residual(a, b), abs=1e-12)


# ============================================================
# horizontal paths
# ============================================================


class TestHorizontalPath:
    def test_single_segment(self):
        m = horizontal_path(origin(1), HPoint(1, (1.0, 0.0, 0.0)))
        assert m.meta["segments"] == 1

    def test_pure_vertical_loop(self):
        m = horizontal_path(origin(1), HPoint(1, (0.0, 0.0, 1.0)))
        assert m.meta["segments"] == 4
        corners = [seg[0].w for seg in map_segments(m)] + [map_segments(m)[-1][1].w]
        assert corners == [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 1.0, 0.5),
            (0.0, 1.0, 1.0),
            (0.0, 0.0, 1.0),
        ]
        assert m.meta["max_residual"] == 0.0

    def test_general_five_segments(self):
        q = HPoint(1, (1.0, 1.0, 0.7))
        m = horizontal_path(origin(1), q)
        assert m.meta["segments"] == 5
        assert m.eval(Barycentric(1, (0.0, 1.0))).w == q.w

    def test_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            p, q = rand_points(rng, n, 2)
            m = horizontal_path(p, q)
            assert m.eval(barycentric_vertex(1, 0)).w == p.w
            assert m.eval(barycentric_vertex(1, 1)).w == q.w

    def test_every_segment_horizontal(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p, q = rand_points(rng, n, 2)
            m = horizontal_path(p, q)
            for a, b in map_segments(m):
                ok, _ = segment_is_horizontal(a, b, tol=1e-12)
                assert ok

    def test_negative_vertical_gap_loops_clockwise(self):
        m = horizontal_path(origin(1), HPoint(1, (0.0, 0.0, -1.0)))
        assert m.meta["segments"] == 4
        assert m.eval(Barycentric(1, (0.0, 1.0))).w == (0.0, 0.0, -1.0)
        assert m.meta["max_residual"] <= 1e-15

    def test_same_point_degenerate(self):
        p = HPoint(1, (1.0, 2.0, 3.0))
        m = horizontal_path(p, p)
        assert m.meta["segments"] == 1
        assert m.eval(Barycentric(1, (0.5, 0.5))).w == p.w

    def test_equivariance_generic(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 3))
            p, q, g = rand_points(rng, n, 3)
            r = float(rng.uniform(0.1, 10.0))
            base = horizontal_path(p, q)
            tra = horizontal_path(translate(g, p), translate(g, q))
            dil = horizontal_path(dilate(r, p), dilate(r, q))
            for s in sample_barycentric(1, 8, seed=5):
                ref = base.eval(s)
                for m2, ref2 in ((tra, translate(g, ref)), (dil, dilate(r, ref))):
                    sc = 1.0 + max(abs(c) for c in ref2.w)
                    gap = max(abs(a - b) for a, b in zip(m2.eval(s).w, ref2.w))
                    assert gap <= 1e-9 * sc

    def test_equivariance_on_lattice_edges(self):
        # translated axis-aligned edges must keep the single-segment branch:
        # the relative displacement is zero only up to rounding after the
        # translation, and the branch choice snaps it back to exact zero
        rng = np.random.default_rng(19)
        edges = [
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
            ((1.0, 1.0, 0.0), (1.0, 1.0, 1.0)),
        ]
        for _ in range(50):
            g = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            for aw, bw in edges:
                p, q = HPoint(1, aw), HPoint(1, bw)
                base = horizontal_path(p, q)
                tra = horizontal_path(translate(g, p), translate(g, q))
                assert tra.meta["segments"] == base.meta["segments"]
                for s in sample_barycentric(1, 8, seed=7):
                    ref = translate(g, base.eval(s))
                    sc = 1.0 + max(abs(c) for c in ref.w)
                    gap = max(abs(a - b) for a, b in zip(tra.eval(s).w, ref.w))
                    assert gap <= 1e-9 * sc

    def test_loop_share_vanishes_with_gap(self):
        # pointwise convergence across the Delta t -> 0 degeneration
        p = origin(1)
        target = HPoint(1, (1.0, 0.0, 0.0))
        straight = horizontal_path(p, target)
        for dt in (1e-4, 1e-6, 1e-8):
            bent = horizontal_path(p, HPoint(1, (1.0, 0.0, dt)))
            gap = pointwise_gap(straight, bent, 1, samples=25, seed=11)
            assert gap <= 50.0 * math.sqrt(dt)

    def test_group_index_mismatch(self):
        with pytest.raises(ValueError, match="group index mismatch"):
            horizontal_path(origin(1), origin(2))


# ============================================================
# exponential center of gravity
# ============================================================


class TestCenterOfGravity:
    def test_single_point(self):
        p = HPoint(1, (1.0, 2.0, 3.0))
        assert exp_center_of_gravity([p]) == p

    def test_midpoint(self):
        p = HPoint(1, (2.0, 4.0, 6.0))
        assert exp_center_of_gravity([origin(1), p]).w == (1.0, 2.0, 3.0)

    def test_three_point_example(self):
        pts = [origin(1), HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (0.0, 1.0, 0.0))]
        c = exp_center_of_gravity(pts)
        assert c.w == pytest.approx((1.0 / 3.0, 1.0 / 3.0, 0.0), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exp_center_of_gravity([])


# ============================================================
# cones
# ============================================================


class TestConeToApex:
    def test_cone_of_straight_edge_is_straight_triangle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            verts = rand_points(rng, 1, 3)
            coned = cone_to_apex(straight_simplex(verts[:2]), verts[2])
            direct = straight_simplex(verts)
            assert pointwise_gap(coned, direct, 2) <= 1e-12

    def test_base_face_returns_base(self):
        rng = np.random.default_rng(29)
        verts = rand_points(rng, 1, 2)
        apex = HPoint(1, (0.5, -0.5, 2.0))
        base = horizontal_path(verts[0], verts[1])
        coned = cone_to_apex(base, apex)
        back = restrict_face(coned, 2)
        assert pointwise_gap(base, back, 1) <= 1e-12

    def test_apex_vertex_image(self):
        base = straight_simplex([origin(1), HPoint(1, (1.0, 0.0, 0.0))])
        apex = HPoint(1, (0.0, 0.0, 1.0))
        coned = cone_to_apex(base, apex)
        assert coned.eval(barycentric_vertex(2, 2)).w == apex.w

    def test_apex_equal_to_base_vertex_degenerate(self):
        p = HPoint(1, (1.0, 0.0, 0.0))
        base = straight_simplex([origin(1), p])
        coned = cone_to_apex(base, p)
        assert coned.k == 2
        assert coned.eval(barycenter(2)).n == 1

    def test_cone_relation_on_cells(self):
        rng = np.random.default_rng(31)
        verts = rand_points(rng, 1, 2)
        apex = HPoint(1, (1.0, 1.0, 1.0))
        coned = cone_to_apex(horizontal_path(verts[0], verts[1]), apex)
        scale = 1.0 + max(abs(c) for v in verts + [apex] for c in v.w)
        assert cone_relation_residual(coned, apex) <= 1e-12 * scale


# ============================================================
# hybrid simplexes
# ============================================================


class TestHybridSimplex:
    def test_triangle_piece_count(self):
        rng = np.random.default_rng(37)
        verts = rand_points(rng, 1, 3)
        m = hybrid_simplex(verts)
        assert m.meta["pieces"] == 3
        assert sum(m.meta["piece_sizes"]) == len(m.images)

    def test_tetrahedron_piece_count(self):
        rng = np.random.default_rng(39)
        verts = rand_points(rng, 1, 4)
        m = hybrid_simplex(verts)
        assert m.meta["pieces"] == 4

    def test_pair_is_horizontal_path(self):
        rng = np.random.default_rng(41)
        p, q = rand_points(rng, 1, 2)
        hyb = hybrid_simplex([p, q])
        path = horizontal_path(p, q)
        assert hyb.descriptor.builder is Builder.HYBRID
        assert pointwise_gap(hyb, path, 1) == 0.0

    def test_apex_is_center_of_gravity(self):
        rng = np.random.default_rng(43)
        verts = rand_points(rng, 1, 3)
        m = hybrid_simplex(verts)
        assert m.meta["apex"] == exp_center_of_gravity(verts)
        assert m.eval(barycenter(2)).w == m.meta["apex"].w

    def test_vertices_exact(self):
        rng = np.random.default_rng(47)
        verts = rand_points(rng, 1, 4)
        m = hybrid_simplex(verts)
        for i, v in enumerate(verts):
            assert m.eval(barycentric_vertex(3, i)).w == v.w

    def test_one_skeleton_horizontal(self):
        rng = np.random.default_rng(53)
        for k in (2, 3):
            verts = rand_points(rng, 1, k + 1)
            for i, j in [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]:
                path = horizontal_path(verts[i], verts[j])
                scale = 1.0 + max(abs(c) for v in (verts[i], verts[j]) for c in v.w)
                assert path.meta["max_residual"] <= 1e-12 * scale

    def test_edges_of_hybrid_match_paths(self):
        # restricting a hybrid triangle to an edge reproduces the path cells
        rng = np.random.default_rng(59)
        verts = rand_points(rng, 1, 3)
        m = hybrid_simplex(verts)
        edge = restrict_face(m, 0)
        path = horizontal_path(verts[1], verts[2])
        assert pointwise_gap(edge, path, 1) <= 1e-12

    def test_shared_face_coherence(self):
        rng = np.random.default_rng(61)
        for k in (2, 3):
            verts = rand_points(rng, 1, k + 1)
            m = hybrid_simplex(verts)
            for i in range(k + 1):
                sub = hybrid_simplex(verts[:i] + verts[i + 1 :])
                fac = restrict_face(m, i)
                assert pointwise_gap(fac, sub, k - 1) <= 1e-12

    def test_cell_consistency(self):
        rng = np.random.default_rng(67)
        for k in (2, 3):
            verts = rand_points(rng, 1, k + 1)
            points = consistency_points(k, 60, seed=1)
            covered, spread = map_consistency(hybrid_simplex(verts), points)
            assert covered and spread <= 1e-12

    def test_cell_consistency_matches_loop_reference(self):
        # same arithmetic point by point, so the results are equal
        rng = np.random.default_rng(103)
        for n, k in ((1, 2), (1, 3), (2, 4)):
            m = hybrid_simplex(rand_points(rng, n, k + 1, lo=-50.0, hi=50.0))
            points = consistency_points(k, 20, seed=k)
            assert map_consistency(m, points) == consistency_loop(m, points)

    def test_equivariance(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            k = int(rng.integers(2, min(2 * n + 1, 3) + 1))
            verts = rand_points(rng, n, k + 1)
            g = HPoint(n, tuple(rng.uniform(-5, 5, 2 * n + 1)))
            r = float(rng.uniform(0.1, 10.0))
            base = hybrid_simplex(verts)
            tra = hybrid_simplex([translate(g, v) for v in verts])
            dil = hybrid_simplex([dilate(r, v) for v in verts])
            for s in sample_barycentric(k, 10, seed=3):
                ref = base.eval(s)
                for m2, ref2 in ((tra, translate(g, ref)), (dil, dilate(r, ref))):
                    sc = 1.0 + max(abs(c) for c in ref2.w)
                    assert max(abs(a - b) for a, b in zip(m2.eval(s).w, ref2.w)) <= 1e-9 * sc

    def test_cone_relation_toward_apex(self):
        rng = np.random.default_rng(73)
        verts = rand_points(rng, 1, 3)
        m = hybrid_simplex(verts)
        scale = 1.0 + max(abs(c) for v in verts for c in v.w)
        assert cone_relation_residual(m, m.meta["apex"]) <= 1e-12 * scale

    def test_cone_relation_matches_loop_reference(self):
        # base points are summed by einsum here and by fsum in the loop, so
        # the two may differ by rounding at the coordinates' magnitude
        rng = np.random.default_rng(107)
        for n, k in ((1, 2), (1, 3), (2, 4), (2, 5)):
            verts = rand_points(rng, n, k + 1)
            m = hybrid_simplex(verts)
            scale = 1.0 + max(abs(c) for v in verts for c in v.w)
            tol = 16 * np.finfo(float).eps * scale * scale
            want = cone_relation_loop(m, m.meta["apex"])
            assert abs(cone_relation_residual(m, m.meta["apex"]) - want) <= tol

    def test_cone_relation_rejects_cell_off_the_apex(self):
        rng = np.random.default_rng(109)
        m = hybrid_simplex(rand_points(rng, 1, 3))
        images = m.images.copy()
        images[4, -1, 2] += 1e-6
        moved = PLMap(m.k, m.n, m.domain, images, m.descriptor, m.meta)
        with pytest.raises(ValueError, match="cell does not end at the apex"):
            cone_relation_residual(moved, m.meta["apex"])

    def test_dimension_cap(self):
        rng = np.random.default_rng(79)
        verts = rand_points(rng, 1, 5)  # k = 4 > 2n+1 = 3
        with pytest.raises(ValueError, match="dimension exceeds 2n\\+1"):
            hybrid_simplex(verts)

    def test_full_dimension_allowed(self):
        rng = np.random.default_rng(83)
        verts = rand_points(rng, 2, 6)  # k = 5 = 2n+1 for n = 2
        m = hybrid_simplex(verts)
        assert m.k == 5 and m.meta["pieces"] == 6


# ============================================================
# descriptor round trips
# ============================================================


class TestBuildMap:
    def test_round_trip_all_builders(self):
        rng = np.random.default_rng(89)
        verts = tuple(rand_points(rng, 1, 3))
        for make, tag in (
            (straight_simplex, Builder.STRAIGHT),
            (hybrid_simplex, Builder.HYBRID),
        ):
            m = make(verts)
            again = build_map(m.descriptor)
            assert again.descriptor == m.descriptor
            assert pointwise_gap(m, again, 2) == 0.0

    def test_path_descriptor_round_trip(self):
        rng = np.random.default_rng(97)
        p, q = rand_points(rng, 1, 2)
        m = horizontal_path(p, q)
        again = build_map(m.descriptor)
        assert pointwise_gap(m, again, 1) == 0.0

    def test_coned_path_descriptor(self):
        rng = np.random.default_rng(101)
        p, q, apex = rand_points(rng, 1, 3)
        coned = cone_to_apex(horizontal_path(p, q), apex)
        again = build_map(coned.descriptor)
        assert pointwise_gap(coned, again, 2) == 0.0
