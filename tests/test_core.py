"""Group arithmetic, gauge norms, frames, and horizontal gradients.

Oracles here are independent of the implementation: hand-computed products,
finite differences for gradients, brute-force orbit search, and the exact
symbolic commutator on affine fields.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heistri import (
    AffineScalarField,
    HPoint,
    LieVector,
    dilate,
    exp_map,
    grad_h_affine,
    horizontal_frame,
    inv,
    koranyi_dist,
    koranyi_norm,
    log_map,
    mul,
    mul_coords,
    on_same_orbit,
    origin,
    point_to_json,
    translate,
    w_tilde,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)


def hpoints(n=1):
    return st.tuples(*([coord] * (2 * n + 1))).map(lambda w: HPoint(n, w))


def bits(values):
    """Exact float identities, telling -0.0 from 0.0."""
    return [float(c).hex() for c in values]


def close(a, b, tol=1e-12):
    return all(abs(x - y) <= tol for x, y in zip(a.w, b.w))


# ============================================================
# product, inverse, translation
# ============================================================


def mul_reference(a, b, n):
    """The group product as a plain-Python scalar formula: s summed from 0.0
    in j order, then t = (a_t + b_t) + s/2."""
    s = 0.0
    for j in range(n):
        s += a[j] * b[n + j] - a[n + j] * b[j]
    return tuple(a[i] + b[i] for i in range(2 * n)) + (a[2 * n] + b[2 * n] + 0.5 * s,)


wide = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64)


@st.composite
def point_rows(draw):
    """(n, a, list of b): one left factor and up to six right factors."""
    n = draw(st.integers(1, 3))
    row = st.tuples(*([wide] * (2 * n + 1)))
    return n, draw(row), draw(st.lists(row, min_size=1, max_size=6))


class TestProduct:
    @given(point_rows())
    @settings(max_examples=300, deadline=None)
    def test_mul_is_the_scalar_formula_bit_for_bit(self, case):
        n, a, rows = case
        expected = [mul_reference(a, b, n) for b in rows]
        assert [bits(mul(HPoint(n, a), HPoint(n, b)).w) for b in rows] == list(map(bits, expected))
        # stacked rows, broadcast against one left factor, round the same way
        stacked = mul_coords(np.array(a), np.array(rows), n)
        assert [bits(row) for row in stacked.tolist()] == list(map(bits, expected))

    def test_mul_keeps_the_sign_of_zero(self):
        p = HPoint(1, (-0.0, 0.0, -0.0))
        assert bits(mul(p, p).w) == bits(mul_reference(p.w, p.w, 1)) == bits((-0.0, 0.0, 0.0))

    def test_product_formula_n1(self):
        p = HPoint(1, (1.0, 0.0, 0.0))
        q = HPoint(1, (0.0, 1.0, 0.0))
        assert mul(p, q).w == (1.0, 1.0, 0.5)

    def test_noncommutative_swap(self):
        p = HPoint(1, (0.0, 1.0, 0.0))
        q = HPoint(1, (1.0, 0.0, 0.0))
        assert mul(p, q).w == (1.0, 1.0, -0.5)

    def test_identity_element(self):
        p = HPoint(2, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert mul(p, origin(2)).w == p.w
        assert mul(origin(2), p).w == p.w

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="group index mismatch"):
            mul(origin(1), origin(2))

    def test_product_formula_n2_hand_value(self):
        # S = (1*1 - 0*0) + (0*0 - 1*2) = -1, so t = 0 + 1 - 0.5
        p = HPoint(2, (1.0, 0.0, 0.0, 1.0, 0.0))
        q = HPoint(2, (0.0, 2.0, 1.0, 0.0, 1.0))
        assert mul(p, q).w == (1.0, 2.0, 1.0, 1.0, 0.5)

    def test_associativity_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(1200):
            n = int(rng.integers(1, 3))
            a, b, c = (HPoint(n, tuple(rng.uniform(-10, 10, 2 * n + 1))) for _ in range(3))
            lhs = mul(mul(a, b), c)
            rhs = mul(a, mul(b, c))
            assert close(lhs, rhs, 1e-12)

    @given(hpoints(1), hpoints(1), hpoints(1))
    @settings(max_examples=200)
    def test_associativity_property(self, a, b, c):
        assert close(mul(mul(a, b), c), mul(a, mul(b, c)), 1e-12)


class TestInverse:
    def test_negation(self):
        assert inv(HPoint(1, (1.0, 2.0, 3.0))).w == (-1.0, -2.0, -3.0)
        assert inv(origin(1)).w == (0.0, 0.0, 0.0)

    @given(hpoints(2))
    def test_two_sided_inverse(self, p):
        assert close(mul(p, inv(p)), origin(2), 1e-15)
        assert close(mul(inv(p), p), origin(2), 1e-15)

    def test_antihomomorphism(self):
        p = HPoint(1, (1.0, 0.0, 0.0))
        q = HPoint(1, (0.0, 1.0, 0.0))
        assert inv(mul(p, q)).w == (-1.0, -1.0, -0.5)
        assert close(inv(mul(p, q)), mul(inv(q), inv(p)), 1e-15)

    @given(hpoints(1), hpoints(1))
    @settings(max_examples=150)
    def test_antihomomorphism_property(self, p, q):
        assert close(inv(mul(p, q)), mul(inv(q), inv(p)), 1e-12)


class TestTranslate:
    def test_identity_translation(self):
        p = HPoint(1, (3.0, -1.0, 0.25))
        assert translate(origin(1), p).w == p.w

    def test_matches_product(self):
        g = HPoint(1, (1.0, 0.0, 0.0))
        assert translate(g, HPoint(1, (0.0, 1.0, 0.0))).w == (1.0, 1.0, 0.5)

    @given(hpoints(1), hpoints(1), hpoints(1))
    @settings(max_examples=150)
    def test_affine_in_second_argument(self, g, a, b):
        # tau_g commutes with coordinate midpoints: the product is affine in p
        mid = HPoint(1, tuple(0.5 * (x + y) for x, y in zip(a.w, b.w)))
        lhs = translate(g, mid)
        rhs = HPoint(1, tuple(0.5 * (x + y) for x, y in zip(translate(g, a).w, translate(g, b).w)))
        assert close(lhs, rhs, 1e-12)

    @given(hpoints(1), hpoints(1))
    @settings(max_examples=150)
    def test_inv_is_affine_linear(self, a, b):
        mid = HPoint(1, tuple(0.5 * (x + y) for x, y in zip(a.w, b.w)))
        rhs = HPoint(1, tuple(0.5 * (x + y) for x, y in zip(inv(a).w, inv(b).w)))
        assert close(inv(mid), rhs, 1e-12)


# ============================================================
# dilations
# ============================================================


class TestDilate:
    def test_anisotropic_scaling(self):
        assert dilate(2.0, HPoint(1, (1.0, 1.0, 1.0))).w == (2.0, 2.0, 4.0)

    def test_unit_factor(self):
        p = HPoint(2, (1.0, 2.0, 3.0, 4.0, 5.0))
        assert dilate(1.0, p).w == p.w

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            dilate(0.0, origin(1))
        with pytest.raises(ValueError):
            dilate(-2.0, origin(1))

    @given(hpoints(1), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=150)
    def test_composition(self, p, r, s):
        assert close(dilate(r, dilate(s, p)), dilate(r * s, p), 1e-9)

    @given(hpoints(1), hpoints(1), st.floats(0.1, 10.0))
    @settings(max_examples=150)
    def test_group_homomorphism(self, p, q, r):
        assert close(dilate(r, mul(p, q)), mul(dilate(r, p), dilate(r, q)), 1e-9)


# ============================================================
# gauge norm and distance
# ============================================================


class TestKoranyi:
    def test_pure_t_norm(self):
        assert koranyi_norm(HPoint(1, (0.0, 0.0, 1.0))) == pytest.approx(2.0, abs=1e-15)

    def test_unit_horizontal_norm(self):
        assert koranyi_norm(HPoint(1, (1.0, 0.0, 0.0))) == pytest.approx(1.0, abs=1e-15)

    def test_zero_iff_identity(self):
        assert koranyi_norm(origin(2)) == 0.0
        assert koranyi_norm(HPoint(2, (0.0, 0.0, 0.0, 1e-8, 0.0))) > 0.0

    def test_self_distance(self):
        p = HPoint(1, (0.3, -0.7, 2.0))
        assert koranyi_dist(p, p) == 0.0

    def test_norm_against_quartic_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            w = rng.uniform(-3, 3, 2 * n + 1)
            expect = (np.sum(w[:-1] ** 2) ** 2 + 16.0 * w[-1] ** 2) ** 0.25
            assert koranyi_norm(HPoint(n, tuple(w))) == pytest.approx(expect, rel=1e-14)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            q = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            r = float(rng.uniform(0.1, 10.0))
            d = koranyi_dist(p, q)
            assert koranyi_dist(dilate(r, p), dilate(r, q)) == pytest.approx(r * d, rel=1e-12, abs=1e-15)

    def test_left_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            q = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            g = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            assert koranyi_dist(translate(g, p), translate(g, q)) == pytest.approx(
                koranyi_dist(p, q), rel=1e-12, abs=1e-15
            )

    def test_homogeneity_of_norm_exact_factor_two(self):
        # delta_2 doubles the gauge exactly: coordinates stay representable
        p = HPoint(1, (1.0, 0.0, 0.0))
        assert koranyi_norm(dilate(2.0, p)) == pytest.approx(2.0, abs=1e-15)


# ============================================================
# exp / log
# ============================================================


class TestExpLog:
    def test_log_of_identity(self):
        assert log_map(origin(1)).w == (0.0, 0.0, 0.0)

    def test_round_trip_exact(self):
        p = HPoint(2, (0.1, -0.2, 0.3, -0.4, 0.5))
        assert exp_map(log_map(p)).w == p.w

    def test_coordinates_verbatim(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = tuple(rng.uniform(-100, 100, 3))
            assert exp_map(LieVector(1, w)).w == w
            assert log_map(HPoint(1, w)).w == w

    def test_types_are_distinct(self):
        assert isinstance(exp_map(LieVector(1, (1.0, 2.0, 3.0))), HPoint)
        assert isinstance(log_map(HPoint(1, (1.0, 2.0, 3.0))), LieVector)


# ============================================================
# frames and gradients
# ============================================================


class TestFrame:
    def test_frame_at_origin_is_standard_basis(self):
        frame = horizontal_frame(origin(2))
        assert len(frame) == 4
        for j, vec in enumerate(frame):
            expect = [0.0] * 5
            expect[j] = 1.0
            assert vec.w == tuple(expect)

    def test_x_frame_tilts_with_y(self):
        # X_1 = d/dx - (y/2) d/dt at (0, 1, 0)
        frame = horizontal_frame(HPoint(1, (0.0, 1.0, 0.0)))
        assert frame[0].w == (1.0, 0.0, -0.5)

    def test_y_frame_tilts_with_x(self):
        # Y_1 = d/dy + (x/2) d/dt at (1, 0, 0)
        frame = horizontal_frame(HPoint(1, (1.0, 0.0, 0.0)))
        assert frame[1].w == (0.0, 1.0, 0.5)

    def test_w_tilde_rotation(self):
        wt = w_tilde((1.0, 2.0, 3.0, 4.0, 9.0), 2)
        assert wt == (3.0, 4.0, -1.0, -2.0)


class TestGradient:
    def test_coordinate_face_field_gradient(self):
        # f = level - w_j has constant W_j derivative -1 for horizontal j
        rng = np.random.default_rng(17)
        for n in (1, 2):
            for j in range(2 * n):
                lin = [0.0] * (2 * n + 1)
                lin[j] = -1.0
                f = AffineScalarField(n, 0.75, tuple(lin))
                for _ in range(20):
                    p = HPoint(n, tuple(rng.uniform(-10, 10, 2 * n + 1)))
                    g = grad_h_affine(f, p)
                    expect = [0.0] * (2 * n + 1)
                    expect[j] = -1.0
                    assert g.w == tuple(expect)

    def test_t_field_gradient_on_axis(self):
        f = AffineScalarField(1, 3.0, (0.0, 0.0, -1.0))
        g = grad_h_affine(f, HPoint(1, (0.0, 0.0, 5.0)))
        assert g.w == (0.0, 0.0, 0.0)

    def test_t_field_gradient_off_axis(self):
        # f = c - t at (x, y) = (0, 1): gradient is (1/2) X_1
        f = AffineScalarField(1, 3.0, (0.0, 0.0, -1.0))
        g = grad_h_affine(f, HPoint(1, (0.0, 1.0, 0.0)))
        assert g.w == (0.5, 0.0, 0.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(19)
        h = 1e-5
        for _ in range(50):
            n = int(rng.integers(1, 3))
            f = AffineScalarField(n, float(rng.uniform(-2, 2)), tuple(rng.uniform(-2, 2, 2 * n + 1)))
            p = HPoint(n, tuple(rng.uniform(-5, 5, 2 * n + 1)))
            grad = grad_h_affine(f, p)
            frame = horizontal_frame(p)
            for j, vec in enumerate(frame):
                plus = HPoint(n, tuple(c + h * v for c, v in zip(p.w, vec.w)))
                minus = HPoint(n, tuple(c - h * v for c, v in zip(p.w, vec.w)))
                fd = (f.evaluate(plus) - f.evaluate(minus)) / (2 * h)
                assert abs(fd - grad.w[j]) <= 1e-6

    def test_gradient_t_slot_is_zero(self):
        f = AffineScalarField(2, 1.0, (1.0, -2.0, 3.0, -4.0, 5.0))
        g = grad_h_affine(f, HPoint(2, (1.0, 1.0, 1.0, 1.0, 1.0)))
        assert g.w[-1] == 0.0


class TestCommutator:
    def test_bracket_equals_t_derivative(self):
        # [X_j, Y_j] f = T f exactly, at the level of affine fields
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            f = AffineScalarField(n, float(rng.uniform(-3, 3)), tuple(rng.uniform(-3, 3, 2 * n + 1)))
            for j in range(n):
                xy = f.w_derivative(n + j).w_derivative(j)
                yx = f.w_derivative(j).w_derivative(n + j)
                tf = f.t_derivative()
                assert xy.const - yx.const == tf.const
                assert all(a - b == c for a, b, c in zip(xy.lin, yx.lin, tf.lin))

    def test_mixed_brackets_vanish(self):
        f = AffineScalarField(2, 1.0, (1.0, 2.0, 3.0, 4.0, 5.0))
        # [X_1, X_2] = 0 and [X_1, Y_2] = 0
        for a, b in [(0, 1), (0, 3)]:
            ab = f.w_derivative(b).w_derivative(a)
            ba = f.w_derivative(a).w_derivative(b)
            assert ab.const - ba.const == 0.0
            assert all(x - y == 0.0 for x, y in zip(ab.lin, ba.lin))


# ============================================================
# dilation orbits
# ============================================================


class TestOrbit:
    def test_definitional(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = HPoint(1, tuple(rng.uniform(-5, 5, 3)))
            ok, r = on_same_orbit(p, dilate(3.0, p))
            assert ok and r == pytest.approx(3.0, rel=1e-9)

    def test_different_rays(self):
        ok, r = on_same_orbit(HPoint(1, (1.0, 0.0, 0.0)), HPoint(1, (0.0, 1.0, 0.0)))
        assert not ok and r is None

    def test_t_axis_square_scaling(self):
        ok, r = on_same_orbit(HPoint(1, (0.0, 0.0, 1.0)), HPoint(1, (0.0, 0.0, 4.0)))
        assert ok and r == pytest.approx(2.0, abs=1e-12)

    def test_opposite_t_sign_rejected(self):
        ok, r = on_same_orbit(HPoint(1, (0.0, 0.0, 1.0)), HPoint(1, (0.0, 0.0, -1.0)))
        assert not ok

    def test_origin_pair(self):
        assert on_same_orbit(origin(2), origin(2))[0]

    def test_origin_vs_nonorigin(self):
        assert not on_same_orbit(origin(1), HPoint(1, (1.0, 0.0, 0.0)))[0]

    def test_brute_force_oracle(self):
        # scan r over a fine grid and compare with the closed-form answer
        rng = np.random.default_rng(31)
        grid = np.linspace(0.05, 10.0, 4000)
        for _ in range(20):
            p = HPoint(1, tuple(rng.uniform(-2, 2, 3)))
            if koranyi_norm(p) < 0.5:
                continue
            r_true = float(rng.uniform(0.1, 9.9))
            q = dilate(r_true, p)
            ok, r = on_same_orbit(p, q)
            assert ok
            best = min(grid, key=lambda rr: max(abs(a - b) for a, b in zip(dilate(rr, p).w, q.w)))
            assert abs(best - r) < 0.01


# ============================================================
# serialization
# ============================================================


class TestJson:
    def test_schema(self):
        d = point_to_json(HPoint(1, (1.0, 2.0, 0.5)))
        assert d == {"n": 1, "w": [1.0, 2.0, 0.5]}


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            HPoint(1, (1.0, 2.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            HPoint(1, (float("nan"), 0.0, 0.0))
        with pytest.raises(ValueError):
            HPoint(1, (float("inf"), 0.0, 0.0))

    def test_bad_group_index(self):
        with pytest.raises(ValueError):
            HPoint(0, (0.0,))
