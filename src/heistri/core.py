"""Heisenberg group arithmetic in exponential coordinates.

A point of the n-th Heisenberg group is a tuple w = (x_1..x_n, y_1..y_n, t)
of length 2n+1.  The group product is

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + S/2),
    S = sum_j (x_j * y'_j - y_j * x'_j),

so the inverse is coordinate negation and the identity is the origin.
Exponential coordinates make exp/log the identity on coordinate tuples;
HPoint and LieVector exist to keep group points and tangent vectors from
being mixed up silently.

The anisotropic dilation delta_r scales horizontal slots by r and the last
slot by r^2; it is a group homomorphism.  The Koranyi gauge

    ||(x, y, t)|| = (|(x, y)|^4 + 16 t^2)^(1/4)

is homogeneous of degree 1 under delta_r, and d(p, q) = ||q^-1 * p|| is a
left invariant distance.

The horizontal frame is W_j = d/dw_j - (1/2) wt_j d/dt where wt is the
rotated horizontal vector: wt_j = w_{n+j} for j <= n and wt_j = -w_{j-n}
for j > n.  For affine scalar fields the W_j derivative is again affine,
which keeps commutator checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "HPoint",
    "LieVector",
    "AffineScalarField",
    "origin",
    "mul",
    "mul_coords",
    "inv",
    "translate",
    "dilate",
    "koranyi_norm",
    "koranyi_dist",
    "exp_map",
    "log_map",
    "w_tilde",
    "horizontal_frame",
    "grad_h_affine",
    "on_same_orbit",
    "point_to_json",
]


def _coords(n: int, w) -> Tuple[float, ...]:
    """w as floats, checked: 2n+1 finite ints or floats ("1", True and None,
    which float() would read as numbers, are refused)."""
    if n < 1:
        raise ValueError("group index must be >= 1")
    w = tuple(w)
    if len(w) != 2 * n + 1:
        raise ValueError(f"expected {2 * n + 1} coordinates for n={n}, got {len(w)}")
    if set(map(type, w)) - {float}:  # all plain floats is the common case
        for c in w:
            if isinstance(c, bool) or not isinstance(c, (int, float, np.integer, np.floating)):
                raise ValueError(f"coordinates must be ints or floats, got {c!r}")
        w = tuple(map(float, w))
    if not all(map(math.isfinite, w)):
        raise ValueError("coordinates must be finite")
    return w


@dataclass(frozen=True)
class HPoint:
    """A group element, stored as its exponential coordinate tuple."""

    n: int
    w: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _coords(self.n, self.w))

    @property
    def x(self) -> Tuple[float, ...]:
        return self.w[: self.n]

    @property
    def y(self) -> Tuple[float, ...]:
        return self.w[self.n : 2 * self.n]

    @property
    def t(self) -> float:
        return self.w[2 * self.n]


@dataclass(frozen=True)
class LieVector:
    """A tangent vector at the identity, same coordinate layout as HPoint."""

    n: int
    w: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _coords(self.n, self.w))


def origin(n: int) -> HPoint:
    return HPoint(n, (0.0,) * (2 * n + 1))


def _require_same_n(a, b) -> None:
    if a.n != b.n:
        raise ValueError("group index mismatch")


# ============================================================
# group operations
# ============================================================


def mul_coords(a, b, n: int) -> np.ndarray:
    """The group product on coordinate arrays (last axis), broadcast; s sums
    from 0.0 in j order, so every batch shape rounds like one product."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = a + b
    s = 0.0
    for j in range(n):
        s = s + (a[..., j] * b[..., n + j] - a[..., n + j] * b[..., j])
    out[..., 2 * n] += 0.5 * s
    return out


def mul(p: HPoint, q: HPoint) -> HPoint:
    """Group product p * q."""
    _require_same_n(p, q)
    return HPoint(p.n, tuple(mul_coords(p.w, q.w, p.n).tolist()))


def inv(p: HPoint) -> HPoint:
    """Group inverse, which is coordinate negation."""
    return HPoint(p.n, tuple(-c for c in p.w))


def translate(g: HPoint, p: HPoint) -> HPoint:
    """Left translation tau_g(p) = g * p."""
    return mul(g, p)


def dilate(r: float, p: HPoint) -> HPoint:
    """Anisotropic dilation delta_r: horizontal slots scale by r, t by r^2."""
    if not (r > 0.0) or not math.isfinite(r):
        raise ValueError("dilation factor must be positive and finite")
    n = p.n
    w = tuple(r * c for c in p.w[: 2 * n]) + (r * r * p.w[2 * n],)
    return HPoint(n, w)


def koranyi_norm(p: HPoint) -> float:
    """Gauge (|(x,y)|^4 + 16 t^2)^(1/4)."""
    n = p.n
    q = 0.0
    for c in p.w[: 2 * n]:
        q += c * c
    t = p.w[2 * n]
    return (q * q + 16.0 * t * t) ** 0.25


def koranyi_dist(p: HPoint, q: HPoint) -> float:
    """Left invariant distance ||q^-1 * p||."""
    return koranyi_norm(mul(inv(q), p))


def exp_map(v: LieVector) -> HPoint:
    """Exponential map; the identity on coordinate tuples."""
    return HPoint(v.n, v.w)


def log_map(p: HPoint) -> LieVector:
    """Inverse of exp_map; the identity on coordinate tuples."""
    return LieVector(p.n, p.w)


# ============================================================
# horizontal frame and affine fields
# ============================================================


def w_tilde(w: Tuple[float, ...], n: int) -> Tuple[float, ...]:
    """Rotated horizontal part: wt_j = w_{n+j} for j <= n, else -w_{j-n}.

    Indices here are 0-based, so slot i < n maps to w[n+i] and slot
    i in [n, 2n) maps to -w[i-n].  Returns a tuple of length 2n.
    """
    return tuple(w[n + i] for i in range(n)) + tuple(-w[i] for i in range(n))


def horizontal_frame(p: HPoint) -> Tuple[LieVector, ...]:
    """The 2n frame vectors W_j evaluated at p, in ambient coordinates.

    W_j = d/dw_j - (1/2) wt_j(p) d/dt.  The span is the horizontal plane
    at p; the commutator [W_j, W_{n+j}] equals d/dt for j <= n.
    """
    n = p.n
    wt = w_tilde(p.w, n)
    frame = []
    for j in range(2 * n):
        coords = [0.0] * (2 * n + 1)
        coords[j] = 1.0
        coords[2 * n] = -0.5 * wt[j]
        frame.append(LieVector(n, tuple(coords)))
    return tuple(frame)


@dataclass(frozen=True)
class AffineScalarField:
    """f(w) = const + sum_i lin[i] * w[i], with exact symbolic W derivatives."""

    n: int
    const: float
    lin: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lin", tuple(float(c) for c in self.lin))
        if len(self.lin) != 2 * self.n + 1:
            raise ValueError(f"expected {2 * self.n + 1} linear coefficients")

    def evaluate(self, p: HPoint) -> float:
        if p.n != self.n:
            raise ValueError("group index mismatch")
        return self.const + sum(c * w for c, w in zip(self.lin, p.w))

    def w_derivative(self, j: int) -> "AffineScalarField":
        """W_j f for 0-based horizontal slot j; the result is again affine.

        W_j f = lin[j] - (1/2) wt_j * lin[t], and wt_j is itself a linear
        coordinate, so no numerics are involved beyond one product.
        """
        n = self.n
        if not 0 <= j < 2 * n:
            raise ValueError("horizontal slot out of range")
        lt = self.lin[2 * n]
        lin = [0.0] * (2 * n + 1)
        if j < n:
            lin[n + j] = -0.5 * lt
        else:
            lin[j - n] = 0.5 * lt
        return AffineScalarField(n, self.lin[j], tuple(lin))

    def t_derivative(self) -> "AffineScalarField":
        return AffineScalarField(self.n, self.lin[2 * self.n], (0.0,) * (2 * self.n + 1))


def grad_h_affine(f: AffineScalarField, p: HPoint) -> LieVector:
    """Horizontal gradient of an affine field at p.

    Components are frame coefficients (W_1 f, ..., W_2n f) placed in the
    horizontal slots; the t slot is zero.  For f = c - t this evaluates to
    wt(p)/2, which vanishes exactly on the t axis.
    """
    if f.n != p.n:
        raise ValueError("group index mismatch")
    n = f.n
    wt = w_tilde(p.w, n)
    lt = f.lin[2 * n]
    comps = tuple(f.lin[j] - 0.5 * wt[j] * lt for j in range(2 * n)) + (0.0,)
    return LieVector(n, comps)


# ============================================================
# dilation orbits
# ============================================================


def on_same_orbit(p: HPoint, q: HPoint, tol: float = 1e-9) -> Tuple[bool, Optional[float]]:
    """Decide whether q = delta_r(p) for some r > 0; return (flag, r).

    The candidate r comes from the largest horizontal coordinate of p, or
    from sqrt(t_q / t_p) when p sits on the t axis.  Verification is
    componentwise with tolerance scaled by the coordinate magnitudes.
    """
    _require_same_n(p, q)
    n = p.n
    scale = max(1.0, max(abs(c) for c in p.w), max(abs(c) for c in q.w))
    if all(abs(c) <= tol * scale for c in p.w):
        if all(abs(c) <= tol * scale for c in q.w):
            return True, 1.0
        return False, None

    jmax = max(range(2 * n), key=lambda j: abs(p.w[j]), default=0)
    if 2 * n > 0 and abs(p.w[jmax]) > tol * scale:
        r = q.w[jmax] / p.w[jmax]
        if r <= 0.0:
            return False, None
    else:
        tp, tq = p.w[2 * n], q.w[2 * n]
        if tp == 0.0 or tq / tp <= 0.0:
            return False, None
        r = math.sqrt(tq / tp)

    for j in range(2 * n):
        if abs(q.w[j] - r * p.w[j]) > tol * scale * max(1.0, r):
            return False, None
    if abs(q.w[2 * n] - r * r * p.w[2 * n]) > tol * scale * max(1.0, r * r):
        return False, None
    return True, r


# ============================================================
# serialization
# ============================================================


def point_to_json(p: HPoint) -> dict:
    return {"n": p.n, "w": list(p.w)}
