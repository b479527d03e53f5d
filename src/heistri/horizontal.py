"""Horizontal paths, straight-layer cones, and hybrid simplexes.

A segment a -> b is horizontal exactly when the closed form residual

    (t_b - t_a) - (1/2) sum_j ( x_aj (y_bj - y_aj) - y_aj (x_bj - x_aj) )

vanishes: along an affine segment the horizontality ODE
t' = (1/2) sum (x y' - y x') has constant right-hand derivative, so it
integrates to this expression exactly.

horizontal_path joins two points by a straight reach followed, when the
remaining vertical gap Delta t is nonzero, by a square loop in the
(x_1, y_1) plane of side sqrt(|Delta t|) whose signed shoelace area equals
Delta t.  The construction is relative to the left translate of the start
point, which makes it commute with translations and dilations.

hybrid_simplex builds the simplex with horizontal 1-skeleton and straight
upper layers: pairs become horizontal paths, and each higher dimension
glues the cones of its faces over the exponential center of gravity of
all vertices, splitting the domain at the barycenter.  Only the
1-dimensional layers are horizontal here, for every n; horizontal layers
of dimension 2..n are not constructed.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import HPoint, mul_coords
from .simplex import (
    Builder,
    PLMap,
    SimplexDescriptor,
    affine_simplex,
    cone_cells,
    sample_weights,
    straight_simplex,
)

__all__ = [
    "segment_residual",
    "segment_residuals",
    "segment_is_horizontal",
    "horizontal_path",
    "exp_center_of_gravity",
    "cone_to_apex",
    "hybrid_simplex",
    "build_map",
    "cone_relation_residual",
    "map_segments",
]


def segment_residuals(seg, n: int) -> np.ndarray:
    """Deviation from horizontality (exact form) of segments stacked as
    (..., 2, 2n+1) arrays of (start, end) coordinates."""
    seg = np.asarray(seg, dtype=float)
    a, d = seg[..., 0, :], seg[..., 1, :] - seg[..., 0, :]
    s = 0.0
    for j in range(n):
        s = s + (a[..., j] * d[..., n + j] - a[..., n + j] * d[..., j])
    return d[..., 2 * n] - 0.5 * s


def segment_residual(a: HPoint, b: HPoint) -> float:
    """Deviation of the segment a -> b from horizontality (exact form)."""
    if a.n != b.n:
        raise ValueError("group index mismatch")
    return float(segment_residuals((a.w, b.w), a.n))


def segment_is_horizontal(a: HPoint, b: HPoint, tol: float = 1e-9) -> Tuple[bool, float]:
    res = segment_residual(a, b)
    scale = 1.0 + max(max(abs(c) for c in a.w), max(abs(c) for c in b.w))
    return abs(res) <= tol * scale, res


# ============================================================
# horizontal paths
# ============================================================


def _loop_corners(base_x: float, base_y: float, side: float, positive: bool):
    # counterclockwise encloses +side^2, clockwise -side^2
    if positive:
        offs = [(side, 0.0), (side, side), (0.0, side), (0.0, 0.0)]
    else:
        offs = [(0.0, side), (side, side), (side, 0.0), (0.0, 0.0)]
    return [(base_x + ox, base_y + oy) for ox, oy in offs]


_SNAP = 1e-12


def horizontal_path(p: HPoint, q: HPoint) -> PLMap:
    """A piecewise linear horizontal 1-simplex from p to q.

    Relative to p the displacement is w = p^-1 * q.  The path runs straight
    to the horizontal displacement first (rays from the identity are
    horizontal), then closes the vertical gap with the area loop.  Segment
    counts: 1 when Delta t = 0, 4 when only Delta t is nonzero, 5 otherwise.
    The final image point is set to q itself, so the endpoint is exact.

    Two robustness choices keep the construction equivariant in floats:
    components of w below 1e-12 at input scale are snapped to exact zero,
    so displacements that are zero up to rounding (e.g. translated axis
    aligned segments) take the same branch as their untranslated twins;
    and domain breakpoints are spaced by segment length, so as Delta t -> 0
    the loop's parameter share vanishes and images converge pointwise.
    """
    if p.n != q.n:
        raise ValueError("group index mismatch")
    n = p.n
    pw, qw = np.array(p.w), np.array(q.w)
    w = mul_coords(-pw, qw, n).tolist()  # negation is inv, and keeps -0.0
    scale = max(1.0, max(abs(c) for c in p.w), max(abs(c) for c in q.w))
    horiz = tuple(0.0 if abs(c) <= _SNAP * scale else c for c in w[: 2 * n])
    dt = w[2 * n]
    if abs(dt) <= _SNAP * scale * scale:
        dt = 0.0

    rel: List[Tuple[float, ...]] = [(0.0,) * (2 * n + 1)]
    if any(c != 0.0 for c in horiz):
        rel.append(horiz + (0.0,))
    if dt != 0.0:
        side = math.sqrt(abs(dt))
        cur = rel[-1]
        for cx, cy in _loop_corners(cur[0], cur[n], side, dt > 0.0):
            prev = rel[-1]
            lift = 0.5 * (prev[0] * (cy - prev[n]) - prev[n] * (cx - prev[0]))
            nxt = list(prev)
            nxt[0] = cx
            nxt[n] = cy
            nxt[2 * n] = prev[2 * n] + lift
            rel.append(tuple(nxt))

    if len(rel) == 1:
        pts = np.stack([pw, qw])
    else:
        pts = np.concatenate([mul_coords(pw, np.array(rel[:-1]), n), qw[None]])
    m = len(pts) - 1
    lengths = [math.dist(a[: 2 * n], b[: 2 * n]) for a, b in zip(rel, rel[1:])]
    total = math.fsum(lengths)
    if m == 1 or total == 0.0:
        breaks = [i / m for i in range(m + 1)]
    else:
        acc = list(itertools.accumulate(lengths))
        breaks = [0.0] + [a / total for a in acc[:-1]] + [1.0]
    domain = np.array([((1.0 - u0, u0), (1.0 - u1, u1)) for u0, u1 in zip(breaks, breaks[1:])])
    images = np.stack([pts[:-1], pts[1:]], axis=1)
    desc = SimplexDescriptor(Builder.HORIZONTAL_PATH, (p, q), n)
    worst = float(np.abs(segment_residuals(images, n)).max())
    return PLMap(1, n, domain, images, desc, {"segments": m, "max_residual": worst})


def exp_center_of_gravity(points: Sequence[HPoint]) -> HPoint:
    """exp of the averaged logs; the coordinate mean in these coordinates."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    n = points[0].n
    for p in points:
        if p.n != n:
            raise ValueError("group index mismatch")
    m = len(points)
    return HPoint(n, tuple(math.fsum(p.w[i] for p in points) / m for i in range(2 * n + 1)))


# ============================================================
# cones and hybrid simplexes
# ============================================================


def cone_to_apex(base: PLMap, apex: HPoint) -> PLMap:
    """One straight layer over an arbitrary base: cone every cell to apex.

    The base keeps its parametrization on the facet opposite the new last
    vertex e_{k+1}, and the apex pulls back to 0 under log + translation,
    so the cone is affine cell by cell.  The resulting descriptor appends
    the apex to the base's vertex list under the base's builder tag; for
    multi-cell bases that are not straight this is a construction label
    recording provenance, not a claim that rebuilding from the tag alone
    reproduces the map.
    """
    if base.n != apex.n:
        raise ValueError("group index mismatch")
    k = base.k + 1
    cells = cone_cells(base, k, np.eye(k + 1)[k], apex)
    desc = SimplexDescriptor(base.descriptor.builder,
                             base.descriptor.vertices + (apex,), base.n)
    return PLMap(k, base.n, *cells, desc, {"apex": apex})


def _point_map(v: HPoint, builder: Builder) -> PLMap:
    desc = SimplexDescriptor(builder, (v,), v.n)
    return PLMap(0, v.n, np.ones((1, 1, 1)), np.array([[v.w]]), desc)


Faces = Dict[Tuple[HPoint, ...], PLMap]


def hybrid_simplex(vertices: Sequence[HPoint], faces: Optional[Faces] = None) -> PLMap:
    """Simplex with horizontal 1-skeleton and straight upper layers.

    Pairs of vertices are joined by horizontal_path.  For k >= 2, all k+1
    faces are built recursively, the apex q is the exponential center of
    gravity of all k+1 vertices, and the domain splits into k+1
    sub-simplexes at the barycenter: face i is embedded by the face
    inclusion and coned to the barycenter, whose image is q.  Restricting
    the result to a facet therefore reproduces the sub-simplex cells
    verbatim.

    Every map built, the result and each sub-face, is stored in `faces`
    under its vertex tuple and taken from there when asked for again.
    Callers that build many simplexes sharing faces (one chain) pass one
    dict to all of them; without it, sharing is within this call only.
    """
    vertices = tuple(vertices)
    n = vertices[0].n
    for v in vertices:
        if v.n != n:
            raise ValueError("group index mismatch")
    if len(vertices) - 1 > 2 * n + 1:
        raise ValueError("dimension exceeds 2n+1")

    memo = {} if faces is None else faces

    def build(vs: Tuple[HPoint, ...]) -> PLMap:
        got = memo.get(vs)
        if got is not None:
            return got
        k = len(vs) - 1
        if k == 0:
            out = _point_map(vs[0], Builder.HYBRID)
        elif k == 1:
            path = horizontal_path(vs[0], vs[1])
            out = PLMap(1, n, path.domain, path.images,
                        SimplexDescriptor(Builder.HYBRID, vs, n), path.meta)
        else:
            q = exp_center_of_gravity(vs)
            center = np.full(k + 1, 1.0 / (k + 1))
            pieces = [cone_cells(build(vs[:i] + vs[i + 1 :]), i, center, q)
                      for i in range(k + 1)]
            out = PLMap(k, n, np.concatenate([dom for dom, _ in pieces]),
                        np.concatenate([img for _, img in pieces]),
                        SimplexDescriptor(Builder.HYBRID, vs, n),
                        {"pieces": k + 1, "apex": q,
                         "piece_sizes": tuple(len(dom) for dom, _ in pieces)})
        memo[vs] = out
        return out

    return build(vertices)


def build_map(desc: SimplexDescriptor, faces: Optional[Faces] = None) -> PLMap:
    """Materialize the PLMap a descriptor stands for.

    Hybrid simplexes share `faces` as in hybrid_simplex; the other
    builders do not use it.
    """
    if desc.builder is Builder.AFFINE:
        return affine_simplex(desc.vertices)
    if desc.builder is Builder.STRAIGHT:
        return straight_simplex(desc.vertices)
    if desc.builder is Builder.HYBRID:
        return hybrid_simplex(desc.vertices, faces)
    if desc.builder is Builder.HORIZONTAL_PATH:
        if desc.k == 0:
            return _point_map(desc.vertices[0], Builder.HORIZONTAL_PATH)
        m = horizontal_path(desc.vertices[0], desc.vertices[1])
        for apex in desc.vertices[2:]:
            m = cone_to_apex(m, apex)
        return m
    raise ValueError(f"unknown builder {desc.builder}")


_CONE_SAMPLES, _CONE_SEED, _CONE_LAMBDAS = 4, 7, (0.25, 0.5, 0.75)  # samples, seed, blend weights


def cone_relation_residual(m: PLMap, apex: HPoint) -> float:
    """Largest deviation from the straight-layer cone relation.

    Every cell is expected to have the apex as its last vertex.  For base
    points u of a cell and blend weights lam, the map value at
    (1-lam) u + lam apex must equal tau_q(exp((1-lam) log(tau_q^-1 value_at_u)))
    with q = apex.  Cell images are interpolated directly, so this checks
    the stored geometry, not the locator.  The same base samples serve
    every cell, and all cells, samples and weights are one array product.
    """
    if not (m.images[:, -1] == apex.w).all():
        raise ValueError("cell does not end at the apex")
    q = np.array(apex.w)
    mu = sample_weights(m.k - 1, _CONE_SAMPLES, _CONE_SEED)
    u = np.einsum("sv,cvd->csd", mu, m.images[:, :-1])
    rel = mul_coords(-q, u, m.n)
    lam = np.array(_CONE_LAMBDAS)[:, None, None, None]
    expected = mul_coords(q, (1.0 - lam) * rel, m.n)
    actual = (1.0 - lam) * u + lam * q
    return float(np.abs(expected - actual).max())


def map_segments(m: PLMap) -> List[Tuple[HPoint, HPoint]]:
    """The (start, end) image pairs of a 1-dimensional map's cells."""
    if m.k != 1:
        raise ValueError("segments are defined for 1-dimensional maps")
    return [(HPoint(m.n, tuple(a)), HPoint(m.n, tuple(b))) for a, b in m.images.tolist()]
