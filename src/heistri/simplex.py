"""Piecewise linear singular simplexes and integer chains.

A singular simplex is represented by a PLMap: a finite set of affine cells
tiling the standard simplex Delta^k, each cell carrying its own image
vertices in the group.  Evaluation locates the cell containing a
barycentric point and interpolates that cell's images coordinatewise.

A Chain holds its terms as arrays: a vertex table, the table rows of each
term, a builder code and a coefficient.  Terms merge and cancel on integer
keys, the builder code and each vertex's rank by coordinate value, so two
terms cancel only when their builders and vertex coordinates agree
exactly; grids share one table row per integer lattice point
(triangulation.triangulate_region).  A SimplexDescriptor (builder, vertex
tuple, group index) is built only where a map is built or Chain.terms read.

Boundaries are combinatorial: the i-th face of a term drops vertex i with
sign (-1)^i, so d(d(chain)) = 0 holds exactly over the integers.
restrict_face computes the geometric counterpart on PLMaps by slicing the
cell complex along a facet of Delta^k.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import HPoint

__all__ = [
    "BARY_TOL",
    "Barycentric",
    "PLMap",
    "Builder",
    "SimplexDescriptor",
    "Chain",
    "barycentric_vertex",
    "standard_simplex",
    "barycenter",
    "sample_weights",
    "sample_barycentric",
    "face_map",
    "affine_simplex",
    "straight_simplex",
    "restrict_face",
    "consistency_points",
    "map_consistency",
    "cone_cells",
    "simplex_chain",
    "boundary",
    "json_text",
    "chain_text",
    "chain_to_json",
    "chain_from_json",
]

BARY_TOL = 1e-12


@dataclass(frozen=True)
class Barycentric:
    """A point of Delta^k: k+1 nonnegative weights summing to 1."""

    k: int
    s: Tuple[float, ...]

    def __post_init__(self):
        s = _check_weights(self.s)
        if s.shape != (self.k + 1,):
            raise ValueError(f"expected {self.k + 1} weights for k={self.k}")
        object.__setattr__(self, "s", tuple(s.tolist()))


def _check_weights(rows) -> np.ndarray:
    """Each row (last axis) of weights, checked against the rules of a point of
    Delta^k, as a float array.  "0.5", True, None and a bool among floats,
    which np.array(..., dtype=float) would read as numbers, are refused."""
    s = np.asarray(rows)
    if s.dtype.kind not in "iuf" or not isinstance(rows, np.ndarray) and any(
            isinstance(c, (bool, np.bool_)) for c in np.array(rows, dtype=object).flat):
        raise ValueError("barycentric weights must be ints or floats")
    s = s.astype(float, copy=False)
    # both comparisons are False for nan, and the sum is not finite for inf
    if not s.min(initial=0.0) >= -BARY_TOL:
        raise ValueError("barycentric weights must be nonnegative")
    if not np.abs(s.sum(axis=-1) - 1.0).max(initial=0.0) <= BARY_TOL:
        raise ValueError("barycentric weights must sum to 1")
    return s


def barycentric_vertex(k: int, i: int) -> Barycentric:
    """The i-th vertex e_i of Delta^k."""
    if not 0 <= i <= k:
        raise ValueError("vertex index out of range")
    s = [0.0] * (k + 1)
    s[i] = 1.0
    return Barycentric(k, tuple(s))


def standard_simplex(k: int) -> List[Barycentric]:
    """All k+1 vertices e_0..e_k of Delta^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [barycentric_vertex(k, i) for i in range(k + 1)]


def barycenter(k: int) -> Barycentric:
    return Barycentric(k, (1.0 / (k + 1),) * (k + 1))


def sample_weights(k: int, count: int, seed: int) -> np.ndarray:
    """Deterministic uniform samples of Delta^k (Dirichlet(1,..,1)).

    A (count, k+1) array; the last weight of each row is 1 minus the
    exact sum of the others.
    """
    out = np.random.default_rng(seed).dirichlet(np.ones(k + 1), size=count)
    for row in out:
        row[-1] = 1.0 - math.fsum(row[:-1])
    return out


def sample_barycentric(k: int, count: int, seed: int) -> List[Barycentric]:
    """sample_weights as Barycentric points."""
    return [Barycentric(k, tuple(row)) for row in sample_weights(k, count, seed).tolist()]


def face_map(k: int, i: int):
    """The i-th face inclusion Delta^{k-1} -> Delta^k.

    Inserts a zero weight at slot i, so the image is the facet opposite
    vertex e_i and vertex e_j of Delta^{k-1} lands on e_j (j < i) or
    e_{j+1} (j >= i).
    """
    if not 0 <= i <= k:
        raise ValueError("face index out of range")

    def include(b: Barycentric) -> Barycentric:
        if b.k != k - 1:
            raise ValueError("face inclusion arity mismatch")
        s = b.s[:i] + (0.0,) + b.s[i:]
        return Barycentric(k, s)

    return include


# ============================================================
# builders and descriptors
# ============================================================


class Builder(Enum):
    AFFINE = "affine"
    STRAIGHT = "straight"
    HORIZONTAL_PATH = "horizontal_path"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class SimplexDescriptor:
    """Identity of a singular simplex: builder tag plus ordered vertices.

    Equality is exact tuple equality of the vertex coordinates; no
    tolerance is applied anywhere in chain arithmetic.
    """

    builder: Builder
    vertices: Tuple[HPoint, ...]
    n: int

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("descriptor needs at least one vertex")
        for v in self.vertices:
            if v.n != self.n:
                raise ValueError("group index mismatch")

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    def drop_vertex(self, i: int) -> "SimplexDescriptor":
        if not 0 <= i <= self.k:
            raise ValueError("vertex index out of range")
        if self.k == 0:
            raise ValueError("cannot drop the only vertex")
        verts = self.vertices[:i] + self.vertices[i + 1 :]
        return SimplexDescriptor(self.builder, verts, self.n)


class PLMap:
    """A piecewise linear map Delta^k -> H^n given by affine cells.

    The m cells live in two read-only arrays: domain, shape (m, k+1, k+1),
    whose row domain[c, v] holds the barycentric weights of vertex v of
    cell c, and images, shape (m, k+1, 2n+1), holding that vertex's image.
    Both are validated once, on construction.  The cells tile Delta^k with
    disjoint interiors.  eval solves each cell's barycentric system with
    precomputed inverses and picks the lowest-index cell containing the
    query point (weights >= -1e-12); exact queries at a cell vertex return
    the stored image unchanged.
    """

    def __init__(self, k: int, n: int, domain, images,
                 descriptor: SimplexDescriptor, meta: Optional[dict] = None):
        if k < 0:
            raise ValueError("dimension must be >= 0")
        if n < 1:
            raise ValueError("group index must be >= 1")
        domain = np.asarray(domain, dtype=float)
        images = np.asarray(images, dtype=float)
        if domain.ndim != 3 or not len(domain):
            raise ValueError("a map needs at least one cell")
        if domain.shape[1:] != (k + 1, k + 1):
            raise ValueError("cell arity does not match dimension")
        if images.shape != (len(domain), k + 1, 2 * n + 1):
            raise ValueError("cell images do not match the cells or the group index")
        if not np.isfinite(images).all():
            raise ValueError("coordinates must be finite")
        _check_weights(domain)
        self.k = k
        self.n = n
        self.domain = domain.view()
        self.images = images.view()
        self.domain.flags.writeable = False  # maps are shared through face caches
        self.images.flags.writeable = False
        self.descriptor = descriptor
        self.meta = dict(meta) if meta else {}
        self._inv = None

    def _inverse(self) -> np.ndarray:
        """Per cell, the inverse of the matrix whose columns are the domain vertices."""
        if self._inv is None:
            self._inv = np.linalg.inv(self.domain.transpose(0, 2, 1))
        return self._inv

    def _weights(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every cell's barycentric weights of every point, (P, cells, k+1),
        and their minimum, (P, cells)."""
        lam = np.matmul(self._inverse()[None], points[:, None, :, None])[..., 0]
        # the minimum over slices is much faster than min() along a short last axis
        low = lam[..., 0]
        for i in range(1, self.k + 1):
            low = np.minimum(low, lam[..., i])
        return lam, low

    def eval_many(self, points: Sequence) -> np.ndarray:
        """Images of Barycentric points or rows of k+1 weights, as (P, 2n+1).

        The weights follow Barycentric's rules.  Each point goes to the
        lowest-index cell containing it, else to the nearest cell within
        1e-9; a point at a vertex of that cell returns the stored image.
        """
        rows = [p.s if isinstance(p, Barycentric) else p for p in points]
        s = _check_weights(rows) if rows else np.empty((0, self.k + 1))
        if s.ndim != 2 or s.shape[1] != self.k + 1:
            raise ValueError("barycentric point has the wrong dimension")
        step = max(1, 65536 // len(self.domain))  # bounds the (step, cells, k+1) weights
        return np.concatenate([self._interpolate(s[lo:lo + step])
                               for lo in range(0, max(len(s), 1), step)])

    def _interpolate(self, s: np.ndarray) -> np.ndarray:
        lam, mins = self._weights(s)
        inside = mins >= -BARY_TOL
        cell = np.where(inside.any(axis=1), inside.argmax(axis=1), mins.argmax(axis=1))
        at = np.arange(len(s))
        if (mins[at, cell] < -1e-9).any():
            raise ValueError("point is not covered by any cell")
        out = (lam[at, cell][:, None, :] @ self.images[cell])[:, 0]
        hit = (self.domain[cell] == s[:, None, :]).all(axis=2)
        vertex = hit.any(axis=1)
        out[vertex] = self.images[cell[vertex], hit[vertex].argmax(axis=1)]
        return out

    def eval(self, s) -> HPoint:
        return HPoint(self.n, tuple(self.eval_many([s])[0].tolist()))


# ============================================================
# basic builders
# ============================================================


def _single_cell(vertices: Tuple[HPoint, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Domain and images of the one cell Delta^k -> vertices."""
    return np.eye(len(vertices))[None], np.array([[v.w for v in vertices]])


def _affine_rank_deficient(vertices: Sequence[HPoint]) -> bool:
    if len(vertices) == 1:
        return False
    rows = np.array([tuple(a - b for a, b in zip(v.w, vertices[0].w)) for v in vertices[1:]])
    return np.linalg.matrix_rank(rows) < len(vertices) - 1


def affine_simplex(vertices: Sequence[HPoint]) -> PLMap:
    """Coordinatewise barycentric interpolation of the vertex tuple.

    Degenerate vertex sets are allowed and only flagged in meta.
    """
    vertices = tuple(vertices)
    k = len(vertices) - 1
    n = vertices[0].n
    desc = SimplexDescriptor(Builder.AFFINE, vertices, n)
    return PLMap(k, n, *_single_cell(vertices), desc,
                 {"degenerate": _affine_rank_deficient(vertices)})


def straight_simplex(vertices: Sequence[HPoint]) -> PLMap:
    """Group theoretic straight simplex through the vertex tuple.

    Built by iterated coning in exponential coordinates: translate the
    previous simplex so the new vertex sits at the identity, pass to the
    Lie algebra, extend by the affine cone with apex 0, and translate
    back.  Left translation is affine in its second argument and the cone
    over an affine base with the simplicial cone choice is again affine,
    so the recursion collapses cell by cell to barycentric interpolation
    of the vertices; the collapsed form is what gets stored, making
    eval agree with affine interpolation exactly and keeping the corner
    images bit identical to the inputs.
    """
    vertices = tuple(vertices)
    k = len(vertices) - 1
    n = vertices[0].n
    desc = SimplexDescriptor(Builder.STRAIGHT, vertices, n)
    return PLMap(k, n, *_single_cell(vertices), desc)


def cone_cells(base: PLMap, slot: int, apex_dom: Sequence[float],
               apex_img: HPoint) -> Tuple[np.ndarray, np.ndarray]:
    """Cone every cell of base into Delta^{k+1}; returns (domain, images).

    Each domain vertex gets a zero weight inserted at `slot` (the face
    inclusion opposite e_slot, as face_map), and the apex becomes the last
    vertex of every new cell; cone consistency checks rely on that
    ordering.
    """
    cells, verts, dims = base.images.shape
    domain = np.zeros((cells, verts + 1, verts + 1))
    domain[:, :verts, :slot] = base.domain[:, :, :slot]
    domain[:, :verts, slot + 1:] = base.domain[:, :, slot:]
    domain[:, verts] = apex_dom
    images = np.empty((cells, verts + 1, dims))
    images[:, :verts] = base.images
    images[:, verts] = apex_img.w
    return domain, images


def consistency_points(k: int, count: int, seed: int) -> np.ndarray:
    """Query points for map_consistency, one per row: count samples of
    Delta^k (sample_weights), its k+1 vertices and its edge midpoints."""
    rows = [sample_weights(k, count, seed), np.eye(k + 1)]
    for i, j in itertools.combinations(range(k + 1), 2):
        mid = np.zeros(k + 1)
        mid[i] = mid[j] = 0.5
        rows.append(mid[None])
    return np.concatenate(rows)


def map_consistency(m: PLMap, points: np.ndarray) -> Tuple[bool, float]:
    """Coverage and shared-face agreement of a map's cells at query points.

    points has one barycentric point of Delta^k per row (see
    consistency_points).  Returns (every point lies in some cell, worst
    value spread among all cells containing a point).  Points interior to
    one cell have a single container, so the spread is exercised exactly
    on shared faces.
    """
    lam, low = m._weights(points)
    inside = low >= -1e-9
    containers = inside.sum(axis=1)
    covered = bool((containers > 0).all())
    point, cell = np.nonzero(inside & (containers > 1)[:, None])
    if not point.size:
        return covered, 0.0
    vals = (lam[point, cell][:, None, :] @ m.images[cell])[:, 0]
    first = np.flatnonzero(np.r_[True, point[1:] != point[:-1]])
    spread = np.maximum.reduceat(vals, first) - np.minimum.reduceat(vals, first)
    return covered, float(spread.max())


def restrict_face(m: PLMap, i: int) -> PLMap:
    """Geometric i-th face: slice the cell complex along {s_i = 0}.

    Keeps the cells having a full facet on the slice (exactly k domain
    vertices with weight zero at slot i) and deletes that slot from their
    coordinates.  For straight simplexes this reproduces the straight
    simplex of the reduced vertex list exactly, and for hybrid simplexes
    the cells of the corresponding sub-simplex.
    """
    if m.k == 0:
        raise ValueError("a point has no faces")
    if not 0 <= i <= m.k:
        raise ValueError("face index out of range")
    on_face = np.abs(m.domain[:, :, i]) <= BARY_TOL
    keep = on_face.sum(axis=1) == m.k
    if not keep.any():
        raise ValueError("no cells lie on the requested face")
    picked = on_face[keep]
    domain = np.delete(m.domain[keep][picked], i, axis=1).reshape(-1, m.k, m.k)
    images = m.images[keep][picked].reshape(-1, m.k, 2 * m.n + 1)
    return PLMap(m.k - 1, m.n, domain, images, m.descriptor.drop_vertex(i))


# ============================================================
# chains
# ============================================================


# builder codes in Builder.value order, so sorting on the code sorts by name;
# a builder is looked up by its member or by its name
_BUILDERS = tuple(sorted(Builder, key=lambda b: b.value))
_CODE = {key: code for code, b in enumerate(_BUILDERS) for key in (b, b.value)}
MAX_TERMS = 2 ** 22  # the most terms a chain is built or read with


def _ints(values, factor=1) -> np.ndarray:
    """Integer coefficients as int64, or as Python ints (dtype object) where
    a sum or a product of `factor` of them could leave int64."""
    try:
        c = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)
    if len(c) and np.abs(c.astype(float)).max() * float(min(factor, 2 ** 64)) >= 2.0 ** 62:
        return c.astype(object)
    return c


def _value_rank(points: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows, in lexicographic value order;
    rows equal as numbers (0.0 == -0.0) share a rank."""
    order = np.lexsort(points.T[::-1])
    p = points[order]
    rank = np.empty(len(points), np.int64)
    rank[order] = np.cumsum(np.r_[True, (p[1:] != p[:-1]).any(axis=1)]) - 1
    return rank


def _term_order(rank: np.ndarray, ids: np.ndarray, codes: np.ndarray):
    """A stable sort of terms by builder code, then vertex ranks, and the
    sorted integer keys, (T, k+2)."""
    keys = np.column_stack([codes, rank[ids]]).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    return order, keys[order]


class Chain:
    """Finite integer combination of simplexes of one degree, held as arrays.

    A vertex table `points` (V, 2n+1); per term, its vertex rows `ids`
    (T, k+1), a builder code `codes` (Builder.value order) and `coeffs`,
    int64 or, where that could overflow, Python ints.  `rank` numbers the
    rows by value (0.0 == -0.0), so terms merge and sort on integer keys.
    No term is zero, no two are equal, and each keeps the place and the
    spelling it first came with, as in a dict.  `terms` is the chain as a
    {SimplexDescriptor: coeff} dict, built on first use.  Degree -1 appears
    only as the boundary of a 0-chain.
    """

    def __init__(self, k: int, n: int, terms: Optional[Dict[SimplexDescriptor, int]] = None):
        clean: Dict[SimplexDescriptor, int] = {}
        for desc, coeff in (terms or {}).items():
            if type(coeff) is not int:  # bool is an int subclass; JSON would write true
                raise ValueError("chain coefficients must be integers")
            if coeff == 0:
                continue
            if desc.k != k:
                raise ValueError("chain degree mismatch")
            if desc.n != n:
                raise ValueError("group index mismatch")
            clean[desc] = coeff
        points = np.array([v.w for d in clean for v in d.vertices], dtype=float).reshape(-1, 2 * n + 1)
        vars(self).update(vars(Chain._of(
            k, n, points, _value_rank(points), np.arange(len(points)).reshape(len(clean), k + 1),
            np.array([_CODE[d.builder.value] for d in clean], dtype=np.int8),
            _ints(list(clean.values())), merge=False)), _terms=clean)

    @classmethod
    def _of(cls, k, n, points, rank, ids, codes, coeffs, merge: bool = True) -> "Chain":
        """The chain of the given arrays; with merge, equal terms are summed
        and zeros dropped, each survivor where it first appeared."""
        if merge and len(codes):
            order, keys = _term_order(rank, ids, codes)
            starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
            coeffs = np.add.reduceat(_ints(coeffs, np.diff(starts, append=len(order)).max())[order],
                                     starts)
            first = order[starts]  # the sort is stable: a group's first row comes first
            live = np.flatnonzero(coeffs != 0)
            live = live[np.argsort(first[live])]
            ids, codes, coeffs = ids[first[live]], codes[first[live]], coeffs[live]
        chain = cls.__new__(cls)
        vars(chain).update(k=k, n=n, points=points, rank=rank, ids=ids, codes=codes,
                           coeffs=coeffs, _terms=None)
        return chain

    @property
    def terms(self) -> Dict[SimplexDescriptor, int]:
        if self._terms is None:
            pts = [HPoint(self.n, tuple(w)) for w in self.points.tolist()]
            self._terms = {
                SimplexDescriptor(_BUILDERS[code], tuple(pts[i] for i in row), self.n): coeff
                for row, code, coeff in zip(self.ids.tolist(), self.codes.tolist(),
                                            self.coeffs.tolist())}
        return self._terms

    def sort_order(self) -> np.ndarray:
        """Term indices sorted by builder name, then vertex coordinates."""
        return _term_order(self.rank, self.ids, self.codes)[0]

    def items_sorted(self) -> List[Tuple[SimplexDescriptor, int]]:
        items = list(self.terms.items())
        return [items[i] for i in self.sort_order().tolist()]

    def coeff(self, desc: SimplexDescriptor) -> int:
        return self.terms.get(desc, 0)

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.k == other.k and self.n == other.n
                and len(self) == len(other) and (self - other).is_zero())

    def __add__(self, other: "Chain") -> "Chain":
        if self.k != other.k:
            raise ValueError("chain degree mismatch")
        if self.n != other.n:
            raise ValueError("group index mismatch")
        shared = self.points is other.points
        points = self.points if shared else np.concatenate([self.points, other.points])
        return Chain._of(self.k, self.n, points, self.rank if shared else _value_rank(points),
                         np.concatenate([self.ids, other.ids + (0 if shared else len(self.points))]),
                         np.concatenate([self.codes, other.codes]),
                         np.concatenate([self.coeffs, other.coeffs]))  # object if either is

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, c: int) -> "Chain":
        if type(c) is not int:
            raise ValueError("chain coefficients must be integers")
        keep = slice(None) if c else slice(0)
        return Chain._of(self.k, self.n, self.points, self.rank, self.ids[keep],
                         self.codes[keep], _ints(self.coeffs[keep], abs(c)) * c, merge=False)


def simplex_chain(desc: SimplexDescriptor, coeff: int = 1) -> Chain:
    return Chain(desc.k, desc.n, {desc: coeff})


def boundary(chain: Chain) -> Chain:
    """Combinatorial boundary: sum of (-1)^i vertex-dropped terms.

    The k+1 faces of every term, term by term, are merged in one sort of
    their integer keys.  The boundary of a 0-chain is the empty chain with
    the degree -1 sentinel, and taking it again stays empty.
    """
    k = chain.k
    if k <= 0:
        return Chain(-1, chain.n)
    keep = np.array([[j for j in range(k + 1) if j != i] for i in range(k + 1)])
    return Chain._of(k - 1, chain.n, chain.points, chain.rank,
                     chain.ids[:, keep].reshape(-1, k), np.repeat(chain.codes, k + 1),
                     (chain.coeffs[:, None] * np.where(np.arange(k + 1) % 2, -1, 1)).ravel())


# ============================================================
# serialization
# ============================================================


def _terms_text(chain: Chain) -> str:
    """chain_to_json(chain)["terms"] as json_text writes it one level deep,
    formatted from the arrays in blocks of terms; each vertex row used is
    spelled once, by float.__repr__ as json spells it."""
    if not len(chain):
        return "[]"
    vertex = "        [\n" + ",\n".join(["          %s"] * (2 * chain.n + 1)) + "\n        ]"
    term = ('    {\n      "coeff": %d,\n      "builder": "%s",\n      "vertices": [\n'
            + ",\n".join([vertex] * (chain.k + 1)) + "\n      ]\n    },\n")
    names = np.array([b.value for b in _BUILDERS], dtype=object)
    used, row = np.unique(chain.ids, return_inverse=True)
    spelled = np.array(list(map(float.__repr__, chain.points[used].ravel().tolist())),
                       dtype=object).reshape(len(used), -1)[row.reshape(chain.ids.shape)]
    order, parts = chain.sort_order(), []
    for sel in np.split(order, range(4096, len(order), 4096)):
        cells = np.empty((len(sel), 2 + spelled[0].size), dtype=object)
        cells[:, 0] = chain.coeffs[sel]  # an object array holds Python ints
        cells[:, 1] = names[chain.codes[sel]]
        cells[:, 2:] = spelled[sel].reshape(len(sel), -1)
        parts.append((term * len(sel)) % tuple(cells.ravel().tolist()))
    return "[\n" + "".join(parts)[:-2] + "\n  ]"


def json_text(doc) -> str:
    """json.dumps(doc, indent=2) plus a newline."""
    return json.dumps(doc, indent=2) + "\n"


def chain_text(chain: Chain, extra: Optional[dict] = None) -> str:
    """json_text(chain_to_json(chain, extra)), byte for byte, with the terms
    written from the arrays rather than by json's Python encoder; the keys
    of extra must be strings."""
    doc = {"k": chain.k, "n": chain.n, "terms": chain, **(extra or {})}
    if any(type(key) is not str for key in doc):
        raise ValueError("chain document keys must be strings")
    # JSON text has no raw newline inside a string, so each line shifts a level
    return "{\n  " + ",\n  ".join([json.dumps(key) + ": " + (
        _terms_text(chain) if value is chain else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in doc.items()]) + "\n}\n"


def chain_to_json(chain: Chain, extra: Optional[dict] = None) -> dict:
    order = chain.sort_order()
    doc = {"k": chain.k, "n": chain.n, "terms": [
        {"coeff": coeff, "builder": _BUILDERS[code].value, "vertices": vertices}
        for coeff, code, vertices in zip(chain.coeffs[order].tolist(), chain.codes[order].tolist(),
                                         chain.points[chain.ids[order]].tolist())]}
    doc.update(extra or {})
    return doc


def _check_terms(doc_terms: list, k: int, n: int) -> None:
    """Check the terms one at a time; the first bad term raises, naming it."""
    for index, term in enumerate(doc_terms):
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"term {index}: coeff must be an integer, got {coeff!r}")
        vertices = term["vertices"]
        if len(vertices) != k + 1:
            raise ValueError(f"term {index}: a {k}-chain term needs {k + 1} vertices, "
                             f"got {len(vertices)}")
        for coords in vertices:
            for c in coords:
                # float() of an int beyond the float range raises OverflowError
                if type(c) is not float and (type(c) is not int or abs(c) > sys.float_info.max):
                    raise ValueError(f"term {index}: coordinates must be numbers in the "
                                     f"float range, got {c!r}")
        for coords in vertices:
            HPoint(n, tuple(map(float, coords)))
        Builder(term["builder"])
        if k < 0:
            raise ValueError("descriptor needs at least one vertex")


def chain_from_json(doc: dict) -> Chain:
    """Parse a chain document, coercing nothing: k, n and each coeff must be
    ints, terms a list of at most MAX_TERMS, each coordinate a float or an
    int in float range, and each term k+1 vertices.  A ValueError names the
    term index of a bad term."""
    k, n, doc_terms = doc["k"], doc["n"], doc["terms"]
    for name, value, low in (("k", k, -1), ("n", n, 1)):
        if type(value) is not int:  # bool is an int subclass; JSON would write true
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:  # k = -1 is the boundary of a 0-chain
            raise ValueError(f"{name} must be at least {low}, got {value}")
    if type(doc_terms) is not list:
        raise ValueError(f"terms must be a list, got {type(doc_terms).__name__}")
    if len(doc_terms) > MAX_TERMS:
        raise ValueError(f"the chain has {len(doc_terms)} terms; at most {MAX_TERMS} are read")
    shape = (len(doc_terms), k + 1, 2 * n + 1)
    try:  # all terms in one array; a term that does not fit is found one at a time
        coeffs = [term["coeff"] for term in doc_terms]
        codes = [_CODE[term["builder"]] for term in doc_terms]
        vertices = [term["vertices"] for term in doc_terms]
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(vertices))
        if not (set(map(type, coeffs)) <= {int} and set(map(type, flat)) <= {float, int}):
            raise TypeError("not plain")
        points = np.array(vertices, dtype=float) if doc_terms else np.empty(shape)
        if points.shape != shape or not np.isfinite(points).all():
            raise ValueError("not a k-chain")
    except (KeyError, TypeError, ValueError, OverflowError):
        _check_terms(doc_terms, k, n)
        raise  # _check_terms refuses every document the array cannot hold
    rows = points.reshape(-1, 2 * n + 1)
    ids = rank = _value_rank(rows)
    if np.signbit(rows[rows == 0.0]).any():  # 0.0 and -0.0: each row keeps its spelling
        points, ids = rows, np.arange(len(rows))
    else:  # equal values are equal bits, so each vertex is one row of the table
        points = np.empty((int(rank.max(initial=-1)) + 1, 2 * n + 1))
        points[rank] = rows
        rank = np.arange(len(points))
    return Chain._of(k, n, points, rank, ids.reshape(len(coeffs), k + 1),
                     np.array(codes, dtype=np.int8), _ints(coeffs))
