"""Piecewise linear singular simplexes and integer chains.

A singular simplex is represented by a PLMap: a finite set of affine cells
tiling the standard simplex Delta^k, each cell carrying its own image
vertices in the group.  Evaluation locates the cell containing a
barycentric point and interpolates that cell's images coordinatewise.

Identity of simplexes for chain arithmetic is the SimplexDescriptor
(builder tag, ordered vertex tuple, group index).  Two terms cancel only
when their descriptors compare equal, so triangulation code must produce
vertex coordinates bit for bit identically for shared faces; grids do so
by building one point per integer lattice point (triangulation.triangulate_region).

Boundaries are combinatorial: the i-th face of a descriptor drops vertex i
with sign (-1)^i, so d(d(chain)) = 0 holds exactly over the integers.
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
from json.encoder import encode_basestring_ascii
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
    tolerance is applied anywhere in chain arithmetic.  The hash is
    computed once, on construction, from the builder tag, the coordinate
    tuples and n; it is process-local, so pickling drops it and an
    unpickled copy computes it on first use.
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
        object.__setattr__(self, "_hash", self._compute_hash())

    def _compute_hash(self) -> int:
        return hash((self.builder.value, tuple(v.w for v in self.vertices), self.n))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._compute_hash()
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

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

    def sort_key(self):
        return (self.builder.value, tuple(v.w for v in self.vertices))


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


class Chain:
    """Finite integer combination of simplex descriptors of one degree.

    Zero coefficients are dropped on construction; the empty chain is the
    zero element.  Degree -1 appears only as the boundary of a 0-chain.
    """

    def __init__(self, k: int, n: int, terms: Optional[Dict[SimplexDescriptor, int]] = None):
        self.k = k
        self.n = n
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
        self.terms = clean

    def items_sorted(self) -> List[Tuple[SimplexDescriptor, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, desc: SimplexDescriptor) -> int:
        return self.terms.get(desc, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain) and self.k == other.k
                and self.n == other.n and self.terms == other.terms)

    def __add__(self, other: "Chain") -> "Chain":
        if self.k != other.k:
            raise ValueError("chain degree mismatch")
        if self.n != other.n:
            raise ValueError("group index mismatch")
        terms = dict(self.terms)
        for desc, coeff in other.terms.items():
            terms[desc] = terms.get(desc, 0) + coeff
        return Chain(self.k, self.n, terms)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, c: int) -> "Chain":
        if type(c) is not int:
            raise ValueError("chain coefficients must be integers")
        return Chain(self.k, self.n, {d: c * v for d, v in self.terms.items()})


def simplex_chain(desc: SimplexDescriptor, coeff: int = 1) -> Chain:
    return Chain(desc.k, desc.n, {desc: coeff})


def boundary(chain: Chain) -> Chain:
    """Combinatorial boundary: sum of (-1)^i vertex-dropped descriptors.

    The boundary of a 0-chain is the empty chain with the degree -1
    sentinel, and taking it again stays empty.
    """
    if chain.k <= 0:
        return Chain(-1, chain.n)
    out: Dict[SimplexDescriptor, int] = {}
    for desc, coeff in chain.terms.items():
        verts, builder = desc.vertices, desc.builder
        for i in range(len(verts)):
            face = SimplexDescriptor(builder, verts[:i] + verts[i + 1:], chain.n)
            out[face] = out.get(face, 0) + (coeff if i % 2 == 0 else -coeff)
    return Chain(chain.k - 1, chain.n, out)


# ============================================================
# serialization
# ============================================================


_encode_scalar = json.JSONEncoder().encode


def _indented(obj, indent: str) -> str:
    """json.dumps(obj, indent=2) as it reads nested at `indent`."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if (kind is list or kind is tuple) and obj:
        try:
            body = (",\n" + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            body = None
        # json writes a finite float as float.__repr__ does; only nan and
        # inf have an "n" in that spelling, and json writes NaN, Infinity
        if body is None or "n" in body:
            body = (",\n" + inner).join([_indented(item, inner) for item in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if kind is dict and obj and all(type(key) is str for key in obj):
        body = (",\n" + inner).join([encode_basestring_ascii(key) + ": " + _indented(value, inner)
                                     for key, value in obj.items()])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple, dict)):
        # empty, a subclass, or keys json converts itself; JSON text has no
        # raw newline inside a string, so each line shifts to the depth
        return json.dumps(obj, indent=2).replace("\n", "\n" + indent)
    return _encode_scalar(obj)


def json_text(doc) -> str:
    """json.dumps(doc, indent=2) plus a newline, byte for byte.

    Built from joined strings rather than json's pure-Python indenting
    encoder, which spends most of its time on the coordinate lists of
    chain documents.
    """
    return _indented(doc, "") + "\n"


def chain_to_json(chain: Chain, extra: Optional[dict] = None) -> dict:
    doc = {
        "k": chain.k,
        "n": chain.n,
        "terms": [
            {
                "coeff": coeff,
                "builder": desc.builder.value,
                "vertices": [list(v.w) for v in desc.vertices],
            }
            for desc, coeff in chain.items_sorted()
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def chain_from_json(doc: dict) -> Chain:
    """Parse a chain document, coercing nothing: k, n and each coeff must be
    ints, terms a list, each coordinate a float or an int in float range, and
    each term k+1 vertices.  A ValueError names the term index of a bad term."""
    k, n, doc_terms = doc["k"], doc["n"], doc["terms"]
    for name, value, low in (("k", k, -1), ("n", n, 1)):
        if type(value) is not int:  # bool is an int subclass; JSON would write true
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:  # k = -1 is the boundary of a 0-chain
            raise ValueError(f"{name} must be at least {low}, got {value}")
    if type(doc_terms) is not list:
        raise ValueError(f"terms must be a list, got {type(doc_terms).__name__}")
    terms: Dict[SimplexDescriptor, int] = {}
    # Terms of a chain share most of their vertices, so equal coordinates
    # become one HPoint.  Coordinates with a zero are not shared: 0.0 ==
    # -0.0, and each point keeps the sign it was written with.
    points: Dict[Tuple[float, ...], HPoint] = {}

    def point(coords) -> HPoint:
        w = tuple(map(float, coords))
        got = points.get(w)
        if got is None:
            got = HPoint(n, w)
            if 0.0 not in w:
                points[w] = got
        return got

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
        verts = tuple(point(v) for v in vertices)
        desc = SimplexDescriptor(Builder(term["builder"]), verts, n)
        terms[desc] = terms.get(desc, 0) + coeff
    return Chain(k, n, terms)
