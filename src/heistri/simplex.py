"""Piecewise linear singular simplexes and integer chains.

A singular simplex is represented by a PLMap: a finite set of affine cells
tiling the standard simplex Delta^k, each cell carrying its own image
vertices in the group.  Evaluation locates the cell containing a
barycentric point and interpolates that cell's images coordinatewise.

Identity of simplexes for chain arithmetic is the SimplexDescriptor
(builder tag, ordered vertex tuple, group index).  Two terms cancel only
when their descriptors compare equal, so triangulation code must produce
vertex coordinates bit for bit identically for shared faces; see
triangulation.CornerAssignment for how grids guarantee that.

Boundaries are combinatorial: the i-th face of a descriptor drops vertex i
with sign (-1)^i, so d(d(chain)) = 0 holds exactly over the integers.
restrict_face computes the geometric counterpart on PLMaps by slicing the
cell complex along a facet of Delta^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import HPoint, point_from_json, point_to_json

__all__ = [
    "BARY_TOL",
    "Barycentric",
    "PLCell",
    "PLMap",
    "Builder",
    "SimplexDescriptor",
    "Chain",
    "barycentric_vertex",
    "standard_simplex",
    "barycenter",
    "sample_barycentric",
    "face_map",
    "affine_simplex",
    "straight_simplex",
    "restrict_face",
    "map_consistency",
    "cone_cells",
    "simplex_chain",
    "boundary",
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
        object.__setattr__(self, "s", tuple(float(c) for c in self.s))
        if len(self.s) != self.k + 1:
            raise ValueError(f"expected {self.k + 1} weights for k={self.k}")
        if any(c < -BARY_TOL for c in self.s):
            raise ValueError("barycentric weights must be nonnegative")
        if abs(math.fsum(self.s) - 1.0) > BARY_TOL:
            raise ValueError("barycentric weights must sum to 1")


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


def sample_barycentric(k: int, count: int, seed: int) -> List[Barycentric]:
    """Deterministic uniform samples of Delta^k (Dirichlet(1,..,1))."""
    rng = np.random.default_rng(seed)
    out = []
    for row in rng.dirichlet(np.ones(k + 1), size=count):
        s = [float(c) for c in row]
        s[-1] = 1.0 - math.fsum(s[:-1])
        out.append(Barycentric(k, tuple(s)))
    return out


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
    computed once, on first use, from the builder tag, the coordinate
    tuples and n; it is process-local, so pickling drops it.
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

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.builder.value, tuple(v.w for v in self.vertices), self.n))
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


@dataclass(frozen=True)
class PLCell:
    """One affine cell: k+1 barycentric domain vertices and their images."""

    domain: Tuple[Barycentric, ...]
    images: Tuple[HPoint, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.images):
            raise ValueError("domain/image vertex count mismatch")


class PLMap:
    """A piecewise linear map Delta^k -> H^n given by affine cells.

    The cells tile Delta^k with disjoint interiors.  eval solves each
    cell's barycentric system with precomputed inverses and picks the
    lowest-index cell containing the query point (weights >= -1e-12);
    exact queries at a cell vertex return the stored image unchanged.
    """

    def __init__(self, k: int, n: int, cells: Sequence[PLCell],
                 descriptor: SimplexDescriptor, meta: Optional[dict] = None):
        if k < 0:
            raise ValueError("dimension must be >= 0")
        cells = tuple(cells)
        if not cells:
            raise ValueError("a map needs at least one cell")
        for cell in cells:
            if len(cell.domain) != k + 1:
                raise ValueError("cell arity does not match dimension")
            for b in cell.domain:
                if b.k != k:
                    raise ValueError("cell domain lives in the wrong simplex")
            for p in cell.images:
                if p.n != n:
                    raise ValueError("group index mismatch")
        self.k = k
        self.n = n
        self.cells = cells
        self.descriptor = descriptor
        self.meta = dict(meta) if meta else {}
        self._loc = None

    def _location_data(self):
        if self._loc is None:
            m, k, n = len(self.cells), self.k, self.n
            dom = np.empty((m, k + 1, k + 1))
            img = np.empty((m, k + 1, 2 * n + 1))
            for ci, cell in enumerate(self.cells):
                for vi, b in enumerate(cell.domain):
                    dom[ci, :, vi] = b.s
                for vi, p in enumerate(cell.images):
                    img[ci, vi] = p.w
            self._loc = (np.linalg.inv(dom), img)
        return self._loc

    def _coerce(self, s) -> Barycentric:
        if not isinstance(s, Barycentric):
            s = Barycentric(self.k, tuple(s))
        if s.k != self.k:
            raise ValueError("barycentric point has the wrong dimension")
        return s

    def locate(self, s) -> Tuple[int, np.ndarray]:
        """Return (cell index, cell barycentric weights) for a point."""
        s = self._coerce(s)
        inv, _ = self._location_data()
        lam = inv @ np.asarray(s.s)
        mins = lam.min(axis=1)
        inside = np.nonzero(mins >= -BARY_TOL)[0]
        if inside.size:
            ci = int(inside[0])
        else:
            ci = int(np.argmax(mins))
            if mins[ci] < -1e-9:
                raise ValueError("point is not covered by any cell")
        return ci, lam[ci]

    def eval(self, s) -> HPoint:
        s = self._coerce(s)
        ci, lam = self.locate(s)
        cell = self.cells[ci]
        for vi, b in enumerate(cell.domain):
            if b.s == s.s:
                return cell.images[vi]
        _, img = self._location_data()
        return HPoint(self.n, tuple(float(c) for c in lam @ img[ci]))

    def eval_many(self, points: Sequence) -> List[HPoint]:
        return [self.eval(s) for s in points]

    def vertex_images(self) -> Tuple[HPoint, ...]:
        """Images of the corners e_0..e_k of Delta^k."""
        return tuple(self.eval(barycentric_vertex(self.k, i)) for i in range(self.k + 1))


# ============================================================
# basic builders
# ============================================================


def _standard_domain(k: int) -> Tuple[Barycentric, ...]:
    return tuple(barycentric_vertex(k, i) for i in range(k + 1))


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
    cell = PLCell(_standard_domain(k), vertices)
    return PLMap(k, n, (cell,), desc, {"degenerate": _affine_rank_deficient(vertices)})


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
    cell = PLCell(_standard_domain(k), vertices)
    return PLMap(k, n, (cell,), desc)


def cone_cells(base_cells: Sequence[PLCell], k_new: int, embed,
               apex_dom: Barycentric, apex_img: HPoint) -> Tuple[PLCell, ...]:
    """Cone every cell: embed its domain into Delta^{k_new}, append the apex.

    The apex is always the last vertex of each new cell; cone consistency
    checks rely on that ordering.
    """
    out = []
    for cell in base_cells:
        dom = tuple(embed(b) for b in cell.domain) + (apex_dom,)
        img = cell.images + (apex_img,)
        out.append(PLCell(dom, img))
    return tuple(out)


def map_consistency(m: PLMap, count: int, seed: int) -> Tuple[bool, float]:
    """Sampled coverage and shared-face agreement of a map's cells.

    Returns (every sample lies in some cell, worst value spread among all
    cells containing a sample).  Points interior to one cell have a single
    container, so the spread is exercised exactly on shared faces.
    """
    inv, img = m._location_data()
    covered = True
    worst = 0.0
    samples = sample_barycentric(m.k, count, seed)
    for i in range(m.k + 1):
        samples.append(barycentric_vertex(m.k, i))
    if m.k >= 1:
        for i in range(m.k + 1):
            for j in range(i + 1, m.k + 1):
                mid = [0.0] * (m.k + 1)
                mid[i] = mid[j] = 0.5
                samples.append(Barycentric(m.k, tuple(mid)))
    for s in samples:
        lam = inv @ np.asarray(s.s)
        inside = np.nonzero(lam.min(axis=1) >= -1e-9)[0]
        if inside.size == 0:
            covered = False
            continue
        vals = np.array([lam[ci] @ img[ci] for ci in inside])
        if len(vals) > 1:
            spread = float((vals.max(axis=0) - vals.min(axis=0)).max())
            worst = max(worst, spread)
    return covered, worst


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
    new_cells = []
    for cell in m.cells:
        picked = [vi for vi, b in enumerate(cell.domain) if abs(b.s[i]) <= BARY_TOL]
        if len(picked) != m.k:
            continue
        dom = tuple(Barycentric(m.k - 1, cell.domain[vi].s[:i] + cell.domain[vi].s[i + 1 :])
                    for vi in picked)
        img = tuple(cell.images[vi] for vi in picked)
        new_cells.append(PLCell(dom, img))
    if not new_cells:
        raise ValueError("no cells lie on the requested face")
    return PLMap(m.k - 1, m.n, new_cells, m.descriptor.drop_vertex(i))


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
        for i in range(desc.k + 1):
            face = desc.drop_vertex(i)
            sign = 1 if i % 2 == 0 else -1
            out[face] = out.get(face, 0) + sign * coeff
    return Chain(chain.k - 1, chain.n, out)


# ============================================================
# serialization
# ============================================================


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
    """Parse a chain document; a non-integer coeff or a vertex count other
    than k+1 is a ValueError naming the term index."""
    k = int(doc["k"])
    n = int(doc["n"])
    terms: Dict[SimplexDescriptor, int] = {}
    for index, term in enumerate(doc["terms"]):
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"term {index}: coeff must be an integer, got {coeff!r}")
        if len(term["vertices"]) != k + 1:
            raise ValueError(f"term {index}: a {k}-chain term needs {k + 1} vertices, "
                             f"got {len(term['vertices'])}")
        verts = tuple(HPoint(n, tuple(float(c) for c in v)) for v in term["vertices"])
        desc = SimplexDescriptor(Builder(term["builder"]), verts, n)
        terms[desc] = terms.get(desc, 0) + coeff
    return Chain(k, n, terms)
