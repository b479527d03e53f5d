"""Triangulation of combinatorial cubes by increasing vertex maps.

A k-cube with corners indexed by {0,1}^k is cut into k! simplexes, one per
maximal strictly increasing chain from the all-zeros string to the
all-ones string (each step raises exactly one coordinate, so chains
correspond to permutations of the axes).  The chain of the triangulation
weights each simplex by the sign of the determinant of its vertex
difference rows, which is the parity of that permutation.  The k! chains
and their signs (the Freudenthal/Kuhn triangulation) are the same for
every cube and are computed once per k.

Exact cancellation is the load-bearing property: both the interior faces
of one cube and the shared faces of adjacent grid cubes must cancel in
the boundary chain.  Chains cancel terms whose builders and vertex
coordinates agree exactly, so a grid's vertex table holds each integer
lattice point once, at eps * (integer base + bit) with the integer
addition first; adjacent cubes then share vertex rows and no tolerance
is ever needed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import HPoint
from .grid import Cube, _box
from .horizontal import build_map
from .simplex import _CODE, MAX_TERMS, Builder, Chain, _value_rank, chain_text

__all__ = [
    "IncreasingMap",
    "CornerAssignment",
    "TriangulationChain",
    "increasing_maps",
    "orientation_sign",
    "triangulate_cube",
    "triangulate_region",
    "export_mesh",
]

Bits = Tuple[int, ...]


@dataclass(frozen=True)
class IncreasingMap:
    """A maximal chain 0..0 -> 1..1 in the componentwise order on {0,1}^k."""

    k: int
    seq: Tuple[Bits, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(tuple(int(b) for b in s) for s in self.seq))
        if len(self.seq) != self.k + 1:
            raise ValueError("chain length must be k+1")
        if any(len(s) != self.k for s in self.seq):
            raise ValueError("strings must have k bits")
        if self.k == 0:
            return
        if any(b != 0 for b in self.seq[0]) or any(b != 1 for b in self.seq[-1]):
            raise ValueError("chain must run from all zeros to all ones")
        for a, b in zip(self.seq, self.seq[1:]):
            diffs = [y - x for x, y in zip(a, b)]
            if sorted(diffs) != [0] * (self.k - 1) + [1]:
                raise ValueError("consecutive strings must raise exactly one bit")


@functools.lru_cache(maxsize=None)
def _kuhn_maps(k: int) -> Tuple[Tuple[IncreasingMap, ...], np.ndarray, np.ndarray]:
    """The k! increasing maps in increasing_maps order, their corner bits,
    (k!, k+1, k), and their orientation signs."""
    if k < 0:
        raise ValueError("dimension must be >= 0")
    maps = sorted((IncreasingMap(k, tuple(tuple(int(axis in perm[:i]) for axis in range(k))
                                          for i in range(k + 1)))
                   for perm in itertools.permutations(range(k))), key=lambda m: m.seq)
    return (tuple(maps), np.array([m.seq for m in maps]).reshape(len(maps), k + 1, k),
            np.array([orientation_sign(m) for m in maps]))


def increasing_maps(k: int) -> List[IncreasingMap]:
    """All k! maximal chains, sorted lexicographically by their sequences."""
    return list(_kuhn_maps(k)[0])


def orientation_sign(s: IncreasingMap) -> int:
    """Sign of det of the rows s(i) - s(0).

    Row i is the sum of the unit vectors of the first i raised axes, so
    subtracting each row from the next leaves a permutation matrix: the
    sign is the parity of the axis-raising order (by inversion count).
    """
    order = [next(i for i in range(s.k) if b[i] != a[i]) for a, b in zip(s.seq, s.seq[1:])]
    inversions = sum(1 for i, x in enumerate(order) for y in order[i + 1:] if x > y)
    return -1 if inversions % 2 else 1


# ============================================================
# corner assignments and triangulation chains
# ============================================================


@dataclass(frozen=True)
class CornerAssignment:
    """The 2^k corner points of a combinatorial k-cube in H^n."""

    k: int
    n: int
    corners: Tuple[Tuple[Bits, HPoint], ...]

    def __post_init__(self):
        pairs = tuple(sorted((tuple(int(b) for b in bits), p) for bits, p in self.corners))
        object.__setattr__(self, "corners", pairs)
        if len(pairs) != 2 ** self.k:
            raise ValueError(f"expected {2 ** self.k} corners")
        seen = {bits for bits, _ in pairs}
        if seen != set(itertools.product((0, 1), repeat=self.k)):
            raise ValueError("corner keys must enumerate {0,1}^k")
        for _, p in pairs:
            if p.n != self.n:
                raise ValueError("group index mismatch")

    def corner(self, bits: Bits) -> HPoint:
        return dict(self.corners)[tuple(int(b) for b in bits)]

    @classmethod
    def axis_aligned(cls, n: int, base: Sequence[int], eps: float,
                     axes: Sequence[int]) -> "CornerAssignment":
        """Corners of a sub-cube spanned along the given 1-based axes.

        Coordinates on the remaining axes stay at their base wall.  Corner
        floats are eps*(base+bit), integer sum first.
        """
        base = tuple(int(b) for b in base)
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValueError("axes must be distinct")
        pairs = []
        for bits in itertools.product((0, 1), repeat=len(axes)):
            full = list(base)
            for axis, bit in zip(axes, bits):
                full[axis - 1] += bit
            p = HPoint(n, tuple(eps * v for v in full))
            pairs.append((bits, p))
        return cls(len(axes), n, tuple(pairs))

    @classmethod
    def from_cube(cls, cube: Cube) -> "CornerAssignment":
        return cls.axis_aligned(cube.n, cube.base, cube.eps,
                                tuple(range(1, 2 * cube.n + 2)))


@dataclass(frozen=True)
class TriangulationChain:
    chain: Chain
    provenance: dict
    builder: Builder


def _kuhn_chain(k: int, n: int, builder: Builder, points: np.ndarray, bases: np.ndarray,
                strides: np.ndarray) -> Chain:
    """The sum of the k! signed simplexes of each cube; the corner with bits
    b of the cube at `bases[c]` is row bases[c] + b @ strides of points."""
    if builder not in (Builder.AFFINE, Builder.STRAIGHT, Builder.HYBRID):
        raise ValueError(f"builder {builder.value} is not a triangulation builder")
    if builder is Builder.HYBRID and k > 2 * n + 1:
        raise ValueError("dimension exceeds 2n+1")
    _, bits, signs = _kuhn_maps(k)
    ids = (bases[:, None, None] + (bits @ strides)[None]).reshape(-1, k + 1)
    # terms from different cubes differ, unless eps * v rounds two lattice
    # values or two corners together; the merge covers those cases
    return Chain._of(k, n, points, _value_rank(points), ids,
                     np.full(len(ids), _CODE[builder.value], np.int8), np.tile(signs, len(bases)))


def triangulate_cube(corners: CornerAssignment, builder: Builder) -> TriangulationChain:
    """The signed chain of k! simplexes cutting the corner cube."""
    builder, k = Builder(builder), corners.k
    points = np.array([p.w for _, p in corners.corners]).reshape(2 ** k, -1)
    chain = _kuhn_chain(k, corners.n, builder, points, np.zeros(1, np.int64),
                        2 ** np.arange(k - 1, -1, -1))
    return TriangulationChain(chain, {"kind": "cube", "k": k}, builder)


def triangulate_region(n: int, eps: float, lo: Sequence[int], hi: Sequence[int],
                       builder: Builder) -> TriangulationChain:
    """Sum of cube triangulations over the integer box [lo, hi).

    The vertex table is the lattice of the box, eps * (integer) per axis as
    in Cube.corner, numbered mixed-radix with the first axis most
    significant; every cube around a lattice point uses its one row, so
    shared faces carry identical vertices and cancel exactly in the
    boundary.  Terms come cube by cube in grid_cover order.  A box of more
    than MAX_TERMS terms, cubes * (2n+1)!, is refused before anything is built.
    """
    builder = Builder(builder)
    d = 2 * n + 1
    lo, hi = _box(n, lo, hi)
    Cube(n, lo, eps)  # checks n and eps as grid_cover's cubes do
    sides = [h - l for l, h in zip(lo, hi)]
    cubes = math.prod(sides)
    if cubes * math.factorial(d) > MAX_TERMS:
        raise ValueError(f"the box would have {cubes * math.factorial(d)} terms "
                         f"({cubes} cubes); a chain holds at most {MAX_TERMS}")
    axes = [[eps * v for v in range(l, h + 1)] if cubes else [] for l, h in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if not np.isfinite(points).all():
        raise ValueError("coordinates must be finite")
    strides = np.array([math.prod(s + 1 for s in sides[a + 1:]) for a in range(d)])
    bases = np.indices(sides).reshape(d, -1).T @ strides
    chain = _kuhn_chain(d, n, builder, points, bases, strides)
    prov = {"kind": "region", "eps": eps, "lo": list(lo), "hi": list(hi), "cubes": cubes}
    return TriangulationChain(chain, prov, builder)


# ============================================================
# mesh export
# ============================================================


def _triangle_lattice(s: int):
    """Sub-triangles of a barycentric triangle refined s times per edge."""
    points = [(i, j) for i in range(s + 1) for j in range(s + 1 - i)]
    vid = {p: idx for idx, p in enumerate(points)}
    tris = []
    for i in range(s):
        for j in range(s - i):
            tris.append((vid[i, j], vid[i + 1, j], vid[i, j + 1]))
            if i + j <= s - 2:
                tris.append((vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]))
    bary = [((s - i - j) / s, i / s, j / s) for i, j in points]
    return bary, tris


# the most cells export_mesh writes; a hybrid 16^3 box has about 1.4 million
_MAX_MESH_CELLS = 2 ** 22


def export_mesh(t: Union[TriangulationChain, Chain], format: str,
                samples_per_edge: int = 1) -> bytes:
    """Serialize a chain as OBJ triangles, a legacy VTK grid, or JSON.

    OBJ needs n=1 (three ambient coordinates) and a 2-chain; VTK needs n=1
    and a 2- or 3-chain (cell types 5 and 10).  A cell is written |coeff|
    times, flipped when coeff < 0, and more than 2**22 cells are refused.
    samples_per_edge refines triangles only.  Equal coordinates (0.0 and
    -0.0 alike) are one vertex, spelled as first seen.
    """
    chain = t.chain if isinstance(t, TriangulationChain) else t
    fmt = format.lower()
    if samples_per_edge < 1:
        raise ValueError("samples_per_edge must be >= 1")

    if fmt == "json":
        extra = ({"provenance": t.provenance, "builder": t.builder.value}
                 if isinstance(t, TriangulationChain) else None)
        return chain_text(chain, extra).encode()

    if chain.n != 1:
        if fmt == "obj":
            raise ValueError("OBJ export requires 3 ambient dimensions")
        raise ValueError("VTK export requires 3 ambient dimensions")
    if fmt == "obj" and chain.k != 2:
        raise ValueError("OBJ export emits triangles; need a 2-chain")
    if fmt == "vtk" and chain.k not in (2, 3):
        raise ValueError("VTK export needs a 2-chain or 3-chain")
    if chain.k == 3 and samples_per_edge > 1:
        raise ValueError("samples_per_edge > 1 is implemented for triangles only")
    if fmt not in ("obj", "vtk"):
        raise ValueError(f"unknown format {format!r}")

    k, order = chain.k, chain.sort_order()
    # an affine or straight map is one cell, its vertex tuple; the other
    # builders' maps are built, sharing one face cache
    built = ~np.isin(chain.codes[order], [_CODE["affine"], _CODE["straight"]])
    descs, faces = list(chain.terms) if built.any() else [], {}
    maps = [build_map(descs[i], faces).images for i in order[built].tolist()]
    sizes = np.ones(len(order), np.int64)
    sizes[built] = [len(m) for m in maps]
    coeffs = chain.coeffs[order]
    count = samples_per_edge ** 2 * sum(map(operator.mul, np.abs(coeffs).tolist(), sizes.tolist()))
    if count > _MAX_MESH_CELLS:
        raise ValueError(f"the mesh would have {count} cells; export writes at most "
                         f"{_MAX_MESH_CELLS}")
    at = np.cumsum(sizes) - sizes
    cells = np.empty((int(sizes.sum()), k + 1, 3))
    cells[at[~built]] = chain.points[chain.ids[order[~built]]]
    for start, m in zip(at[built].tolist(), maps):
        cells[start:start + len(m)] = m
    coeffs = np.repeat(coeffs, sizes).astype(np.int64)
    if samples_per_edge > 1 and count:  # an empty mesh builds no s^2 lattice
        bary, tris = _triangle_lattice(samples_per_edge)
        b = np.array(bary)[:, :, None]
        pts = 0.0  # from 0.0, left to right: refined coordinates depend on the order
        for i in range(3):
            pts = pts + b[:, i] * cells[:, None, i]
        cells = pts[:, np.array(tris)].reshape(-1, 3, 3)
        coeffs = np.repeat(coeffs, len(tris))

    # vertices numbered in order of first appearance, spelled as first seen
    flat = cells.reshape(-1, 3)
    rank = _value_rank(flat)
    first = np.unique(rank, return_index=True)[1]  # where each vertex first appears
    ids = np.argsort(np.argsort(first))[rank].reshape(-1, k + 1)
    flip = coeffs < 0
    ids[flip, :2] = ids[flip, 1::-1]
    ids = np.repeat(ids, np.abs(coeffs), axis=0)
    verts = flat[np.sort(first)]
    if fmt == "obj":
        return (_lines("v %r %r %r\n", verts) + _lines("f %d %d %d\n", ids + 1) or "\n").encode()
    return ("# vtk DataFile Version 3.0\nheistri mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {len(verts)} double\n" + _lines("%r %r %r\n", verts)
            + f"CELLS {len(ids)} {len(ids) * (k + 2)}\n"
            + _lines(f"{k + 1}" + " %d" * (k + 1) + "\n", ids)
            + f"CELL_TYPES {len(ids)}\n" + f"{5 if k == 2 else 10}\n" * len(ids)).encode()


def _lines(template: str, rows: np.ndarray) -> str:
    """template % row for each row, formatted in blocks of rows."""
    return "".join((template * len(block)) % tuple(block.ravel().tolist())
                   for block in np.split(rows, range(65536, len(rows), 65536)))
