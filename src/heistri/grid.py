"""Cube grids and H-regularity classification of their faces and subfaces.

The grid is the family of cubes with integer base p and side eps:
eps*p_i <= w_i <= eps*(p_i + 1).  Axis indices are 1-based throughout this
module: axes 1..2n are horizontal, axis 2n+1 is the t axis.  A face fixes
one axis at its LOW (F_j) or HIGH (E_j) wall; a subface fixes a second
axis as well.

Classification logic: the defining function of a face is affine, f = c - w_j.
For a horizontal axis the horizontal gradient is the constant -W_j, so the
face is a regular surface everywhere.  For the t axis the gradient is wt/2,
which vanishes exactly on the t axis; a t-perpendicular face is therefore
downgraded to INTERIOR_ONLY exactly when it meets the t axis, which for
integer bases can happen only at the face's boundary (0 is always an
endpoint of an integer interval containing it).  Touching the axis at a
single corner counts as meeting it.  Subfaces (n >= 2 only) follow the
same interval test through the wedge of the two defining gradients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple, Union

from .core import AffineScalarField, HPoint, LieVector, point_to_json

__all__ = [
    "Side",
    "Regularity",
    "Cube",
    "Face",
    "Subface",
    "RegularityReport",
    "grid_cover",
    "faces",
    "subfaces",
    "face_regularity",
    "subface_regularity",
    "wedge_horizontal",
    "report_to_json",
]


class Side(Enum):
    LOW = "LOW"
    HIGH = "HIGH"


class Regularity(Enum):
    FULL_SURFACE = "FULL_SURFACE"
    INTERIOR_ONLY = "INTERIOR_ONLY"


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube with integer base: eps*p_i <= w_i <= eps*(p_i+1)."""

    n: int
    base: Tuple[int, ...]
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        if self.n < 1:
            raise ValueError("group index must be >= 1")
        if len(self.base) != 2 * self.n + 1:
            raise ValueError(f"expected {2 * self.n + 1} base entries")
        if not all(isinstance(b, int) for b in self.base):
            raise ValueError("cube base must be an integer vector")
        if not self.eps > 0:
            raise ValueError("side length must be positive")

    def interval(self, axis: int) -> Tuple[float, float]:
        """Closed coordinate range along a 1-based axis."""
        b = self.base[axis - 1]
        return self.eps * b, self.eps * (b + 1)

    def corner(self, bits: Sequence[int]) -> HPoint:
        """Corner eps*(base + bits); integer addition happens first so
        adjacent cubes produce bit-identical shared corners."""
        if len(bits) != 2 * self.n + 1:
            raise ValueError("corner bits must cover every axis")
        return HPoint(self.n, tuple(self.eps * (b + int(c)) for b, c in zip(self.base, bits)))

    def contains(self, p: HPoint, tol: float = 0.0) -> bool:
        if p.n != self.n:
            raise ValueError("group index mismatch")
        for axis in range(1, 2 * self.n + 2):
            lo, hi = self.interval(axis)
            if not (lo - tol <= p.w[axis - 1] <= hi + tol):
                return False
        return True


@dataclass(frozen=True)
class Face:
    cube: Cube
    axis: int
    side: Side

    def __post_init__(self):
        if not 1 <= self.axis <= 2 * self.cube.n + 1:
            raise ValueError("axis out of range")

    @property
    def label(self) -> str:
        return f"{'F' if self.side is Side.LOW else 'E'}_{self.axis}"

    @property
    def level(self) -> float:
        b = self.cube.base[self.axis - 1]
        return self.cube.eps * (b if self.side is Side.LOW else b + 1)

    def level_is_zero(self) -> bool:
        b = self.cube.base[self.axis - 1]
        return (b if self.side is Side.LOW else b + 1) == 0

    def defining_field(self) -> AffineScalarField:
        """f = level - w_axis, which vanishes exactly on the face's plane."""
        n = self.cube.n
        lin = [0.0] * (2 * n + 1)
        lin[self.axis - 1] = -1.0
        return AffineScalarField(n, self.level, tuple(lin))

    def contains(self, p: HPoint, tol: float = 0.0) -> bool:
        return abs(p.w[self.axis - 1] - self.level) <= tol and self.cube.contains(p, tol)


@dataclass(frozen=True)
class Subface:
    """A face of a face: the first axis comes from the parent face."""

    cube: Cube
    axes: Tuple[int, int]
    sides: Tuple[Side, Side]

    def __post_init__(self):
        j, k = self.axes
        for a in self.axes:
            if not 1 <= a <= 2 * self.cube.n + 1:
                raise ValueError("axis out of range")
        if j == k:
            raise ValueError("subface axes must differ")

    @property
    def label(self) -> str:
        j, k = self.axes
        sj, sk = self.sides
        return (f"{'F' if sk is Side.LOW else 'E'}_{k},"
                f"{'F' if sj is Side.LOW else 'E'}_{j}")

    def face(self, which: int) -> Face:
        return Face(self.cube, self.axes[which], self.sides[which])


@dataclass(frozen=True)
class RegularityReport:
    subject: Union[Face, Subface]
    classification: Regularity
    codimension: int
    reason: str
    witnesses: Tuple[HPoint, ...]


# ============================================================
# enumeration
# ============================================================


def _box(n: int, lo: Sequence[int], hi: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The corners of the integer box [lo, hi) as int tuples, checked."""
    lo = tuple(int(v) for v in lo)
    hi = tuple(int(v) for v in hi)
    if len(lo) != 2 * n + 1 or len(hi) != 2 * n + 1:
        raise ValueError(f"bounds must have {2 * n + 1} entries")
    if any(h < l for l, h in zip(lo, hi)):
        raise ValueError("box upper bound lies below its lower bound")
    return lo, hi


def grid_cover(n: int, eps: float, lo: Sequence[int], hi: Sequence[int]) -> List[Cube]:
    """All grid cubes with base in the integer box [lo, hi)."""
    lo, hi = _box(n, lo, hi)
    ranges = [range(l, h) for l, h in zip(lo, hi)]
    return [Cube(n, base, eps) for base in itertools.product(*ranges)]


def faces(cube: Cube) -> List[Face]:
    out = []
    for axis in range(1, 2 * cube.n + 2):
        out.append(Face(cube, axis, Side.LOW))
        out.append(Face(cube, axis, Side.HIGH))
    return out


def subfaces(face: Face) -> List[Subface]:
    out = []
    for axis in range(1, 2 * face.cube.n + 2):
        if axis == face.axis:
            continue
        for side in (Side.LOW, Side.HIGH):
            out.append(Subface(face.cube, (face.axis, axis), (face.side, side)))
    return out


# ============================================================
# classification
# ============================================================


def _axis_interval_holds_zero(cube: Cube, axis: int) -> bool:
    # integer test: 0 in [eps*b, eps*(b+1)] iff b in {-1, 0}
    return -1 <= cube.base[axis - 1] <= 0


def _t_axis_point(cube: Cube, t_level: float) -> HPoint:
    return HPoint(cube.n, (0.0,) * (2 * cube.n) + (t_level,))


def face_regularity(face: Face) -> RegularityReport:
    n = face.cube.n
    t_axis = 2 * n + 1
    if face.axis != t_axis:
        reason = (f"defining function has horizontal derivative W_{face.axis} = -1 "
                  "everywhere, so the horizontal gradient never vanishes")
        return RegularityReport(face, Regularity.FULL_SURFACE, 1, reason, ())
    meets = all(_axis_interval_holds_zero(face.cube, a) for a in range(1, 2 * n + 1))
    if not meets:
        reason = ("face is perpendicular to the t-axis but does not meet it; "
                  "the horizontal gradient wt/2 is nonzero on the whole face")
        return RegularityReport(face, Regularity.FULL_SURFACE, 1, reason, ())
    witness = _t_axis_point(face.cube, face.level)
    reason = ("face is perpendicular to the t-axis and meets it at a boundary "
              "point where the horizontal gradient wt/2 vanishes")
    return RegularityReport(face, Regularity.INTERIOR_ONLY, 1, reason, (witness,))


def subface_regularity(sf: Subface) -> RegularityReport:
    n = sf.cube.n
    if n == 1:
        raise ValueError("no 2-codimensional statement for n=1")
    t_axis = 2 * n + 1
    j, k = sf.axes
    if j != t_axis and k != t_axis:
        reason = (f"wedge of the two defining gradients is the constant bivector "
                  f"W_{j} ^ W_{k}, never zero")
        return RegularityReport(sf, Regularity.FULL_SURFACE, 2, reason, ())

    which_t = 0 if j == t_axis else 1
    horiz_axis = sf.axes[1 - which_t]
    horiz_face = sf.face(1 - which_t)
    t_face = sf.face(which_t)
    meets = horiz_face.level_is_zero() and all(
        _axis_interval_holds_zero(sf.cube, a)
        for a in range(1, 2 * n + 1) if a != horiz_axis
    )
    if not meets:
        reason = ("subface does not meet the t-axis; the wedge of the defining "
                  "gradients is nonzero on the whole subface")
        return RegularityReport(sf, Regularity.FULL_SURFACE, 2, reason, ())
    witness = _t_axis_point(sf.cube, t_face.level)
    reason = ("subface meets the t-axis at a boundary point, where the wedge "
              "of the defining gradients vanishes")
    return RegularityReport(sf, Regularity.INTERIOR_ONLY, 2, reason, (witness,))


def wedge_horizontal(u: LieVector, v: LieVector) -> Dict[Tuple[int, int], float]:
    """Sparse coefficients of the bivector u ^ v over pairs W_a ^ W_b, a < b.

    Only horizontal slots enter; coefficients are exact products, so a zero
    wedge is detected exactly.  Keys are 1-based axis pairs.
    """
    if u.n != v.n:
        raise ValueError("group index mismatch")
    n = u.n
    out: Dict[Tuple[int, int], float] = {}
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            c = u.w[a] * v.w[b] - u.w[b] * v.w[a]
            if c != 0.0:
                out[(a + 1, b + 1)] = c
    return out


# ============================================================
# serialization
# ============================================================


def _cube_json(cube: Cube) -> dict:
    return {"n": cube.n, "base": list(cube.base), "eps": cube.eps}


def report_to_json(rep: RegularityReport) -> dict:
    subj = rep.subject
    if isinstance(subj, Face):
        key, desc = "face", {
            "cube": _cube_json(subj.cube),
            "axis": subj.axis,
            "side": subj.side.value,
            "label": subj.label,
        }
    else:
        key, desc = "subface", {
            "cube": _cube_json(subj.cube),
            "axes": list(subj.axes),
            "sides": [s.value for s in subj.sides],
            "label": subj.label,
        }
    return {
        key: desc,
        "classification": rep.classification.value,
        "codimension": rep.codimension,
        "reason": rep.reason,
        "witnesses": [point_to_json(w) for w in rep.witnesses],
    }
