"""Command line front end.

Subcommands: triangulate, boundary, check, regularity, hpath, export,
simplex.  Exit codes: 0 success, 1 invariant failure (check), 2 usage or
validation error.  stdout carries data only; diagnostics go to stderr.
Outputs are byte-identical across runs; the only randomized command is
check's spot sampling, which is seeded (--seed, default 0).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import grid as grid_mod
from .core import HPoint, dilate, mul, mul_coords, point_to_json
from .horizontal import (
    build_map,
    cone_relation_residual,
    exp_center_of_gravity,
    horizontal_path,
    map_segments,
    segment_residuals,
)
from .simplex import (
    Barycentric,
    Builder,
    Chain,
    SimplexDescriptor,
    boundary,
    chain_from_json,
    chain_text,
    consistency_points,
    json_text,
    map_consistency,
    sample_weights,
    simplex_chain,
)
from .triangulation import export_mesh, triangulate_region

__all__ = ["main"]


def _parse_ints(text: str, expect: int, what: str) -> Tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != expect:
        raise ValueError(f"{what} needs {expect} comma-separated entries")
    out = []
    for p in parts:
        p = p.strip()
        try:
            out.append(int(p))
        except ValueError:
            raise ValueError(f"{what} must contain integers, got {p!r}") from None
    return tuple(out)


def _parse_floats(text: str, expect: Optional[int], what: str) -> Tuple[float, ...]:
    parts = text.split(",")
    if expect is not None and len(parts) != expect:
        raise ValueError(f"{what} needs {expect} comma-separated entries")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must contain decimals") from None


def _write(path: str, data) -> None:
    """Write str or bytes to the file at path, or to stdout for "-"."""
    binary = isinstance(data, bytes)
    if path == "-":
        (sys.stdout.buffer if binary else sys.stdout).write(data)
        return
    with open(path, "wb" if binary else "w") as fh:
        fh.write(data)


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:  # raised by json for arrays or objects nested too deeply
        raise ValueError("malformed JSON input (nested too deeply)") from None


# ============================================================
# subcommands
# ============================================================


def cmd_triangulate(args) -> int:
    builder = Builder(args.builder)
    if (args.cube is None) == (args.box is None):
        raise ValueError("exactly one of --cube or --box is required")
    if args.eps <= 0:
        raise ValueError("--eps must be positive")
    dim = 2 * args.n + 1
    if args.cube is not None:
        lo = _parse_ints(args.cube, dim, "--cube")
        hi = tuple(v + 1 for v in lo)
    else:
        lo = _parse_ints(args.box[0], dim, "--box lower corner")
        hi = _parse_ints(args.box[1], dim, "--box upper corner")
    tc = triangulate_region(args.n, args.eps, lo, hi, builder)
    prov = {"kind": "cube", "eps": args.eps, "base": list(lo)} if args.cube else tc.provenance
    _write(args.output, chain_text(tc.chain, {"provenance": prov, "builder": builder.value}))
    return 0


def cmd_boundary(args) -> int:
    doc = _read_json(args.input)
    chain = chain_from_json(doc)
    _write(args.output, chain_text(boundary(chain)))
    return 0


def cmd_hpath(args) -> int:
    dim = 2 * args.n + 1
    p = HPoint(args.n, _parse_floats(getattr(args, "from"), dim, "--from"))
    q = HPoint(args.n, _parse_floats(args.to, dim, "--to"))
    path = horizontal_path(p, q)
    chain = sum((simplex_chain(SimplexDescriptor(Builder.AFFINE, ab, args.n))
                 for ab in map_segments(path)), Chain(1, args.n))
    _write(args.output, chain_text(chain, {
        "kind": "path",
        "endpoints": [point_to_json(p), point_to_json(q)],
        "segments": path.meta["segments"],
    }))
    return 0


def cmd_regularity(args) -> int:
    dim = 2 * args.n + 1
    if args.eps <= 0:
        raise ValueError("--eps must be positive")
    if args.subfaces and args.n == 1:
        raise ValueError("no 2-codimensional statement for n=1")
    base = _parse_ints(args.cube, dim, "--cube")
    cube = grid_mod.Cube(args.n, base, args.eps)
    reports = []
    for face in grid_mod.faces(cube):
        reports.append(grid_mod.report_to_json(grid_mod.face_regularity(face)))
        if args.subfaces:
            for sf in grid_mod.subfaces(face):
                reports.append(grid_mod.report_to_json(grid_mod.subface_regularity(sf)))
    _write(args.output, json_text(reports))
    return 0


def cmd_simplex(args) -> int:
    builder = Builder(args.builder)
    dim = 2 * args.n + 1
    verts = tuple(HPoint(args.n, _parse_floats(v, dim, "--vertices")) for v in args.vertices)
    desc = SimplexDescriptor(builder, verts, args.n)
    m = build_map(desc)
    if args.eval is not None:
        s = _parse_floats(args.eval, len(verts), "--eval")
        point = m.eval(Barycentric(m.k, s))
        _write(args.output, json_text(point_to_json(point)))
    else:
        _write(args.output, chain_text(simplex_chain(desc)))
    return 0


def cmd_export(args) -> int:
    doc = _read_json(args.input)
    chain = chain_from_json(doc)
    blob = export_mesh(chain, args.format, args.samples)
    _write(args.output, blob)
    return 0


# ============================================================
# check
# ============================================================


def _check_boundary(chain: Chain) -> dict:
    bb = boundary(boundary(chain))
    return {"name": "boundary_squared_zero", "passed": bb.is_zero(),
            "residual": float(len(bb)),
            "detail": "terms remaining after applying the boundary twice"}


def _check_horizontality(doc: dict, chain: Chain, tol: float, faces: dict) -> dict:
    n = chain.n
    segments = [np.empty((0, 2, 2 * n + 1))]
    if doc.get("kind") == "path" and chain.k == 1:
        segments.append(chain.points[chain.ids])
    else:
        for desc in chain.terms:
            if desc.builder is Builder.HYBRID:  # the horizontal layer is the 1-skeleton
                segments += [build_map(SimplexDescriptor(Builder.HYBRID, edge, n), faces).images
                             for edge in itertools.combinations(desc.vertices, 2)]
            elif desc.builder is Builder.HORIZONTAL_PATH and desc.k == 1:
                segments.append(build_map(desc, faces).images)
    seg = np.concatenate(segments)
    scaled = np.abs(segment_residuals(seg, n)) / (1.0 + np.abs(seg).max(axis=(1, 2), initial=0.0))
    worst = float(scaled.max(initial=0.0))
    return {"name": "horizontality", "passed": worst <= tol, "residual": worst,
            "detail": f"max scaled segment residual over {len(seg)} segments"}


def _check_cells(chain: Chain, tol: float, seed: int, faces: dict) -> dict:
    worst = 0.0
    covered = True
    points = {}
    for desc in chain.terms:
        if desc.k < 1:
            continue
        if desc.k not in points:
            points[desc.k] = consistency_points(desc.k, 20, seed)
        ok, res = map_consistency(build_map(desc, faces), points[desc.k])
        scale = 1.0 + max(abs(c) for v in desc.vertices for c in v.w)
        covered = covered and ok
        worst = max(worst, res / scale)
    passed = covered and worst <= tol
    return {"name": "cell_consistency", "passed": passed, "residual": worst,
            "detail": "coverage of the domain simplex and spread across shared cell faces"}


def _check_equivariance(chain: Chain, seed: int, faces: dict) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    terms = chain.items_sorted()[:3]
    for desc, _ in terms:
        if desc.k < 1:
            continue
        n = desc.n
        r = float(rng.uniform(0.5, 2.0))
        g = HPoint(n, tuple(rng.uniform(-1.0, 1.0, 2 * n + 1)))
        dil = build_map(SimplexDescriptor(desc.builder,
                                          tuple(dilate(r, v) for v in desc.vertices), n))
        tra = build_map(SimplexDescriptor(desc.builder,
                                          tuple(mul(g, v) for v in desc.vertices), n))
        s = sample_weights(desc.k, 5, seed + 1)
        ref = build_map(desc, faces).eval_many(s)
        dil_ref = np.concatenate([r * ref[:, : 2 * n], (r * r) * ref[:, 2 * n :]], axis=1)
        for other, img in ((dil, dil_ref), (tra, mul_coords(g.w, ref, n))):
            gap = np.abs(other.eval_many(s) - img).max(axis=1) / (1.0 + np.abs(img).max(axis=1))
            worst = max(worst, float(gap.max()))
    return {"name": "equivariance_spot", "passed": worst <= 1e-9, "residual": worst,
            "detail": f"max relative deviation under dilation/translation on {len(terms)} terms"}


def _check_cones(chain: Chain, tol: float, faces: dict) -> dict:
    worst = 0.0
    count = 0
    for desc in chain.terms:
        if desc.builder is not Builder.HYBRID or desc.k < 2:
            continue
        m = build_map(desc, faces)
        apex = m.meta["apex"]
        # the relation holds for any cells ending at the apex, so where the
        # apex sits (the exponential center of gravity) is checked as well
        center = exp_center_of_gravity(desc.vertices)
        drift = max(abs(a - b) for a, b in zip(apex.w, center.w))
        scale = 1.0 + max(abs(c) for v in desc.vertices for c in v.w)
        worst = max(worst, cone_relation_residual(m, apex) / scale, drift / scale)
        count += 1
    return {"name": "cone_relation", "passed": worst <= tol, "residual": worst,
            "detail": f"max scaled cone-relation residual over {count} hybrid terms"}


def cmd_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be a finite nonnegative number")
    doc = _read_json(args.input)
    chain = chain_from_json(doc)
    faces = {}  # hybrid maps and their sub-faces, shared by every suite
    checks = [
        _check_boundary(chain),
        _check_horizontality(doc, chain, args.tol, faces),
        _check_cells(chain, max(args.tol, 1e-12), args.seed, faces),
        _check_equivariance(chain, args.seed, faces),
        _check_cones(chain, args.tol, faces),
    ]
    passed = all(c["passed"] for c in checks)
    report = {"input": args.input, "passed": passed, "checks": checks}
    _write(args.output, json_text(report))
    return 0 if passed else 1


# ============================================================
# parser
# ============================================================


class _Parser(argparse.ArgumentParser):
    """Reads a numeric tuple starting with "-" ("-2,0,0") as a value, not an
    option; argparse's own negative-number test knows only "-2" or "-.5"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE+\-,]*$")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="heistri",
                  description="Heisenberg group grids, simplexes, and triangulations")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, eps=True):
        p.add_argument("--n", type=int, default=1, help="group index (default 1)")
        if eps:
            p.add_argument("--eps", type=float, default=1.0, help="cube side (default 1)")
        p.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("triangulate", help="triangulate a grid cube or box of cubes")
    common(p)
    p.add_argument("--cube", help="integer base of one cube, e.g. 0,0,0")
    p.add_argument("--box", nargs=2, metavar=("LO", "HI"),
                   help="integer corners of a box of cubes, e.g. 0,0,0 2,2,2")
    p.add_argument("--builder", choices=["affine", "straight", "hybrid"],
                   default="straight")

    p = sub.add_parser("boundary", help="boundary chain of a chain file")
    p.add_argument("input", help="chain JSON file, or - for stdin")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("check", help="run invariant checks on a chain file")
    p.add_argument("input", help="chain JSON file, or - for stdin")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--tol", type=float, default=1e-12, help="geometric tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for spot samples")

    p = sub.add_parser("regularity", help="classify the faces of a grid cube")
    common(p)
    p.add_argument("--cube", required=True, help="integer base, e.g. 0,0,0")
    p.add_argument("--subfaces", action="store_true",
                   help="also classify subfaces (needs n >= 2)")

    p = sub.add_parser("hpath", help="horizontal path between two points")
    common(p, eps=False)
    p.add_argument("--from", required=True, help="start point, e.g. 0,0,0")
    p.add_argument("--to", required=True, help="end point, e.g. 0,0,1")

    p = sub.add_parser("export", help="export a chain file as a mesh")
    p.add_argument("input", help="chain JSON file, or - for stdin")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--format", required=True, choices=["obj", "vtk", "json"])
    p.add_argument("--samples", type=int, default=1, help="samples per edge")

    p = sub.add_parser("simplex", help="build one simplex, optionally evaluate it")
    common(p, eps=False)
    p.add_argument("--builder", choices=["affine", "straight", "horizontal_path", "hybrid"],
                   default="straight")
    p.add_argument("--vertices", nargs="+", required=True,
                   help="vertex coordinate tuples, e.g. 0,0,0 1,0,0")
    p.add_argument("--eval", help="barycentric point to evaluate, e.g. 0.5,0.5")

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up when main runs, not bound into the cached parser, so a
        # cmd_* rebound on this module (bench/tracing.py does so) is the one run
        return globals()["cmd_" + args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input ({exc})", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
