"""The benchmark workloads and the checks on their outputs.

A workload object is built during set-up from the heistri package and the
run's seed.  ``run(i)`` performs operation ``i`` (the timed part) and
``check(i, result)`` inspects what it produced, outside the timed region;
it returns ``(failed, errors)``.  Operations come in rounds of
``round_size``: a run always attempts whole rounds.

The checks do not trust the program: each one is a property of the
construction, recomputed here with numpy or plain Python arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np


def run_cli(cli, argv):
    """Run one heistri command in this process; return (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, err.getvalue()


def _corner(values):
    return ",".join(str(v) for v in values)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _vertex_key(term):
    return tuple(tuple(v) for v in term["vertices"])


def _drop_vertex_sum(terms):
    """Boundary computed here: sum of (-1)^i * (term without vertex i)."""
    acc = {}
    for verts, coeff in terms:
        for i in range(len(verts)):
            face = verts[:i] + verts[i + 1:]
            acc[face] = acc.get(face, 0) + (coeff if i % 2 == 0 else -coeff)
    return {face: c for face, c in acc.items() if c}


class RegionStraight:
    """triangulate --box -> boundary -> export --format obj, n=1, straight, 5x5x5."""

    name = "region_straight"
    round_size = 4
    SIDE = 5
    SAMPLES = 2
    POOL = 24
    # The README's corner syntax with a negative first entry: argparse takes
    # "-2,-3,-1" for an option, so this box fails until the parser is fixed.
    # It is the same box whatever the seed, one operation in every round.
    FAULT_BOX = (1.0, (-2, -3, -1))

    def __init__(self, heistri, seed, workdir):
        self.cli = heistri.cli
        rng = random.Random(f"{self.name}:{seed}")
        self.boxes = [(rng.choice((0.25, 0.5, 1.0, 2.0)),
                       (rng.randint(0, 30), rng.randint(-30, 30), rng.randint(-30, 30)))
                      for _ in range(self.POOL)]
        self.chain_path = os.path.join(workdir, "region.json")
        self.boundary_path = os.path.join(workdir, "boundary.json")
        self.obj_path = os.path.join(workdir, "boundary.obj")

    def box(self, i):
        rnd, j = divmod(i, self.round_size)
        if j == self.round_size - 1:
            return self.FAULT_BOX
        return self.boxes[((self.round_size - 1) * rnd + j) % self.POOL]

    def run(self, i):
        eps, lo = self.box(i)
        hi = tuple(v + self.SIDE for v in lo)
        for argv in (["triangulate", "--n", "1", "--eps", repr(eps), "--builder", "straight",
                      "--box", _corner(lo), _corner(hi), "-o", self.chain_path],
                     ["boundary", self.chain_path, "-o", self.boundary_path],
                     ["export", self.boundary_path, "--format", "obj",
                      "--samples", str(self.SAMPLES), "-o", self.obj_path]):
            code, err = run_cli(self.cli, argv)
            if code != 0:
                return argv[0], code, err
        return None, 0, ""

    def check(self, i, result):
        step, code, err = result
        eps, lo = self.box(i)
        if code != 0:
            if ((eps, lo) == self.FAULT_BOX and step == "triangulate" and code == 2
                    and "argument --box: expected 2 arguments" in err):
                return True, []
            return True, [f"op {i}: {step} exited {code}: {err.strip()[-200:]}"]
        return False, self._check_outputs(i, eps, lo)

    def _check_outputs(self, i, eps, lo):
        side = self.SIDE
        errors = []
        chain = _read_json(self.chain_path)
        terms = chain["terms"]
        n_simplexes = side ** 3 * 6
        if (chain["k"], chain["n"], len(terms)) != (3, 1, n_simplexes):
            return [f"op {i}: chain has k={chain['k']} n={chain['n']} and {len(terms)} terms"]
        coeff = np.array([t["coeff"] for t in terms])
        if not all(type(t["coeff"]) is int and t["coeff"] in (1, -1) for t in terms):
            errors.append(f"op {i}: chain coefficients are not all +-1")
        if any(t["builder"] != "straight" for t in terms):
            errors.append(f"op {i}: chain has a non-straight term")
        verts = np.array([t["vertices"] for t in terms], dtype=float)
        steps = np.rint(verts / eps - np.array(lo, dtype=float))
        if (steps.min() < 0 or steps.max() > side
                or not np.array_equal(eps * (np.array(lo, dtype=float) + steps), verts)):
            errors.append(f"op {i}: a vertex is not a lattice corner eps*(lo+bits)")
        signed = coeff * np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])
        if not (np.all(signed > 0) or np.all(signed < 0)):
            errors.append(f"op {i}: coeff*det changes sign across the chain")
        volume = (side * eps) ** 3
        if abs(abs(signed.sum() / 6.0) - volume) > 1e-9 * volume:
            errors.append(f"op {i}: signed volume {signed.sum() / 6.0} is not +-{volume}")

        bnd = _read_json(self.boundary_path)
        bterms = bnd["terms"]
        if (bnd["k"], len(bterms)) != (2, 12 * side ** 2):
            errors.append(f"op {i}: boundary has k={bnd['k']} and {len(bterms)} terms")
        given = {_vertex_key(t): t["coeff"] for t in bterms}
        own = _drop_vertex_sum([(_vertex_key(t), t["coeff"]) for t in terms])
        if given != own:
            errors.append(f"op {i}: boundary differs from the drop-vertex sum of the chain")
        if _drop_vertex_sum(given.items()):
            errors.append(f"op {i}: the boundary of the boundary is not zero")
        walls = [(a, eps * lo[a]) for a in range(3)] + [(a, eps * (lo[a] + side)) for a in range(3)]
        for face in given:
            if not any(all(v[a] == level for v in face) for a, level in walls):
                errors.append(f"op {i}: boundary triangle {face} lies in no face of the box")
                break

        with open(self.obj_path, "rb") as fh:
            faces = sum(1 for line in fh if line.startswith(b"f "))
        if faces != len(bterms) * self.SAMPLES ** 2:
            errors.append(f"op {i}: OBJ has {faces} faces for {len(bterms)} boundary terms")
        return errors


class HybridCheck:
    """triangulate --cube=<base> --builder hybrid -> check -> export --format vtk, n=1."""

    name = "hybrid_check"
    round_size = 4
    POOL = 32
    SUITES = ("boundary_squared_zero", "horizontality", "cell_consistency",
              "equivariance_spot", "cone_relation")

    def __init__(self, heistri, seed, workdir):
        self.cli = heistri.cli
        rng = random.Random(f"{self.name}:{seed}")
        self.cubes = []
        for j in range(self.POOL):
            if j % self.round_size == 0:  # a cube with the t-axis on its boundary
                base = (rng.choice((-1, 0)), rng.choice((-1, 0)), rng.randint(-50, 50))
            else:
                base = tuple(rng.randint(-50, 50) for _ in range(3))
            self.cubes.append((rng.choice((0.5, 1.0, 2.0)), base, rng.randrange(2 ** 31)))
        self.chain_path = os.path.join(workdir, "cube.json")
        self.report_path = os.path.join(workdir, "report.json")
        self.vtk_path = os.path.join(workdir, "cube.vtk")

    def run(self, i):
        eps, base, check_seed = self.cubes[i % self.POOL]
        for argv in (["triangulate", "--n", "1", "--eps", repr(eps), "--builder", "hybrid",
                      "--cube=" + _corner(base), "-o", self.chain_path],
                     ["check", self.chain_path, "--seed", str(check_seed),
                      "-o", self.report_path],
                     ["export", self.chain_path, "--format", "vtk", "-o", self.vtk_path]):
            code, err = run_cli(self.cli, argv)
            if code != 0:
                return argv[0], code, err
        return None, 0, ""

    def check(self, i, result):
        step, code, err = result
        if code != 0:
            return True, [f"op {i}: {step} exited {code}: {err.strip()[-200:]}"]
        eps, base, _ = self.cubes[i % self.POOL]
        errors = []
        report = _read_json(self.report_path)
        names = tuple(c["name"] for c in report["checks"])
        if (not report["passed"] or names != self.SUITES
                or not all(c["passed"] for c in report["checks"])):
            errors.append(f"op {i}: check report is not five passed suites: {names}")

        chain = _read_json(self.chain_path)
        corners = {tuple(eps * (b + bit) for b, bit in zip(base, bits))
                   for bits in np.ndindex(2, 2, 2)}
        terms = chain["terms"]
        if (chain["k"], chain["n"], len(terms)) != (3, 1, 6):
            errors.append(f"op {i}: chain has k={chain['k']} n={chain['n']} "
                          f"and {len(terms)} terms")
        for t in terms:
            if (t["builder"] != "hybrid" or t["coeff"] not in (1, -1)
                    or not all(tuple(v) in corners for v in t["vertices"])):
                errors.append(f"op {i}: chain term off the cube corners: {t}")
                break

        with open(self.vtk_path) as fh:
            lines = fh.read().splitlines()
        n_pts = int(lines[4].split()[1])
        pts = [tuple(float(c) for c in line.split()) for line in lines[5:5 + n_pts]]
        n_cells = int(lines[5 + n_pts].split()[1])
        cells = [[int(c) for c in line.split()[1:]]
                 for line in lines[6 + n_pts:6 + n_pts + n_cells]]
        if not cells or any(len(c) != 4 for c in cells):
            errors.append(f"op {i}: VTK cells are not all tetrahedra")
        for ids in cells:
            (xa, ya, ta), (xb, yb, tb) = pts[ids[0]], pts[ids[1]]
            residual = (tb - ta) - 0.5 * (xa * (yb - ya) - ya * (xb - xa))
            scale = 1.0 + max(abs(c) for c in pts[ids[0]] + pts[ids[1]])
            if abs(residual) > 1e-12 * scale:
                errors.append(f"op {i}: VTK cell {ids} starts with a non-horizontal "
                              f"segment (residual {residual})")
                break
        return False, errors


WORKLOADS = {w.name: w for w in (RegionStraight, HybridCheck)}
