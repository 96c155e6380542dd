"""Output checks of the benchmark's workloads, made after the workload
process has ended and never timed.

Each check compares an output with a computation made here, apart from
the solver's own code paths, or with a property the method must have.  A
round's operations are its sweep rows, its convergence rows or its one
export; an operation fails when any check on it fails.
"""
from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

from workloads import (CONVERGE_CONFIGS, CONVERGE_METHODS, EXPORT_DENSITY,
                       EXPORT_FREQ, SIZES, SWEEP_FREQS, SWEEP_METHODS)

TOL_RESIDUAL = 1e-10     # rel_residual of every solved row
TOL_GAUGE = 1e-10        # delta_D of every stabilized solve
TOL_COND = 1e-3          # estimator vs dense 2-norm condition number
RATE_RANGE = (0.9, 1.1)  # first-order H(curl) convergence
TOL_AGREE = 1e-8         # original vs tree-cotree error, tree-cotree vs Lagrange
TOL_FIELD = 1e-10        # exported B and E vs cell-centre values, of the field max


class Round:
    """Operations of one round and the problems found in them."""

    def __init__(self, ops: list[str]):
        self.ops = ops
        self.failed: set[str] = set()
        self.problems: list[str] = []

    def fail(self, ops, message: str) -> None:
        self.failed.update(ops)
        self.problems.append(message)

    def require(self, ok: bool, ops, message: str) -> None:
        if not ok:
            self.fail(ops, message)


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


# --- sweep-academic -------------------------------------------------------

def _expected_dofs(n: int, method: str) -> int:
    """Interior edges of an n^3 grid with every boundary edge clamped, plus
    one multiplier per interior node for the Lagrange system."""
    dofs = 3 * n * (n - 1) ** 2
    return dofs + (n - 1) ** 3 if method == "lagrange" else dofs


def dense_condition(config: str, n: int, f: float, method: str) -> float:
    """2-norm condition number of a method's system, by dense SVD."""
    import scipy.linalg as sla
    from aphi.cli import method_system
    from aphi.scenario import load_scenario

    built = load_scenario(config).with_subdivisions((n, n, n)).build()
    A = method_system(built, 2.0 * np.pi * f)[method].toarray()
    s = sla.svdvals(A, overwrite_a=True, check_finite=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else math.inf


# Checked in every run, whatever the seed: of the stabilized rows, this is
# the one whose estimate strays furthest from the dense value, so a fault
# of the estimator there shows alike in every run's failed count.
FIXED_COND_ROW = (1e-3, "lagrange")


def check_sweep(round_dir: Path, quick: bool, seed: int, references: dict,
                prefix: str) -> Round:
    n = SIZES[quick]["academic"]
    keys = [(f, m) for f in SWEEP_FREQS for m in SWEEP_METHODS]
    r = Round([f"{f:g}/{m}" for f, m in keys])
    rows = read_csv(round_dir / "sweep.csv")
    got = [(float(row["f_hz"]), row["method"]) for row in rows]
    if got != keys:
        r.fail(r.ops, f"sweep rows {got} are not the requested grid {keys}")
        return r
    by_key = dict(zip(keys, rows))
    for (f, m), row in by_key.items():
        op = f"{f:g}/{m}"
        r.require(int(row["n_dofs"]) == _expected_dofs(n, m), [op],
                  f"{op}: n_dofs {row['n_dofs']} != {_expected_dofs(n, m)}")
        singular = row["rel_residual"] == "singular"
        r.require(singular == (row["delta_D"] == "singular"), [op],
                  f"{op}: delta_D and rel_residual disagree on singularity")
        if m == "original" and f == 0.0:
            r.require(singular, [op], f"{op}: the unstabilized static system solved")
        if m != "original":
            r.require(not singular, [op], f"{op}: stabilized system reads singular")
            delta = _float(row["delta_D"])
            r.require(delta is not None and delta <= TOL_GAUGE, [op],
                      f"{op}: delta_D {row['delta_D']} > {TOL_GAUGE}")
        if not singular:
            resid = _float(row["rel_residual"])
            r.require(resid is not None and resid <= TOL_RESIDUAL, [op],
                      f"{op}: rel_residual {row['rel_residual']} > {TOL_RESIDUAL}")
        cond = _float(row["cond_estimate"])
        r.require(cond is not None and cond >= 1.0, [op],
                  f"{op}: condition estimate {row['cond_estimate']} below 1")

    # The original system's condition grows without bound as f -> 0.
    factored = [(f, float(by_key[f, "original"]["cond_estimate"])) for f in SWEEP_FREQS
                if by_key[f, "original"]["rel_residual"] != "singular"]
    conds = [c for _, c in sorted(factored)]
    r.require(len(conds) >= 2 and all(a > b for a, b in zip(conds, conds[1:])),
              [f"{f:g}/original" for f, _ in factored],
              f"original condition estimates {sorted(factored)} do not rise as f falls")

    # The fixed row and one tree-cotree row, chosen by the seed, against a
    # dense computation.  Dense SVDs take 12 s (tree-cotree) to 40 s
    # (Lagrange) at 11^3, so their values are kept in `references` under a
    # key naming the solver's sources.
    chosen = [k for k in keys if k[1] == "tree-cotree"]
    for f, m in (FIXED_COND_ROW, chosen[random.Random(seed).randrange(len(chosen))]):
        row = by_key[f, m]
        op = f"{f:g}/{m}"
        if row["cond_method"] not in ("dense-svd", "power-iteration"):
            r.fail([op], f"{op}: unknown cond_method {row['cond_method']!r}")
            continue
        key = f"{prefix}:cond:{n}:{f:g}:{m}"
        if key not in references:
            references[key] = dense_condition("configs/academic.cfg", n, f, m)
        dense = references[key]
        est = float(row["cond_estimate"])
        # A dense SVD resolves sigma_min only to about eps * kappa of it.
        tol = max(TOL_COND, 10 * np.finfo(float).eps * dense)
        r.require(abs(est - dense) <= tol * dense, [op],
                  f"{op}: {row['cond_method']} estimate {est:.6e} vs dense SVD "
                  f"{dense:.6e} (relative {(est - dense) / dense:.2e})")
    return r


# --- converge-mms ---------------------------------------------------------

def _rate(s0: int, e0: float, s1: int, e1: float) -> float:
    return math.log(e0 / e1) / math.log(s1 / s0)


def check_converge(round_dir: Path, quick: bool) -> Round:
    subdivs = SIZES[quick]["converge"]
    keys = [(Path(cfg).stem, s, m) for cfg in CONVERGE_CONFIGS
            for s in subdivs for m in CONVERGE_METHODS]
    r = Round([f"{c}/{s}/{m}" for c, s, m in keys])
    for cfg in CONVERGE_CONFIGS:
        regime = Path(cfg).stem
        rows = read_csv(round_dir / f"{regime}.csv")
        got = [(int(row["s_h"]), row["method"]) for row in rows]
        want = [(s, m) for s in subdivs for m in CONVERGE_METHODS]
        ops = [f"{regime}/{s}/{m}" for s, m in want]
        if got != want:
            r.fail(ops, f"{regime}: rows {got} are not the requested grid {want}")
            continue
        err = {(int(row["s_h"]), row["method"]): _float(row["hcurl_error"]) for row in rows}
        rate_cell = {(int(row["s_h"]), row["method"]): row["rate"] for row in rows}

        tc = [err[s, "tree-cotree"] for s in subdivs]
        tc_ops = [f"{regime}/{s}/tree-cotree" for s in subdivs]
        if any(e is None or not e > 0 for e in tc):
            r.fail(tc_ops, f"{regime}: tree-cotree errors {tc} not all positive")
            continue
        (s0, s1), (e0, e1) = subdivs[-2:], tc[-2:]
        rate = _rate(s0, e0, s1, e1)
        r.require(RATE_RANGE[0] <= rate <= RATE_RANGE[1], tc_ops[-2:],
                  f"{regime}: tree-cotree rate {rate:.4f} from {s0} to {s1} "
                  f"outside {RATE_RANGE}")
        csv_rate = _float(rate_cell[s1, "tree-cotree"])
        r.require(csv_rate is not None and abs(csv_rate - rate) <= 1e-9, tc_ops[-1:],
                  f"{regime}: CSV rate {rate_cell[s1, 'tree-cotree']} != {rate:.12g}")

        orig = [err[s, "original"] for s in subdivs]
        orig_ops = [f"{regime}/{s}/original" for s in subdivs]
        if regime.endswith("sigma0"):
            # Breakdown regime: the unstabilized system must not converge
            # at first order; it reads singular or its rate leaves the range.
            first_order = all(e is not None for e in orig) and RATE_RANGE[0] <= _rate(
                subdivs[-2], orig[-2], subdivs[-1], orig[-1]) <= RATE_RANGE[1]
            r.require(not first_order, orig_ops,
                      f"{regime}: original converges at first order {orig}")
        else:
            for s, eo, et, op in zip(subdivs, orig, tc, orig_ops):
                r.require(eo is not None and abs(eo - et) <= TOL_AGREE * et, [op],
                          f"{regime}: original error {eo} vs tree-cotree {et} at {s}")
    return r


# --- export-academic ------------------------------------------------------

def read_vtk(path: Path, names) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """POINTS and the named POINT_DATA vector arrays of a legacy ASCII VTK
    file, each as an (n, 3) array."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()

    def block(start: int, count: int) -> np.ndarray:
        return np.array(" ".join(lines[start:start + count]).split(),
                        dtype=float).reshape(-1, 3)

    points, arrays, count = None, {}, 0
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head and head[0] == "POINTS":
            count = int(head[1])
            points = block(i + 1, count)
            i += count
        elif head and head[0] == "VECTORS":
            if head[1] in names:
                arrays[head[1]] = block(i + 1, count)
            i += count
        i += 1
    if points is None:
        raise ValueError(f"no POINTS block in {path}")
    return points, arrays


def _config_domain(config: str) -> np.ndarray:
    with open(config, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split("#")[0].split()
            if tokens and tokens[0] == "domain":
                return np.array([float(t) for t in tokens[1:7]]).reshape(3, 2)
    raise ValueError(f"no domain line in {config}")


def _grid_points(extents: np.ndarray, cells: int) -> np.ndarray:
    """Nodes of a cells^3 grid of the box, x fastest, then y, then z."""
    axes = [np.linspace(lo, hi, cells + 1) for lo, hi in extents]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    return np.stack([X.ravel(order="F"), Y.ravel(order="F"), Z.ravel(order="F")], axis=1)


def cell_centre_fields(mesh, u: np.ndarray, a: np.ndarray, omega: float):
    """B and E at every cell centre of a structured grid, from the nodal
    potential u and the edge circulations a, by finite differences.

    Edges and nodes are located by their coordinates, so nothing depends on
    the solver's numbering.  B comes from the circulation of a around each
    cell face over the face area, averaged over opposite faces; E is minus
    the mean edge difference of u over h minus i omega times the mean edge
    circulation of a over h.  Returns two (nx, ny, nz, 3) arrays.
    """
    nodes = np.asarray(mesh.nodes)
    origin = nodes.min(axis=0)
    h = (nodes.max(axis=0) - origin) / np.asarray(mesh.subdivisions)
    n = tuple(int(c) for c in mesh.subdivisions)
    idx = np.rint((nodes - origin) / h).astype(int)
    U = np.zeros(tuple(c + 1 for c in n), dtype=complex)
    U[idx[:, 0], idx[:, 1], idx[:, 2]] = u

    ends = idx[np.asarray(mesh.edges)]               # (edges, 2, 3)
    step = ends[:, 1] - ends[:, 0]
    axis = np.argmax(np.abs(step), axis=1)
    sign = step[np.arange(step.shape[0]), axis]
    low = ends.min(axis=1)
    circ = []
    for ax in range(3):
        shape = tuple(c + (0 if d == ax else 1) for d, c in enumerate(n))
        grid = np.zeros(shape, dtype=complex)
        sel = axis == ax
        grid[low[sel, 0], low[sel, 1], low[sel, 2]] = sign[sel] * a[sel]
        circ.append(grid)
    ax_, ay, az = circ

    A = np.stack([
        ax_[:, :-1, :-1] + ax_[:, 1:, :-1] + ax_[:, :-1, 1:] + ax_[:, 1:, 1:],
        ay[:-1, :, :-1] + ay[1:, :, :-1] + ay[:-1, :, 1:] + ay[1:, :, 1:],
        az[:-1, :-1, :] + az[1:, :-1, :] + az[:-1, 1:, :] + az[1:, 1:, :],
    ], axis=-1) / (4.0 * h)
    dU = [np.diff(U, axis=d) for d in range(3)]
    grad = np.stack([
        dU[0][:, :-1, :-1] + dU[0][:, 1:, :-1] + dU[0][:, :-1, 1:] + dU[0][:, 1:, 1:],
        dU[1][:-1, :, :-1] + dU[1][1:, :, :-1] + dU[1][:-1, :, 1:] + dU[1][1:, :, 1:],
        dU[2][:-1, :-1, :] + dU[2][1:, :-1, :] + dU[2][:-1, 1:, :] + dU[2][1:, 1:, :],
    ], axis=-1) / (4.0 * h)
    E = -grad - 1j * omega * A

    # Face circulations, counter-clockwise about the +axis normal.
    gx = ay[:, :, :-1] + az[:, 1:, :] - ay[:, :, 1:] - az[:, :-1, :]   # (nx+1, ny, nz)
    gy = az[:-1, :, :] + ax_[:, :, 1:] - az[1:, :, :] - ax_[:, :, :-1]  # (nx, ny+1, nz)
    gz = ax_[:, :-1, :] + ay[1:, :, :] - ax_[:, 1:, :] - ay[:-1, :, :]  # (nx, ny, nz+1)
    B = np.stack([
        0.5 * (gx[:-1] + gx[1:]) / (h[1] * h[2]),
        0.5 * (gy[:, :-1] + gy[:, 1:]) / (h[2] * h[0]),
        0.5 * (gz[:, :, :-1] + gz[:, :, 1:]) / (h[0] * h[1]),
    ], axis=-1)
    return B, E


def _printed(stdout: str, key: str) -> float | None:
    for line in stdout.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return _float(value.strip())
    return None


def check_export(round_dir: Path, quick: bool, cache: dict) -> Round:
    from aphi.physics import run_two_step
    from aphi.scenario import load_scenario

    r = Round(["export"])
    n = SIZES[quick]["export"]
    config = "configs/academic.cfg"
    cells = EXPORT_DENSITY * n
    points, arrays = read_vtk(round_dir / "fields.vtk", ("B_re", "B_im", "E_re", "E_im"))
    grid = _grid_points(_config_domain(config), cells)
    scale = np.abs(grid).max()
    r.require(points.shape == grid.shape and np.abs(points - grid).max() <= 1e-14 * scale,
              r.ops, f"POINTS block is not the {cells}^3 grid of the domain")

    printed = (round_dir / "stdout.txt").read_text(encoding="utf-8")
    delta = _printed(printed, "delta_D")
    r.require(delta is not None and delta <= TOL_GAUGE, r.ops,
              f"printed delta_D {delta} > {TOL_GAUGE}")

    key = ("export", n)
    if key not in cache:
        built = load_scenario(config).with_subdivisions((n, n, n)).build()
        tc = run_two_step(built, EXPORT_FREQ, "tree-cotree")
        lm = run_two_step(built, EXPORT_FREQ, "lagrange")
        cache[key] = (built.mesh, tc, lm)
    mesh, tc, lm = cache[key]
    gap = np.linalg.norm(tc.a - lm.a) / np.linalg.norm(lm.a)
    r.require(gap <= TOL_AGREE, r.ops, f"tree-cotree vs Lagrange solution gap {gap:.3e}")
    r.require(tc.delta_D <= TOL_GAUGE, r.ops, f"solution delta_D {tc.delta_D:.3e}")

    B_cc, E_cc = cell_centre_fields(mesh, tc.u, tc.a, 2.0 * np.pi * EXPORT_FREQ)
    # Sample nodes (2i+1, 2j+1, 2k+1) are the solve-cell centroids.
    m = cells + 1
    ci = np.arange(n)
    I, J, K = np.meshgrid(2 * ci + 1, 2 * ci + 1, 2 * ci + 1, indexing="ij")
    sample_ids = (I + m * (J + m * K)).reshape(-1)
    for name, ref in (("B", B_cc), ("E", E_cc)):
        if any(arrays.get(f"{name}_{part}", np.empty(0)).shape != grid.shape
               for part in ("re", "im")):
            r.fail(r.ops, f"VTK file has no {name} arrays on every point")
            continue
        field = arrays[f"{name}_re"] + 1j * arrays[f"{name}_im"]
        peak = np.linalg.norm(field, axis=1).max()
        diff = np.abs(field[sample_ids] - ref.reshape(-1, 3)).max()
        r.require(peak > 0 and diff <= TOL_FIELD * peak, r.ops,
                  f"{name} at cell centres differs by {diff:.3e} (field max {peak:.3e})")
    return r


def check_round(workload: str, round_dir: Path, quick: bool, seed: int,
                references: dict, prefix: str, cache: dict) -> Round:
    """Checks of one round.  `references` holds dense reference values
    kept between runs, `cache` values kept between rounds of one run."""
    if workload == "sweep-academic":
        return check_sweep(round_dir, quick, seed, references, prefix)
    if workload == "converge-mms":
        return check_converge(round_dir, quick)
    if workload == "export-academic":
        return check_export(round_dir, quick, cache)
    raise ValueError(f"unknown workload {workload!r}")
