"""The benchmark's workloads: the three user workflows of the `solver`
command line, each given as the argument lists a user would type.

A round of a workload is every invocation in its list, run in order; the
operations of a round are what the output checks count (sweep rows,
convergence rows, one export).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SWEEP_FREQS_ARG = "0,1e-3,1,1e3,1e6,1e9"
SWEEP_FREQS = tuple(float(f) for f in SWEEP_FREQS_ARG.split(","))
SWEEP_METHODS = ("original", "tree-cotree", "lagrange")
CONVERGE_CONFIGS = ("configs/mms_sigma0.cfg", "configs/mms_sigma6e7.cfg")
CONVERGE_METHODS = ("original", "tree-cotree")
CONVERGE_FREQ = 10.0
EXPORT_FREQ = 100.0
EXPORT_DENSITY = 2

# Full sizes resolve the geometry: the academic bars are 2 cm wide in a
# 22 cm box, so only n = 11k captures them.  Quick sizes are the smallest
# at which every output check still holds.
SIZES = {
    False: {"academic": 11, "export": 11, "converge": (4, 8, 16)},
    True: {"academic": 6, "export": 6, "converge": (2, 4, 8)},
}


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]   # argv lists for aphi.cli.main
    builds: tuple[tuple[str, tuple[tuple[int, int, int], ...]], ...]  # config, sizes
    ops_per_round: int
    csvs: tuple[str, ...]                      # CSV files each round writes


def make_workload(name: str, out_dir: Path, quick: bool = False) -> Workload:
    """The workload `name`, writing its outputs under out_dir."""
    size = SIZES[quick]
    if name == "sweep-academic":
        n = size["academic"]
        return Workload(
            name=name,
            invocations=(("sweep", "--config", "configs/academic.cfg",
                          "--subdivs", f"{n},{n},{n}",
                          "--freqs", SWEEP_FREQS_ARG,
                          "--methods", ",".join(SWEEP_METHODS),
                          "--quantities", "condition,delta_D,solve_residual",
                          "--out", str(out_dir / "sweep.csv")),),
            builds=(("configs/academic.cfg", ((n, n, n),)),),
            ops_per_round=len(SWEEP_FREQS) * len(SWEEP_METHODS),
            csvs=("sweep.csv",))
    if name == "converge-mms":
        subdivs = size["converge"]
        invocations = []
        csvs = []
        for cfg in CONVERGE_CONFIGS:
            out = Path(cfg).stem + ".csv"
            csvs.append(out)
            invocations.append(("converge", "--config", cfg,
                                "--subdivs", ",".join(str(s) for s in subdivs),
                                "--freq", f"{CONVERGE_FREQ:g}",
                                "--methods", ",".join(CONVERGE_METHODS),
                                "--out", str(out_dir / out)))
        return Workload(
            name=name, invocations=tuple(invocations),
            builds=tuple((cfg, tuple((s, s, s) for s in subdivs)) for cfg in CONVERGE_CONFIGS),
            ops_per_round=len(CONVERGE_CONFIGS) * len(subdivs) * len(CONVERGE_METHODS),
            csvs=tuple(csvs))
    if name == "export-academic":
        n = size["export"]
        return Workload(
            name=name,
            invocations=(("solve", "--config", "configs/academic.cfg",
                          "--subdivs", f"{n},{n},{n}",
                          "--freq", f"{EXPORT_FREQ:g}",
                          "--method", "tree-cotree",
                          "--vtk", str(out_dir / "fields.vtk"),
                          "--density", str(EXPORT_DENSITY)),),
            builds=(("configs/academic.cfg", ((n, n, n),)),),
            ops_per_round=1,
            csvs=())
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


WORKLOAD_NAMES = ("sweep-academic", "converge-mms", "export-academic")
