#!/usr/bin/env python3
"""Reproduce the low-frequency stability data on the academic scenario.

Writes one CSV, academic_stability.csv, next to this script (or into
--outdir): the condition number, gauge residual and solve residual of the
unstabilized curl system and of both stabilized ones (tree-cotree and
Lagrange) over a wide frequency range.
"""
import argparse
import pathlib
import sys

from aphi.cli import main as solver_main

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "academic.cfg"
FREQS = "0,1e-6,1e-3,1,1e3,1e6,1e9,1e12"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=str(pathlib.Path(__file__).parent))
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rc = solver_main([
        "sweep", "--config", str(CONFIG), "--freqs", FREQS,
        "--methods", "original,tree-cotree,lagrange",
        "--quantities", "condition,delta_D,solve_residual",
        "--out", str(outdir / "academic_stability.csv")])
    if rc:
        return rc
    print(f"wrote {outdir / 'academic_stability.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
