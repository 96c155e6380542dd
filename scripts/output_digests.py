#!/usr/bin/env python3
"""SHA-256 of every file the benchmark's workloads write.

Runs each workload's argument lists (bench/workloads.py) once through
aphi.cli.main, from the repository root into a temporary directory, and
prints one line per CSV or VTK file written (what the commands
print goes to stderr):

    workload file sha256

Two checkouts that print the same lines write byte-identical outputs.
The script runs BLAS on one thread, as the benchmark's worker does, since
the sweep's digits depend on the thread count:

    python scripts/output_digests.py [--quick]

--quick takes the benchmark's quick sizes.  Exits with the first nonzero
exit code of a command.
"""
import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads, which reads them once
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

from aphi.cli import main as solver_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help="the benchmark's quick sizes")
    args = parser.parse_args()
    os.chdir(ROOT)  # the workloads name their configs from the root
    for name in WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for argv in make_workload(name, out, quick=args.quick).invocations:
                with contextlib.redirect_stdout(sys.stderr):  # only digests on stdout
                    rc = solver_main(list(argv))
                if rc:
                    return rc
            for path in sorted(out.iterdir()):
                if path.suffix in (".csv", ".vtk"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{name} {path.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
