"""Runs one workload in a process of its own and writes what it measured.

Started by run.py from the root of a checkout; it is the process whose
peak resident memory the benchmark reports.  It times the workload's
set-up (load_scenario and Scenario.build for every build the workload
makes) before and after running whole rounds of the workload through
`aphi.cli.main` until --seconds have passed.  With --trace 1 it then runs
one more round with every traced layer wrapped (see spans.py).  Output
checks are not made here: run.py makes them after this process has ended.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

# Set-up is repeated before and after the timed rounds, each time until
# both limits are reached, and the median of all repetitions is reported.
# The machine's speed drifts over tens of seconds; two blocks that far
# apart keep one slow spell from setting the whole figure.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 0.5


def _blas_name() -> str:
    import numpy as np

    try:
        return str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"])
    except (AttributeError, KeyError):
        return "unknown"


def _run_round(cli, workload, round_dir: Path) -> tuple[float, list[int]]:
    """Every invocation of the workload; returns (wall seconds, exit codes).

    The wall time runs from the first configuration load to the close of
    the last output file; what the commands print goes to stdout.txt.
    """
    rcs = []
    with open(round_dir / "stdout.txt", "w", encoding="utf-8") as log, \
            redirect_stdout(log):
        t0 = time.perf_counter()
        for argv in workload.invocations:
            rcs.append(cli.main(list(argv)))
        wall = time.perf_counter() - t0
    return wall, rcs


def _time_setup(load_scenario, builds) -> list[float]:
    """Seconds of each repetition of the workload's set-up."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        for cfg, subdivs in builds:
            scenario = load_scenario(cfg)
            for s in subdivs:
                scenario.with_subdivisions(s).build()
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True, help="directory for rounds and results")
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    import aphi.cli as cli
    import scipy
    import numpy as np
    from aphi.scenario import load_scenario

    from spans import ROOT, Tracer, layer_metrics
    from workloads import make_workload

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe = make_workload(args.workload, out, args.quick)

    setup = _time_setup(load_scenario, probe.builds)

    rounds = []
    start = time.perf_counter()
    while True:
        round_dir = out / f"round{len(rounds)}"
        round_dir.mkdir()
        workload = make_workload(args.workload, round_dir, args.quick)
        gc.collect()
        wall, rcs = _run_round(cli, workload, round_dir)
        rounds.append({"dir": str(round_dir), "wall_s": wall, "exit_codes": rcs})
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _time_setup(load_scenario, probe.builds)

    traced = None
    if args.trace:
        round_dir = out / "traced"
        round_dir.mkdir()
        workload = make_workload(args.workload, round_dir, args.quick)
        tracer = Tracer(args.run_id)
        tracer.install()
        gc.collect()
        try:
            t0 = time.perf_counter()
            with tracer.span(args.workload, ROOT):
                wall, rcs = _run_round(cli, workload, round_dir)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        tracer.write_jsonl(out / "spans.jsonl")
        traced = {"dir": str(round_dir), "wall_s": traced_wall, "exit_codes": rcs,
                  "metrics": layer_metrics(tracer.spans)}

    result = {
        "workload": args.workload,
        "quick": args.quick,
        "setup_s": setup,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
        "record": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    with open(out / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
