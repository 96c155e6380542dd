"""Benchmark of the aphi solver's three command-line workflows.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-academic --seed 1 --seconds 10 --trace 0

The workload runs in a process of its own (worker.py).  Its outputs are
then checked here, outside the timed region, and the last line printed is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the run record (versions, threads, commit, seed,
counts).  --quick runs every workload and check at the smallest sizes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOAD_NAMES, make_workload

BENCH_DIR = Path(__file__).resolve().parent
OUT_NAME = "out"
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine, two threads made the sparse LU
# slower (SuperLU's small dense updates do not pay for the threading) and
# its times about twice as spread.
BLAS_THREADS = 1


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_fingerprint(root: Path) -> str:
    """Digest of the solver's sources and configurations."""
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/aphi/*.py"), *root.glob("configs/*.cfg")]):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_reproducible(out_root: Path, key: str, rounds: list[dict],
                        csvs: tuple[str, ...]) -> list[str]:
    """Every CSV byte-identical across the rounds of this run and the runs
    of the same sources before it; returns the problems found."""
    if not csvs:
        return []
    store = out_root / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digests = [{name: hashlib.sha256((Path(r["dir"]) / name).read_bytes()).hexdigest()
                for name in csvs} for r in rounds]
    reference = known.get(key, digests[0])
    problems = [f"{r['dir']}: {name} differs from earlier runs"
                for r, d in zip(rounds, digests) for name in csvs
                if d[name] != reference[name]]
    if key not in known:
        known[key] = reference
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes at which every check holds")
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/aphi/cli.py", "configs/academic.cfg")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of an aphi checkout; missing {missing}",
              file=sys.stderr)
        return 2

    out_root = BENCH_DIR / OUT_NAME
    out = out_root / args.workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    run_id = f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--run-id", run_id] + (["--quick"] if args.quick else [])
    # The worker's own output goes to stderr: stdout ends with the result.
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads((out / "worker.json").read_text())

    sys.path.insert(0, str(root / "src"))
    from checks import check_round

    # An operation fails when a check on it fails.  Problems of a whole run
    # (a command's exit code, CSVs that differ between runs) fail every
    # operation and make the result incorrect.
    rounds = worker["rounds"] + ([worker["traced"]] if worker["traced"] else [])
    fingerprint = _source_fingerprint(root)
    ref_store = out_root / "references.json"
    references = json.loads(ref_store.read_text()) if ref_store.exists() else {}
    cache: dict = {}
    attempted = 0
    failed_ops: list[str] = []
    problems, run_problems = [], []
    workload = make_workload(args.workload, out, args.quick)
    for r in rounds:
        attempted += workload.ops_per_round
        if any(rc != 0 for rc in r["exit_codes"]):
            run_problems.append(f"{r['dir']}: exit codes {r['exit_codes']}")
        try:
            checked = check_round(args.workload, Path(r["dir"]), args.quick, args.seed,
                                  references, fingerprint, cache)
        except (OSError, ValueError, KeyError) as exc:
            run_problems.append(f"{r['dir']}: outputs unreadable: {exc!r}")
            continue
        failed_ops += sorted(checked.failed)
        problems += checked.problems
    ref_store.write_text(json.dumps(references, indent=1, sort_keys=True))
    # The last digits of residuals and estimates depend on the BLAS thread
    # count, so reproducibility is asked only at the same count.
    key = (f"{fingerprint}:{args.workload}:{'quick' if args.quick else 'full'}"
           f":blas{BLAS_THREADS}")
    if not run_problems:
        run_problems += _check_reproducible(out_root, key, rounds, workload.csvs)
    failed = attempted if run_problems else len(failed_ops)
    for p in problems + run_problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        traced = worker["traced"]
        untraced = statistics.median(r["wall_s"] for r in worker["rounds"])
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in worker["rounds"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(worker["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }

    record = dict(worker["record"], commit=_git_commit(root), seed=args.seed,
                  workload=args.workload, quick=args.quick, trace=args.trace,
                  rounds=len(worker["rounds"]), attempted=attempted, failed=failed,
                  failed_ops=failed_ops, source=fingerprint)
    result = {"correct": not run_problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps({"record": record, **result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
