#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarized as one JSON.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seed S [--seconds 10] [--quick] [--out FILE]

Each directory is the root of a checkout (for example a `git archive` of
each commit, unpacked side by side).  Pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

once from the root of each tree, with that tree's own bench/ and src/;
the parent runs first in even pairs and the change first in odd ones, so
a drift of the machine's speed falls on both sides alike.  --workload may
be given more than once; every workload gets its own N pairs.  Nothing
under bench/ is changed; the runs write their outputs under each tree's
bench/out/, as any run does.

The JSON (on stdout, or in --out) holds, per workload and end-to-end
metric, each side's runs, median, quartiles and IQR, the number of pairs
in which the change reads lower, and the change's median minus the
parent's; and per side the failed share (failed over attempted
operations, summed over the runs) and whether every run was correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MACHINE_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads")


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             quick: bool) -> tuple[dict, dict]:
    """(record, result) of one untraced bench/run.py run from tree's root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _spread(runs: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                   if len(runs) > 1 else runs * 3)
    return {"runs": runs, "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(results: dict[str, list[dict]]) -> dict:
    """Per-metric and failure summary of the paired results of each side."""
    metrics = {}
    for name, first in results["parent"][0]["metrics"].items():
        sides = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
        summary = {"unit": first["unit"], **{s: _spread(sides[s]) for s in SIDES}}
        summary["change_lower_in"] = sum(c < p for p, c in zip(*sides.values()))
        summary["median_diff"] = summary["change"]["median"] - summary["parent"]["median"]
        metrics[name] = summary
    failed = {}
    for s in SIDES:
        attempted = sum(r["attempted"] for r in results[s])
        n_failed = sum(r["failed"] for r in results[s])
        failed[s] = {"failed": n_failed, "attempted": attempted,
                     "share": n_failed / attempted if attempted else 0.0,
                     "all_correct": all(r["correct"] for r in results[s])}
    return {"pairs": len(results["parent"]), "metrics": metrics, "failed": failed}


def run_pairs(trees: dict[str, Path], workload: str, pairs: int, seed: int,
              seconds: float, quick: bool, log=sys.stderr) -> dict:
    results = {s: [] for s in SIDES}
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record, result = run_once(trees[side], workload, seed + i, seconds, quick)
            results[side].append(result)
            runs.append({"pair": i, "side": side, "seed": seed + i,
                         **{k: record.get(k) for k in ("source", "rounds", "failed_ops")},
                         "machine": {k: record.get(k) for k in MACHINE_KEYS}})
            print(f"{workload} pair {i} {side}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=log, flush=True)
    return {**summarize(results), "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent's tree")
    parser.add_argument("change", type=Path, help="root of the change's tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_true", help="the benchmark's quick sizes")
    parser.add_argument("--out", type=Path, help="JSON file to write instead of stdout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    command = (f"python3 bench/run.py --workload <w> --seed <{args.seed}+pair> "
               f"--seconds {args.seconds:g} --trace 0" + (" --quick" if args.quick else ""))
    out = {
        "command": command,
        "order": "parent first in even pairs, change first in odd pairs",
        "workloads": {w: run_pairs(trees, w, args.pairs, args.seed, args.seconds,
                                   args.quick) for w in args.workload},
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
