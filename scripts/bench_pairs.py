#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, summarized as one JSON.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seed S [--traced M] [--seconds 10] [--quick] [--out FILE]

Each directory is the root of a checkout (for example a `git archive` of
each commit, unpacked side by side).  Pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

once from the root of each tree, with that tree's own bench/ and src/;
the parent runs first in even pairs and the change first in odd ones, so
a drift of the machine's speed falls on both sides alike.  One warm-up
pair, seeded and ordered like pair 0, runs before the counted pairs of
each workload: the first run in a fresh tree reads slow, so the warm-up
is recorded under "warmup" and left out of every summary.  --traced M
adds M pairs of traced runs (`--trace 1`, seeds S to S+M-1), alternating
the same way, for the per-layer metrics.  --workload may be given more
than once; every workload gets its own N (and M) pairs.  Nothing
under bench/ is changed; the runs write their outputs under each tree's
bench/out/, as any run does.

The JSON (on stdout, or in --out) holds, per workload and end-to-end
metric, each side's runs, median, quartiles and IQR, the number of pairs
in which the change reads lower, the change's median minus the parent's,
and per side the medians of the runs it made first and second in its
pair ("by_position"); and per side the failed share (failed over
attempted operations, summed over the runs) and whether every run was
correct.  Each metric's "paired" holds the per-pair differences (change
minus parent, in pair order), their median, quartiles and IQR, and the
exact two-sided sign-test p-value of the nonzero differences
("sign_p"): a difference within one pair cancels a drift of the
machine's speed that both of its runs share.  Each run record gives its
position (1 or 2) in its pair and its metric values.
With --traced, "traced" holds the same summary of the per-layer metrics
and "moved": the layer metrics whose medians differ, ordered by the
difference over the parent's IQR (largest first; null, sorted first,
where that IQR is 0).
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MACHINE_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "blas_threads")


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             quick: bool, trace: int = 0) -> tuple[dict, dict]:
    """(record, result) of one bench/run.py run from tree's root."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
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


def sign_test(diffs: list[float]) -> float:
    """Exact two-sided sign-test p-value of the nonzero differences: twice
    the binomial(n, 1/2) tail of the rarer sign, at most 1."""
    signs = [d > 0 for d in diffs if d]
    n, k = len(signs), min(sum(signs), len(signs) - sum(signs))
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def _position(pair: int, side: str) -> int:
    """1 if side runs first in the pair, else 2."""
    return 1 if (pair % 2 == 0) == (side == SIDES[0]) else 2


def _median(runs: list[float]) -> float | None:
    return statistics.median(runs) if runs else None


def summarize(results: dict[str, list[dict]]) -> dict:
    """Per-metric and failure summary of the paired results of each side."""
    metrics = {}
    for name, first in results["parent"][0]["metrics"].items():
        sides = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
        summary = {"unit": first["unit"], **{s: _spread(sides[s]) for s in SIDES}}
        summary["change_lower_in"] = sum(c < p for p, c in zip(*sides.values()))
        summary["median_diff"] = summary["change"]["median"] - summary["parent"]["median"]
        diffs = [c - p for p, c in zip(*sides.values())]
        paired = _spread(diffs)
        summary["paired"] = {"diffs": paired.pop("runs"), **paired,
                             "sign_p": sign_test(diffs)}
        summary["by_position"] = {
            s: {place: _median([v for i, v in enumerate(sides[s])
                                if _position(i, s) == pos])
                for pos, place in ((1, "first"), (2, "second"))}
            for s in SIDES}
        metrics[name] = summary
    failed = {}
    for s in SIDES:
        attempted = sum(r["attempted"] for r in results[s])
        n_failed = sum(r["failed"] for r in results[s])
        failed[s] = {"failed": n_failed, "attempted": attempted,
                     "share": n_failed / attempted if attempted else 0.0,
                     "all_correct": all(r["correct"] for r in results[s])}
    return {"pairs": len(results["parent"]), "metrics": metrics, "failed": failed}


def moved(metrics: dict) -> list[dict]:
    """The metrics whose medians differ, largest |difference| / parent IQR
    first; a zero IQR gives null and sorts before every number."""
    out = []
    for name, m in metrics.items():
        diff, iqr = m["median_diff"], m["parent"]["iqr"]
        if diff:
            out.append({"metric": name, "median_diff": diff, "parent_iqr": iqr,
                        "diff_over_iqr": abs(diff) / iqr if iqr else None})
    return sorted(out, key=lambda m: -(m["diff_over_iqr"] or float("inf")))


def _alternate(trees, workload, pairs, seed, seconds, quick, trace, log,
               label="pair"):
    results = {s: [] for s in SIDES}
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record, result = run_once(trees[side], workload, seed + i, seconds, quick,
                                      trace)
            results[side].append(result)
            runs.append({"pair": i, "side": side, "position": _position(i, side),
                         "seed": seed + i, "trace": trace,
                         **{k: record.get(k) for k in ("source", "rounds", "failed_ops")},
                         "machine": {k: record.get(k) for k in MACHINE_KEYS},
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} {'traced ' if trace else ''}{label} {i} {side}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=log, flush=True)
    return results, runs


def run_pairs(trees: dict[str, Path], workload: str, pairs: int, seed: int,
              seconds: float, quick: bool, log=sys.stderr, traced: int = 0) -> dict:
    # the warm-up pair: seeded and ordered like pair 0, and never summarized
    _, warm_runs = _alternate(trees, workload, 1, seed, seconds, quick, 0, log,
                              label="warm-up pair")
    results, runs = _alternate(trees, workload, pairs, seed, seconds, quick, 0, log)
    out = {**summarize(results), "runs": runs, "warmup": warm_runs}
    if traced:
        results, runs = _alternate(trees, workload, traced, seed, seconds, quick, 1, log)
        layers = summarize(results)
        out["traced"] = {**layers, "moved": moved(layers["metrics"]), "runs": runs}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent's tree")
    parser.add_argument("change", type=Path, help="root of the change's tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--traced", type=int, default=0,
                        help="pairs of traced runs for the per-layer metrics")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_true", help="the benchmark's quick sizes")
    parser.add_argument("--out", type=Path, help="JSON file to write instead of stdout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.traced < 0:
        parser.error("--traced must be at least 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    command = (f"python3 bench/run.py --workload <w> --seed <{args.seed}+pair> "
               f"--seconds {args.seconds:g} --trace 0" + (" --quick" if args.quick else ""))
    out = {
        "command": command,
        "order": "one uncounted warm-up pair, then parent first in even pairs, "
                 "change first in odd pairs",
        "workloads": {w: run_pairs(trees, w, args.pairs, args.seed, args.seconds,
                                   args.quick, traced=args.traced)
                      for w in args.workload},
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
