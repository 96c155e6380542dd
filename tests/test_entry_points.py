"""Smoke tests of the entry points a user runs: `python -m aphi`, the
study scripts, the line count, the output digests and the benchmark
pairs, each in its own interpreter from a plain checkout."""
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the CSV column lines the README documents
SWEEP_HEADER = "f_hz,method,cond_estimate,cond_method,delta_D,rel_residual,n_dofs,wall_ms"
CONVERGE_HEADER = "s_h,method,hcurl_error,rate"


def _run(*args, threads="1"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def _columns(path):
    comment, header = path.read_text().splitlines()[:2]
    assert comment.startswith("# aphi ")
    return header


def test_module_check_passes():
    proc = _run("-m", "aphi", "check", "--config", "configs/academic.cfg")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(l.startswith(("INFO ", "PASS ")) for l in lines)
    assert any(l.startswith("PASS ") for l in lines)


def test_stability_script_writes_sweep_csv(tmp_path):
    proc = _run("scripts/run_stability_study.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert _columns(tmp_path / "academic_stability.csv") == SWEEP_HEADER


def test_stability_script_sweeps_the_given_mesh(tmp_path):
    proc = _run("scripts/run_stability_study.py", "--outdir", str(tmp_path),
                "--subdivs", "5,5,5")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "academic_stability.csv").read_text().splitlines()[2:]
    n_dofs = {}
    for row in rows:
        _, method, *_, dofs, _ = row.split(",")
        n_dofs.setdefault(method, set()).add(int(dofs))
    # the free edges of 5^3, plus one multiplier per gauge node for lagrange
    assert n_dofs == {"original": {240}, "tree-cotree": {240}, "lagrange": {304}}


def test_convergence_script_writes_one_csv_per_regime(tmp_path):
    proc = _run("scripts/run_convergence_study.py", "--outdir", str(tmp_path),
                "--subdivs", "2,3")
    assert proc.returncode == 0, proc.stderr
    for name in ("convergence_sigma0_f1e6.csv", "convergence_sigma0_f10.csv",
                 "convergence_sigma6e7_f10.csv"):
        assert _columns(tmp_path / name) == CONVERGE_HEADER


def test_line_count_script_totals_every_module():
    proc = _run("scripts/count_src_lines.py")
    assert proc.returncode == 0, proc.stderr
    *modules, total = (line.split() for line in proc.stdout.splitlines()[1:])
    assert sorted(m[0] for m in modules) == sorted(
        p.name for p in (ROOT / "src" / "aphi").glob("*.py"))
    assert total[0] == "total"
    for col in (1, 2):
        assert int(total[col]) == sum(int(m[col]) for m in modules)
    # code lines are raw lines less blank, comment and docstring lines
    assert all(0 < int(code) < int(raw) for _, raw, code in modules)


def test_output_digests_script_quick_prints_one_line_per_output():
    proc = _run("scripts/output_digests.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(w, f) for w, f, _ in lines] == [
        ("sweep-academic", "sweep.csv"), ("converge-mms", "mms_sigma0.csv"),
        ("converge-mms", "mms_sigma6e7.csv"), ("export-academic", "fields.vtk")]
    assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef")
               for *_, digest in lines)
    # the script pins one BLAS thread itself: the sweep's digits depend on it
    assert _run("scripts/output_digests.py", "--quick", threads="2").stdout == proc.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternates_sides_and_summarizes(monkeypatch):
    bench_pairs = _bench_pairs()
    calls = []
    # each side's first run is its warm-up, which no summary may read
    peaks = {"parent": [500.0, 170.0, 168.0, 169.0],
             "change": [500.0, 160.0, 161.0, 170.0]}
    # traced runs: form_s moves by 8 parent IQRs, factor_s by 2, the count
    # by 1 with no spread, and bundle_s not at all
    layers = {"parent": [(1.0, 5.0, 10, 2.0), (1.2, 5.2, 10, 2.0)],
              "change": [(0.2, 5.2, 11, 2.0), (0.4, 5.4, 11, 2.0)]}
    names = ("system.form_s", "solve.factor_s", "solve.factorizations",
             "assembly.bundle_s")

    def fake_run_once(tree, workload, seed, seconds, quick, trace=0):
        calls.append((tree, seed, trace))
        n = sum(t == tree and tr == trace for t, _, tr in calls) - 1
        metrics = ({m: {"value": v, "unit": "s"} for m, v in zip(names, layers[tree][n])}
                   if trace else {"peak_rss_mb": {"value": peaks[tree][n], "unit": "MB"}})
        return ({"source": tree, "rounds": 1, "failed_ops": []},
                {"correct": True, "attempted": 18, "failed": int(tree == "parent"),
                 "metrics": metrics})

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = bench_pairs.run_pairs({"parent": "parent", "change": "change"}, "w",
                                pairs=3, seed=7, seconds=1.0, quick=True,
                                log=io.StringIO(), traced=2)
    # a warm-up pair like pair 0 comes first; then seed 7's ABBA blocks
    # (abba: parent first, then change first), and both sides of a pair
    # share its seed; the traced pairs follow the untraced ones, alike
    assert calls == [("parent", 7, 0), ("change", 7, 0),
                     ("parent", 7, 0), ("change", 7, 0), ("change", 8, 0),
                     ("parent", 8, 0), ("parent", 9, 0), ("change", 9, 0),
                     ("parent", 7, 1), ("change", 7, 1), ("change", 8, 1),
                     ("parent", 8, 1)]
    assert [(r["side"], r["position"], r["seed"], r["metrics"]) for r in out["warmup"]] \
        == [("parent", 1, 7, {"peak_rss_mb": 500.0}),
            ("change", 2, 7, {"peak_rss_mb": 500.0})]
    assert [(r["side"], r["position"]) for r in out["runs"]] == [
        ("parent", 1), ("change", 2), ("change", 1), ("parent", 2),
        ("parent", 1), ("change", 2)]
    # each run names the side that ran just before it, across the warm-up,
    # the counted and the traced pairs
    sides = [r["side"] for r in out["warmup"] + out["runs"] + out["traced"]["runs"]]
    assert [r["after"] for r in out["warmup"] + out["runs"] + out["traced"]["runs"]] \
        == [None] + sides[:-1]
    peak = out["metrics"]["peak_rss_mb"]
    assert out["pairs"] == 3 and peak["parent"]["runs"] == peaks["parent"][1:]
    assert (peak["parent"]["median"], peak["change"]["median"]) == (169.0, 161.0)
    assert peak["parent"]["iqr"] == 1.0 and peak["median_diff"] == -8.0
    assert peak["change_lower_in"] == 2
    # the parent ran first in pairs 0 and 2, the change in pair 1
    assert peak["by_position"] == {"parent": {"first": 169.5, "second": 168.0},
                                   "change": {"first": 161.0, "second": 165.0}}
    # pair differences -10, -7, +1: one sign against two, so the exact
    # two-sided p-value is 2 * (C(3,0) + C(3,1)) / 2^3, capped at 1
    assert peak["paired"] == {"diffs": [-10.0, -7.0, 1.0], "median": -7.0,
                              "q1": -8.5, "q3": -3.0, "iqr": 5.5, "sign_p": 1.0}
    assert out["failed"]["parent"] == {"failed": 3, "attempted": 54,
                                       "share": 3 / 54, "all_correct": True}
    assert out["failed"]["change"]["share"] == 0.0
    traced = out["traced"]
    assert set(traced["metrics"]) == set(names)
    assert traced["metrics"]["system.form_s"]["change_lower_in"] == 2
    assert [m["metric"] for m in traced["moved"]] == [
        "solve.factorizations", "system.form_s", "solve.factor_s"]
    assert traced["moved"][0]["diff_over_iqr"] is None
    assert [round(m["diff_over_iqr"], 9) for m in traced["moved"][1:]] == [8.0, 2.0]
    assert [r["trace"] for r in traced["runs"]] == [1] * 4
    # two differences of one sign give 2 * C(2,0) / 2^2; zero differences
    # are no sign, and none left reads 1
    paired = {m: traced["metrics"][m]["paired"] for m in names}
    assert paired["solve.factorizations"] == {
        "diffs": [1, 1], "median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0, "sign_p": 0.5}
    assert [round(d, 9) for d in paired["system.form_s"]["diffs"]] == [-0.8, -0.8]
    assert paired["system.form_s"]["sign_p"] == 0.5
    assert paired["assembly.bundle_s"]["diffs"] == [0.0, 0.0]
    assert paired["assembly.bundle_s"]["sign_p"] == 1.0
    assert bench_pairs.sign_test([1, 2, 3, 4, 5, 6, 7, 8, 9, -1]) == 22 / 1024


def test_bench_pairs_orders_seeded_abba_blocks(monkeypatch):
    bench_pairs = _bench_pairs()
    P, C = ("parent", "change"), ("change", "parent")
    # seed 7 flips parent-first, parent-first, change-first for its blocks
    assert bench_pairs.abba(6, 7) == [P, C, P, C, C, P]
    assert bench_pairs.abba(5, 7) == [P, C, P, C, C]
    assert bench_pairs.abba(4, 0) == [C, P, C, P]
    for seed in range(20):  # every block puts each side first once
        orders = bench_pairs.abba(10, seed)
        assert orders == bench_pairs.abba(10, seed)
        assert all({orders[k][0], orders[k + 1][0]} == set(P) for k in range(0, 10, 2))
    assert len({tuple(bench_pairs.abba(10, seed)) for seed in range(20)}) > 1

    calls = []

    def fake_run_once(tree, workload, seed, seconds, quick, trace=0):
        calls.append((workload, tree, seed))
        return ({}, {"correct": True, "attempted": 1, "failed": 0,
                     "metrics": {"wall_s": {"value": float(len(calls)), "unit": "s"}}})

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    history = []
    out = {w: bench_pairs.run_pairs({"parent": "parent", "change": "change"}, w,
                                    pairs=4, seed=0, seconds=1.0, quick=True,
                                    log=io.StringIO(), history=history)
           for w in ("a", "b")}
    # the warm-up pair is ordered like pair 0, here change first; the
    # second workload's first run comes after the first workload's last
    assert [tree for w, tree, _ in calls if w == "a"] == [
        "change", "parent", "change", "parent", "parent", "change",
        "change", "parent", "parent", "change"]
    assert out["b"]["warmup"][0]["after"] == out["a"]["runs"][-1]["side"] == "change"
    assert history == [tree for _, tree, _ in calls]
    # wall_s is the run's call number: the parent ran first as runs 5 and
    # 9, second as 4 and 8; the change first as 3 and 7, second as 6 and 10
    assert out["a"]["metrics"]["wall_s"]["by_position"] == {
        "parent": {"first": 7.0, "second": 6.0}, "change": {"first": 5.0, "second": 8.0}}


@pytest.mark.slow  # a warm-up pair and one counted pair: four runs, about 18 s
def test_bench_pairs_script_one_tree_against_itself(tmp_path):
    tree = tmp_path / "tree"
    for part in ("src", "configs", "bench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = tmp_path / "pairs.json"
    proc = _run("scripts/bench_pairs.py", str(tree), str(tree), "--workload",
                "export-academic", "--pairs", "1", "--seed", "1", "--seconds", "0",
                "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())["workloads"]["export-academic"]
    assert result["pairs"] == 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert result["failed"]["parent"] == result["failed"]["change"] == {
        "failed": 0, "attempted": 1, "share": 0.0, "all_correct": True}
    assert [(r["side"], r["seed"], r["position"], r["after"]) for r in result["runs"]] \
        == [("parent", 1, 1, "change"), ("change", 1, 2, "parent")]  # abba(1, 1)
    # the warm-up pair ran first and is left out of the summary
    assert [(r["side"], r["seed"]) for r in result["warmup"]] == [("parent", 1),
                                                                  ("change", 1)]
    assert len(result["metrics"]["wall_s"]["parent"]["runs"]) == 1
