import contextlib
import io
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aphi import cli, physics, scenario, solve
from aphi.cli import (_num, _sweep_row, main, parse_frequencies, run_check,
                      run_convergence)
from aphi.gauge import UnsupportedTopologyError
from aphi.mesh import FACE_LABELS
from aphi.physics import (METHODS, curl_coordinates, curl_system, excitation,
                          hcurl_error, run_two_step)
from aphi.scenario import (ConfigError, Scenario, academic_scenario, load_scenario,
                           parse_scenario)
from aphi.solve import DENSE_SVD_LIMIT, KAPPA1_EPS_TOL, condition_estimate
from oracles import dense_rank

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ACADEMIC = str(CONFIG_DIR / "academic.cfg")
MMS0 = str(CONFIG_DIR / "mms_sigma0.cfg")
MMS6E7 = str(CONFIG_DIR / "mms_sigma6e7.cfg")


def test_parse_frequencies():
    assert parse_frequencies("0,1e-3,10") == [0.0, 1e-3, 10.0]
    logs = parse_frequencies("logspace:-2,2,5")
    assert np.allclose(logs, [1e-2, 1e-1, 1, 10, 100])
    with pytest.raises(ValueError):
        parse_frequencies("")
    with pytest.raises(ValueError):
        parse_frequencies("-3")
    for spec in ("1,inf", "nan"):
        with pytest.raises(ValueError):
            parse_frequencies(spec)


def test_overflowing_logspace_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            parse_frequencies("logspace:0,400,2")


def test_empty_logspace_sweep_exit(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "logspace:0,1,0",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


def _read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def test_sweep_csv_schema_and_singular_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "0,1e3",
                 "--methods", "original,tree-cotree", "--out", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    assert header == ["f_hz", "method", "cond_estimate", "cond_method",
                      "delta_D", "rel_residual", "n_dofs", "wall_ms"]
    assert len(rows) == 4
    by_key = {(r[0], r[1]): r for r in rows}
    # the unstabilized variant is singular in the static limit
    assert by_key[("0", "original")][4] == "singular"
    assert by_key[("0", "original")][5] == "singular"
    assert float(by_key[("0", "tree-cotree")][4]) < 1e-10
    assert all(r[7] == "0" for r in rows)  # deterministic wall_ms default


def test_sweep_reproducible_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--config", ACADEMIC, "--freqs", "1e-3,1e3",
            "--methods", "tree-cotree", "--quantities", "delta_D,solve_residual"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_timing_fills_only_wall_ms(tmp_path):
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    args = ["sweep", "--config", ACADEMIC, "--freqs", "0,1e3"]
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--timing", "--out", str(timed)]) == 0
    header, plain_rows = _read_rows(plain)
    assert _read_rows(timed)[0] == header
    timed_rows = _read_rows(timed)[1]
    assert len(timed_rows) == len(plain_rows) == 6
    wall = header.index("wall_ms")
    for p, t in zip(plain_rows, timed_rows):
        assert t[wall].isdigit()  # a non-negative integer
        assert t[:wall] + t[wall + 1:] == p[:wall] + p[wall + 1:]


def test_singular_sweep_row_above_dense_limit_factors_once(monkeypatch, splu_dtypes):
    built = academic_scenario((11, 11, 11)).build()
    assert built.edge.n_free > DENSE_SVD_LIMIT
    factored = []

    class Counted(solve.Factorization):
        def __init__(self, A, *args, **kwargs):
            factored.append(A.shape[0])
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(solve, "Factorization", Counted)
    monkeypatch.setattr("aphi.physics.Factorization", Counted)
    row, singular = _sweep_row(built, 0.0, excitation(built, 0.0), "original",
                               {"condition", "delta_D", "solve_residual"})
    assert singular
    assert row == f"0,original,inf,power-iteration,singular,singular,{built.edge.n_free}"
    # one LU, of the EQS system: the gradient probe proves the curl system
    # singular inside its Factorization without an LU, and the estimate
    # adds none
    assert factored == [built.scalar.n_free, built.edge.n_free]
    assert len(splu_dtypes) == 1
    # the estimate written is the one the system alone gives
    est = condition_estimate(curl_system(built, 0.0, "original")[0])
    assert (est.value, est.method, est.iterations) == (np.inf, "power-iteration", 0)


def test_solve_rejects_density_before_solving(tmp_path, monkeypatch):
    calls = []
    real = cli.run_two_step
    monkeypatch.setattr(cli, "run_two_step",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    out = tmp_path / "f.vtk"
    code = main(["solve", "--config", ACADEMIC, "--subdivs", "3,3,3",
                 "--freq", "100", "--method", "tree-cotree",
                 "--vtk", str(out), "--density", "0"])
    assert code == 2
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--config", ACADEMIC, "--method", "tree-cotree", "--freq", "{f}"],
    ["converge", "--config", MMS0, "--subdivs", "2,3", "--freq", "{f}",
     "--out", "{out}"],
    ["sweep", "--config", ACADEMIC, "--freqs", "0,{f}", "--out", "{out}"],
])
@pytest.mark.parametrize("freq", ["nan", "inf"])
def test_non_finite_frequency_rejected_before_building(tmp_path, monkeypatch,
                                                       argv, freq):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = tmp_path / "out.csv"
    assert main([a.format(f=freq, out=out) for a in argv]) == 2
    assert built == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--config", ACADEMIC, "--method", "tree-cotree", "--freq", "{f}"],
    ["converge", "--config", MMS0, "--subdivs", "2,3", "--freq", "{f}",
     "--out", "{out}"],
    ["sweep", "--config", ACADEMIC, "--freqs", "0,{f}", "--out", "{out}"],
])
def test_frequency_whose_omega_squared_overflows_rejected(tmp_path, argv, capsys):
    # omega^2 would overflow to inf in the curl matrix
    out = tmp_path / "out.csv"
    assert main([a.format(f="1e160", out=out) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "1e+160 Hz" in err[0]
    assert not out.exists()


def test_onenormest_warnings_on_vanishing_conductivity_stay_inside(tmp_path):
    # parts near 1e-306 of the equilibrated matrix make scipy's onenormest
    # warn; the row still ends as in a run that ignores warnings
    cfg = tmp_path / "tiny_sigma.cfg"
    cfg.write_text("domain 0 1 0 1 0 1\nsubdivisions 1 1 1\n"
                   "region 0 1 0 1 0 1 eps_r=19 sigma=1e-300 mu_r=1\n"
                   "phi xmin 0\na_zero xmin ymin zmin\n")
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(cfg), "--freqs", "1",
                     "--methods", "tree-cotree", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == \
        "1,tree-cotree,5.37116456441e+14,dense-svd,0,0,3,0"


def test_run_convergence_rejects_non_finite_frequency(monkeypatch):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    for f in (np.nan, np.inf):
        with pytest.raises(ValueError):
            run_convergence(load_scenario(MMS0), [2, 3], f, ["original"])
    assert built == []


def test_solve_inaccurate_exit(monkeypatch):
    # a residual the refinement step cannot bring under the tolerance is
    # reported like a singular solve
    monkeypatch.setattr(solve, "RESIDUAL_TOL", 0.0)
    code = main(["solve", "--config", ACADEMIC, "--subdivs", "3,3,3",
                 "--freq", "100", "--method", "tree-cotree"])
    assert code == 3


def test_sweep_required_singular_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "0",
                 "--methods", "original", "--require", "original",
                 "--out", str(out)])
    assert code == 3


@pytest.mark.parametrize("require", ["tree-cotre", "lagrange", "original,x"])
def test_sweep_require_outside_swept_methods_rejected(tmp_path, monkeypatch,
                                                      require):
    # a typo, or a method the sweep does not run, could never fail the run
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1",
                 "--methods", "original", "--require", require,
                 "--out", str(out)])
    assert code == 2
    assert built == [] and not out.exists()


def test_sweep_condition_only_does_not_count_singular(tmp_path):
    # without a solve quantity a singular row is not a failed solve
    out = tmp_path / "c.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "0",
                 "--methods", "original", "--quantities", "condition",
                 "--require", "original", "--out", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    assert rows[0][2] != "" and rows[0][4:6] == ["", ""]


def test_sweep_condition_trend(tmp_path):
    out = tmp_path / "cond.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1e-3,1e3",
                 "--methods", "original,tree-cotree",
                 "--quantities", "condition", "--out", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    cond = {(r[0], r[1]): float(r[2]) for r in rows}
    # original deteriorates toward low frequency, stabilized stays bounded
    assert cond[("0.001", "original")] > 1e3 * cond[("1000", "original")]
    assert cond[("0.001", "tree-cotree")] < 1e4 * cond[("1000", "tree-cotree")]
    assert all(r[3] == "dense-svd" for r in rows)


def test_sweep_reports_each_capped_estimate_on_stderr(tmp_path, monkeypatch, capsys):
    # at a cap of 2 steps no power run meets the 1e-6 test; the CSV is the
    # one written when every estimate counts as converged
    monkeypatch.setattr("aphi.solve.DENSE_SVD_LIMIT", 10)
    monkeypatch.setattr("aphi.solve._POWER_MAX_ITERS", 2)
    args = ["sweep", "--config", ACADEMIC, "--freqs", "1e-3,1e3",
            "--methods", "tree-cotree,lagrange", "--quantities", "condition"]
    capped, forced = tmp_path / "capped.csv", tmp_path / "forced.csv"
    assert main(args + ["--out", str(capped)]) == 0
    lines = capsys.readouterr().err.splitlines()
    _, rows = _read_rows(capped)
    assert all(r[3] == "power-iteration" for r in rows)
    assert [line.split(":")[0] for line in lines] == \
        [f"condition estimate at {r[0]} Hz, {r[1]}" for r in rows]
    real = physics.condition_estimate
    monkeypatch.setattr(physics, "condition_estimate",
                        lambda *a, **k: replace(real(*a, **k), converged=True))
    assert main(args + ["--out", str(forced)]) == 0
    assert capsys.readouterr().err == ""
    assert forced.read_bytes() == capped.read_bytes()


def test_sweep_delta_trend(tmp_path):
    out = tmp_path / "delta.csv"
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1e-3,1,1e3",
                 "--methods", "original,tree-cotree",
                 "--quantities", "delta_D", "--out", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    delta = {(r[0], r[1]): float(r[4]) for r in rows}
    # stabilized residual tiny everywhere; unstabilized grows toward low f
    for f in ("0.001", "1", "1000"):
        assert delta[(f, "tree-cotree")] <= 1e-10
    assert delta[("0.001", "original")] > delta[("1", "original")] \
        > delta[("1000", "original")]


def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", MMS0, "--subdivs", "2,4",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    assert header == ["s_h", "method", "hcurl_error", "rate"]
    assert rows[0][3] == ""  # first refinement has no rate yet
    assert float(rows[1][3]) > 0.9


def test_converge_repeated_size_rejected(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", MMS0, "--subdivs", "2,2",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    # a decreasing list is still a refinement study
    code = main(["converge", "--config", MMS0, "--subdivs", "4,2",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    assert float(rows[1][3]) > 0.9


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", ACADEMIC, "--freqs", "1", "--methods", ","],
    ["converge", "--config", MMS0, "--subdivs", "2,4", "--freq", "10",
     "--methods", " , "],
])
def test_empty_methods_list_rejected_before_building(argv, tmp_path, monkeypatch,
                                                      capsys):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "empty --methods list" in capsys.readouterr().err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", ACADEMIC, "--freqs", "1",
     "--methods", "tree-cotree,tree-cotree"],
    ["converge", "--config", MMS0, "--subdivs", "2,4", "--freq", "10",
     "--methods", "original,tree-cotree,original"],
])
def test_repeated_method_rejected_before_building(argv, tmp_path, monkeypatch,
                                                  capsys):
    # a repeated method would write duplicate rows, and on converge a nan
    # rate from two errors at one size
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "repeated method" in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_repeated_method_config_line_exit(tmp_path, capsys):
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(Path(MMS0).read_text() + "\nmethods lagrange lagrange\n")
    line = len(cfg.read_text().splitlines())
    out = tmp_path / "out.csv"
    code = main(["converge", "--config", str(cfg), "--subdivs", "2,4",
                 "--freq", "10", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert f"line {line}: repeated method" in capsys.readouterr().err


def test_converge_rejects_size_below_one_before_building(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    for subdivs in ([2, -4], [0, 2]):
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            run_convergence(load_scenario(MMS0), subdivs, 10.0, ["tree-cotree"])
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", MMS0, "--subdivs", "2,-4",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 2
    assert built == [] and not out.exists()


def test_converge_rejects_unmanufactured_source_before_building(tmp_path, monkeypatch,
                                                                 capsys):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    with pytest.raises(ConfigError, match="needs a manufactured source"):
        run_convergence(load_scenario(ACADEMIC), [2, 4], 10.0, ["tree-cotree"])
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", ACADEMIC, "--subdivs", "2,4",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 2
    assert "line 0: convergence study needs a manufactured source" in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_solve_with_vtk(tmp_path, capsys):
    vtk = tmp_path / "out.vtk"
    code = main(["solve", "--config", ACADEMIC, "--freq", "100",
                 "--method", "tree-cotree", "--vtk", str(vtk)])
    assert code == 0
    assert vtk.exists()
    out = capsys.readouterr().out
    assert "delta_D" in out


def test_solve_prints_manufactured_hcurl_error(capsys):
    code = main(["solve", "--config", MMS0, "--subdivs", "4,4,4", "--freq", "10",
                 "--method", "tree-cotree"])
    assert code == 0
    built = load_scenario(MMS0).with_subdivisions((4, 4, 4)).build()
    sol = run_two_step(built, 10.0, "tree-cotree")
    err = hcurl_error(built, sol.a, built.mms)
    assert f"  hcurl_error  = {err:.6e}\n" in capsys.readouterr().out


@pytest.mark.parametrize("method, low, high", [
    ("original", 0.1, KAPPA1_EPS_TOL),  # solved, with about four good digits
    ("tree-cotree", 0.0, 1e-12),
])
def test_solve_prints_kappa1_eps(method, low, high, capsys):
    code = main(["solve", "--config", MMS0, "--subdivs", "3,3,3", "--freq", "10",
                 "--method", method])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split("=")[0].strip() for line in lines[1:]]
    assert names[:2] == ["delta_D", "rel_residual"] and names[2] == "kappa1_eps"
    assert low <= float(lines[3].split("=")[1]) <= high


def test_solve_singular_exit(tmp_path, capsys):
    code = main(["solve", "--config", ACADEMIC, "--freq", "0",
                 "--method", "original"])
    assert code == 3
    # at 3^3 the bars leave no air gauge node, so the LU judges it
    assert "kappa_1 * eps =" in capsys.readouterr().err
    code = main(["solve", "--config", ACADEMIC, "--subdivs", "4,4,4",
                 "--freq", "0", "--method", "original"])
    assert code == 3
    assert "gradient probe" in capsys.readouterr().err


FLOATING_CONDUCTOR = """\
# sigma = 1 cube in the middle, electrodes on the x faces it never touches
domain        0 1  0 1  0 1
subdivisions  3 3 3
region 0 1  0 1  0 1              eps_r=1 sigma=0
region 0.3 0.7  0.3 0.7  0.3 0.7  eps_r=1 sigma=1
phi xmin 0
phi xmax 1
a_zero all
source none
methods tree-cotree
"""


def test_solve_floating_conductor_exit(tmp_path, capsys):
    cfg = tmp_path / "floating.cfg"
    cfg.write_text(FLOATING_CONDUCTOR)
    code = main(["solve", "--config", str(cfg), "--freq", "0",
                 "--method", "tree-cotree"])
    assert code == 3
    assert "floating conductor" in capsys.readouterr().err


def test_sweep_floating_conductor_required_exit(tmp_path):
    cfg = tmp_path / "floating.cfg"
    cfg.write_text(FLOATING_CONDUCTOR)
    code = main(["sweep", "--config", str(cfg), "--freqs", "0",
                 "--require", "tree-cotree", "--out", str(tmp_path / "f.csv")])
    assert code == 3


def test_check_command(capsys):
    code = main(["check", "--config", ACADEMIC])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


# No phi and no a_zero line: nothing is constrained, so node 0 alone is
# collapsed into the gauge graph's root.
NO_ROOT = """\
domain        0 1  0 1  0 1
subdivisions  3 3 3
region 0 1  0 1  0 1  eps_r=1 sigma=0
source none
"""


def _no_root_config(tmp_path, sigma):
    cfg = tmp_path / "no_root.cfg"
    cfg.write_text(NO_ROOT.replace("sigma=0", f"sigma={sigma}"))
    return cfg


RANK_LINES = ("tree count", "cotree block")


def _rank_verdicts(built):
    """The check's kernel and cotree verdicts, and the dense-SVD oracle's."""
    verdicts = {prefix: ok for label, ok in run_check(built)
                for prefix in RANK_LINES if label.startswith(prefix)}
    fw, part = built.edge.free, built.partition
    C_free = built.bundle.C_nu[fw][:, fw]
    C_RR = C_free[part.cotree][:, part.cotree]
    dense = {"tree count": fw.size - dense_rank(C_free) == part.tree.size,
             "cotree block": dense_rank(C_RR) == part.cotree.size}
    return verdicts, dense


def _move_tree_edge_to_cotree(built):
    part = built.partition
    k = part.tree.size // 2
    mutant = replace(part, tree=np.delete(part.tree, k),
                     tree_vertex=np.delete(part.tree_vertex, k),
                     cotree=np.sort(np.append(part.cotree, part.tree[k])))
    return replace(built, partition=mutant)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
@pytest.mark.parametrize("config", ["academic", "mms_sigma0", "mms_sigma6e7",
                                    "no-root"])
def test_check_rank_verdicts_match_dense_oracle(config, size, tmp_path):
    source = {"academic": ACADEMIC, "mms_sigma0": MMS0,
              "mms_sigma6e7": MMS6E7}.get(config)
    if source is None:
        source = _no_root_config(tmp_path, 0)
    built = load_scenario(source).with_subdivisions((size,) * 3).build()
    assert built.gauge.gauge_nodes.size == built.partition.tree.size
    verdicts, dense = _rank_verdicts(built)
    assert verdicts == dense == {"tree count": True, "cotree block": True}
    verdicts, dense = _rank_verdicts(_move_tree_edge_to_cotree(built))
    assert verdicts == dense == {"tree count": False, "cotree block": False}


# phi on two faces, a_zero on a third: 40 phi nodes lie on no a_zero edge,
# so the tree (60 edges) cannot span the static curl kernel (100)
UNSPANNED = """\
domain        0 1  0 1  0 1
subdivisions  4 4 4
region 0 1  0 1  0 1  eps_r=1 sigma=0
phi xmin 0
phi xmax 1
a_zero zmin
source none
"""


@pytest.fixture
def unspanned_config(tmp_path):
    cfg = tmp_path / "unspanned.cfg"
    cfg.write_text(UNSPANNED)
    return cfg


def test_unspanned_gauge_refused_before_any_curl_lu(unspanned_config, monkeypatch,
                                                    capsys):
    factored = []
    real = physics.Factorization
    monkeypatch.setattr(physics, "Factorization",
                        lambda *a, **k: factored.append(a) or real(*a, **k))
    code = main(["solve", "--config", str(unspanned_config), "--freq", "1e3",
                 "--method", "tree-cotree"])
    assert code == 2
    err = capsys.readouterr().err
    assert "60 tree edges cannot span a static curl kernel of dimension 100" in err
    assert "every phi face must be an a_zero face" in err
    assert factored == []


def test_unspanned_gauge_original_still_solves(unspanned_config):
    assert main(["solve", "--config", str(unspanned_config), "--freq", "1e6",
                 "--method", "original"]) == 0


def test_unspanned_gauge_sweep_refused_without_csv(unspanned_config, tmp_path,
                                                   capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(unspanned_config), "--freqs", "1",
                 "--methods", "original,tree-cotree", "--out", str(out)])
    assert code == 2
    assert "static curl kernel" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, owner, name):
    """Record each call of owner.name, which still runs."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


def test_unspanned_gauge_refused_before_step_one(unspanned_config, monkeypatch,
                                                 tmp_path, capsys):
    # refused up front: no step-one solve, no LU, and no original row first
    mms = tmp_path / "unspanned_mms.cfg"
    mms.write_text(Path(MMS0).read_text().replace("phi all 0", "phi xmin 0\nphi xmax 0")
                   .replace("a_zero all", "a_zero zmin"))
    built = load_scenario(mms).build()
    assert built.partition.tree.size != built.gauge.kernel_dimension
    eqs_solves = _count_calls(monkeypatch, physics, "solve_eqs_step")
    factored = _count_calls(monkeypatch, solve.Factorization, "__init__")
    out = tmp_path / "out.csv"
    for argv in (["solve", "--config", str(unspanned_config), "--freq", "1e3",
                  "--method", "tree-cotree"],
                 ["sweep", "--config", str(unspanned_config), "--freqs", "1",
                  "--methods", "original,tree-cotree", "--out", str(out)],
                 ["converge", "--config", str(mms), "--subdivs", "2,3", "--freq", "10",
                  "--methods", "original,lagrange", "--out", str(out)]):
        assert main(argv) == 2, argv[0]
        assert "static curl kernel" in capsys.readouterr().err
        assert (eqs_solves, factored) == ([], []), argv[0]
        assert not out.exists()


def test_check_factors_once_and_counts_the_kernel(academic_built, unspanned_config,
                                                  monkeypatch):
    factored = []
    real = cli.Factorization
    monkeypatch.setattr(cli, "Factorization",
                        lambda *a, **k: factored.append(a) or real(*a, **k))
    for built, ok in ((academic_built, True),
                      (load_scenario(unspanned_config).build(), False)):
        factored.clear()
        kernel = built.gauge.kernel_dimension
        lines = dict(run_check(built))
        assert len(factored) == 1
        assert lines[f"tree count {built.partition.tree.size} = curl kernel "
                     f"{kernel}"] is ok
    assert (built.partition.tree.size, kernel) == (60, 100)


def test_sweep_row_failing_residual_check_estimates_condition(unspanned_config,
                                                              monkeypatch, tmp_path):
    # the original system at 1e3 Hz passes the kappa_1 * eps test but not
    # the residual check; its row reads the estimate on the system alone
    monkeypatch.setattr(solve, "DENSE_SVD_LIMIT", 100)
    built = load_scenario(unspanned_config).build()
    with pytest.raises(solve.InaccurateSolveError):
        run_two_step(built, 1e3, "original", condition=True)
    est = condition_estimate(curl_system(built, 2 * np.pi * 1e3, "original")[0],
                             coords=curl_coordinates(built, "original"))
    assert np.isfinite(est.value)
    out = tmp_path / "sweep.csv"
    factored = _count_calls(monkeypatch, solve.Factorization, "__init__")
    code = main(["sweep", "--config", str(unspanned_config), "--freqs", "1e3",
                 "--methods", "original", "--out", str(out)])
    assert code == 0
    _, rows = _read_rows(out)
    assert rows == [["1000", "original", _num(est.value), "power-iteration",
                     "singular", "singular", "260", "0"]]
    # the estimate comes from the LU that failed the residual check alone
    assert sum(args[1].shape[0] == 260 for args in factored) == 1


@given(st.sampled_from([(2, 2, 2), (3, 3, 3), (2, 3, 2)]),
       st.lists(st.sampled_from(FACE_LABELS), unique=True),
       st.lists(st.sampled_from(FACE_LABELS), unique=True))
@example((2, 2, 2), ["xmin", "xmax"], list(FACE_LABELS))  # spanned
@example((3, 3, 3), ["xmin", "xmax"], ["zmin"])  # a phi node off a_zero
@example((2, 3, 2), [], ["xmin", "xmax"])  # a_zero in two pieces
def test_kernel_count_matches_dense_rank(subdivisions, phi_faces, a_zero_faces):
    # the count, the refusal and the check's verdicts all agree with a
    # dense rank of the free static curl matrix
    built = replace(parse_scenario(UNSPANNED), subdivisions=subdivisions,
                    phi_bcs=tuple((face, float(i)) for i, face in enumerate(phi_faces)),
                    a_zero=tuple(a_zero_faces)).build()
    fw = built.edge.free
    kernel = built.gauge.kernel_dimension
    assert kernel == fw.size - dense_rank(built.bundle.C_nu[fw][:, fw])
    spanned = built.partition.tree.size == kernel
    for method in ("tree-cotree", "lagrange"):
        try:
            curl_system(built, 1.0, method)
            refused = False
        except UnsupportedTopologyError:
            refused = True
        assert refused is not spanned, method
    curl_system(built, 1.0, "original")
    verdicts, dense = _rank_verdicts(built)
    assert verdicts == dense


@pytest.mark.parametrize("sigma", [0, 1])
def test_no_root_systems_square_and_sized_once(sigma, tmp_path):
    # the matrix, the coordinates ordering its LU and the sweep's n_dofs
    # column agree for every method; step one is singular without a phi
    # line, so the solve columns read singular and the run still exits 0
    cfg = _no_root_config(tmp_path, sigma)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--freqs", "1",
                 "--methods", ",".join(METHODS), "--out", str(out)])
    assert code == 0
    header, rows = _read_rows(out)
    by_method = {row[header.index("method")]: row for row in rows}
    built = load_scenario(cfg).build()
    for method in METHODS:
        A = curl_system(built, 2 * np.pi, method)[0]
        n = A.shape[0]
        assert A.shape == (n, n)
        assert curl_coordinates(built, method).shape[0] == n
        row = by_method[method]
        assert int(row[header.index("n_dofs")]) == n
        assert row[header.index("delta_D")] == "singular"


@pytest.mark.parametrize("f", [1.0, 1e6])
def test_no_root_stabilized_systems_full_rank(f, tmp_path):
    # one gauge row per tree edge: no dependent divergence row remains
    built = load_scenario(_no_root_config(tmp_path, 1)).build()
    for method in ("tree-cotree", "lagrange"):
        A = curl_system(built, 2 * np.pi * f, method)[0]
        assert dense_rank(A) == A.shape[0], method


NO_DIRICHLET = """\
domain        0 1  0 1  0 1
subdivisions  3 3 3
region 0 1  0 1  0 1  eps_r=1 sigma=0
a_zero all
source none
"""


@pytest.mark.parametrize("size", [5, 11])
def test_solve_without_scalar_dirichlet_node_exit(size, tmp_path, capsys):
    # constants span the scalar system's kernel at every frequency; the
    # pivot test alone passes it at some sizes
    cfg = tmp_path / "no_dirichlet.cfg"
    cfg.write_text(NO_DIRICHLET)
    code = main(["solve", "--config", str(cfg), "--freq", "1",
                 "--method", "tree-cotree", "--subdivs", f"{size},{size},{size}"])
    assert code == 3
    assert "no scalar Dirichlet node" in capsys.readouterr().err


def test_check_kernel_line_needs_independent_gradients(academic_built):
    # a pairing that gives two tree edges the same vertex leaves the cotree
    # block alone but repeats a kernel vector
    part = academic_built.partition
    vertex = part.tree_vertex.copy()
    vertex[1] = vertex[0]
    built = replace(academic_built, partition=replace(part, tree_vertex=vertex))
    verdicts, _ = _rank_verdicts(built)
    assert verdicts == {"tree count": False, "cotree block": True}


def test_check_proves_rank_facts_without_svd(monkeypatch, capsys):
    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    code = main(["check", "--config", ACADEMIC, "--subdivs", "11,11,11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tree count 1000 = curl kernel" in out
    assert all(line.startswith(("PASS", "INFO  region")) for line in out.splitlines())


def test_check_without_free_edges(capsys):
    code = main(["check", "--config", ACADEMIC, "--subdivs", "1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tree count 0 = curl kernel" in out
    assert all(line.startswith(("PASS", "INFO  region")) for line in out.splitlines())


@pytest.mark.parametrize("size, cells", [
    (11, [1100, 110, 110, 5, 5, 1]),
    (4, [64, 0, 0, 0, 0, 0]),  # the bars and arms capture no cell centroid
])
def test_check_prints_region_cell_counts(size, cells, capsys):
    code = main(["check", "--config", ACADEMIC, "--subdivs", f"{size},{size},{size}"])
    out = capsys.readouterr().out
    assert code == 0
    regions = [line for line in out.splitlines() if line.startswith("INFO  region")]
    assert [int(line.split(": ")[1].split()[0]) for line in regions] == cells
    assert regions[0] == "INFO  region 0 (eps_r=5, sigma=0): " + f"{cells[0]} cells"
    assert regions[5].startswith("INFO  region 5 (eps_r=1, sigma=1): ")


def test_sweep_without_free_unknowns_exit(tmp_path, capsys):
    # every node of the one-cell mesh is a Dirichlet node: step one is 0 x 0
    code = main(["sweep", "--config", ACADEMIC, "--subdivs", "1,1,1",
                 "--freqs", "1", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "the system has no free unknowns" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["original", "lagrange"])
def test_condition_sweep_without_free_curl_unknowns_exit(method, tmp_path, capsys):
    # no phi line: step one is singular, so the row's condition is estimated
    # on the curl system alone, which a_zero all leaves 0 x 0
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("domain 0 1 0 1 0 1\nsubdivisions 1 1 1\n"
                   "region 0 1 0 1 0 1 eps_r=1 sigma=0\na_zero all\n")
    code = main(["sweep", "--config", str(cfg), "--freqs", "1", "--methods", method,
                 "--quantities", "condition", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "the system has no free unknowns (0 x 0 matrix)" in capsys.readouterr().err


def test_memory_error_exit(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_convergence", exhausted)
    code = main(["converge", "--config", MMS0, "--subdivs", "2,3", "--freq", "10",
                 "--out", str(tmp_path / "conv.csv")])
    assert code == cli.EXIT_MEMORY == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "out of memory in converge" in err


def test_disconnected_gauge_graph_exit(monkeypatch, capsys):
    def disconnected(graph):
        raise UnsupportedTopologyError("gauge graph is disconnected")

    monkeypatch.setattr(scenario, "spanning_tree", disconnected)
    code = main(["check", "--config", ACADEMIC])
    assert code == 2
    assert "disconnected" in capsys.readouterr().err


def test_config_error_exit(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("domain 0 1 0 1 0 1\nnonsense 3\n")
    code = main(["solve", "--config", str(bad), "--freq", "1",
                 "--method", "original"])
    assert code == 2


@pytest.mark.parametrize("old, new, message", [
    ("eps_r=1 sigma=1 # center", "eps_r=nan sigma=1 # center", "eps_r must be finite"),
    ("eps_r=5 sigma=5    # left", "eps_r=5 sigma=inf    # left", "sigma must be finite"),
    ("sigma=1 # center", "sigma=1 mu_r=0 # center", "mu_r must be positive"),
    ("sigma=1 # center", "sigma=1 mu_r=nan # center", "mu_r must be finite"),
    ("domain        0 0.22", "domain        0 inf", "domain numbers must be finite"),
    ("region 0 0.10  0.10", "region 0 nan  0.10", "region box numbers must be finite"),
    ("region 0 0.10  0.10", "region 0.10 0  0.10", "region box is inverted: hi < lo"),
    ("subdivisions  3 3 3", "subdivisions  3 inf 3", "subdivisions numbers must be finite"),
    ("phi xmax 1", "phi xmax nan", "phi value must be finite"),
    ("domain        0 0.22", "domain        0 x", "bad number in domain"),
    ("sigma=1 # center", "sigma=1 mu_r # center", "expected key=value, got 'mu_r'"),
    ("sigma=1 # center", "sigma=1 rho=2 # center", "unknown key 'rho'"),
    ("sigma=1 # center", "sigma=1 mu_r=x # center", "bad value for mu_r: 'x'"),
    ("eps_r=1 sigma=1 # center", "eps_r=1 mu_r=1 # center", "missing required key sigma="),
    ("domain        0 0.22", "domain        0 0", "domain intervals must be nonempty"),
    ("subdivisions  3 3 3", "subdivisions  3 2.5 3", "subdivisions must be positive integers"),
    ("eps_r=1 sigma=1 # center", "eps_r=0 sigma=1 # center", "eps_r must be positive"),
    ("eps_r=1 sigma=1 # center", "eps_r=1 sigma=-1 # center", "sigma must be nonnegative"),
    ("phi xmax 1", "phi xmax", "phi needs a face label and a value"),
    ("phi xmax 1", "phi xmax one", "bad phi value 'one'"),
    ("a_zero all", "a_zero", "a_zero needs at least one face label"),
    ("source none", "source maybe", "source must be 'none' or 'manufactured'"),
    ("methods original tree-cotree lagrange", "methods", "methods needs at least one entry"),
    ("eps_r=1 sigma=1 # center", "eps_r=1 sigma=1 eps_r=4 # center", "repeated key 'eps_r'"),
], ids=["eps_r-nan", "sigma-inf", "mu_r-zero", "mu_r-nan", "domain-inf",
        "region-box-nan", "region-box-inverted", "subdivisions-inf", "phi-nan", "domain-bad-number",
        "token-without-equals", "unknown-key", "bad-value", "missing-key",
        "empty-domain-interval", "non-integer-subdivisions", "eps_r-zero",
        "sigma-negative", "phi-arity", "phi-bad-value", "a_zero-empty",
        "bad-source", "methods-empty", "repeated-key"])
def test_non_finite_or_zero_material_exit(old, new, message, tmp_path, capsys):
    # the materials used to build and exit 3 as singular (mu_r=0 also made
    # BLAS print an illegal-parameter message), and an infinite subdivision
    # count crashed with an OverflowError; the cases after phi-nan cover
    # the rest of the grammar's line errors
    text = Path(ACADEMIC).read_text()
    assert text.count(old) == 1
    lines = text.replace(old, new).splitlines()
    line = next(i for i, l in enumerate(lines, start=1) if new in l)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines))
    code = main(["solve", "--config", str(cfg), "--freq", "0",
                 "--method", "tree-cotree"])
    assert code == 2
    assert f"line {line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", ACADEMIC, "--freqs", "1,1"],
     "--freqs: repeated sweep frequency"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--methods", ","],
     "empty --methods list"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--methods", "amg"],
     "--methods: unknown method 'amg'"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--quantities", "speed"],
     "--quantities: unknown sweep quantities ['speed']"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--methods", "original",
      "--require", "lagrange"], "--require ['lagrange'] is not among"),
    (["converge", "--config", MMS0, "--subdivs", "2,2", "--freq", "10"],
     "--subdivs: repeated convergence size"),
    (["converge", "--config", MMS0, "--subdivs", "0,2", "--freq", "10"],
     "--subdivs: convergence sizes must be >= 1"),
    (["solve", "--config", ACADEMIC, "--freq", "1", "--method", "original",
      "--density", "0"], "--density must be >= 1"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--subdivs", "3,3"],
     "--subdivs needs three sizes >= 1, got '3,3'"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--subdivs", ""],
     "--subdivs: '' is not an integer"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--subdivs", "a,b,c"],
     "--subdivs: 'a' is not an integer"),
    (["solve", "--config", ACADEMIC, "--freq", "1", "--method", "original",
      "--subdivs", "a,b,c"], "--subdivs: 'a' is not an integer"),
    (["check", "--config", ACADEMIC, "--subdivs", "a,b,c"],
     "--subdivs: 'a' is not an integer"),
    (["converge", "--config", MMS0, "--subdivs", "2,x", "--freq", "10"],
     "--subdivs: 'x' is not an integer"),
    (["sweep", "--config", ACADEMIC, "--freqs", "abc"], "--freqs: 'abc' is not a number"),
    (["sweep", "--config", ACADEMIC, "--freqs", "logspace:0,1,x"],
     "--freqs: 'x' is not an integer"),
    (["sweep", "--config", ACADEMIC, "--freqs", "-3"],
     "--freqs: frequency must be finite and >= 0, got -3.0"),
    (["sweep", "--config", ACADEMIC, "--freqs", "nan"],
     "--freqs: frequency must be finite and >= 0, got nan"),
    (["sweep", "--config", ACADEMIC, "--freqs", "logspace:0,400,2"],
     "--freqs: frequency must be finite and >= 0, got inf"),
    (["sweep", "--config", ACADEMIC, "--freqs", "logspace:0,1,-1"],
     "--freqs: Number of samples, -1, must be non-negative"),
    (["solve", "--config", ACADEMIC, "--freq", "-1", "--method", "original"],
     "--freq: frequency must be finite and >= 0, got -1.0"),
    (["solve", "--config", ACADEMIC, "--freq", "inf", "--method", "original"],
     "--freq: frequency must be finite and >= 0, got inf"),
    (["solve", "--config", ACADEMIC, "--freq", "1e200", "--method", "original"],
     "--freq: frequency 1e+200 Hz is too high"),
    (["converge", "--config", MMS0, "--subdivs", "2,4", "--freq", "-1"],
     "--freq: frequency must be finite and >= 0, got -1.0"),
    (["sweep", "--config", ACADEMIC, "--freqs", "1", "--methods", "original,original"],
     "--methods: repeated method in ['original', 'original']"),
    (["sweep", "--config", ACADEMIC, "--freqs", ","], "--freqs: empty frequency list"),
    (["sweep", "--config", ACADEMIC, "--freqs", "logspace:1"],
     "--freqs: logspace spec needs start_exp,stop_exp,num"),
], ids=["freqs-repeated", "methods-empty", "methods-unknown", "quantities-unknown",
        "require-unswept", "subdivs-repeated", "subdivs-zero", "density-zero",
        "subdivs-two", "subdivs-empty", "subdivs-text", "solve-subdivs-text",
        "check-subdivs-text", "converge-subdivs-text", "freqs-text", "logspace-text",
        "freqs-negative", "freqs-nan", "logspace-overflow", "logspace-count-negative",
        "freq-negative", "freq-inf", "freq-too-high", "converge-freq-negative",
        "methods-repeated", "freqs-empty", "logspace-short"])
def test_argument_errors_name_no_config_line(argv, message, tmp_path, monkeypatch,
                                             capsys):
    # an error in a command-line argument is not on a line of the config,
    # names that argument once, and is refused before anything is built
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    if argv[0] in ("sweep", "converge"):
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "line 0" not in err
    assert len(re.findall(r"(?<![\w-])--\w+", err)) == 1
    assert built == []


@pytest.mark.parametrize("key, message", [
    ("subdivisions", "missing required 'subdivisions' line"),
    ("region", "at least one 'region' line is required"),
])
def test_missing_required_line_exit(key, message, tmp_path, capsys):
    # a missing line has no number of its own: the error names line 0
    lines = Path(ACADEMIC).read_text().splitlines()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(l for l in lines if not l.startswith(key)))
    code = main(["solve", "--config", str(cfg), "--freq", "0",
                 "--method", "tree-cotree"])
    assert code == 2
    assert f"line 0: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["domain", "subdivisions", "source", "methods"])
def test_repeated_line_exit(key, tmp_path, capsys):
    # a second line of these keys used to replace the first without a word
    lines = Path(ACADEMIC).read_text().splitlines()
    lines.append(next(l for l in lines if l.startswith(key)))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines))
    code = main(["solve", "--config", str(cfg), "--freq", "0",
                 "--method", "tree-cotree"])
    assert code == 2
    assert f"line {len(lines)}: repeated '{key}' line" in capsys.readouterr().err


def test_region_phi_and_a_zero_lines_repeat():
    text = Path(ACADEMIC).read_text() + "\nphi ymin 0\na_zero xmin\n"
    sc = scenario.parse_scenario(text)
    assert len(sc.regions) == 6 and len(sc.phi_bcs) == 3
    assert sc.phi_bcs[-1] == ("ymin", 0j)


def test_lu_field_follows_the_system(academic_built, splu_dtypes):
    # static and nonconducting systems are real and factor in real
    # arithmetic; a conductor at omega > 0 makes the curl system complex,
    # while the conducting EQS system's imaginary parts lie below single
    # resolution and are dropped from its single-precision LU
    methods = list(METHODS)
    run_convergence(load_scenario(MMS0), [4], 10.0, methods)
    assert splu_dtypes and set(splu_dtypes) == {np.dtype(np.float32)}
    splu_dtypes.clear()
    built = load_scenario(MMS6E7).with_subdivisions((4, 4, 4)).build()
    exc = excitation(built, 10.0)
    assert splu_dtypes == [np.dtype(np.float32)]  # the EQS step
    splu_dtypes.clear()
    for method in METHODS:
        run_two_step(built, exc, method)
    assert splu_dtypes and set(splu_dtypes) == {np.dtype(np.complex64)}
    splu_dtypes.clear()
    exc0 = excitation(academic_built, 0.0)
    for method in ("tree-cotree", "lagrange"):
        run_two_step(academic_built, exc0, method)
    assert splu_dtypes and set(splu_dtypes) == {np.dtype(np.float32)}
    # the singular original system (no air gauge node for the probe at
    # 3^3) is judged by the double LUs, at the static and then the safe
    # pivot threshold, once the single one is refused
    splu_dtypes.clear()
    with pytest.raises(solve.SingularMatrixError, match="kappa_1 \\* eps"):
        run_two_step(academic_built, exc0, "original")
    assert splu_dtypes == [np.dtype(np.float32)] + [np.dtype(np.float64)] * 2
    # a condition estimate asks for the double LU
    splu_dtypes.clear()
    run_two_step(academic_built, exc0, "tree-cotree", condition=True)
    run_two_step(built, exc, "tree-cotree", condition=True)
    assert splu_dtypes == [np.dtype(np.float64), np.dtype(np.complex128)]


def test_io_error_exit(tmp_path):
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1",
                 "--methods", "tree-cotree",
                 "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", ACADEMIC, "--freqs", "0,1,1e3", "--out", "{out}"],
    ["converge", "--config", MMS0, "--subdivs", "2,3", "--freq", "10",
     "--out", "{out}"],
    ["solve", "--config", ACADEMIC, "--freq", "1", "--method", "tree-cotree",
     "--vtk", "{out}"],
])
@pytest.mark.parametrize("where", ["missing directory", "directory", "empty",
                                   "read-only file"])
def test_unwritable_output_refused_before_building(tmp_path, monkeypatch, capsys,
                                                   argv, where):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = {"missing directory": tmp_path / "no" / "x.out", "directory": tmp_path,
           "empty": "", "read-only file": tmp_path / "x.out"}[where]
    if where == "read-only file":  # chmod does not bind a root process
        out.write_text("")
        access = os.access
        monkeypatch.setattr(os, "access",
                            lambda p, mode: p != str(out) and access(p, mode))
    assert main([a.format(out=out) for a in argv]) == 4
    captured = capsys.readouterr()
    assert built == [] and captured.out == ""
    assert "I/O error: cannot write" in captured.err


def test_negative_zero_frequency_written_as_zero(tmp_path):
    assert _num(-0.0) == _num(0.0) == "0"
    assert _num(-1e-300) == "-1e-300" and _num(-2.5) == "-2.5"
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", ACADEMIC, "--freqs=-0",
                 "--methods", "tree-cotree", "--quantities", "delta_D",
                 "--subdivs", "3,3,3", "--out", str(out)]) == 0
    _, rows = _read_rows(out)
    assert [r[0] for r in rows] == ["0"]


@pytest.mark.parametrize("freqs", ["1,1", "-0,0", "0,1e3,0", "logspace:0,0,3"])
def test_repeated_frequency_rejected_before_building(freqs, tmp_path, monkeypatch,
                                                     capsys):
    # a repeated frequency would write duplicate rows and solve step one again
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", ACADEMIC, f"--freqs={freqs}",
                 "--out", str(out)]) == 2
    assert f"repeated sweep frequency in {freqs!r}" in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_unknown_quantity_rejected(tmp_path):
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1",
                 "--quantities", "hcurl_error", "--out", str(tmp_path / "x.csv")])
    assert code == 2


_FACES = st.sampled_from(FACE_LABELS + ("all",))
_SPAN = st.lists(st.sampled_from((0, 0.25, 0.5, 0.75, 1)), min_size=2, max_size=2,
                 unique=True).map(sorted)


@st.composite
def _small_configs(draw):
    """A random small scenario on the unit cube: 1-3 cells per axis, 1-3
    regions (the first fills the box), random phi and a_zero faces, sigma
    0-6e7, eps_r up to 1e4 and mu_r from 1e-3 to 1e3."""
    lines = ["domain 0 1 0 1 0 1",
             "subdivisions {} {} {}".format(*draw(st.tuples(*[st.integers(1, 3)] * 3)))]
    for i in range(draw(st.integers(1, 3))):
        spans = [(0, 1)] * 3 if i == 0 else [draw(_SPAN) for _ in range(3)]
        sigma = draw(st.sampled_from((0.0, 1.0)) | st.floats(0, 6e7))
        eps_r, mu_r = draw(st.floats(1, 1e4)), 10.0 ** draw(st.floats(-3, 3))
        lines.append(f"region {' '.join(f'{lo} {hi}' for lo, hi in spans)} "
                     f"eps_r={eps_r!r} sigma={sigma!r} mu_r={mu_r!r}")
    for face in draw(st.lists(_FACES, max_size=3, unique=True)):
        lines.append(f"phi {face} {draw(st.sampled_from((0, 1)))}")
    faces = draw(st.lists(_FACES, max_size=3, unique=True))
    if faces:
        lines.append("a_zero " + " ".join(faces))
    return "\n".join(lines) + "\n"


def _numbers_finite(text, allowed=()):
    """Every token of text that reads as a float is finite, or in allowed."""
    for token in re.split(r"[\s=(),:|]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert np.isfinite(value) or token in allowed, (token, text)


_FREQS = st.sampled_from((0.0, 1e-3, 1.0, 1e3, 1e6, 1e9)) | st.floats(0, 1e9)


def _main_stdout(argv):
    """main(argv)'s exit code and what it printed to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    return code, stdout.getvalue()


@given(config=_small_configs(), freqs=st.lists(_FREQS, min_size=1, max_size=2,
                                               unique=True),
       method=st.sampled_from(METHODS))
def test_command_line_contract_on_random_configs(config, freqs, method,
                                                 tmp_path_factory):
    # the README's contract of solve, sweep and check: a documented exit
    # code, no escaping exception, finite numbers except `singular` cells
    # and a singular row's infinite condition, and every solved row's
    # residual within RESIDUAL_TOL
    tmp = tmp_path_factory.mktemp("contract")
    cfg, out = tmp / "random.cfg", tmp / "sweep.csv"
    cfg.write_text(config)
    code, stdout = _main_stdout(["solve", "--config", str(cfg), "--freq",
                                 repr(freqs[0]), "--method", method])
    assert code in (0, 2, 3)
    _numbers_finite(stdout)
    if code == 0:
        resid = re.search(r"rel_residual = (\S+)", stdout).group(1)
        assert float(resid) <= solve.RESIDUAL_TOL
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--freqs", ",".join(repr(f) for f in freqs),
                 "--methods", ",".join(METHODS)])
    assert code in (0, 2)
    if code == 0:
        header, rows = _read_rows(out)
        cond, delta, resid = (header.index(c) for c in
                              ("cond_estimate", "delta_D", "rel_residual"))
        for row in rows:
            singular = row[delta] == row[resid] == "singular"
            assert singular or row[delta] != "singular" != row[resid], row
            _numbers_finite(row[cond], ("inf",) if singular else ())
            _numbers_finite(",".join(row[:cond] + row[cond + 1:]))
            assert singular or float(row[resid]) <= solve.RESIDUAL_TOL, row
    code, stdout = _main_stdout(["check", "--config", str(cfg)])
    assert code in (0, 1, 2)
    _numbers_finite(stdout)
