import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aphi import cli, scenario, solve
from aphi.cli import _sweep_row, main, parse_frequencies, run_check, run_convergence
from aphi.gauge import UnsupportedTopologyError
from aphi.physics import METHODS, curl_coordinates, curl_system, run_two_step
from aphi.scenario import ConfigError, Scenario, academic_scenario, load_scenario
from aphi.solve import DENSE_SVD_LIMIT, condition_estimate
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


def test_singular_sweep_row_above_dense_limit_factors_once(monkeypatch):
    built = academic_scenario((11, 11, 11)).build()
    assert built.edge.n_free > DENSE_SVD_LIMIT
    factored = []

    class Counted(solve.Factorization):
        def __init__(self, A, *args, **kwargs):
            factored.append(A.shape[0])
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(solve, "Factorization", Counted)
    monkeypatch.setattr("aphi.physics.Factorization", Counted)
    row, singular = _sweep_row(built, 0.0, "original",
                               {"condition", "delta_D", "solve_residual"}, False)
    assert singular
    assert row == f"0,original,inf,power-iteration,singular,singular,{built.edge.n_free},0"
    # the EQS factorization only: the gradient probe proves the curl
    # system singular without an LU, and the estimate adds none
    assert len(factored) == 1
    # the estimate written is the one the system alone gives
    est = condition_estimate(curl_system(built, 0.0, "original")[0])
    assert (est.value, est.method, est.iterations, est.singular) == \
        (np.inf, "power-iteration", 0, True)


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


def test_converge_rejects_size_below_one_before_building(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(Scenario, "build", lambda self: built.append(self))
    for subdivs in ([2, -4], [0, 2]):
        with pytest.raises(ConfigError):
            run_convergence(load_scenario(MMS0), subdivs, 10.0, ["tree-cotree"])
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", MMS0, "--subdivs", "2,-4",
                 "--freq", "10", "--methods", "tree-cotree", "--out", str(out)])
    assert code == 2
    assert built == [] and not out.exists()


def test_solve_with_vtk(tmp_path, capsys):
    vtk = tmp_path / "out.vtk"
    code = main(["solve", "--config", ACADEMIC, "--freq", "100",
                 "--method", "tree-cotree", "--vtk", str(vtk)])
    assert code == 0
    assert vtk.exists()
    out = capsys.readouterr().out
    assert "delta_D" in out


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
    ("subdivisions  3 3 3", "subdivisions  3 inf 3", "subdivisions numbers must be finite"),
    ("phi xmax 1", "phi xmax nan", "phi value must be finite"),
], ids=["eps_r-nan", "sigma-inf", "mu_r-zero", "mu_r-nan", "domain-inf",
        "region-box-nan", "subdivisions-inf", "phi-nan"])
def test_non_finite_or_zero_material_exit(old, new, message, tmp_path, capsys):
    # the materials used to build and exit 3 as singular (mu_r=0 also made
    # BLAS print an illegal-parameter message), and an infinite subdivision
    # count crashed with an OverflowError
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
    built.excitation(2 * np.pi * 10.0)
    assert splu_dtypes == [np.dtype(np.float32)]  # the EQS step
    splu_dtypes.clear()
    for method in METHODS:
        run_two_step(built, 10.0, method)
    assert splu_dtypes and set(splu_dtypes) == {np.dtype(np.complex64)}
    splu_dtypes.clear()
    for method in ("tree-cotree", "lagrange"):
        run_two_step(academic_built, 0.0, method)
    assert splu_dtypes and set(splu_dtypes) == {np.dtype(np.float32)}
    # the singular original system (no air gauge node for the probe at
    # 3^3) is judged by the double LU once the single one is refused
    splu_dtypes.clear()
    with pytest.raises(solve.SingularMatrixError, match="kappa_1 \\* eps"):
        run_two_step(academic_built, 0.0, "original")
    assert splu_dtypes == [np.dtype(np.float32), np.dtype(np.float64)]
    # a condition estimate asks for the double LU
    splu_dtypes.clear()
    run_two_step(academic_built, 0.0, "tree-cotree", condition=True)
    run_two_step(built, 10.0, "tree-cotree", condition=True)
    assert splu_dtypes == [np.dtype(np.float64), np.dtype(np.complex128)]


def test_io_error_exit(tmp_path):
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1",
                 "--methods", "tree-cotree",
                 "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert code == 4


def test_unknown_quantity_rejected(tmp_path):
    code = main(["sweep", "--config", ACADEMIC, "--freqs", "1",
                 "--quantities", "hcurl_error", "--out", str(tmp_path / "x.csv")])
    assert code == 2
