"""Smoke tests of the entry points a user runs: `python -m aphi`, the
study scripts, the line count and the output digests, each in its own
interpreter from a plain checkout."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the CSV column lines the README documents
SWEEP_HEADER = "f_hz,method,cond_estimate,cond_method,delta_D,rel_residual,n_dofs,wall_ms"
CONVERGE_HEADER = "s_h,method,hcurl_error,rate"


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
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
