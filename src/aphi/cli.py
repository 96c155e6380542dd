"""Command line front end: frequency sweeps, convergence studies, single
solves with VTK export, and the structural invariant check.

Exit codes: 0 success, 1 a failed structural invariant (check), 2
configuration error (or a system with no free unknowns, or a gauged method
whose tree cannot span the static curl kernel), 3 singular matrix
or inaccurate solve (solve.InaccurateSolveError) on a method listed as
required, 4 I/O failure (an output path that cannot be written is
refused before anything is computed), 5 out of memory (a MemoryError,
reported in one line naming the command).  Output files are
byte-identical across runs at a fixed BLAS thread count; wall-clock
columns are zero unless --timing is given.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .mesh import match_cells
from .physics import (METHODS, curl_coordinates, curl_system, excitation,
                      hcurl_error, refuse_unspanned_gauge, run_two_step)
from .scenario import ConfigError, Scenario, check_methods, load_scenario
from .solve import Factorization, SingularMatrixError, condition_estimate
from .system import FrequencyPoint
from .vtk_io import export_vtk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_IO = 4
EXIT_MEMORY = 5

SWEEP_QUANTITIES = ("condition", "delta_D", "solve_residual")
SOLVE_QUANTITIES = {"delta_D", "solve_residual"}
SWEEP_HEADER = "f_hz,method,cond_estimate,cond_method,delta_D,rel_residual,n_dofs,wall_ms"
CONVERGE_HEADER = "s_h,method,hcurl_error,rate"


def _num(x: float) -> str:
    if x != x:  # nan
        return "nan"
    if np.isinf(x):
        return "inf"
    return f"{x + 0.0:.12g}"  # + 0.0 writes a negative zero as 0


def _parsed(arg: str, read, *args):
    """read(*args), with 'arg: ' put in front of any ValueError it raises,
    so that the error names the command-line argument arg once."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{arg}: {exc}") from None


def _number(kind, text: str):
    """kind(text), or a ValueError that says text is not such a number."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{text!r} is not {what}") from None


def parse_frequencies(spec: str) -> list[float]:
    """Comma list of Hz values, or 'logspace:<start_exp>,<stop_exp>,<num>';
    a repeated frequency would only repeat rows, so it is refused."""
    if spec.startswith("logspace:"):
        parts = spec[len("logspace:"):].split(",")
        if len(parts) != 3:
            raise ValueError("logspace spec needs start_exp,stop_exp,num")
        start, stop = (_number(float, t) for t in parts[:2])
        num = _number(int, parts[2])
        with np.errstate(all="ignore"):  # an overflow is rejected below
            freqs = [float(f) for f in np.logspace(start, stop, num)]
    else:
        freqs = [_number(float, t) for t in spec.split(",") if t.strip()]
    if not freqs:
        raise ValueError("empty frequency list")
    freqs = [FrequencyPoint(f).f for f in freqs]
    if len(set(freqs)) != len(freqs):  # -0 and 0 compare equal
        raise ValueError(f"repeated sweep frequency in {spec!r}")
    return freqs


def method_system(built, omega: float):
    """The per-method system matrices of one frequency point."""
    return {m: curl_system(built, omega, m)[0] for m in METHODS}


def _sweep_row(built, f: float, exc, method: str,
               quantities: set[str]) -> tuple[str, bool]:
    """One CSV row up to wall_ms, from one solve on the Excitation exc of f
    (None when step one failed or nothing is asked).  A singular solve
    counts as singular only when a solve quantity is asked for.  The
    condition estimate is the one run_two_step makes, on the Solution or on
    the SingularMatrixError of a failed curl step; only when step one
    failed is it made on the system alone.
    """
    want_cond = "condition" in quantities
    coords = curl_coordinates(built, method)
    n_dofs = coords.shape[0]
    sol = est = None
    if exc is not None:
        try:
            sol = run_two_step(built, exc, method, condition=want_cond)
            est = sol.condition
        except SingularMatrixError as err:
            est = err.condition
    if want_cond and est is None:
        est = condition_estimate(curl_system(built, FrequencyPoint(f).omega, method)[0],
                                 coords=coords)
    cond_cell = cond_method_cell = delta_cell = resid_cell = ""
    if est is not None:
        cond_cell = _num(est.value)
        cond_method_cell = est.method
        if not est.converged:
            print(f"condition estimate at {_num(f)} Hz, {method}: {est.method} "
                  "stopped at its iteration cap unconverged", file=sys.stderr)
    if "delta_D" in quantities:
        delta_cell = "singular" if sol is None else _num(sol.delta_D)
    if "solve_residual" in quantities:
        resid_cell = "singular" if sol is None else _num(sol.curl_report.rel_residual)
    row = f"{_num(f)},{method},{cond_cell},{cond_method_cell}," \
          f"{delta_cell},{resid_cell},{n_dofs}"
    return row, sol is None and bool(quantities & SOLVE_QUANTITIES)


def run_sweep(scenario: Scenario, freqs: list[float], methods: list[str],
              quantities: set[str], timing: bool = False) -> tuple[list[str], set[str]]:
    """One CSV row per (frequency, method); singular solves are recorded,
    never raised.  Returns (rows, methods that hit a singular solve)."""
    built = scenario.build()
    refuse_unspanned_gauge(built, methods)
    rows = []
    singular_methods: set[str] = set()
    t0 = time.perf_counter()  # a frequency's first row times its step one
    for f in freqs:
        try:  # step one, shared by the methods of f
            exc = excitation(built, f) if quantities else None
        except SingularMatrixError:  # every row of f is singular
            exc = None
        for m in methods:
            row, singular = _sweep_row(built, f, exc, m, quantities)
            wall_ms = int(round(1000 * (time.perf_counter() - t0))) if timing else 0
            t0 = time.perf_counter()
            rows.append(f"{row},{wall_ms}")
            if singular:
                singular_methods.add(m)
    return rows, singular_methods


def _check_sizes(subdivs: list[int]) -> list[int]:
    """The convergence sizes, refused where they repeat or fall below 1."""
    if len(set(subdivs)) != len(subdivs):
        raise ValueError(f"repeated convergence size in {subdivs}")
    if any(s < 1 for s in subdivs):
        raise ValueError(f"convergence sizes must be >= 1, got {subdivs}")
    return subdivs


def run_convergence(scenario: Scenario, subdivs: list[int], f: float,
                    methods: list[str]) -> list[str]:
    """H(curl) errors and observed rates over mesh refinement; the sizes
    must differ, since a rate compares two of them."""
    FrequencyPoint(f)  # rejects a negative or non-finite frequency
    _check_sizes(subdivs)
    if scenario.source != "manufactured":
        raise ConfigError(0, "convergence study needs a manufactured source")
    rows = []
    errors: dict[str, list[tuple[int, float]]] = {m: [] for m in methods}
    for s in subdivs:
        built = scenario.with_subdivisions((s, s, s)).build()
        refuse_unspanned_gauge(built, methods)
        try:
            exc = excitation(built, f)  # step one, shared by the methods
        except SingularMatrixError:
            rows += [f"{s},{m},singular," for m in methods]
            continue
        for m in methods:
            try:
                sol = run_two_step(built, exc, m)
                err = hcurl_error(built, sol.a, built.mms)
            except SingularMatrixError:
                err = None
            if err is None:
                rows.append(f"{s},{m},singular,")
            else:
                prev = errors[m][-1] if errors[m] else None
                rate = ""
                if prev is not None and err > 0:
                    rate = _num(np.log(prev[1] / err) / np.log(s / prev[0]))
                rows.append(f"{s},{m},{_num(err)},{rate}")
                errors[m].append((s, err))
    return rows


def run_check(built) -> list[tuple[str, bool]]:
    """Structural invariants of one built scenario (see the check command)."""
    from .spaces import gradient_incidence

    results = []
    bundle = built.bundle
    P = gradient_incidence(built.mesh)
    curl_grad = abs(bundle.C_nu @ P).max()
    scale = max(abs(bundle.C_nu).max(), 1.0)
    grad_ok = curl_grad <= 1e-12 * scale
    results.append((f"curl o grad = 0 (max |C_nu P| = {curl_grad:.2e})", grad_ok))
    for name in ("K_sigma", "K_eps", "M_sigma", "M_eps", "C_nu"):
        A = getattr(bundle, name)
        asym = abs(A - A.T).max()
        bound = 1e-13 * max(abs(A).max(), 1e-300)
        results.append((f"{name} symmetric (|A - A^T| = {asym:.2e})", asym <= bound))
    air_edges = ~built.material.tags.conductor_edges
    m_sigma_air = abs(bundle.M_sigma[air_edges]).max() if air_edges.any() else 0.0
    results.append(("M_sigma vanishes on air rows", m_sigma_air == 0.0))
    # The tree spans the free curl kernel (Manges & Cendes) when it pairs
    # each gauge vertex with one edge, its count is the kernel's dimension,
    # and the cotree block is nonsingular: then the tree edges form a
    # spanning tree, and the gauge vertices' gradients span the kernel.
    part = built.partition
    cotree = built.edge.free[part.cotree]
    cotree_ok = True
    if cotree.size:  # an empty block is nonsingular
        try:
            Factorization(bundle.C_nu[cotree][:, cotree],
                          curl_coordinates(built, "original")[part.cotree])
        except SingularMatrixError:
            cotree_ok = False
    kernel = built.gauge.kernel_dimension
    paired = np.array_equal(np.sort(part.tree_vertex),
                            np.arange(built.gauge.gauge_nodes.size))
    kernel_ok = cotree_ok and grad_ok and paired and part.tree.size == kernel
    results.append((f"tree count {part.tree.size} = curl kernel {kernel}", kernel_ok))
    results.append(("cotree block of the static curl matrix has full rank",
                    cotree_ok))
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solver",
        description="Frequency-domain Maxwell solver (two-step potential "
                    "formulation with tree-cotree stabilization)")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="frequency sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--freqs", required=True,
                       help="comma list of Hz or logspace:start_exp,stop_exp,num")
    sweep.add_argument("--methods", default=None,
                       help="comma list (default: methods from the config)")
    sweep.add_argument("--quantities", default=",".join(SWEEP_QUANTITIES),
                       help=f"comma subset of {SWEEP_QUANTITIES}")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--require", default="",
                       help="methods whose singular solves fail the run (exit 3)")
    sweep.add_argument("--subdivs", default=None,
                       help="override mesh subdivisions, e.g. 3,3,3")
    sweep.add_argument("--timing", action="store_true",
                       help="fill wall_ms (breaks byte reproducibility)")

    conv = sub.add_parser("converge", help="mesh-refinement study to CSV")
    conv.add_argument("--config", required=True)
    conv.add_argument("--subdivs", required=True, help="comma list, e.g. 2,4,8")
    conv.add_argument("--freq", required=True, type=float)
    conv.add_argument("--methods", default=None)
    conv.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="single run, optional VTK export")
    solve.add_argument("--config", required=True)
    solve.add_argument("--freq", required=True, type=float)
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--vtk", default=None)
    solve.add_argument("--density", type=int, default=1)
    solve.add_argument("--subdivs", default=None)

    check = sub.add_parser("check", help="run the structural invariant suite")
    check.add_argument("--config", required=True)
    check.add_argument("--subdivs", default=None)
    return parser


def _refuse_unwritable(path: str | None) -> None:
    """Raise OSError for an output path that is a directory, an existing
    file that is not writable, or whose directory is missing or not
    writable, before anything is computed."""
    if path is None:
        return
    path = os.path.abspath(path)  # "" names the working directory
    if os.path.isdir(path):
        raise OSError(f"cannot write {path!r}: it is a directory")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise OSError(f"cannot write {path!r}: the file is not writable")
    directory = os.path.dirname(path)
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(f"cannot write {path!r}: directory {directory!r} is "
                      "missing or not writable")


def _write_csv(path: str, command: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# aphi {command} v1 columns: {header}\n{header}\n")
        fh.write("\n".join(rows) + "\n")


def _sizes(args) -> list[int]:
    return [_parsed("--subdivs", _number, int, t) for t in args.subdivs.split(",")]


def _load(args) -> Scenario:
    """The config's scenario, on the --subdivs mesh if one is given."""
    scenario = load_scenario(args.config)
    if args.subdivs is not None:
        sizes = _sizes(args)
        if len(sizes) != 3 or min(sizes) < 1:
            raise ValueError(f"--subdivs needs three sizes >= 1, got {args.subdivs!r}")
        scenario = scenario.with_subdivisions(sizes)
    return scenario


def _methods(args, scenario: Scenario) -> list[str]:
    if args.methods is not None:
        methods = [t.strip() for t in args.methods.split(",") if t.strip()]
        if not methods:
            raise ValueError(f"empty --methods list {args.methods!r}")
        return list(_parsed("--methods", check_methods, methods))
    return list(scenario.methods)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # ConfigError and every other input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory in {args.command}: {exc or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_MEMORY


def _dispatch(args) -> int:
    if args.command in ("solve", "converge"):
        _parsed("--freq", FrequencyPoint, args.freq)  # a bad --freq, before loading
    _refuse_unwritable(getattr(args, "out", getattr(args, "vtk", None)))
    if args.command == "sweep":
        scenario = _load(args)
        methods = _methods(args, scenario)
        quantities = {q.strip() for q in args.quantities.split(",") if q.strip()}
        unknown = quantities - set(SWEEP_QUANTITIES)
        if unknown:
            raise ValueError(f"--quantities: unknown sweep quantities {sorted(unknown)}")
        required = {t.strip() for t in args.require.split(",") if t.strip()}
        if required - set(methods):
            raise ValueError(f"--require {sorted(required - set(methods))} "
                             f"is not among the swept methods {methods}")
        freqs = _parsed("--freqs", parse_frequencies, args.freqs)
        rows, singular = run_sweep(scenario, freqs, methods, quantities,
                                   timing=args.timing)
        _write_csv(args.out, "sweep", SWEEP_HEADER, rows)
        if required & singular:
            print(f"required method(s) singular: {sorted(required & singular)}",
                  file=sys.stderr)
            return EXIT_SINGULAR
        return EXIT_OK

    if args.command == "converge":
        scenario = load_scenario(args.config)
        methods = _methods(args, scenario)
        sizes = _parsed("--subdivs", _check_sizes, _sizes(args))
        rows = run_convergence(scenario, sizes, args.freq, methods)
        _write_csv(args.out, "converge", CONVERGE_HEADER, rows)
        return EXIT_OK

    if args.command == "solve":
        if args.density < 1:
            raise ValueError(f"--density must be >= 1, got {args.density}")
        scenario = _load(args)
        built = scenario.build()
        refuse_unspanned_gauge(built, (args.method,))
        try:
            sol = run_two_step(built, args.freq, args.method)
        except SingularMatrixError as exc:
            print(f"singular: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        print(f"f = {args.freq:g} Hz, method = {args.method}")
        print(f"  delta_D      = {sol.delta_D:.6e}")
        print(f"  rel_residual = {sol.curl_report.rel_residual:.6e}")
        print(f"  kappa1_eps   = {sol.curl_report.kappa1_eps:.6e}")
        print(f"  |a|          = {np.linalg.norm(sol.a):.6e}")
        if built.mms is not None:
            print(f"  hcurl_error  = {hcurl_error(built, sol.a, built.mms):.6e}")
        if args.vtk:
            export_vtk(args.vtk, built, sol, density=args.density)
            print(f"  wrote {args.vtk}")
        return EXIT_OK

    if args.command == "check":
        scenario = _load(args)
        built = scenario.build()
        match = match_cells(built.mesh, [r.box for r in scenario.regions])
        counts = np.bincount(match, minlength=len(scenario.regions))
        for i, (region, count) in enumerate(zip(scenario.regions, counts)):
            print(f"INFO  region {i} (eps_r={region.eps_r:g}, "
                  f"sigma={region.sigma:g}): {count} cells")
        results = run_check(built)
        ok = True
        for label, passed in results:
            print(f"{'PASS' if passed else 'FAIL'}  {label}")
            ok = ok and passed
        return EXIT_OK if ok else 1

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
