"""Command line front end: frequency sweeps, convergence studies, single
solves with VTK export, and the structural invariant check.

Exit codes: 0 success, 1 a failed structural invariant (check), 2
configuration error (or a system with no free unknowns), 3 singular matrix
or inaccurate solve (solve.InaccurateSolveError) on a method listed as
required, 4 I/O failure.  Output files are byte-identical across runs by
default; wall-clock columns are zero unless --timing is given.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .mesh import match_cells
from .physics import (METHODS, curl_coordinates, curl_system, hcurl_error,
                      run_two_step)
from .scenario import ConfigError, Scenario, load_scenario
from .solve import (DENSE_SVD_LIMIT, ConditionEstimate, Factorization,
                    SingularMatrixError, condition_estimate)
from .system import FrequencyPoint
from .vtk_io import export_vtk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

SWEEP_QUANTITIES = ("condition", "delta_D", "solve_residual")
SOLVE_QUANTITIES = {"delta_D", "solve_residual"}
SWEEP_HEADER = "f_hz,method,cond_estimate,cond_method,delta_D,rel_residual,n_dofs,wall_ms"
CONVERGE_HEADER = "s_h,method,hcurl_error,rate"


def _num(x: float) -> str:
    if x != x:  # nan
        return "nan"
    if np.isinf(x):
        return "inf"
    return f"{x:.12g}"


def parse_frequencies(spec: str) -> list[float]:
    """Comma list of Hz values, or 'logspace:<start_exp>,<stop_exp>,<num>'."""
    if spec.startswith("logspace:"):
        parts = spec[len("logspace:"):].split(",")
        if len(parts) != 3:
            raise ValueError("logspace spec needs start_exp,stop_exp,num")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        with np.errstate(all="ignore"):  # an overflow is rejected below
            freqs = [float(f) for f in np.logspace(start, stop, num)]
    else:
        freqs = [float(t) for t in spec.split(",") if t.strip()]
    if not freqs:
        raise ValueError("empty frequency list")
    if not all(np.isfinite(f) and f >= 0 for f in freqs):
        raise ValueError("frequencies must be finite and >= 0")
    return freqs


def method_system(built, omega: float):
    """The per-method system matrices of one frequency point."""
    return {m: curl_system(built, omega, m)[0] for m in METHODS}


def _sweep_row(built, f: float, method: str, quantities: set[str],
               timing: bool) -> tuple[str, bool]:
    """One CSV row from one solve; the condition estimate reuses its LU.

    A singular solve counts as singular only when a solve quantity is
    asked for.  When step one succeeded, the curl system failed the
    kappa_1 * eps test, either by the gradient probe of an original
    system, before any LU, or by its LU; above the dense limit that is the
    estimator's own singularity test, so the estimate is written as
    infinite without a further factorization.  Otherwise it is made on the
    system alone.
    """
    t0 = time.perf_counter()
    want_cond = "condition" in quantities
    coords = curl_coordinates(built, method)
    n_dofs = coords.shape[0]
    omega = FrequencyPoint(f).omega
    sol = est = None
    if quantities:
        eqs_solved = False
        try:
            built.excitation(omega)
            eqs_solved = True
            sol = run_two_step(built, f, method, condition=want_cond)
            est = sol.condition
        except SingularMatrixError:
            if want_cond and eqs_solved and n_dofs > DENSE_SVD_LIMIT:
                est = ConditionEstimate(np.inf, "power-iteration", 0, singular=True)
            elif want_cond:
                est = condition_estimate(curl_system(built, omega, method)[0],
                                         coords=coords)
    cond_cell = cond_method_cell = delta_cell = resid_cell = ""
    if est is not None:
        cond_cell = _num(est.value)
        cond_method_cell = est.method
    if "delta_D" in quantities:
        delta_cell = "singular" if sol is None else _num(sol.delta_D)
    if "solve_residual" in quantities:
        resid_cell = "singular" if sol is None else _num(sol.curl_report.rel_residual)
    wall_ms = int(round(1000 * (time.perf_counter() - t0))) if timing else 0
    row = f"{_num(f)},{method},{cond_cell},{cond_method_cell}," \
          f"{delta_cell},{resid_cell},{n_dofs},{wall_ms}"
    return row, sol is None and bool(quantities & SOLVE_QUANTITIES)


def run_sweep(scenario: Scenario, freqs: list[float], methods: list[str],
              quantities: set[str], timing: bool = False) -> tuple[list[str], set[str]]:
    """One CSV row per (frequency, method); singular solves are recorded,
    never raised.  Returns (rows, methods that hit a singular solve)."""
    built = scenario.build()
    rows = []
    singular_methods: set[str] = set()
    for f in freqs:
        for m in methods:
            row, singular = _sweep_row(built, f, m, quantities, timing)
            rows.append(row)
            if singular:
                singular_methods.add(m)
    return rows, singular_methods


def run_convergence(scenario: Scenario, subdivs: list[int], f: float,
                    methods: list[str]) -> list[str]:
    """H(curl) errors and observed rates over mesh refinement; the sizes
    must differ, since a rate compares two of them."""
    FrequencyPoint(f)  # rejects a negative or non-finite frequency
    if len(set(subdivs)) != len(subdivs):
        raise ConfigError(0, f"repeated convergence size in {subdivs}")
    if any(s < 1 for s in subdivs):
        raise ConfigError(0, f"convergence sizes must be >= 1, got {subdivs}")
    rows = []
    errors: dict[str, list[tuple[int, float]]] = {m: [] for m in methods}
    for s in subdivs:
        built = scenario.with_subdivisions((s, s, s)).build()
        if built.mms is None:
            raise ConfigError(0, "convergence study needs a manufactured source")
        for m in methods:
            try:
                sol = run_two_step(built, f, m)
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


def _factors(A, coords) -> bool:
    """A passes Factorization's kappa_1 * eps test; empty A is nonsingular."""
    if A.shape[0]:
        try:
            Factorization(A, coords)
        except SingularMatrixError:
            return False
    return True


def run_check(built) -> list[tuple[str, bool]]:
    """Structural invariants of one built scenario (see the check command)."""
    from .spaces import gradient_incidence

    results = []
    bundle = built.bundle
    P = gradient_incidence(built.mesh)
    curl_grad = abs(bundle.C_nu @ P).max()
    scale = max(abs(bundle.C_nu).max(), 1.0)
    results.append((f"curl o grad = 0 (max |C_nu P| = {curl_grad:.2e})",
                    curl_grad <= 1e-12 * scale))
    for name in ("K_sigma", "K_eps", "M_sigma", "M_eps", "C_nu"):
        A = getattr(bundle, name)
        asym = abs(A - A.T).max()
        bound = 1e-13 * max(abs(A).max(), 1e-300)
        results.append((f"{name} symmetric (|A - A^T| = {asym:.2e})", asym <= bound))
    air_edges = ~built.material.tags.conductor_edges
    m_sigma_air = abs(bundle.M_sigma[air_edges]).max() if air_edges.any() else 0.0
    results.append(("M_sigma vanishes on air rows", m_sigma_air == 0.0))
    # The kernel of the free curl matrix has dimension |tree| (Manges &
    # Cendes): a nonsingular cotree block gives rank >= |cotree|, and the
    # gradients G of the vertices the tree edges reach are |tree| kernel
    # vectors, independent when G[tree] is nonsingular.
    fw, tree, cotree = built.edge.free, built.partition.tree, built.partition.cotree
    C_free = bundle.C_nu[fw][:, fw]
    mid = curl_coordinates(built, "original")
    cotree_ok = _factors(C_free[cotree][:, cotree], mid[cotree])
    G = P[fw][:, built.gauge.gauge_nodes[built.partition.tree_vertex]]
    curl_G = np.abs((C_free @ G).data).max(initial=0.0)
    kernel_ok = (cotree_ok and curl_G <= 1e-12 * scale
                 and _factors(G[tree], mid[tree]))
    results.append((f"tree count {tree.size} = curl kernel "
                     f"(max |C P_g| = {curl_G:.2e})", kernel_ok))
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


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if getattr(args, "subdivs", None):
        scenario = scenario.with_subdivisions(
            [int(t) for t in args.subdivs.split(",")])
    return scenario


def _methods(args, scenario: Scenario) -> list[str]:
    if args.methods is not None:
        methods = [t.strip() for t in args.methods.split(",") if t.strip()]
        if not methods:
            raise ConfigError(0, f"empty --methods list {args.methods!r}")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(0, f"unknown method {m!r}")
        return methods
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


def _dispatch(args) -> int:
    if args.command in ("solve", "converge"):
        FrequencyPoint(args.freq)  # rejects a bad --freq before loading
    if args.command == "sweep":
        scenario = _load(args)
        methods = _methods(args, scenario)
        quantities = {q.strip() for q in args.quantities.split(",") if q.strip()}
        unknown = quantities - set(SWEEP_QUANTITIES)
        if unknown:
            raise ConfigError(0, f"unknown sweep quantities {sorted(unknown)}")
        required = {t.strip() for t in args.require.split(",") if t.strip()}
        if required - set(methods):
            raise ConfigError(0, f"--require {sorted(required - set(methods))} "
                                 f"is not among the swept methods {methods}")
        freqs = parse_frequencies(args.freqs)
        rows, singular = run_sweep(scenario, freqs, methods, quantities,
                                   timing=args.timing)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(f"# aphi sweep v1 columns: {SWEEP_HEADER}\n")
            fh.write(SWEEP_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
        if required & singular:
            print(f"required method(s) singular: {sorted(required & singular)}",
                  file=sys.stderr)
            return EXIT_SINGULAR
        return EXIT_OK

    if args.command == "converge":
        scenario = _load(args)
        methods = _methods(args, scenario)
        subdivs = [int(t) for t in args.subdivs.split(",")]
        rows = run_convergence(scenario, subdivs, args.freq, methods)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(f"# aphi converge v1 columns: {CONVERGE_HEADER}\n")
            fh.write(CONVERGE_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
        return EXIT_OK

    if args.command == "solve":
        if args.density < 1:
            raise ConfigError(0, f"--density must be >= 1, got {args.density}")
        scenario = _load(args)
        built = scenario.build()
        try:
            sol = run_two_step(built, args.freq, args.method)
        except SingularMatrixError as exc:
            print(f"singular: {exc}", file=sys.stderr)
            return EXIT_SINGULAR
        print(f"f = {args.freq:g} Hz, method = {args.method}")
        print(f"  delta_D      = {sol.delta_D:.6e}")
        print(f"  rel_residual = {sol.curl_report.rel_residual:.6e}")
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
