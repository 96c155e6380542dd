import importlib
import pkgutil
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import aphi
from aphi import physics, solve
from aphi.cli import run_convergence, run_sweep
from aphi.mesh import FACE_LABELS, Box
from aphi.physics import (METHODS, DerivedFields, ManufacturedCase,
                          curl_coordinates, curl_system, excitation,
                          gauge_residual, gradient_probe, hcurl_error,
                          run_two_step)
from aphi.scenario import (RegionSpec, Scenario, academic_scenario, load_scenario,
                           mms_scenario)
from aphi.solve import (KAPPA1_EPS_TOL, SINGLE_KAPPA1_EPS_TOL, ConditionEstimate,
                        Factorization, SingularMatrixError, _equilibrate,
                        _probe_bound, condition_estimate)
from aphi.system import FrequencyPoint, StaticSingularityError
from oracles import (cell_centre_fields, edge_interpolate, fd_curl_curl,
                     fd_divergence, fd_gradient, source_moments,
                     volume_quadrature, whole_batch_fields)
from oracles import hcurl_error as einsum_hcurl_error

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# exact H(curl) norm of the prescribed vector potential: sqrt(3 pi^3)
HCURL_NORM_A_ANA = 9.644627006368583


@pytest.fixture(scope="module")
def case():
    return ManufacturedCase()


def _random_points(rng, n=100):
    return rng.uniform(np.pi / 2 + 0.05, 3 * np.pi / 2 - 0.05, size=(n, 3))


def test_div_A_identically_zero(case, rng):
    # through the finite-difference oracle
    for p in _random_points(rng, 5):
        assert abs(fd_divergence(lambda x: case.A(x[None, :])[0], p)) < 1e-6


def test_prescribed_fields_satisfy_boundary_conditions(case, rng):
    # tangential vector potential and scalar potential vanish on every face
    lo, hi = np.pi / 2, 3 * np.pi / 2
    for axis in range(3):
        for value in (lo, hi):
            pts = rng.uniform(lo, hi, size=(20, 3))
            pts[:, axis] = value
            assert np.allclose(case.phi(pts), 0.0, atol=1e-14)
            A = case.A(pts)
            tangential = np.delete(A, axis, axis=1)
            assert np.allclose(tangential, 0.0, atol=1e-14)


def test_curl_curl_matches_finite_differences(case, rng):
    for p in _random_points(rng, 10):
        exact = case.curl_curl_A(p[None, :])[0]
        fd = fd_curl_curl(lambda x: case.A(x[None, :])[0], p, h=1e-4)
        assert np.linalg.norm(fd - exact) < 1e-6 * max(np.linalg.norm(exact), 1.0)


def test_grad_phi_matches_finite_differences(case, rng):
    for p in _random_points(rng, 10):
        exact = case.grad_phi(p[None, :])[0]
        fd = fd_gradient(lambda x: float(case.phi(x[None, :])[0]), p)
        assert np.linalg.norm(fd - exact) < 1e-6


def test_source_consistency_identity(case, rng):
    # div(J_s - kappa grad phi) = 0 for omega > 0 since div(kappa A) = 0
    omega = 2 * np.pi * 10.0
    kappa = case.kappa(omega)

    def residual_field(x):
        p = x[None, :]
        return case.J_s(p, omega)[0] - kappa * case.grad_phi(p)[0]

    for p in _random_points(rng, 5):
        div_parts = [fd_divergence(lambda x: residual_field(x).real, p),
                     fd_divergence(lambda x: residual_field(x).imag, p)]
        scale = max(np.linalg.norm(residual_field(p)), 1.0)
        assert abs(complex(div_parts[0], div_parts[1])) < 1e-6 * scale


def test_laplacian_of_phi_is_three_phi(case, rng):
    # -div(grad phi) = 3 phi: the factor 3 of the charge moments 3*sigma*q
    # and 3*eps*q
    for p in _random_points(rng, 5):
        lap = fd_divergence(lambda x: case.grad_phi(x[None, :])[0], p)
        assert abs(-lap - 3.0 * case.phi(p[None, :])[0]) < 1e-6


def test_hcurl_norm_analytic_vs_quadrature_oracle(case):
    # 6^3-point Gauss oracle of |A|^2 + |curl A|^2, applied per octant
    def density(p):
        pp = p[None, :]
        return float(np.sum(np.abs(case.A(pp)) ** 2)
                     + np.sum(np.abs(case.curl_A(pp)) ** 2))

    oracle = 0.0
    mids = [np.pi / 2, np.pi, 3 * np.pi / 2]
    for cx in range(2):
        for cy in range(2):
            for cz in range(2):
                lo = [mids[cx], mids[cy], mids[cz]]
                hi = [mids[cx + 1], mids[cy + 1], mids[cz + 1]]
                oracle += volume_quadrature(density, lo, hi, n=6)
    assert np.isclose(np.sqrt(oracle), HCURL_NORM_A_ANA, rtol=1e-9)


def test_hcurl_error_zero_solution_is_field_norm(mms_built_sigma0):
    built = mms_built_sigma0
    err = hcurl_error(built, np.zeros(built.mesh.n_edges, dtype=complex),
                      built.mms)
    # 3^3 assembly-side quadrature of the smooth field: small h-dependent bias
    assert np.isclose(err, HCURL_NORM_A_ANA, rtol=2e-2)


@pytest.mark.parametrize("size", [3, 4])
def test_hcurl_error_matches_einsum_oracle(size, rng):
    built = mms_scenario(0.0, (size,) * 3).build()
    n = built.mesh.n_edges
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = einsum_hcurl_error(built, a, built.mms)
    assert abs(hcurl_error(built, a, built.mms) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("config", ["mms_sigma0.cfg", "mms_sigma6e7.cfg"])
@pytest.mark.parametrize("size", [2, 3])
def test_source_vectors_match_order_10_oracle(config, size):
    # the manufactured sources integrate to rounding at the assembly's
    # order: order 10 changes no moment beyond it
    built = load_scenario(CONFIG_DIR / config).with_subdivisions((size,) * 3).build()
    omega, case, source = FrequencyPoint(10.0).omega, built.mms, built.bundle.source
    # the charge moments are the sigma- and eps-weighted parts of 3*kappa*phi
    pairs = [(got, source_moments(built.mesh, lambda p, w=w: 3.0 * w * case.phi(p),
                                  "scalar", order=10))
             for got, w in zip(source.charge_moments(built.scalar), (case.sigma, case.eps))]
    pairs.append((source.current_vector(built.edge, omega),
                  source_moments(built.mesh, lambda p: case.J_s(p, omega), "edge",
                                 order=10)))
    for got, ref in pairs:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_hcurl_error_of_interpolant_is_first_order(case):
    errs = []
    for s in (2, 4, 8):
        built = mms_scenario(0.0, (s, s, s)).build()
        a = edge_interpolate(built.mesh, case.A)
        errs.append(hcurl_error(built, a, case))
    assert np.log2(errs[0] / errs[1]) > 0.9
    assert np.log2(errs[1] / errs[2]) > 0.9


def test_two_step_mms_regimes():
    # high frequency: the unstabilized variant stays usable; low frequency,
    # nonconducting: it breaks down on the fine mesh while the stabilized
    # variant keeps converging
    fine = mms_scenario(0.0, (8, 8, 8)).build()
    sol = run_two_step(fine, 1e6, "original")
    err_high = hcurl_error(fine, sol.a, fine.mms)
    assert err_high < 2.0

    with pytest.raises(SingularMatrixError):
        run_two_step(fine, 10.0, "original")

    sol_tc = run_two_step(fine, 10.0, "tree-cotree")
    assert hcurl_error(fine, sol_tc.a, fine.mms) < 2.0


def test_two_step_static_stabilized_everywhere():
    for scenario in (academic_scenario((3, 3, 3)), mms_scenario(0.0, (3, 3, 3))):
        built = scenario.build()
        sol = run_two_step(built, 0.0, "tree-cotree")
        assert np.all(np.isfinite(sol.a))
        assert sol.delta_D <= 1e-10 * max(np.linalg.norm(sol.a), 1.0)


def test_gauge_residual_zero_vector(academic_built):
    assert gauge_residual(academic_built.bundle, 123.0,
                          np.zeros(academic_built.mesh.n_edges, dtype=complex),
                          academic_built.gauge) == 0.0


def test_gauge_residual_stabilized_bounded_over_sweep(academic_built):
    for f in [0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]:
        sol = run_two_step(academic_built, f, "tree-cotree")
        assert sol.delta_D <= 1e-10 * max(np.linalg.norm(sol.a), 1.0), f


def test_gauge_residual_original_grows_at_low_frequency(academic_built):
    deltas = {}
    for f in (1e3, 1.0, 1e-3):
        deltas[f] = run_two_step(academic_built, f, "original").delta_D
    assert deltas[1e-3] > 1e2 * deltas[1.0] > 1e4 * deltas[1e3]


@pytest.mark.parametrize("condition", [False, True])
def test_curl_lu_freed_before_gauge_residual(condition, academic_built, monkeypatch):
    made = []
    init, residual = Factorization.__init__, physics.gauge_residual

    def spy(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    def checked(*args):
        # the curl Factorization is the last one made before the residual
        assert len(made) == 2 and made[-1]() is None
        return residual(*args)

    monkeypatch.setattr(Factorization, "__init__", spy)
    monkeypatch.setattr(physics, "gauge_residual", checked)
    sol = run_two_step(academic_built, 1e3, "tree-cotree", condition=condition)
    assert sol.delta_D >= 0.0 and len(made) == 2


def test_two_step_bit_identical_without_heap_release(academic_built, monkeypatch):
    def solve_all():
        return [run_two_step(academic_built, 1e3, m) for m in METHODS]

    released = solve_all()
    monkeypatch.setattr(solve, "_malloc_trim", None)
    for kept, sol in zip(solve_all(), released):
        assert np.array_equal(kept.a, sol.a)
        assert kept.delta_D == sol.delta_D
        assert kept.curl_report.rel_residual == sol.curl_report.rel_residual


def _pairwise_equivalence(built, f, tol=1e-8):
    sols = {m: run_two_step(built, f, m).a
            for m in ("original", "tree-cotree", "lagrange")}
    scale = max(np.linalg.norm(sols["tree-cotree"]), 1e-300)
    worst = max(np.linalg.norm(sols[m1] - sols[m2]) / scale
                for m1 in sols for m2 in sols)
    assert worst <= tol, (built.name, f, worst)


def test_method_equivalence_moderate_frequencies():
    # all three variants coincide wherever the unstabilized system is still
    # well conditioned: conducting configurations at any moderate frequency,
    # nonconducting ones at the high end
    for f in (1e3, 1e6):
        _pairwise_equivalence(academic_scenario((3, 3, 3)).build(), f)
        for subdivisions in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
            _pairwise_equivalence(mms_scenario(6e7, subdivisions).build(), f)
    for subdivisions in ((2, 2, 2), (4, 4, 4)):
        _pairwise_equivalence(academic_scenario(subdivisions).build(), 1e6)
    _pairwise_equivalence(mms_scenario(0.0, (3, 3, 3)).build(), 1e6)


def test_original_deviation_tracks_its_conditioning():
    # on nonconducting meshes at 1e3 Hz the unstabilized solve is already
    # deep into the low-frequency breakdown: its deviation from the
    # stabilized solution is of order eps * cond(W), not discretization
    from aphi.solve import condition_estimate
    from aphi.system import build_curl_matrix
    built = academic_scenario((4, 4, 4)).build()  # bars unresolved: all air
    assert not built.material.tags.conductor_cells.any()
    f = 1e3
    cond = condition_estimate(build_curl_matrix(built.bundle, 2 * np.pi * f)).value
    a_orig = run_two_step(built, f, "original").a
    a_tc = run_two_step(built, f, "tree-cotree").a
    rel = np.linalg.norm(a_orig - a_tc) / np.linalg.norm(a_tc)
    assert rel > 1e-8  # far beyond solver accuracy of a healthy system
    assert rel <= 1e3 * np.finfo(float).eps * cond


def test_derived_fields_static_corrections_vanish(academic_built):
    sol = run_two_step(academic_built, 0.0, "tree-cotree")
    flds = DerivedFields(academic_built, sol, academic_built.mesh.cell_centroids()[:5])
    assert np.all(flds.D_m() == 0)
    assert np.all(flds.J_m() == 0)


def test_derived_fields_conduction_vanishes_in_air(mms_built_sigma0):
    sol = run_two_step(mms_built_sigma0, 10.0, "tree-cotree")
    flds = DerivedFields(mms_built_sigma0, sol, mms_built_sigma0.mesh.cell_centroids()[:5])
    assert np.all(flds.J_e() == 0)
    assert np.all(flds.J_m() == 0)


def test_derived_fields_carry_the_manufactured_source_current(mms_built_sigma0):
    built = mms_built_sigma0
    assert built.mms is built.bundle.source  # the bundle owns the case
    sol = run_two_step(built, 10.0, "tree-cotree")
    lo, hi = np.array(built.mesh.extents).T
    pts = lo + (hi - lo) * np.random.default_rng(7).uniform(size=(8, 3))
    flds = DerivedFields(built, sol, pts)
    want = built.mms.J_s(pts, sol.frequency.omega)
    assert np.abs(want).max() > 0
    assert np.array_equal(flds.J_source(), want)
    assert np.array_equal(flds.J_total(), flds.J_e() + flds.J_m() + flds.J_source())


def test_derived_fields_decompositions_sum(academic_built):
    sol = run_two_step(academic_built, 50.0, "tree-cotree")
    flds = DerivedFields(academic_built, sol, academic_built.mesh.cell_centroids()[:6])
    assert np.allclose(flds.D_total(), flds.D_e() + flds.D_m())
    assert np.allclose(flds.J_total(), flds.J_e() + flds.J_m() + flds.J_source())
    assert np.allclose(flds.E(),
                       -flds.grad_phi() - 1j * sol.frequency.omega
                       * flds.vector_potential())


def test_derived_fields_outside_domain_raises(academic_built):
    sol = run_two_step(academic_built, 0.0, "tree-cotree")
    flds = DerivedFields(academic_built, sol, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        flds.B()


def test_derived_fields_match_cell_centre_oracle(academic_built):
    # all centroids in one shuffled batch against the loop-based oracle
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    centres, want = cell_centre_fields(academic_built.mesh, sol.u, sol.a,
                                       sol.frequency.omega)
    order = np.random.default_rng(5).permutation(centres.shape[0])
    flds = DerivedFields(academic_built, sol, centres[order])
    evaluators = {"grad_phi": flds.grad_phi, "A": flds.vector_potential,
                  "B": flds.B, "E": flds.E}
    for name, evaluate in evaluators.items():
        ref = want[name][order]
        scale = np.abs(ref).max()
        assert scale > 0, name
        assert np.abs(evaluate() - ref).max() <= 1e-12 * scale, name


def test_derived_fields_single_points_equal_batch_rows(academic_built):
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    lo, hi = np.array(academic_built.mesh.extents).T
    pts = lo + (hi - lo) * np.random.default_rng(6).uniform(size=(12, 3))
    flds = DerivedFields(academic_built, sol, pts)
    for name in ("grad_phi", "vector_potential", "B", "E", "D_e", "D_m",
                 "J_e", "J_m", "J_source", "D_total", "J_total"):
        batch = getattr(flds, name)()
        for i in (0, 5, 11):
            one = getattr(DerivedFields(academic_built, sol, pts[i]), name)()
            assert np.array_equal(one, batch[i:i + 1]), name


def test_derived_fields_base_arrays_read_only(academic_built):
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    flds = DerivedFields(academic_built, sol, academic_built.mesh.cell_centroids()[:4])
    for name in ("grad_phi", "vector_potential", "B"):
        arr = getattr(flds, name)()
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    # the per-point materials that D and J are combined from, too
    base = flds._base
    assert not base.eps.flags.writeable and not base.sigma.flags.writeable
    assert flds.E().flags.writeable  # a combination is a fresh array


@pytest.fixture(scope="module")
def conducting_10hz():
    # J_source, J_e and J_m are all nonzero here
    built = load_scenario(CONFIG_DIR / "mms_sigma6e7.cfg").with_subdivisions((3, 3, 3)).build()
    return built, run_two_step(built, 10.0, "tree-cotree")


def _uniform_points(built, n, seed):
    lo, hi = np.array(built.mesh.extents).T
    return lo + (hi - lo) * np.random.default_rng(seed).uniform(size=(n, 3))


def test_derived_fields_blocks_equal_one_batch(conducting_10hz):
    # two full blocks and one point, against the bases of all points at once
    built, sol = conducting_10hz
    pts = _uniform_points(built, 2 * physics._FIELD_BLOCK + 1, 8)
    want = whole_batch_fields(built, sol, pts)
    assert len(want) == 11
    for name in ("J_source", "J_e", "J_m"):
        assert np.abs(want[name]).max() > 0, name
    flds = DerivedFields(built, sol, pts)
    for name, ref in want.items():
        assert np.array_equal(getattr(flds, name)(), ref), name


def test_derived_fields_temporaries_set_by_one_block(conducting_10hz):
    # the traced peak of _base beyond its outputs: eight blocks of points
    # stay within twice one block's, where evaluating all the points in
    # one batch takes eight times as much
    built, sol = conducting_10hz

    def excess(n):
        flds = DerivedFields(built, sol, _uniform_points(built, n, 9))
        tracemalloc.start()
        try:
            base = flds._base
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(arr.nbytes for arr in base)

    one = excess(physics._FIELD_BLOCK)
    assert one > 0
    assert excess(8 * physics._FIELD_BLOCK) <= 2 * one


def test_derived_B_converges_to_analytic_curl(case, rng):
    # sampled L2 difference between B and curl A_ana decreases about
    # linearly with h
    pts = _random_points(rng, 64)
    errs = []
    for s in (2, 4):
        built = mms_scenario(0.0, (s, s, s)).build()
        sol = run_two_step(built, 10.0, "tree-cotree")
        diff = DerivedFields(built, sol, pts).B() - case.curl_A(pts)
        errs.append(np.sqrt(np.mean(np.abs(diff) ** 2)))
    assert errs[1] < 0.65 * errs[0]


def test_mms_convergence_rates_stabilized():
    # first-order H(curl) convergence at 10 Hz with and without conduction
    for sigma in (0.0, 6e7):
        errs = []
        for s in (2, 4, 8):
            built = mms_scenario(sigma, (s, s, s)).build()
            sol = run_two_step(built, 10.0, "tree-cotree")
            errs.append(hcurl_error(built, sol.a, built.mms))
        rate = np.log2(errs[1] / errs[2])
        assert rate >= 0.9, (sigma, errs)


def test_unknown_method_rejected(academic_built):
    with pytest.raises(ValueError):
        run_two_step(academic_built, 1.0, "cg")


def test_curl_system_sizes_and_split(academic_built):
    built = academic_built
    n_free, n_tree = built.edge.n_free, built.partition.tree.size
    omega = 2 * np.pi * 10.0
    sizes = {"original": n_free, "tree-cotree": n_free, "lagrange": n_free + n_tree}
    for method, n in sizes.items():
        A, b = curl_system(built, omega, method)
        assert A.shape == (n, n) and b.shape == (n,)
        assert curl_coordinates(built, method).shape[0] == n
        # the solution splits into the free edges and, for lagrange only,
        # one multiplier per gauge row
        sol = run_two_step(built, 10.0, method)
        assert sol.a.size == built.mesh.n_edges
        assert (sol.lam is None) == (method != "lagrange")
        if sol.lam is not None:
            assert sol.lam.size == n_tree


@pytest.mark.parametrize("method", ["tree-cotree", "lagrange"])
def test_condition_from_solve_matches_standalone(method):
    # above the dense limit the estimate runs inverse iteration, here on
    # the solve's LU; it must equal a fresh estimate on the same system,
    # factored in the same order
    built = mms_scenario(0.0, (10, 10, 10)).build()
    omega = 2 * np.pi * 10.0
    est = run_two_step(built, 10.0, method, condition=True).condition
    ref = condition_estimate(curl_system(built, omega, method)[0],
                             coords=curl_coordinates(built, method))
    assert ref.method == "power-iteration"
    assert (est.value, est.method, est.iterations) == \
        (ref.value, ref.method, ref.iterations)


def test_mms_sigma0_classification_at_10hz():
    # pinned: the unstabilized system is singular at both sizes (at 4^3
    # kappa_1 * eps is 0.75, so its solution has no correct digit), while
    # both stabilized variants factor at both sizes
    for n in (4, 8):
        built = mms_scenario(0.0, (n, n, n)).build()
        for method in METHODS:
            try:
                run_two_step(built, 10.0, method)
                factored = True
            except SingularMatrixError:
                factored = False
            assert factored == (method != "original"), (n, method)


EPS = np.finfo(float).eps


def _gradient_probe_bound(built, A):
    """The bound that Factorization(A, probe=gradient_probe(built)) judges."""
    return _probe_bound(A, *_equilibrate(A), gradient_probe(built))


@pytest.mark.parametrize("f", [10.0, 1e3, 1e6])
@pytest.mark.parametrize("scenario", [mms_scenario(0.0, (2, 2, 2)),
                                      mms_scenario(0.0, (4, 4, 4)),
                                      academic_scenario((4, 4, 4))])  # all air
def test_gradient_probe_bound_below_dense_kappa1(scenario, f):
    built = scenario.build()
    A = curl_system(built, 2 * np.pi * f, "original")[0]
    kappa1 = _dense_kappa1(A)
    # both sides carry rounding of relative order kappa_1 * eps; at 2^3 the
    # one gauge node makes the probe the kernel vector itself, so there the
    # bound meets kappa_1 within that rounding
    assert 1.0 <= _gradient_probe_bound(built, A) <= kappa1 * (1 + 10 * EPS * kappa1)


def _dense_kappa1(A):
    r, c = _equilibrate(A)
    return np.linalg.cond(A.toarray() / r[:, None] / c[None, :], 1)


def test_probe_proven_system_is_never_factored(splu_dtypes):
    # pinned: the probe reads kappa_1 * eps 0.223 at 4^3, the nearest margin
    # to the constant 0.2 (the dense value is 0.727), and 0.782 at 8^3
    for n, low in ((4, 0.22), (8, 0.78)):
        built = mms_scenario(0.0, (n, n, n)).build()
        exc = excitation(built, 10.0)
        A = curl_system(built, exc.frequency.omega, "original")[0]
        bound = _gradient_probe_bound(built, A)
        assert bound * EPS >= low > KAPPA1_EPS_TOL
        if n == 4:
            assert bound < _dense_kappa1(A) / 3
        splu_dtypes.clear()
        with pytest.raises(SingularMatrixError, match="gradient probe"):
            run_two_step(built, exc, "original")
        assert splu_dtypes == []


def test_gradient_probe_skipped_without_air_gauge_node(monkeypatch, splu_dtypes):
    probed = []
    bound = solve._probe_bound
    monkeypatch.setattr(solve, "_probe_bound",
                        lambda *a: probed.append(a) or bound(*a))
    built = mms_scenario(6e7, (4, 4, 4)).build()
    assert gradient_probe(built) is None
    run_two_step(built, 10.0, "original")
    assert len(splu_dtypes) == 2 and probed == []  # EQS and curl
    # the gauged systems are full rank by construction: never probed
    built = mms_scenario(0.0, (4, 4, 4)).build()
    for method in ("tree-cotree", "lagrange"):
        run_two_step(built, 10.0, method)
    assert probed == []
    with pytest.raises(SingularMatrixError, match="gradient probe"):
        run_two_step(built, 10.0, "original")
    assert len(probed) == 1


def test_gradient_probe_at_0hz_raises_without_warning(splu_dtypes):
    built = mms_scenario(0.0, (4, 4, 4)).build()
    exc = excitation(built, 0.0)
    splu_dtypes.clear()
    A = curl_system(built, 0.0, "original")[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="gradient probe"):
            run_two_step(built, exc, "original")
        # A_s x is the curl of a gradient, at rounding level ...
        assert _gradient_probe_bound(built, A) * EPS > 1.0
        # ... or exactly zero, where the bound is infinite
        assert _gradient_probe_bound(built, 0.0 * A) == np.inf
    assert splu_dtypes == []


@pytest.fixture(scope="module")
def academic_11():
    return academic_scenario((11, 11, 11)).build()


@pytest.mark.parametrize("f, curl_dtypes", [
    (1e3, [np.complex128]), (1e6, [np.complex128]), (1e9, [np.complex64])])
def test_probe_bound_skips_a_hopeless_single_factor(academic_11, f, curl_dtypes,
                                                    splu_dtypes):
    # the probe bound times eps_single reads about 4e6, 4 and 4e-6: a
    # single LU of the first two would only be refused by its own kappa_1
    exc = excitation(academic_11, f)
    A = curl_system(academic_11, exc.frequency.omega, "original")[0]
    bound = _gradient_probe_bound(academic_11, A)
    assert (bound * np.finfo(np.float32).eps > SINGLE_KAPPA1_EPS_TOL) == (f < 1e9)
    splu_dtypes.clear()
    run_two_step(academic_11, exc, "original")
    assert splu_dtypes == curl_dtypes


@pytest.mark.parametrize("fixture", ["academic_built", "academic_11"])
def test_refused_curl_step_carries_its_condition(fixture, request):
    # the original system at 0 Hz is refused: at 3^3 by its LUs (no gauge
    # node lies in air there), at 11^3 by the gradient probe.  The error
    # carries the estimate a sweep row writes: the dense SVD's, or, above
    # the dense limit, infinite without a further LU
    built = request.getfixturevalue(fixture)
    exc = excitation(built, 0.0)
    if built.edge.n_free > solve.DENSE_SVD_LIMIT:
        expected = ConditionEstimate(np.inf, "power-iteration", 0)
    else:
        expected = condition_estimate(curl_system(built, 0.0, "original")[0])
        assert expected.method == "dense-svd"
    with pytest.raises(SingularMatrixError) as info:
        run_two_step(built, exc, "original", condition=True)
    assert info.value.condition == expected
    with pytest.raises(SingularMatrixError) as info:
        run_two_step(built, exc, "original")
    assert info.value.condition is None


def test_probed_factorization_equilibrates_once(monkeypatch, mms_built_sigma0):
    # every module that binds the name is spied on, so an equilibration
    # repeated outside solve is counted too
    calls = []
    equilibrate = solve._equilibrate
    for info in pkgutil.iter_modules(aphi.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"aphi.{info.name}")
        if "_equilibrate" in vars(module):
            monkeypatch.setattr(module, "_equilibrate",
                                lambda A: calls.append(A.shape) or equilibrate(A))
    exc = excitation(mms_built_sigma0, 10.0)  # step one, uncounted
    calls.clear()
    with pytest.raises(SingularMatrixError, match="gradient probe"):
        run_two_step(mms_built_sigma0, exc, "original")
    assert len(calls) == 1
    exc = excitation(mms_built_sigma0, 1e6)
    calls.clear()
    run_two_step(mms_built_sigma0, exc, "original")  # probed, then factored
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 5])  # 36 and 240 free edges: ND_LEAF is 64
@pytest.mark.parametrize("method", METHODS)
def test_curl_solution_matches_dense_solve(n, method):
    built = academic_scenario((n, n, n)).build()
    exc = excitation(built, 1e9)  # well conditioned for every method (kappa2 below 1e4)
    sol = run_two_step(built, exc, method)
    A, b = curl_system(built, exc.frequency.omega, method, exc.j_free)
    x_dense = np.linalg.solve(A.toarray(), b)
    x = sol.a[built.edge.free]
    if sol.lam is not None:
        x = np.concatenate([x, sol.lam])
    assert np.linalg.norm(x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


def test_J_s_equals_its_two_terms_exactly(rng):
    # the shared sines and cosines must not change a single bit
    pts = rng.uniform(-10.0, 10.0, size=(1000, 3))
    for case in (ManufacturedCase(), ManufacturedCase(sigma=6e7)):
        for omega in (0.0, 2 * np.pi * 10.0, 2 * np.pi * 1e9):
            k = case.kappa(omega)
            ref = (3.0 * case.nu + 1j * omega * k) * case.A(pts) \
                + k * case.grad_phi(pts)
            assert np.array_equal(case.J_s(pts, omega), ref)


def _count_eqs_solves(monkeypatch):
    calls = []
    real = physics.solve_eqs_step

    def counted(built, omega):
        calls.append(omega)
        return real(built, omega)

    monkeypatch.setattr(physics, "solve_eqs_step", counted)
    return calls


def _floating_conductor_scenario():
    # the inner conductor touches no phi face: singular at 0 Hz
    return Scenario(
        extents=((0, 1),) * 3, subdivisions=(3, 3, 3),
        regions=(RegionSpec(box=Box(lo=(0, 0, 0), hi=(1, 1, 1)), eps_r=1.0, sigma=0.0),
                 RegionSpec(box=Box(lo=(0.3, 0.3, 0.3), hi=(0.7, 0.7, 0.7)),
                            eps_r=1.0, sigma=1.0)),
        phi_bcs=(("xmin", 0.0), ("xmax", 1.0)), a_zero=FACE_LABELS)


def test_step_one_solved_once_per_frequency_and_size(monkeypatch):
    calls = _count_eqs_solves(monkeypatch)
    rows, singular = run_sweep(academic_scenario((3, 3, 3)), [1.0, 1e3],
                               list(METHODS), {"delta_D", "solve_residual"})
    assert len(rows) == 6 and not singular
    assert calls == [2 * np.pi * 1.0, 2 * np.pi * 1e3]
    calls.clear()
    rows = run_convergence(mms_scenario(0.0, (2, 2, 2)), [2, 3], 10.0, list(METHODS))
    assert len(rows) == 6
    assert calls == [2 * np.pi * 10.0] * 2
    # a failed step one is attempted once and makes every row singular
    calls.clear()
    rows, singular = run_sweep(_floating_conductor_scenario(), [0.0], list(METHODS),
                               {"delta_D", "solve_residual"})
    assert calls == [0.0]
    assert singular == set(METHODS)
    assert [r.split(",")[4:6] for r in rows] == [["singular", "singular"]] * 3


def test_shared_excitation_gives_the_fresh_solution(academic_built):
    exc = excitation(academic_built, 1e3)
    for m in METHODS:
        sol = run_two_step(academic_built, exc, m)
        fresh = run_two_step(academic_scenario((3, 3, 3)).build(), 1e3, m)
        assert np.array_equal(sol.u, fresh.u) and np.array_equal(sol.a, fresh.a)
        assert (sol.lam is None) == (fresh.lam is None)
        if sol.lam is not None:
            assert np.array_equal(sol.lam, fresh.lam)
        assert sol.delta_D == fresh.delta_D
        assert sol.curl_report.rel_residual == fresh.curl_report.rel_residual
        assert sol.frequency == fresh.frequency


def test_excitation_arrays_are_read_only(academic_built):
    exc = excitation(academic_built, 1e3)
    for arr in (exc.u, exc.eqs_report.x, exc.j_free):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    sol = run_two_step(academic_built, exc, "tree-cotree")
    assert sol.u is exc.u and sol.eqs_report is exc.eqs_report


def test_excitation_failure_is_raised_for_every_method(monkeypatch):
    calls = _count_eqs_solves(monkeypatch)
    built = _floating_conductor_scenario().build()
    for m in METHODS:
        with pytest.raises(StaticSingularityError):
            run_two_step(built, 0.0, m)
    assert len(calls) == len(METHODS)
