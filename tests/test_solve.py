import gc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from aphi import solve
from aphi.assembly import MaterialField, assemble_curl_curl
from aphi.mesh import (AIR, FACE_LABELS, Box, boundary_entities,
                       build_box_mesh, tag_regions)
from aphi.physics import METHODS, curl_coordinates, curl_system, run_two_step
from aphi.scenario import academic_scenario, mms_scenario
from aphi.solve import (KAPPA1_EPS_TOL, ND_LEAF, RESIDUAL_TOL, Factorization,
                        InaccurateSolveError, SingularMatrixError,
                        condition_estimate, nested_dissection,
                        sparse_lu_solve)
from aphi.spaces import DirichletSpec, build_edge_space
from oracles import dense_condition


def _random_sparse(n, rng, density=0.05):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(7),
                  format="csr")
    A = A + 1j * sp.random(n, n, density=density,
                           random_state=np.random.RandomState(8), format="csr")
    # diagonal dominance keeps it comfortably nonsingular
    return (A + sp.diags(10.0 + rng.standard_normal(n))).tocsr()


def test_identity_system():
    b = np.arange(1.0, 6.0) + 1j
    rep = sparse_lu_solve(sp.eye(5, format="csr"), b)
    assert np.array_equal(rep.x, b)
    assert rep.rel_residual == 0.0


def test_random_system_matches_dense_oracle(rng):
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    rep = Factorization(A).checked_solve(b)
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) / np.linalg.norm(x_dense) < 1e-10
    assert rep.rel_residual < 1e-10
    assert rep.refinements == 0  # an accurate solve pays for no second one


def test_mixed_random_system_matches_dense_oracle(rng, splu_dtypes):
    # a complex64 LU refined against the complex128 matrix reaches double
    # accuracy within MAX_REFINEMENTS steps
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    rep = sparse_lu_solve(A, b)
    assert splu_dtypes == [np.complex64]
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
    assert rep.rel_residual <= solve.REFINE_TOL
    assert 1 <= rep.refinements <= solve.MAX_REFINEMENTS == 3


def test_imaginary_parts_below_single_resolution_factor_in_float32(rng, splu_dtypes):
    # imaginary parts 1e-10 below the real ones are zeroed in the single
    # copy, which is then real; the residual is still the complex matrix's
    A = (_random_real(150, 5) + 1e-10j * _random_real(150, 6)).tocsr()
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    fac = Factorization(A, mixed=True)
    assert splu_dtypes == [np.float32] and fac.single
    rep = fac.checked_solve(b)
    assert rep.rel_residual <= solve.REFINE_TOL
    assert np.linalg.norm(A @ rep.x - b) <= solve.REFINE_TOL * np.linalg.norm(b)
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


@pytest.mark.parametrize("scale", [1e-40, 1e-30, 1e30, 1e40])
def test_mixed_solve_of_extreme_right_hand_sides(scale, rng, splu_dtypes):
    # the power-of-two scaling keeps b and the refinement residuals inside
    # float32's normal range, whatever the magnitude of b: 1e40 overflows
    # float32 and 1e-40 is subnormal in it
    A = _random_sparse(100, rng)
    b = scale * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    rep = sparse_lu_solve(A, b)
    assert splu_dtypes == [np.complex64]
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
    assert rep.rel_residual <= solve.REFINE_TOL


def _bidiagonal(n, super_diag):
    """I + super_diag on the superdiagonal: kappa_1 grows as |super_diag|^n."""
    return sp.diags([np.ones(n), np.full(n - 1, super_diag)], [0, 1], format="csr")


@pytest.mark.parametrize("super_diag, singular", [(-1.05, False), (-1.5, True)])
def test_ill_conditioned_system_ends_on_a_double_factor(super_diag, singular,
                                                        splu_dtypes):
    # kappa_1 * eps_single far above SINGLE_KAPPA1_EPS_TOL: the single LU
    # is dropped and the double one gives the verdict a double
    # Factorization gives
    A = _bidiagonal(200, super_diag)
    b = np.ones(200) + 0j
    if singular:
        with pytest.raises(SingularMatrixError, match="kappa_1 \\* eps"):
            Factorization(A)
        splu_dtypes.clear()
        with pytest.raises(SingularMatrixError, match="kappa_1 \\* eps"):
            sparse_lu_solve(A, b)
        assert splu_dtypes == [np.float32, np.float64]
        return
    double = Factorization(A)
    splu_dtypes.clear()
    fac = Factorization(A, mixed=True)
    assert splu_dtypes == [np.float32, np.float64] and not fac.single
    assert fac.kappa1 * np.finfo(np.float32).eps > solve.SINGLE_KAPPA1_EPS_TOL
    assert fac.kappa1 == double.kappa1
    rep = fac.checked_solve(b)
    assert rep.rel_residual <= RESIDUAL_TOL
    assert np.array_equal(rep.x, double.checked_solve(b).x)


def test_stalled_refinement_falls_back_to_a_double_factor(rng, splu_dtypes):
    # a single LU of (1 + 1e-2) A contracts the residual by 1e-2 a step,
    # 1e-8 after MAX_REFINEMENTS: the matrix is factored in double instead
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    fac = Factorization(1.01 * A, mixed=True)
    fac.A = A
    assert fac.single
    rep = fac.checked_solve(b)
    assert splu_dtypes == [np.complex64, np.complex128] and not fac.single
    assert rep.rel_residual <= RESIDUAL_TOL and rep.refinements == 0
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


def test_condition_estimate_refuses_a_single_factor(rng, monkeypatch):
    monkeypatch.setattr(solve, "DENSE_SVD_LIMIT", 100)
    A = _random_sparse(200, rng)
    fac = Factorization(A, mixed=True)
    assert fac.single
    with pytest.raises(ValueError, match="double-precision factor"):
        condition_estimate(A, fac=fac)
    assert condition_estimate(A, fac=Factorization(A)).method == "power-iteration"


@pytest.mark.parametrize("scenario, f", [
    (lambda: academic_scenario((11, 11, 11)), 100.0),
    (lambda: mms_scenario(0.0, (8, 8, 8)), 10.0),
], ids=["academic-11-100Hz", "mms_sigma0-8-10Hz"])
def test_single_factor_margin(scenario, f, splu_dtypes):
    # the stabilized systems of the benchmark sit at least 10x below the
    # constant that admits a single LU
    built = scenario().build()
    A = curl_system(built, 2 * np.pi * f, "tree-cotree")[0]
    fac = Factorization(A, curl_coordinates(built, "tree-cotree"), mixed=True)
    assert fac.single and len(splu_dtypes) == 1
    assert fac.kappa1 * np.finfo(np.float32).eps <= solve.SINGLE_KAPPA1_EPS_TOL / 10


def test_residual_reported_from_scratch(rng):
    A = _random_sparse(50, rng)
    b = rng.standard_normal(50) + 0j
    rep = sparse_lu_solve(A, b)
    recomputed = np.linalg.norm(A @ rep.x - b) / np.linalg.norm(b)
    assert np.isclose(rep.rel_residual, recomputed, rtol=1e-12)


def _solve_through_perturbed_lu(A, b, rel):
    """checked_solve of A x = b through the LU of (1 + rel) A, whose first
    solution has relative residual rel / (1 + rel)."""
    fac = Factorization((1.0 + rel) * A)
    fac.A = A
    return fac.checked_solve(b)


def test_residual_guard_refines_an_inaccurate_solve(rng):
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    rep = _solve_through_perturbed_lu(A, b, 1e-7)
    # one step contracts the residual by another factor 1e-7
    assert rep.refinements == 1
    assert rep.rel_residual <= RESIDUAL_TOL
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


def test_residual_guard_raises_when_refinement_falls_short(rng):
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 0j
    with pytest.raises(InaccurateSolveError) as info:
        _solve_through_perturbed_lu(A, b, 1e-3)  # 1e-6 after one step
    assert isinstance(info.value, SingularMatrixError)


@given(st.tuples(*[st.integers(1, 5)] * 3), st.sampled_from(METHODS))
def test_nested_dissection_is_a_deterministic_permutation(subdivs, method):
    built = mms_scenario(0.0, subdivs).build()
    A = curl_system(built, 2 * np.pi * 10.0, method)[0]
    n = A.shape[0]
    xyz = curl_coordinates(built, method)
    for coords in (xyz, None):  # None: the index is the coordinate
        perm = nested_dissection(A, coords)
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert np.array_equal(perm, nested_dissection(A, coords))
        if n <= ND_LEAF:
            assert np.array_equal(perm, np.arange(n))


def test_factorization_leaves_no_reference_cycle(rng):
    # a cycle would keep each ordering's pattern matrix alive until the
    # cyclic collector runs, and a sweep's peak memory grew with them
    A = _random_sparse(200, rng)  # above ND_LEAF, so the dissection recurses
    gc.collect()
    gc.disable()
    try:
        Factorization(A).checked_solve(np.ones(200))
        assert gc.collect() == 0
    finally:
        gc.enable()


class _FactorsUnread:
    """A SuperLU whose L and U fail the test when read: scipy builds a CSC
    copy of both factors on the first read and keeps it as long as the
    factor lives, which holds every LU twice."""

    def __init__(self, lu):
        self._lu = lu

    L = U = property(lambda self: pytest.fail("SuperLU.L or .U was read"))

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_no_lu_factor_is_read_back(rng, monkeypatch):
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: _FactorsUnread(splu(*a, **k)))
    monkeypatch.setattr(solve, "DENSE_SVD_LIMIT", 100)
    b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    complex_A = _random_sparse(200, rng)
    for A in (complex_A, complex_A.real):  # a complex and a real factor
        fac = Factorization(A)
        dense = A.toarray()
        assert np.allclose(dense @ fac.solve(b), b)
        assert np.allclose(dense.conj().T @ fac.solve_adjoint(b), b)
        assert fac.checked_solve(b).rel_residual <= RESIDUAL_TOL
        for est in (condition_estimate(A, fac=fac), condition_estimate(A)):
            assert est.method == "power-iteration" and not est.singular
    built = mms_scenario(0.0, (4, 4, 4)).build()
    for method in ("tree-cotree", "lagrange"):
        sol = run_two_step(built, 10.0, method, condition=True)
        assert sol.curl_report.rel_residual <= RESIDUAL_TOL
    with pytest.raises(SingularMatrixError):
        run_two_step(built, 10.0, "original")


def _random_real(n, seed):
    r = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.05, random_state=r, format="csr")
    return (A + sp.diags(r.standard_normal(n) + 10.0)).tocsr()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_matrix_factors_in_real_arithmetic(seed, dtype, splu_dtypes):
    A = _random_real(150, seed).astype(dtype)
    r = np.random.default_rng(seed + 100)
    b = r.standard_normal(150) + 1j * r.standard_normal(150)
    fac = Factorization(A)
    assert splu_dtypes == [np.float64]
    assert fac.A.dtype == complex  # the residual is taken on complex A
    dense = A.toarray()
    for x, M in ((fac.solve(b), dense), (fac.solve_adjoint(b), dense.conj().T)):
        oracle = np.linalg.solve(M, b)
        assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_real_factor_kappa1_matches_complex_factor(splu_dtypes):
    A = _random_real(300, 3)  # above ND_LEAF, so the order is not the index
    fac = Factorization(A)
    scaled = (sp.diags(1.0 / fac.r) @ fac.A @ sp.diags(1.0 / fac.c)).tocsr()
    scaled = scaled[fac._perm][:, fac._perm].tocsc()
    lu = spla.splu(scaled, permc_spec="NATURAL",
                   diag_pivot_thresh=solve.DIAG_PIVOT_THRESH)
    assert splu_dtypes == [np.float64, np.complex128]
    inv = spla.LinearOperator(scaled.shape, matvec=lu.solve, dtype=complex,
                              rmatvec=lambda b: lu.solve(b, trans="H"))
    kappa1 = spla.norm(scaled, 1) * spla.onenormest(inv, t=1)
    assert fac.kappa1 == pytest.approx(kappa1, rel=1e-12)


def test_one_imaginary_entry_takes_the_complex_path(rng, splu_dtypes):
    A = _random_real(150, 4).astype(complex).tolil()
    A[7, 7] += 1e-3j
    A = A.tocsr()
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    x = Factorization(A).solve(b)
    assert splu_dtypes == [np.complex128]
    oracle = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entry_rejected(bad, splu_dtypes):
    A = sp.eye(5, format="lil", dtype=complex)
    A[2, 3] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        Factorization(A.tocsr())
    assert splu_dtypes == []  # refused before equilibration and SuperLU


@pytest.mark.parametrize("scenario, f, singular", [
    (lambda: academic_scenario((11, 11, 11)), 1e3, False),
    (lambda: mms_scenario(0.0, (8, 8, 8)), 10.0, True),
], ids=["academic-11-1e3Hz", "mms_sigma0-8-10Hz"])
def test_kappa1_classification_margin(scenario, f, singular, monkeypatch):
    # the unstabilized systems nearest the constant on either side of it,
    # of every benchmark cell, sit at least 4x away from it
    built = scenario().build()
    A = curl_system(built, 2 * np.pi * f, "original")[0]
    coords = curl_coordinates(built, "original")
    if singular:
        with pytest.raises(SingularMatrixError, match="kappa_1 \\* eps"):
            Factorization(A, coords)
        monkeypatch.setattr(solve, "KAPPA1_EPS_TOL", np.inf)
    eps_kappa = Factorization(A, coords).kappa1 * np.finfo(float).eps
    if singular:
        assert eps_kappa >= 4 * KAPPA1_EPS_TOL
    else:
        assert eps_kappa <= KAPPA1_EPS_TOL / 4


def test_nested_dissection_fill_below_default_ordering():
    built = mms_scenario(0.0, (12, 12, 12)).build()
    A = curl_system(built, 2 * np.pi * 10.0, "tree-cotree")[0]
    fac = Factorization(A, curl_coordinates(built, "tree-cotree"))
    nd_fill = fac._lu.L.nnz + fac._lu.U.nnz
    scaled = (sp.diags(1.0 / fac.r) @ fac.A @ sp.diags(1.0 / fac.c)).tocsc()
    lu = spla.splu(scaled)  # SuperLU's default: COLAMD, partial pivoting
    assert nd_fill <= 0.85 * (lu.L.nnz + lu.U.nnz)


def test_singular_curl_matrix_detected():
    # the static curl system on the all-constrained cube is rank-deficient
    mesh = build_box_mesh(((0, 1),) * 3, (2, 2, 2))
    bt = boundary_entities(mesh)
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=FACE_LABELS))
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    mat = MaterialField.uniform(mesh, tag_regions(mesh, [(whole, AIR)]),
                                sigma=0.0, eps=1.0, nu=1.0)
    C = assemble_curl_curl(edge, mat)[edge.free][:, edge.free]
    rng = np.random.default_rng(3)
    with pytest.raises(SingularMatrixError):
        sparse_lu_solve(C.astype(complex), rng.standard_normal(edge.n_free))


def test_structurally_singular_detected():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        sparse_lu_solve(A, np.ones(2))


def test_badly_row_scaled_system_still_solves():
    # conductor-vs-air style row imbalance (1e17) must not trip the
    # singularity detection after equilibration
    n = 40
    rng = np.random.default_rng(0)
    base = sp.diags(2.0 + rng.random(n)) + 0.5 * sp.eye(n, k=1) + 0.5 * sp.eye(n, k=-1)
    scale = np.ones(n)
    scale[n // 2:] = 1e-17
    A = (sp.diags(scale) @ base).tocsr().astype(complex)
    b = sp.diags(scale) @ np.ones(n)
    rep = sparse_lu_solve(A, b)
    assert rep.rel_residual < 1e-10


def test_non_square_rejected():
    with pytest.raises(ValueError):
        sparse_lu_solve(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


def test_condition_identity_and_diagonal():
    assert condition_estimate(sp.eye(4, format="csr")).value == pytest.approx(1.0)
    est = condition_estimate(sp.diags([1.0, 10.0]).tocsr())
    assert est.value == pytest.approx(10.0)
    assert est.method == "dense-svd"


def test_condition_power_iteration_matches_dense(rng, monkeypatch):
    monkeypatch.setattr("aphi.solve.DENSE_SVD_LIMIT", 100)
    A = _random_sparse(500, rng)
    dense = dense_condition(A)
    est = condition_estimate(A)
    assert est.method == "power-iteration"
    assert abs(est.value - dense) / dense < 0.05


def test_condition_singular_flagged():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    est = condition_estimate(A)
    assert est.singular and np.isinf(est.value)


def test_condition_singular_above_dense_limit_costs_no_iterations(rng, monkeypatch):
    # factoring comes first, so a singular matrix runs no power iteration
    monkeypatch.setattr("aphi.solve.DENSE_SVD_LIMIT", 100)
    A = _random_sparse(200, rng).tolil()
    A[5, :] = 0.0
    est = condition_estimate(A.tocsr())
    assert est.singular and np.isinf(est.value)
    assert est.method == "power-iteration" and est.iterations == 0


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_condition_scale_invariant(alpha):
    A = sp.csr_matrix(np.array([[3.0, 1.0], [0.0, 2.0]], dtype=complex))
    k1 = condition_estimate(A).value
    k2 = condition_estimate((alpha * A).tocsr()).value
    assert abs(k1 - k2) <= 1e-12 * k1
