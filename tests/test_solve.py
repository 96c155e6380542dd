import gc
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from aphi import solve
from aphi.assembly import MaterialField, assemble_bundle
from aphi.mesh import (AIR, FACE_LABELS, Box, boundary_entities,
                       build_box_mesh, tag_regions)
from aphi.physics import (METHODS, curl_coordinates, curl_system, excitation,
                          run_two_step)
from aphi.scenario import academic_scenario, mms_scenario
from aphi.solve import (KAPPA1_EPS_TOL, ND_LEAF, RESIDUAL_TOL, Factorization,
                        InaccurateSolveError, SingularMatrixError,
                        condition_estimate, nested_dissection,
                        sparse_lu_solve)
from aphi.spaces import DirichletSpec, build_edge_space, build_scalar_space
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
        # the double LU at the static threshold is refused and the one at
        # the safe threshold gives the verdict
        assert splu_dtypes == [np.float32, np.float64, np.float64]
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


def _perturbed_factorization(A, rel, monkeypatch):
    """Factorization of A whose every LU, at either pivot threshold, is of
    (1 + rel) times SuperLU's input, so that a first solution has relative
    residual rel / (1 + rel)."""
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, *a, **k: splu((1.0 + rel) * M, *a, **k))
    return Factorization(A)


def test_residual_guard_refines_an_inaccurate_solve(rng, monkeypatch):
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    fac = _perturbed_factorization(A, 1e-7, monkeypatch)
    rep = fac.checked_solve(b)
    # one step contracts the residual by another factor 1e-7
    assert rep.refinements == 1 and fac.pivot_thresh == solve.DIAG_PIVOT_THRESH
    assert rep.rel_residual <= RESIDUAL_TOL
    x_dense = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(rep.x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


def test_residual_guard_raises_when_refinement_falls_short(rng, monkeypatch):
    A = _random_sparse(100, rng)
    b = rng.standard_normal(100) + 0j
    fac = _perturbed_factorization(A, 1e-3, monkeypatch)
    with pytest.raises(InaccurateSolveError) as info:
        fac.checked_solve(b)  # 1e-6 after one step, at either threshold
    assert isinstance(info.value, SingularMatrixError)
    assert fac.pivot_thresh == solve.SAFE_PIVOT_THRESH  # raised by the second LU


def _chained_growth(n, diag):
    """diag on the diagonal (1 in the last entry), ones on the subdiagonal
    and in the last column: a diagonal pivot at threshold 1e-3 divides by
    diag in every column, and the last column grows as diag^-k, while
    partial pivoting takes the subdiagonal ones and keeps it bounded."""
    d = np.full(n, diag)
    d[-1] = 1.0
    A = sp.diags([d, np.ones(n - 1)], [0, -1], format="lil")
    A[:, n - 1] = 1.0
    return A.tocsr()


@pytest.fixture
def splu_thresholds(monkeypatch):
    """The diagonal pivot threshold of every SuperLU call, in call order."""
    splu = spla.splu
    thresholds = []

    def spy(A, *args, **kwargs):
        thresholds.append(kwargs["diag_pivot_thresh"])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return thresholds


def test_pivot_growth_is_refactored_at_the_safe_threshold(splu_thresholds):
    # the LU at 1e-3 reads kappa_1 * eps 5.6e4 and would call this matrix
    # singular; dense kappa_1 * eps is 4.4e-14, and so is the LU at 0.1
    A = _chained_growth(14, 2e-3)
    fac = Factorization(A)
    assert splu_thresholds == [solve.DIAG_PIVOT_THRESH, solve.SAFE_PIVOT_THRESH]
    assert fac.pivot_thresh == solve.SAFE_PIVOT_THRESH
    eps = np.finfo(float).eps
    assert fac.kappa1 * eps < 1e-12
    assert fac.kappa1 * eps == pytest.approx(np.linalg.cond(A.toarray(), 1) * eps,
                                             rel=0.1)
    b = np.arange(1.0, 15.0) + 0j
    rep = fac.checked_solve(b)
    assert rep.rel_residual <= RESIDUAL_TOL and rep.kappa1_eps < 1e-12
    assert np.allclose(rep.x, np.linalg.solve(A.toarray(), b), rtol=1e-12)


def test_residual_refusal_is_refactored_at_the_safe_threshold(splu_thresholds):
    # the LU at 1e-3 passes the kappa_1 * eps test (3.3e-4) but its
    # solve stays at 2e-8 after the refinement step
    A = _chained_growth(11, 2e-3)
    b = np.random.default_rng(1).standard_normal(11) + 0j
    fac = Factorization(A)
    assert fac.pivot_thresh == solve.DIAG_PIVOT_THRESH
    assert fac.kappa1 * np.finfo(float).eps < 1e-3
    rep = fac.checked_solve(b)
    assert splu_thresholds == [solve.DIAG_PIVOT_THRESH, solve.SAFE_PIVOT_THRESH]
    assert fac.pivot_thresh == solve.SAFE_PIVOT_THRESH
    assert rep.rel_residual <= 1e-14 and rep.kappa1_eps < 1e-12
    assert np.allclose(rep.x, np.linalg.solve(A.toarray(), b), rtol=1e-12)


@pytest.mark.parametrize("rel", [0.0, 1e-3], ids=["served", "refused"])
def test_condition_estimate_reads_the_lu_that_ends_the_solve(rel, monkeypatch):
    # the 11x11 chained-growth LU at 1e-3 fails the residual check, so the
    # inverse iteration runs through the LU at 0.1 that replaced it: the one
    # that serves, or, with every LU perturbed by 1 + rel, the one whose
    # residual refuses the solve (run_two_step puts that estimate on the
    # InaccurateSolveError)
    monkeypatch.setattr(solve, "DENSE_SVD_LIMIT", 4)
    A = _chained_growth(11, 2e-3)
    b = np.random.default_rng(1).standard_normal(11) + 0j
    fac = _perturbed_factorization(A, rel, monkeypatch)
    assert fac.pivot_thresh == solve.DIAG_PIVOT_THRESH
    held = []

    def spy(M, fac=None, coords=None):
        held.append(fac.pivot_thresh)
        return condition_estimate(M, fac=fac, coords=coords)

    if rel:
        with pytest.raises(InaccurateSolveError):
            fac.checked_solve(b)
    else:
        fac.checked_solve(b)
    est = spy(A, fac=fac)
    assert held == [solve.SAFE_PIVOT_THRESH]
    assert est.method == "power-iteration"
    assert est.value == pytest.approx(np.linalg.cond(A.toarray()), rel=10 * rel + 1e-6)


@pytest.mark.parametrize("A, message", [
    (_bidiagonal(200, -1.5), "kappa_1 \\* eps"),
    (sp.csr_matrix(np.ones((3, 3))), "exactly singular"),  # SuperLU refuses it
], ids=["numerically", "exactly"])
def test_singular_matrix_raises_after_both_thresholds(A, message, splu_thresholds):
    with pytest.raises(SingularMatrixError, match=message):
        Factorization(A)
    assert splu_thresholds == [solve.DIAG_PIVOT_THRESH, solve.SAFE_PIVOT_THRESH]


# (float bits, diagonal pivot threshold) of each rung, bottom to top
_RUNGS = [(32, solve.DIAG_PIVOT_THRESH), (64, solve.DIAG_PIVOT_THRESH),
          (64, solve.SAFE_PIVOT_THRESH)]


@pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "double"])
@pytest.mark.parametrize("matrix, rel", [
    (lambda: _random_sparse(100, np.random.default_rng(0)), 0.0),
    (lambda: _random_sparse(100, np.random.default_rng(0)), 1e-7),
    (lambda: _random_sparse(100, np.random.default_rng(0)), 1e-3),
    (lambda: _random_sparse(100, np.random.default_rng(0)), 1e-2),
    (lambda: _chained_growth(14, 2e-3), 0.0),
    (lambda: _chained_growth(11, 2e-3), 0.0),
    (lambda: _bidiagonal(200, -1.05), 0.0),
    (lambda: _bidiagonal(200, -1.5), 0.0),
    (lambda: sp.csr_matrix(np.ones((3, 3))), 0.0),
], ids=["random", "random-perturbed-1e-7", "random-perturbed-1e-3",
        "random-perturbed-1e-2", "growth-14", "growth-11", "bidiagonal-1.05",
        "bidiagonal-1.5", "ones"])
def test_every_lu_climbs_the_ladder_one_rung_at_a_time(matrix, rel, mixed,
                                                       monkeypatch):
    # every LU, whether refused by SuperLU, by kappa_1 * eps or by the
    # residual, is followed by the next rung's; only the last one raises.
    # With rel, every LU is of (1 + rel) times SuperLU's input, as in
    # _perturbed_factorization.
    assert [(np.finfo(p).bits, t) for p, t, *_ in solve._LADDER] == _RUNGS
    splu, calls = spla.splu, []

    def spy(M, *args, **kwargs):
        calls.append((np.finfo(M.dtype).bits, kwargs["diag_pivot_thresh"]))
        return splu((1.0 + rel) * M, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    A = matrix()
    b = np.random.default_rng(1).standard_normal(A.shape[0]) + 0j
    fac, raised = None, False
    try:
        fac = Factorization(A, mixed=mixed)
        fac.checked_solve(b)
    except SingularMatrixError:  # InaccurateSolveError among them
        raised = True
    start = 0 if mixed else 1
    assert calls == _RUNGS[start:start + len(calls)] and calls
    assert not raised or calls[-1] == _RUNGS[-1]
    if fac is not None:
        assert (32 if fac.single else 64, fac.pivot_thresh) == calls[-1]


def test_lagrange_fill_at_1e9_hz():
    # SuperLU's storage count of the indefinite Lagrange system, read
    # without building the L and U copies: 2 844 111 at threshold 0.1
    built = academic_scenario((11, 11, 11)).build()
    A = curl_system(built, 2 * np.pi * 1e9, "lagrange")[0]
    fac = Factorization(A, curl_coordinates(built, "lagrange"))
    assert fac.pivot_thresh == solve.DIAG_PIVOT_THRESH
    assert fac._lu.nnz < 2_000_000


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


def test_free_heap_released_before_every_lu(rng, monkeypatch):
    # glibc keeps the heap that large frees leave; each LU is built only
    # after the scaled copies are freed and that heap is given back
    events, built = [], []
    factor, splu = Factorization._factor, spla.splu

    def counted(self, precision, pivot_thresh):
        events.append("factor")
        return factor(self, precision, pivot_thresh)

    def release():
        caller = sys._getframe(1).f_locals
        assert "lu_input" in caller and not {"scaled", "data"} & caller.keys()
        events.append("release")

    def spy(A, *args, **kwargs):
        events.append("splu")
        built.append((A.dtype, kwargs["diag_pivot_thresh"]))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(Factorization, "_factor", counted)
    monkeypatch.setattr(solve, "_release_free_heap", release)
    monkeypatch.setattr(spla, "splu", spy)
    A = _random_sparse(200, rng)
    for matrix, mixed in ((A, True), (A.real, True), (A, False),
                          (_chained_growth(14, 2e-3), False)):
        Factorization(matrix, mixed=mixed)
    assert events == ["factor", "release", "splu"] * len(built)
    assert {dtype for dtype, _ in built} == {np.dtype(t) for t in (
        np.float32, np.complex64, np.float64, np.complex128)}
    assert {thresh for _, thresh in built} == {solve.DIAG_PIVOT_THRESH,
                                               solve.SAFE_PIVOT_THRESH}


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
            assert est.method == "power-iteration" and est.value != np.inf
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
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=FACE_LABELS))
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    mat = MaterialField.uniform(mesh, tag_regions(mesh, [(whole, AIR)]),
                                sigma=0.0, eps=1.0, nu=1.0)
    C = assemble_bundle(scal, edge, mat).C_nu[edge.free][:, edge.free]
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


def test_empty_system_rejected_by_solve_and_condition_estimate():
    empty = sp.csr_matrix((0, 0))
    for call in (lambda: Factorization(empty), lambda: condition_estimate(empty)):
        with pytest.raises(ValueError, match=r"no free unknowns \(0 x 0 matrix\)"):
            call()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_condition_estimate_refuses_non_finite_entries(bad):
    # the dense branch would return nan for inf, and numpy would fail its
    # SVD on nan
    A = sp.csr_matrix(np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite entries"):
        condition_estimate(A)


def test_condition_estimate_refuses_non_square_as_factorization_does():
    A = sp.csr_matrix(np.ones((2, 3)))
    for call in (lambda: Factorization(A), lambda: condition_estimate(A)):
        with pytest.raises(ValueError, match=r"matrix must be square, got \(2, 3\)"):
            call()


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


def test_condition_power_iteration_reports_the_cap(monkeypatch):
    # the 1D Laplacian's largest singular values crowd together, so its
    # sigma_max estimate still moves by more than 1e-6 per step at the cap
    monkeypatch.setattr("aphi.solve.DENSE_SVD_LIMIT", 10)
    n = 50
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    capped = condition_estimate(A)
    assert capped.method == "power-iteration" and not capped.converged
    assert capped.iterations > solve._POWER_MAX_ITERS
    dense = dense_condition(A)
    assert abs(capped.value - dense) < 1e-3 * dense  # the last iterate's value
    # well separated singular values: both runs meet the test
    d = np.full(n, 0.5)
    d[0] = 1.0
    fast = condition_estimate(sp.diags(d).tocsr())
    assert fast.converged and fast.iterations < solve._POWER_MAX_ITERS
    assert fast.value == pytest.approx(2.0, rel=1e-6)


def test_condition_singular_flagged():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    est = condition_estimate(A)
    assert est.value == np.inf


def test_condition_singular_above_dense_limit_costs_no_iterations(rng, monkeypatch):
    # factoring comes first, so a singular matrix runs no power iteration
    monkeypatch.setattr("aphi.solve.DENSE_SVD_LIMIT", 100)
    A = _random_sparse(200, rng).tolil()
    A[5, :] = 0.0
    est = condition_estimate(A.tocsr())
    assert est.value == np.inf
    assert est.method == "power-iteration" and est.iterations == 0


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_condition_scale_invariant(alpha):
    A = sp.csr_matrix(np.array([[3.0, 1.0], [0.0, 2.0]], dtype=complex))
    k1 = condition_estimate(A).value
    k2 = condition_estimate((alpha * A).tocsr()).value
    assert abs(k1 - k2) <= 1e-12 * k1


# The incomplete-LU rung, on small systems with ILU_MIN_UNKNOWNS lowered to
# their size: the conducting MMS case at 4^3 and academic 5^3, the
# smallest academic mesh with conductor cells.
_SERVED = [(lambda: mms_scenario(6e7, (4, 4, 4)), 10.0, "tree-cotree"),
           (lambda: mms_scenario(6e7, (4, 4, 4)), 10.0, "original"),
           (lambda: mms_scenario(6e7, (4, 4, 4)), 10.0, "lagrange"),
           (lambda: academic_scenario((5, 5, 5)), 1e3, "tree-cotree"),
           (lambda: academic_scenario((5, 5, 5)), 1e9, "lagrange")]
_SERVED_IDS = ["mms_sigma6e7-4-tree-cotree", "mms_sigma6e7-4-original",
               "mms_sigma6e7-4-lagrange", "academic-5-1e3Hz-tree-cotree",
               "academic-5-1e9Hz-lagrange"]


@pytest.fixture
def lu_calls(monkeypatch):
    """("spilu" or "splu", dtype, size) of every SuperLU factor, in call order."""
    calls = []
    for name in ("spilu", "splu"):
        def spy(A, *args, _name=name, _real=getattr(spla, name), **kwargs):
            calls.append((_name, A.dtype, A.shape[0]))
            return _real(A, *args, **kwargs)
        monkeypatch.setattr(spla, name, spy)
    return calls


def _curl(make, f, method):
    built = make().build()
    A, b = curl_system(built, 2 * np.pi * f, method, excitation(built, f).j_free)
    return built, A, b, curl_coordinates(built, method)


@pytest.mark.parametrize("make, f, method", _SERVED, ids=_SERVED_IDS)
def test_incomplete_lu_rung_matches_the_lu(make, f, method, lu_calls, monkeypatch):
    _, A, b, coords = _curl(make, f, method)
    lu = Factorization(A, coords, mixed=True).checked_solve(b)
    monkeypatch.setattr(solve, "ILU_MIN_UNKNOWNS", A.shape[0])
    lu_calls.clear()
    fac = Factorization(A, coords, mixed=True)
    assert fac.incomplete and not fac.single
    rep = fac.checked_solve(b)
    assert lu_calls == [("spilu", np.complex128, A.shape[0])]  # no LU at all
    assert 1 <= rep.gmres_iterations <= solve.GMRES_BUDGET and rep.refinements == 0
    assert rep.rel_residual <= RESIDUAL_TOL and np.isnan(rep.kappa1_eps)
    assert np.linalg.norm(rep.x - lu.x) <= 1e-10 * np.linalg.norm(lu.x)
    assert np.linalg.norm(A @ rep.x - b) == pytest.approx(
        rep.rel_residual * np.linalg.norm(b), rel=1e-6)


def _refused_spilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("miss", ["spilu-refused", "budget-1"])
@pytest.mark.parametrize("make, f, method", _SERVED[:2] + _SERVED[3:4],
                         ids=_SERVED_IDS[:2] + _SERVED_IDS[3:4])
def test_incomplete_lu_miss_climbs_to_the_lu_ladder(make, f, method, miss,
                                                   lu_calls, monkeypatch):
    # a refused ILU, or a budget that GMRES exhausts, hands the system to
    # the ladder's first rung, whose answer is the one without the rung
    _, A, b, coords = _curl(make, f, method)
    lu_calls.clear()
    lu = Factorization(A, coords, mixed=True).checked_solve(b)
    ladder = list(lu_calls)
    monkeypatch.setattr(solve, "ILU_MIN_UNKNOWNS", A.shape[0])
    if miss == "spilu-refused":
        monkeypatch.setattr(spla, "spilu", _refused_spilu)
    else:
        monkeypatch.setattr(solve, "GMRES_BUDGET", 1)
    lu_calls.clear()
    fac = Factorization(A, coords, mixed=True)
    assert fac.incomplete == (miss == "budget-1")
    rep = fac.checked_solve(b)
    assert not fac.incomplete and fac._lu is not None
    assert lu_calls == ([] if miss == "spilu-refused" else
                        [("spilu", np.complex128, A.shape[0])]) + ladder
    assert np.array_equal(rep.x, lu.x) and rep.gmres_iterations == 0
    assert rep.rel_residual == lu.rel_residual and rep.kappa1_eps == lu.kappa1_eps


@pytest.mark.parametrize("miss", ["spilu-refused", "budget-1", "budget"])
def test_incomplete_lu_never_decides_a_singular_verdict(miss, lu_calls, monkeypatch):
    # the static curl matrix of the all-constrained cube, made complex: the
    # ILU's GMRES cannot reach a right-hand side outside its range, and the
    # ladder's LUs give the verdict they give without the rung
    mesh = build_box_mesh(((0, 1),) * 3, (3, 3, 3))
    bt = boundary_entities(mesh)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=FACE_LABELS))
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    mat = MaterialField.uniform(mesh, tag_regions(mesh, [(whole, AIR)]),
                                sigma=0.0, eps=1.0, nu=1.0)
    C = (1 + 1j) * assemble_bundle(scal, edge, mat).C_nu[edge.free][:, edge.free]
    b = np.random.default_rng(3).standard_normal(edge.n_free) + 0j
    with pytest.raises(SingularMatrixError) as without:
        sparse_lu_solve(C, b)
    ladder = list(lu_calls)
    assert [name for name, *_ in ladder] == ["splu"] * 3
    monkeypatch.setattr(solve, "ILU_MIN_UNKNOWNS", edge.n_free)
    if miss == "spilu-refused":
        monkeypatch.setattr(spla, "spilu", _refused_spilu)
    elif miss == "budget-1":
        monkeypatch.setattr(solve, "GMRES_BUDGET", 1)
    lu_calls.clear()
    with pytest.raises(SingularMatrixError) as raised:
        sparse_lu_solve(C, b)
    assert lu_calls == ([] if miss == "spilu-refused" else
                        [("spilu", np.complex128, edge.n_free)]) + ladder
    assert str(raised.value) == str(without.value)


@pytest.mark.parametrize("case", ["real", "probed", "condition"])
def test_incomplete_lu_gates(case, lu_calls, monkeypatch):
    # a real system, a probed original one and one with a condition
    # estimate never reach the rung, whatever their size
    make, f, method, condition = {
        "real": (lambda: mms_scenario(0.0, (4, 4, 4)), 10.0, "tree-cotree", False),
        "probed": (lambda: academic_scenario((5, 5, 5)), 1e9, "original", False),
        "condition": (lambda: mms_scenario(6e7, (4, 4, 4)), 10.0, "tree-cotree", True),
    }[case]
    built, A, _, _ = _curl(make, f, method)
    monkeypatch.setattr(solve, "ILU_MIN_UNKNOWNS", A.shape[0])
    sol = run_two_step(built, f, method, condition=condition)
    assert sol.curl_report.rel_residual <= RESIDUAL_TOL
    assert np.isfinite(sol.curl_report.kappa1_eps)
    assert ("spilu" in [name for name, *_ in lu_calls]) is False
    assert ("splu", np.complex128 if case == "condition" else
            np.float32 if case == "real" else np.complex64, A.shape[0]) in lu_calls


def test_incomplete_lu_has_no_solve_and_no_condition_estimate(monkeypatch):
    _, A, b, coords = _curl(*_SERVED[0])
    monkeypatch.setattr(solve, "ILU_MIN_UNKNOWNS", A.shape[0])
    fac = Factorization(A, coords, mixed=True)
    assert fac.incomplete
    for call in (lambda: fac.solve(b), lambda: fac.solve_adjoint(b)):
        with pytest.raises(ValueError, match="incomplete LU"):
            call()
    monkeypatch.setattr(solve, "DENSE_SVD_LIMIT", 10)  # past the dense branch
    with pytest.raises(ValueError, match="complete one"):
        condition_estimate(A, fac=fac)
    assert fac.checked_solve(b).rel_residual <= RESIDUAL_TOL  # still served


@pytest.mark.parametrize("precondition, iterations", [
    ("identity", None), ("jacobi", None), ("exact", 1)])
def test_gmres_takes_any_preconditioner(precondition, iterations, rng):
    A = _random_sparse(150, rng)
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    apply = {"identity": lambda v: v,
             "jacobi": lambda v: v / A.diagonal(),
             "exact": spla.splu(A.tocsc()).solve}[precondition]
    x, its = solve.gmres(lambda v: A @ v, b, apply, 60, 1e-13)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert its == iterations if iterations else 1 < its <= 60
    assert solve.gmres(lambda v: A @ v, b, lambda v: v, 2, 1e-13) == (None, 2)
    x, its = solve.gmres(lambda v: A @ v, 0 * b, apply, 60, 1e-13)
    assert its == 0 and not x.any()
