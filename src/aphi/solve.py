"""Direct sparse solves and 2-norm condition estimates.

Systems here mix row scales over many orders of magnitude (curl rows vs.
divergence rows, conductor vs. air), so the factorization works on a
two-sided max-equilibrated copy; residuals are always recomputed from the
original operator.  Singularity is judged by the pivot ratio of the
equilibrated factors.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PIVOT_RATIO_TOL = 1e-14  # min |U_ii| <= tol * max-entry of the factored matrix
DENSE_SVD_LIMIT = 2000
_POWER_MAX_ITERS = 200
_POWER_RTOL = 1e-6


class SingularMatrixError(RuntimeError):
    """Factorization detected a (numerically) singular matrix."""


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    rel_residual: float
    min_pivot: float
    max_pivot: float
    wall_s: float


def _equilibrate(A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row then column max-scaling factors (>= tiny, never zero)."""
    absA = abs(A)
    r = np.asarray(absA.max(axis=1).todense()).ravel()
    r[r == 0] = 1.0
    scaled = sp.diags(1.0 / r) @ absA
    c = np.asarray(scaled.max(axis=0).todense()).ravel()
    c[c == 0] = 1.0
    return r, c


class Factorization:
    """Equilibrated sparse LU, reusable for repeated right-hand sides."""

    def __init__(self, A: sp.spmatrix):
        t0 = time.perf_counter()
        A = sp.csr_matrix(A, dtype=complex)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        self.A = A
        self.r, self.c = _equilibrate(A)
        scaled = (sp.diags(1.0 / self.r) @ A @ sp.diags(1.0 / self.c)).tocsc()
        try:
            self._lu = spla.splu(scaled)
        except RuntimeError as exc:  # exactly singular inside SuperLU
            raise SingularMatrixError(str(exc)) from exc
        pivots = np.abs(self._lu.U.diagonal())
        self.min_pivot = float(pivots.min()) if pivots.size else 0.0
        self.max_pivot = float(pivots.max()) if pivots.size else 0.0
        scale = max(float(abs(scaled).max()) if scaled.nnz else 0.0, self.max_pivot)
        if self.min_pivot <= PIVOT_RATIO_TOL * scale:
            raise SingularMatrixError(
                f"numerically singular: pivot ratio {self.min_pivot:.3e} / {scale:.3e}")
        self.factor_s = time.perf_counter() - t0

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(b, dtype=complex) / self.r)
        return y / self.c

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        y = self._lu.solve(np.asarray(b, dtype=complex) / self.c, trans="H")
        return y / self.r

    def checked_solve(self, b: np.ndarray) -> SolveReport:
        """Solve A x = b with the residual recomputed from the original A;
        wall_s counts the factorization and this solve."""
        t0 = time.perf_counter()
        x = self.solve(b)
        b = np.asarray(b, dtype=complex)
        denom = np.linalg.norm(b)
        resid = np.linalg.norm(self.A @ x - b) / max(denom, np.finfo(float).tiny)
        return SolveReport(x=x, rel_residual=float(resid),
                           min_pivot=self.min_pivot, max_pivot=self.max_pivot,
                           wall_s=self.factor_s + time.perf_counter() - t0)


def sparse_lu_solve(A: sp.spmatrix, b: np.ndarray) -> SolveReport:
    """Solve A x = b by equilibrated sparse LU; residual checked from scratch."""
    return Factorization(A).checked_solve(b)


@dataclass(frozen=True)
class ConditionEstimate:
    value: float
    method: str            # "dense-svd" or "power-iteration"
    iterations: int
    singular: bool

    def __post_init__(self):
        if not self.singular and self.value < 1.0 - 1e-9:
            raise AssertionError("condition estimate below 1")  # pragma: no cover


def condition_estimate(A: sp.spmatrix,
                       fac: Factorization | None = None) -> ConditionEstimate:
    """2-norm condition number: dense SVD up to DENSE_SVD_LIMIT, else power
    iteration for sigma_max and inverse iteration through an LU for sigma_min.

    fac, a Factorization of this same A, is reused for the inverse
    iteration instead of factoring A again.  Without one, A is factored
    first, so a singular A costs no iterations."""
    A = sp.csr_matrix(A, dtype=complex)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("condition estimate needs a square matrix")
    if n <= DENSE_SVD_LIMIT:
        s = np.linalg.svd(A.toarray(), compute_uv=False)
        if s[-1] == 0.0:
            return ConditionEstimate(value=np.inf, method="dense-svd",
                                     iterations=0, singular=True)
        return ConditionEstimate(value=float(s[0] / s[-1]), method="dense-svd",
                                 iterations=0, singular=False)

    if fac is None:
        try:
            fac = Factorization(A)
        except SingularMatrixError:
            return ConditionEstimate(value=np.inf, method="power-iteration",
                                     iterations=0, singular=True)
    rng = np.random.default_rng(0)
    smax, iters = _power_norm(lambda v: A.conj().T @ (A @ v), rng, n)
    inv_norm, inv_iters = _power_norm(lambda v: fac.solve_adjoint(fac.solve(v)), rng, n)
    smin = 1.0 / inv_norm
    return ConditionEstimate(value=float(smax / smin), method="power-iteration",
                             iterations=iters + inv_iters, singular=False)


def _power_norm(apply, rng: np.random.Generator, n: int) -> tuple[float, int]:
    """2-norm of the operator B from power iteration on apply = B^H B,
    started from a random complex vector; returns (norm, iterations)."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for it in range(1, _POWER_MAX_ITERS + 1):
        w = apply(v)
        nw = np.linalg.norm(w)
        new = np.sqrt(nw)
        v = w / nw
        if abs(new - est) <= _POWER_RTOL * max(new, 1e-300):
            return new, it
        est = new
    return est, _POWER_MAX_ITERS
