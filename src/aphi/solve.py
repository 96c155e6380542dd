"""Direct sparse solves and 2-norm condition estimates.

Systems here mix row scales over many orders of magnitude (curl rows vs.
divergence rows, conductor vs. air), so the factorization works on a
two-sided max-equilibrated copy; residuals are always recomputed from the
original operator.  Singularity is judged by kappa_1 * eps of the
equilibrated matrix, ||A^-1||_1 estimated through the LU's own solves
(Higham & Tisseur 2000).  Each LU is held once: SuperLU.L and .U, which
scipy builds as copies cached on the factor, are never read.

A matrix whose stored entries have no imaginary part is factored in real
arithmetic, at half the memory traffic of the complex LU: every system at
omega = 0 (among them `solver check`'s static blocks) and, at any
frequency, the EQS and curl systems of a case with no conductor, where no
i*omega*sigma term enters.  A complex right-hand side then goes through
one real solve with its real and imaginary parts as two columns.  The
residual is still computed from the caller's matrix, held complex, so a
real factor is checked exactly as a complex one.

Every LU is ordered by geometric nested dissection of its unknowns'
coordinates (edge midpoints, node positions; the index where a matrix has
no geometry) and factored in that order with SuperLU at a diagonal pivot
threshold of 0.1, which keeps the fill of the dissection order.  The low
threshold is guarded by the residual: a solve whose relative residual
exceeds RESIDUAL_TOL takes one step of iterative refinement and raises
InaccurateSolveError, a SingularMatrixError, if it is still above it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

KAPPA1_EPS_TOL = 0.2     # kappa_1 * eps at or above this is singular
DIAG_PIVOT_THRESH = 0.1  # SuperLU keeps the diagonal pivot down to this ratio
RESIDUAL_TOL = 1e-10     # relative residual a returned solution must meet
ND_LEAF = 64             # nested dissection stops at sets this small
DENSE_SVD_LIMIT = 2000
_POWER_MAX_ITERS = 200
_POWER_RTOL = 1e-6


class SingularMatrixError(RuntimeError):
    """Factorization detected a (numerically) singular matrix."""


class InaccurateSolveError(SingularMatrixError):
    """A solve whose relative residual stays above RESIDUAL_TOL after one
    step of iterative refinement."""


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    rel_residual: float
    refinements: int = 0   # iterative-refinement steps taken (0 or 1)


def _equilibrate(A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row then column max-scaling factors (>= tiny, never zero)."""
    absA = abs(A)
    r = np.asarray(absA.max(axis=1).todense()).ravel()
    r[r == 0] = 1.0
    scaled = sp.diags(1.0 / r) @ absA
    c = np.asarray(scaled.max(axis=0).todense()).ravel()
    c[c == 0] = 1.0
    return r, c


def nested_dissection(A: sp.spmatrix, coords: np.ndarray | None = None) -> np.ndarray:
    """Geometric nested-dissection order of the unknowns of square A.

    The unknowns are split at the median coordinate along the longest axis
    of their bounding box.  The unknowns of one side that are adjacent to
    the other side, in the symmetrized stored pattern of A, form the
    separator; of the two sides, the one giving the smaller separator is
    taken (on an edge grid one side's can be one layer of edges and the
    other's two).  Both sides are ordered recursively and the separator
    last; sets of ND_LEAF or fewer unknowns keep their index order.  coords
    has one row per unknown (shape (n, d)); without it the index is the
    coordinate.
    """
    A = sp.csr_matrix(A)
    n = A.shape[0]
    xyz = (np.arange(n, dtype=float)[:, None] if coords is None
           else np.asarray(coords, dtype=float))
    if xyz.ndim != 2 or xyz.shape[0] != n:
        raise ValueError(f"need one coordinate row per unknown ({n}), got {xyz.shape}")
    pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    order: list[np.ndarray] = []
    _dissect(np.arange(n), xyz, (pattern + pattern.T).tocsr(), np.zeros(n), order)
    return np.concatenate(order)


def _dissect(idx: np.ndarray, xyz: np.ndarray, G: sp.csr_matrix,
             marked: np.ndarray, order: list[np.ndarray]) -> None:
    """Append the nested-dissection order of the unknowns idx to order.

    A module-level function rather than a closure: a recursive closure is
    a reference cycle, which would keep G alive until the cyclic garbage
    collector runs."""
    extent = np.ptp(xyz[idx], axis=0) if idx.size > ND_LEAF else 0.0
    if not np.any(extent):  # a leaf, or unknowns that share one point
        order.append(idx)
        return
    key = xyz[idx, np.argmax(extent)]
    med = np.median(key)
    right = key > med if key.max() > med else key >= med
    side, other = idx[~right], idx[right]
    sep = _touching(side, other, G, marked)
    other_sep = _touching(other, side, G, marked)
    if other_sep.sum() < sep.sum():
        side, other, sep = other, side, other_sep
    _dissect(side[~sep], xyz, G, marked, order)
    _dissect(other, xyz, G, marked, order)
    order.append(side[sep])


def _touching(rows: np.ndarray, other: np.ndarray, G: sp.csr_matrix,
              marked: np.ndarray) -> np.ndarray:
    """Mask of the unknowns rows with an entry of G in a column of other;
    marked is an all-zero work vector and is left so."""
    marked[other] = 1.0
    hit = G[rows] @ marked > 0
    marked[other] = 0.0
    return hit


class Factorization:
    """Equilibrated sparse LU in nested-dissection order, reusable for
    repeated right-hand sides.  coords (one row per unknown) drive the
    ordering; see nested_dissection.  A matrix that is not square, or is
    0 x 0 (a system with no free unknowns), raises ValueError."""

    def __init__(self, A: sp.spmatrix, coords: np.ndarray | None = None):
        A = sp.csr_matrix(A, dtype=complex)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if not A.shape[0]:
            raise ValueError("the system has no free unknowns (0 x 0 matrix)")
        if not np.isfinite(A.data).all():
            raise ValueError("the matrix has non-finite entries")
        self.A = A
        self.r, self.c = _equilibrate(A)
        self._perm = nested_dissection(A, coords)
        self._iperm = np.argsort(self._perm)
        scaled = (sp.diags(1.0 / self.r) @ A @ sp.diags(1.0 / self.c)).tocsr()
        scaled = scaled[self._perm][:, self._perm].tocsc()
        if not scaled.data.imag.any():  # same pattern in half the storage
            scaled = sp.csc_matrix((scaled.data.real.copy(), scaled.indices,
                                    scaled.indptr), shape=scaled.shape)
        try:
            self._lu = spla.splu(scaled, permc_spec="NATURAL",
                                 diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:  # exactly singular inside SuperLU
            raise SingularMatrixError(str(exc)) from exc
        self._real = scaled.dtype == np.float64
        # t=1 is deterministic; t >= 2 draws from numpy's global RNG
        inv = spla.LinearOperator(scaled.shape, matvec=self._lu_solve,
                                  dtype=scaled.dtype,
                                  rmatvec=lambda b: self._lu_solve(b, adjoint=True))
        self.kappa1 = float(spla.norm(scaled, 1) * spla.onenormest(inv, t=1))
        eps_kappa = self.kappa1 * np.finfo(float).eps
        if not eps_kappa < KAPPA1_EPS_TOL:  # also catches nan
            raise SingularMatrixError(f"numerically singular: kappa_1 * eps = "
                                      f"{eps_kappa:.3e} >= {KAPPA1_EPS_TOL:g}")

    def _lu_solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The LU's solve with the scaled, permuted matrix or its adjoint.
        A real factor takes a complex b as two real columns of one solve."""
        trans = ("T" if self._real else "H") if adjoint else "N"
        if self._real and np.iscomplexobj(b):
            y = self._lu.solve(np.column_stack((b.real, b.imag)), trans=trans)
            return y[:, 0] + 1j * y[:, 1]
        return self._lu.solve(b, trans=trans)

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._lu_solve((np.asarray(b, dtype=complex) / self.r)[self._perm])
        return y[self._iperm] / self.c

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        y = self._lu_solve((np.asarray(b, dtype=complex) / self.c)[self._perm],
                           adjoint=True)
        return y[self._iperm] / self.r

    def checked_solve(self, b: np.ndarray) -> SolveReport:
        """Solve A x = b with the residual recomputed from the original A.

        A relative residual above RESIDUAL_TOL takes one refinement step,
        x += solve(b - A x); if it is still above, InaccurateSolveError."""
        b = np.asarray(b, dtype=complex)
        denom = max(np.linalg.norm(b), np.finfo(float).tiny)
        x = self.solve(b)
        r = b - self.A @ x
        resid = np.linalg.norm(r) / denom
        refinements = 0
        if not resid <= RESIDUAL_TOL:  # also catches nan
            x = x + self.solve(r)
            resid = np.linalg.norm(b - self.A @ x) / denom
            refinements = 1
            if not resid <= RESIDUAL_TOL:
                raise InaccurateSolveError(
                    f"relative residual {resid:.3e} > {RESIDUAL_TOL:g} "
                    "after one refinement step")
        return SolveReport(x=x, rel_residual=float(resid), refinements=refinements)


def sparse_lu_solve(A: sp.spmatrix, b: np.ndarray,
                    coords: np.ndarray | None = None) -> SolveReport:
    """Solve A x = b by equilibrated sparse LU; residual checked from scratch."""
    return Factorization(A, coords).checked_solve(b)


@dataclass(frozen=True)
class ConditionEstimate:
    value: float
    method: str            # "dense-svd" or "power-iteration"
    iterations: int
    singular: bool

    def __post_init__(self):
        if not self.singular and self.value < 1.0 - 1e-9:
            raise AssertionError("condition estimate below 1")  # pragma: no cover


def condition_estimate(A: sp.spmatrix, fac: Factorization | None = None,
                       coords: np.ndarray | None = None) -> ConditionEstimate:
    """2-norm condition number: dense SVD up to DENSE_SVD_LIMIT, else power
    iteration for sigma_max and inverse iteration through an LU for sigma_min.

    fac, a Factorization of this same A, is reused for the inverse
    iteration instead of factoring A again.  Without one, A is factored
    first (ordered by coords), so a singular A costs no iterations."""
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
            fac = Factorization(A, coords)
        except SingularMatrixError:
            return ConditionEstimate(value=np.inf, method="power-iteration",
                                     iterations=0, singular=True)
    rng = np.random.default_rng(0)
    AH = A.conj().T
    smax, iters = _power_norm(lambda v: AH @ (A @ v), rng, n)
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
