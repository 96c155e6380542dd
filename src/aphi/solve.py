"""Direct sparse solves and 2-norm condition estimates.

Systems here mix row scales over many orders of magnitude (curl rows vs.
divergence rows, conductor vs. air), so the factorization works on a
two-sided max-equilibrated copy; residuals are always recomputed from the
original operator.  Singularity is judged by kappa_1 * eps of the
equilibrated matrix, ||A^-1||_1 estimated through the LU's own solves
(Higham & Tisseur 2000).  Each LU is held once: SuperLU.L and .U, which
scipy builds as copies cached on the factor, are never read.  An original
(unstabilized) curl system can be judged singular before it reaches this
module: physics.gradient_probe_bound bounds the same kappa_1 from below
with a discrete gradient, and a bound at or above KAPPA1_EPS_TOL / eps
skips the LU.

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

Mixed precision (Factorization(..., mixed=True); sparse_lu_solve and
physics.run_two_step without a condition estimate): the LU is of a
single-precision copy of the equilibrated, ordered matrix, at half the
factor storage, and checked_solve refines its solution against the double
matrix (Langou et al. 2006; Carson & Higham 2018).  In that copy every
real and imaginary part below SINGLE_TINY = 2^-24, float32's unit
roundoff against the row and column maxima of 1, is set to zero, with the
stored pattern kept.  Without this, imaginary parts 1e-9 to 1e-17 below
the real parts form subnormal products that made a complex64 LU up to 13x
slower than the complex128 one.  The copy is complex64 when an imaginary
part survives, else float32.  Each right-hand side is scaled by a power
of two near its largest magnitude before the cast, exactly, so that small
refinement residuals stay in float32's normal range.  The single factor
serves only when its own kappa_1 * eps_single is at most
SINGLE_KAPPA1_EPS_TOL; otherwise, or when SuperLU refuses the copy, the
matrix is factored in double and judged exactly as without mixed, so a
single factor never decides a singular verdict.  Refinement stops at a
relative residual of REFINE_TOL or after MAX_REFINEMENTS steps; a residual
still above RESIDUAL_TOL then falls back to the double LU and its checked
solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

KAPPA1_EPS_TOL = 0.2     # kappa_1 * eps at or above this is singular
DIAG_PIVOT_THRESH = 0.1  # SuperLU keeps the diagonal pivot down to this ratio
RESIDUAL_TOL = 1e-10     # relative residual a returned solution must meet
REFINE_TOL = 1e-14       # mixed-precision refinement stops at this residual
MAX_REFINEMENTS = 3      # ... or after this many steps
SINGLE_KAPPA1_EPS_TOL = 1e-2  # kappa_1 * eps_single above this: factor in double
SINGLE_TINY = 2.0 ** -24  # float32 unit roundoff; smaller parts zeroed in the copy
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
    refinements: int = 0   # refinement steps: 0 or 1 on a double LU, up
                           # to MAX_REFINEMENTS on a single one


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
    0 x 0 (a system with no free unknowns), raises ValueError.

    With mixed=True the LU is of a single-precision copy when that copy's
    kappa_1 * eps_single is at most SINGLE_KAPPA1_EPS_TOL (see the module
    docstring), and `single` is then True: checked_solve refines to double
    accuracy, while solve and solve_adjoint are good only to about
    kappa * eps_single.  Otherwise, and always without mixed, the LU is in
    double and a kappa_1 * eps at or above KAPPA1_EPS_TOL raises
    SingularMatrixError.

    kappa1 is a lower-bound estimate of the held LU's kappa_1:
    onenormest with t=1 follows the largest entry of its iterate, and
    rounding alone can change which entry that is, moving kappa1 by about
    7% (the same matrix factored in real and in complex arithmetic)."""

    def __init__(self, A: sp.spmatrix, coords: np.ndarray | None = None,
                 mixed: bool = False):
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
        if not (mixed and self._factor_single()):
            self._factor_double()

    @property
    def single(self) -> bool:
        """The held LU is a float32 or complex64 one."""
        return np.finfo(self._dtype).bits == 32

    def _scaled(self) -> sp.csc_matrix:
        """The equilibrated matrix in dissection order."""
        scaled = (sp.diags(1.0 / self.r) @ self.A @ sp.diags(1.0 / self.c)).tocsr()
        return scaled[self._perm][:, self._perm].tocsc()

    def _factor(self, scaled: sp.csc_matrix) -> None:
        """Factor scaled with SuperLU and estimate its kappa_1."""
        self._dtype = scaled.dtype
        try:
            self._lu = spla.splu(scaled, permc_spec="NATURAL",
                                 diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:  # exactly singular inside SuperLU
            raise SingularMatrixError(str(exc)) from exc
        # t=1 is deterministic; t >= 2 draws from numpy's global RNG
        dtype = float if scaled.dtype.kind == "f" else complex
        inv = spla.LinearOperator(scaled.shape, matvec=self._lu_solve, dtype=dtype,
                                  rmatvec=lambda b: self._lu_solve(b, adjoint=True))
        self.kappa1 = float(spla.norm(scaled, 1) * spla.onenormest(inv, t=1))

    def _factor_single(self) -> bool:
        """Factor the single-precision copy; False, holding no LU, when
        SuperLU refuses it or its kappa_1 * eps_single is too large."""
        scaled = self._scaled()
        re, im = (np.where(abs(part) < SINGLE_TINY, 0.0, part)
                  for part in (scaled.data.real, scaled.data.imag))
        data = (re + 1j * im).astype(np.complex64) if im.any() else re.astype(np.float32)
        copy = sp.csc_matrix((data, scaled.indices, scaled.indptr), shape=scaled.shape)
        del scaled, re, im, data  # only the copy is factored
        try:
            self._factor(copy)
        except SingularMatrixError:  # SuperLU refused the copy: no LU held
            return False
        if self.kappa1 * np.finfo(np.float32).eps <= SINGLE_KAPPA1_EPS_TOL:
            return True
        self._lu = None  # freed before the double LU is built
        return False

    def _factor_double(self) -> None:
        scaled = self._scaled()
        if not scaled.data.imag.any():  # same pattern in half the storage
            scaled = sp.csc_matrix((scaled.data.real.copy(), scaled.indices,
                                    scaled.indptr), shape=scaled.shape)
        self._factor(scaled)
        eps_kappa = self.kappa1 * np.finfo(float).eps
        if not eps_kappa < KAPPA1_EPS_TOL:  # also catches nan
            raise SingularMatrixError(f"numerically singular: kappa_1 * eps = "
                                      f"{eps_kappa:.3e} >= {KAPPA1_EPS_TOL:g}")

    def _lu_solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The LU's solve with the scaled, permuted matrix or its adjoint.
        A real factor takes a complex b as two real columns of one solve.
        A single factor takes b divided by a power of two near its largest
        magnitude, an exact scaling undone on the result."""
        real = self._dtype.kind == "f"
        trans = ("T" if real else "H") if adjoint else "N"
        if real and np.iscomplexobj(b):
            y = self._lu_solve(np.column_stack((b.real, b.imag)), adjoint)
            return y[:, 0] + 1j * y[:, 1]
        if not self.single:
            return self._lu.solve(b, trans=trans)
        scale = np.ldexp(1.0, np.frexp(np.abs(b).max())[1])
        y = self._lu.solve((b / scale).astype(self._dtype), trans=trans)
        return y.astype(np.promote_types(y.dtype, np.float64)) * scale

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._lu_solve((np.asarray(b, dtype=complex) / self.r)[self._perm])
        return y[self._iperm] / self.c

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        y = self._lu_solve((np.asarray(b, dtype=complex) / self.c)[self._perm],
                           adjoint=True)
        return y[self._iperm] / self.r

    def checked_solve(self, b: np.ndarray) -> SolveReport:
        """Solve A x = b with the residual recomputed from the original A.

        On a double LU, a relative residual above RESIDUAL_TOL takes one
        refinement step, x += solve(b - A x); if it is still above,
        InaccurateSolveError.  A single LU refines until REFINE_TOL or
        MAX_REFINEMENTS steps; above RESIDUAL_TOL then, the matrix is
        factored in double and solved as above."""
        b = np.asarray(b, dtype=complex)
        if self.single:
            rep = self._refined_solve(b, MAX_REFINEMENTS, REFINE_TOL)
            if rep.rel_residual <= RESIDUAL_TOL:
                return rep
            self._lu = None  # freed before the double LU is built
            self._factor_double()
        rep = self._refined_solve(b, 1, RESIDUAL_TOL)
        if not rep.rel_residual <= RESIDUAL_TOL:  # also catches nan
            raise InaccurateSolveError(
                f"relative residual {rep.rel_residual:.3e} > {RESIDUAL_TOL:g} "
                "after one refinement step")
        return rep

    def _refined_solve(self, b: np.ndarray, max_steps: int, tol: float) -> SolveReport:
        """x = solve(b), then x += solve(b - A x) until the relative
        residual is at most tol or after max_steps steps."""
        denom = max(np.linalg.norm(b), np.finfo(float).tiny)
        x = self.solve(b)
        r = b - self.A @ x
        resid = np.linalg.norm(r) / denom
        steps = 0
        while steps < max_steps and not resid <= tol:  # also catches nan
            x = x + self.solve(r)
            r = b - self.A @ x
            resid = np.linalg.norm(r) / denom
            steps += 1
        return SolveReport(x=x, rel_residual=float(resid), refinements=steps)


def sparse_lu_solve(A: sp.spmatrix, b: np.ndarray,
                    coords: np.ndarray | None = None) -> SolveReport:
    """Solve A x = b by equilibrated sparse LU in mixed precision (see
    Factorization); residual checked from scratch."""
    return Factorization(A, coords, mixed=True).checked_solve(b)


@dataclass(frozen=True)
class ConditionEstimate:
    """A 2-norm condition number and how it was found.

    Near breakdown any estimate through the LU is good only to about
    kappa * eps, since every inverse application carries that relative
    error: the original system at 1e3 Hz (academic 11^3, kappa_1 * eps
    0.045) reads sigma_min 0.75% above the dense SVD's.
    """

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
    iteration instead of factoring A again; a single-precision one raises
    ValueError, since its inverse is good only to about kappa * eps_single.
    Without one, A is factored first (ordered by coords), so a singular A
    costs no iterations."""
    if fac is not None and fac.single:
        raise ValueError("condition estimate needs a double-precision factor")
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
