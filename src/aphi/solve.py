"""Direct sparse solves and 2-norm condition estimates.

Systems here mix row scales over many orders of magnitude (curl rows vs.
divergence rows, conductor vs. air), so the factorization works on a
two-sided max-equilibrated copy; residuals are always recomputed from the
original operator.  Singularity is judged by kappa_1 * eps of the
equilibrated matrix, ||A^-1||_1 estimated through the LU's own solves
(Higham & Tisseur 2000).  Each LU is held once: SuperLU.L and .U, which
scipy builds as copies cached on the factor, are never read.  Freed heap
goes back to the OS before each LU is built (malloc_trim, glibc only), and
physics.run_two_step frees the curl LU before the gauge residual.  Given a
vector g that A nearly annihilates (physics.gradient_probe for an original
curl system), Factorization(..., probe=g) bounds the same kappa_1 from
below right after equilibrating; a bound at or above KAPPA1_EPS_TOL / eps
raises SingularMatrixError, naming the gradient probe, with no LU.

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
no geometry) and factored in that order by SuperLU, climbing _LADDER
until an LU is accepted: see the table for the rungs and how one hands
over to the next.  The static diagonal pivot threshold DIAG_PIVOT_THRESH =
1e-3 keeps most of the fill of the dissection order also where the matrix
is indefinite (the academic 11^3 curl systems at 1e9 Hz fill 37% less than
at 0.1).  It is guarded as static pivoting with refinement (Li & Demmel
2003): a small pivot that it admits can grow the factors enough to read a
well-conditioned matrix as singular, or leave a residual that refinement
does not mend, and the LU at SAFE_PIVOT_THRESH = 0.1 reads such a matrix
as its dense kappa_1 does.

The single-precision rung (mixed=True; sparse_lu_solve and
physics.run_two_step without a condition estimate) factors a copy of the
equilibrated, ordered matrix at half the factor storage, and checked_solve
refines its solution against the double matrix (Langou et al. 2006;
Carson & Higham 2018).  In that copy every real and imaginary part below
SINGLE_TINY = 2^-24, float32's unit roundoff against the row and column
maxima of 1, is set to zero, with the stored pattern kept.  Without this,
imaginary parts 1e-9 to 1e-17 below the real parts form subnormal
products that made a complex64 LU up to 13x slower than the complex128
one.  The copy is complex64 when an imaginary part survives, else
float32.  Each right-hand side is scaled by a power of two near its
largest magnitude before the cast, exactly, so that small refinement
residuals stay in float32's normal range.  A probe bound above
SINGLE_KAPPA1_EPS_TOL / eps_single starts on the first double rung.

Below the ladder sits one more rung, an incomplete LU preconditioning
GMRES, for the systems where it holds a fraction of the LU's entries:
with mixed=True and no probe, a system of at least ILU_MIN_UNKNOWNS
unknowns with an imaginary part in a stored entry is first factored by
SuperLU's threshold incomplete LU (ILUTP; Li & Shao 2011) of the
equilibrated, ordered matrix, in complex128.  checked_solve then runs
GMRES on the equilibrated system (gmres, right-preconditioned; Saad 2003,
ch. 9-10) within GMRES_BUDGET iterations, applied through self.A and the
scalings.  Where i*omega*sigma fills the domain this converges in a few
iterations (the mms_sigma6e7 16^3 curl systems at 10 Hz: 6, on 0.18-0.21
of the single LU's entries); a dielectric at low frequency needs far more
(mms_sigma0 16^3: 187), and so does a complex64 ILU, whence the gates.  A
refused ILU, an exhausted budget or a residual above RESIDUAL_TOL frees
the ILU and climbs to _LADDER's first rung, so an incomplete LU never
decides a singular verdict.  It judges no kappa_1 * eps either: its
SolveReport reads nan there, and solve, solve_adjoint and
condition_estimate refuse a Factorization that holds one.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

KAPPA1_EPS_TOL = 0.2     # kappa_1 * eps at or above this is singular
DIAG_PIVOT_THRESH = 1e-3  # SuperLU keeps the diagonal pivot down to this ratio
SAFE_PIVOT_THRESH = 0.1   # ... in the double LU that a refusal at 1e-3 leads to
RESIDUAL_TOL = 1e-10     # relative residual a returned solution must meet
REFINE_TOL = 1e-14       # mixed-precision refinement stops at this residual
MAX_REFINEMENTS = 3      # ... or after this many steps
SINGLE_KAPPA1_EPS_TOL = 1e-2  # kappa_1 * eps_single above this: factor in double
SINGLE_TINY = 2.0 ** -24  # float32 unit roundoff; smaller parts zeroed in the copy
ND_LEAF = 64             # nested dissection stops at sets this small
ILU_MIN_UNKNOWNS = 8000  # complex mixed systems this large try the incomplete LU
ILU_DROP_TOL = 1e-3      # ... which drops entries below this (relative to the column)
ILU_FILL_FACTOR = 5.0    # ... and holds about this many times nnz(A) at most
# (SuperLU's fill bound): 80 bytes per entry of A in complex128, under the
# complex64 LU's 87 (10.9 nnz(A)) at 8820 unknowns, mms_sigma6e7 15^3
# tree-cotree, and an LU's share grows with the mesh.  The ILUs served
# take 2.0-2.7 nnz(A).
GMRES_BUDGET = 30        # GMRES iterations (one cycle) the incomplete LU may take
DENSE_SVD_LIMIT = 2000
_POWER_MAX_ITERS = 200
_POWER_RTOL = 1e-6

# The ladder every LU climbs, one rung a row: (precision, diagonal pivot
# threshold, refinement steps, refinement target).  An LU is accepted
# unless SuperLU refuses it or its kappa_1 * eps reaches KAPPA1_EPS_TOL
# (a single one: exceeds SINGLE_KAPPA1_EPS_TOL in eps_single); a refused
# LU is freed and the next rung factored, and only the last rung's refusal
# raises SingularMatrixError, so a single LU never decides a singular
# verdict.  checked_solve refines with its rung's steps until the target;
# a relative residual still above RESIDUAL_TOL moves to the next rung and
# solves again, and on the last rung raises InaccurateSolveError.
# Factorization starts on the single rung with mixed=True, else on the
# first double one.
_LADDER = (
    (np.float32, DIAG_PIVOT_THRESH, MAX_REFINEMENTS, REFINE_TOL),
    (np.float64, DIAG_PIVOT_THRESH, 1, RESIDUAL_TOL),
    (np.float64, SAFE_PIVOT_THRESH, 1, RESIDUAL_TOL),
)


try:  # glibc's, from the C library the process has loaded; None elsewhere
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Give the process's free heap back to the OS (malloc_trim(3)): glibc
    keeps the heap that large frees leave, and it would sit under the LU."""
    if _malloc_trim is not None:
        _malloc_trim(0)


class SingularMatrixError(RuntimeError):
    """Factorization detected a (numerically) singular matrix.  condition
    is the system's ConditionEstimate, when the caller asked for one (see
    physics.run_two_step)."""

    condition = None


class InaccurateSolveError(SingularMatrixError):
    """A solve whose relative residual stays above RESIDUAL_TOL after one
    step of iterative refinement."""


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    rel_residual: float
    kappa1_eps: float      # kappa_1 * eps (double) of the LU that served;
                           # nan on an incomplete LU, which judges none
    refinements: int = 0   # refinement steps: 0 or 1 on a double LU, up
                           # to MAX_REFINEMENTS on a single one
    gmres_iterations: int = 0  # GMRES iterations on an incomplete LU


def _equilibrate(A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row then column max-scaling factors (>= tiny, never zero)."""
    absA = abs(A)
    r = np.asarray(absA.max(axis=1).todense()).ravel()
    r[r == 0] = 1.0
    scaled = sp.diags(1.0 / r) @ absA
    c = np.asarray(scaled.max(axis=0).todense()).ravel()
    c[c == 0] = 1.0
    return r, c


def _probe_bound(A: sp.csr_matrix, r: np.ndarray, c: np.ndarray,
                 g: np.ndarray) -> float:
    """Lower bound ||A_s||_1 ||x||_1 / ||A_s x||_1 on kappa_1 of A_s =
    R^-1 A C^-1, with x = C g (Higham & Tisseur 2000): it can show a matrix
    singular, never nonsingular."""
    A_s = sp.diags(1.0 / r) @ A @ sp.diags(1.0 / c)
    x = c * g
    # For an exact kernel vector g, A_s x is rounding noise, so the bound is
    # good only to its order of magnitude (about 7 / eps for the curl of a
    # gradient on academic 11^3 at 0 Hz), or zero, where it is infinite.
    norm_Ax = float(np.abs(A_s @ x).sum())
    if norm_Ax == 0.0:
        return np.inf
    return float(spla.norm(A_s, 1)) * float(np.abs(x).sum()) / norm_Ax


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


def _checked_system(A: sp.spmatrix) -> sp.csr_matrix:
    """A as complex CSR; raises ValueError unless it is square, at least
    1 x 1 and finite."""
    A = sp.csr_matrix(A, dtype=complex)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if not A.shape[0]:
        raise ValueError("the system has no free unknowns (0 x 0 matrix)")
    if not np.isfinite(A.data).all():
        raise ValueError("the matrix has non-finite entries")
    return A


class Factorization:
    """Equilibrated sparse LU in nested-dissection order, reusable for
    repeated right-hand sides.  coords (one row per unknown) drive the
    ordering; see nested_dissection.  A matrix that is not square, is
    0 x 0 (a system with no free unknowns) or has a non-finite entry
    raises ValueError.

    The LU climbs _LADDER, from its single rung with mixed=True and else
    from its first double one; a large complex system with mixed=True and
    no probe first holds an incomplete LU (`incomplete`), which only
    checked_solve uses (see the module docstring).  `single` and
    pivot_thresh describe the held LU; on a single one checked_solve
    refines to double accuracy, while solve and solve_adjoint are good
    only to about kappa * eps_single.  probe, a vector that A nearly
    annihilates, is judged by the same constants before any LU (see the
    module docstring).

    kappa1 is a lower-bound estimate of the held LU's kappa_1:
    onenormest with t=1 follows the largest entry of its iterate, and
    rounding alone can change which entry that is, moving kappa1 by about
    7% (the same matrix factored in real and in complex arithmetic)."""

    def __init__(self, A: sp.spmatrix, coords: np.ndarray | None = None,
                 mixed: bool = False, probe: np.ndarray | None = None):
        self.A = A = _checked_system(A)
        self.r, self.c = _equilibrate(A)
        if probe is not None:
            bound = _probe_bound(A, self.r, self.c, probe)
            eps_bound = bound * np.finfo(float).eps
            if eps_bound >= KAPPA1_EPS_TOL:  # proven singular: no LU
                raise SingularMatrixError(
                    f"numerically singular by the gradient probe: kappa_1 * eps "
                    f">= {eps_bound:.3e} >= {KAPPA1_EPS_TOL:g}")
            # a single LU would be refused by its own kappa_1 * eps_single
            mixed = mixed and bound * np.finfo(np.float32).eps <= SINGLE_KAPPA1_EPS_TOL
        self._perm = nested_dissection(A, coords)
        self._iperm = np.argsort(self._perm)
        if not (mixed and probe is None and A.shape[0] >= ILU_MIN_UNKNOWNS
                and A.data.imag.any() and self._factor_incomplete()):
            self._factor_from(0 if mixed else 1)

    @property
    def single(self) -> bool:
        """The held LU is a float32 or complex64 one."""
        return np.finfo(self._dtype).bits == 32

    @property
    def incomplete(self) -> bool:
        """The held factor is an incomplete LU, GMRES's preconditioner."""
        return self._rung is None

    def _ordered(self) -> sp.csc_matrix:
        """The equilibrated matrix R^-1 A C^-1 in the LU's order."""
        scaled = (sp.diags(1.0 / self.r) @ self.A @ sp.diags(1.0 / self.c)).tocsr()
        return scaled[self._perm][:, self._perm].tocsc()

    def _factor_incomplete(self) -> bool:
        """Hold SuperLU's incomplete LU of the equilibrated, ordered matrix
        in complex128; False, with nothing held, where SuperLU refuses it."""
        ilu_input = self._ordered()
        _release_free_heap()
        self._rung, self._dtype = None, ilu_input.dtype
        self.pivot_thresh, self.kappa1 = DIAG_PIVOT_THRESH, np.nan
        try:
            self._lu = spla.spilu(ilu_input, drop_tol=ILU_DROP_TOL,
                                  fill_factor=ILU_FILL_FACTOR, permc_spec="NATURAL",
                                  diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError:  # the input is freed on either return
            return False
        return True

    def _factor_from(self, rung: int) -> None:
        """Free the held LU and factor from _LADDER[rung] upward until an
        LU is accepted; only the last rung's refusal propagates."""
        self._lu = None  # freed before the next LU is built
        for self._rung in range(rung, len(_LADDER)):
            try:
                return self._factor(*_LADDER[self._rung][:2])
            except SingularMatrixError:
                if self._rung == len(_LADDER) - 1:
                    raise

    def _factor(self, precision: type, pivot_thresh: float) -> None:
        """Factor the equilibrated, ordered matrix with SuperLU at
        pivot_thresh, in the precision of np.float32 or np.float64, real
        when no imaginary part survives, and judge its kappa_1 * eps.  A
        refused LU is freed and raises SingularMatrixError."""
        single = precision == np.float32
        scaled = self._ordered()
        data = scaled.data
        if single:  # see SINGLE_TINY in the module docstring
            data = (np.where(abs(data.real) < SINGLE_TINY, 0.0, data.real)
                    + 1j * np.where(abs(data.imag) < SINGLE_TINY, 0.0, data.imag))
        if data.imag.any():
            precision = np.result_type(precision, np.complex64)
        else:  # same pattern in half the storage
            data = data.real
        lu_input = sp.csc_matrix((np.ascontiguousarray(data, dtype=precision),
                                  scaled.indices, scaled.indptr), shape=scaled.shape)
        del scaled, data  # freed before the LU is built
        _release_free_heap()
        self._dtype = lu_input.dtype
        self.pivot_thresh = pivot_thresh
        norm1 = spla.norm(lu_input, 1)
        try:
            self._lu = spla.splu(lu_input, permc_spec="NATURAL",
                                 diag_pivot_thresh=pivot_thresh)
        except RuntimeError as exc:  # exactly singular inside SuperLU
            raise SingularMatrixError(str(exc)) from exc
        del lu_input  # not held beside the LU while its inverse is estimated
        # t=1 is deterministic; t >= 2 draws from numpy's global RNG
        dtype = float if self._dtype.kind == "f" else complex
        inv = spla.LinearOperator(self.A.shape, matvec=self._lu_solve, dtype=dtype,
                                  rmatvec=lambda b: self._lu_solve(b, adjoint=True))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # parts near the underflow limit make onenormest warn; a nan
            # kappa1 fails the test below
            self.kappa1 = float(norm1 * spla.onenormest(inv, t=1))
        eps_kappa = self.kappa1 * np.finfo(self._dtype).eps
        tol = SINGLE_KAPPA1_EPS_TOL if single else KAPPA1_EPS_TOL
        if eps_kappa <= tol if single else eps_kappa < tol:  # False on nan
            return
        self._lu = None  # freed before the next LU is built
        raise SingularMatrixError(f"numerically singular: kappa_1 * eps = {eps_kappa:.3e} "
                                  f"{'>' if single else '>='} {tol:g}")

    def _lu_solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The LU's solve with the scaled, permuted matrix or its adjoint.
        A real factor takes a complex b as two real columns of one solve.
        A single factor takes b divided by a power of two near its largest
        magnitude, an exact scaling undone on the result.  An incomplete
        LU raises ValueError: only checked_solve's GMRES uses it."""
        if self.incomplete:
            raise ValueError("an incomplete LU has no solve of its own; "
                             "use checked_solve")
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
        """Solve A x = b with the residual recomputed from the original A:
        by GMRES on an incomplete LU, or refined with the held rung's steps
        and target, climbing _LADDER while the relative residual stays
        above RESIDUAL_TOL."""
        b = np.asarray(b, dtype=complex)
        if self.incomplete:
            rep = self._gmres_solve(b)
            if rep is not None:
                return rep
            self._factor_from(0)  # frees the incomplete LU first
        while True:
            rep = self._refined_solve(b, *_LADDER[self._rung][2:])
            if rep.rel_residual <= RESIDUAL_TOL:  # False on nan
                return rep
            if self._rung == len(_LADDER) - 1:
                raise InaccurateSolveError(
                    f"relative residual {rep.rel_residual:.3e} > {RESIDUAL_TOL:g} "
                    "after one refinement step")
            self._factor_from(self._rung + 1)

    def _gmres_solve(self, b: np.ndarray) -> SolveReport | None:
        """GMRES on the equilibrated, ordered system to REFINE_TOL,
        preconditioned by the incomplete LU; None when GMRES_BUDGET
        iterations do not reach it or the relative residual, recomputed
        from A, is above RESIDUAL_TOL."""
        def apply(y):  # A_s y through A and the scalings: no copy of A_s
            return (self.A @ (y[self._iperm] / self.c) / self.r)[self._perm]

        y, iterations = gmres(apply, (b / self.r)[self._perm], self._lu.solve,
                              GMRES_BUDGET, REFINE_TOL)
        if y is None:
            return None
        x = y[self._iperm] / self.c
        resid = np.linalg.norm(b - self.A @ x) / max(np.linalg.norm(b), np.finfo(float).tiny)
        if not resid <= RESIDUAL_TOL:  # also catches nan
            return None
        return SolveReport(x=x, rel_residual=float(resid), kappa1_eps=np.nan,
                           gmres_iterations=iterations)

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
        return SolveReport(x=x, rel_residual=float(resid),
                           kappa1_eps=self.kappa1 * np.finfo(float).eps,
                           refinements=steps)


def sparse_lu_solve(A: sp.spmatrix, b: np.ndarray,
                    coords: np.ndarray | None = None) -> SolveReport:
    """Solve A x = b by equilibrated sparse LU in mixed precision (see
    Factorization); residual checked from scratch."""
    return Factorization(A, coords, mixed=True).checked_solve(b)


def gmres(apply, b: np.ndarray, precondition, budget: int,
          tol: float) -> tuple[np.ndarray | None, int]:
    """GMRES from x = 0 for apply(x) = b, right-preconditioned by
    precondition, any approximate inverse as a function of a vector, so
    that the residual it minimizes is the system's own (Saad 2003, 9.3.2).
    Returns (x, iterations) once the relative residual of the Arnoldi
    least-squares problem is at most tol, or (None, iterations) when budget
    iterations do not reach it or a non-finite value appears; no restart.
    It holds one basis vector per iteration, and forms x =
    precondition(V y) once at the end."""
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    basis = [b / beta]
    H = np.zeros((budget + 1, budget), dtype=complex)
    rhs = np.zeros(budget + 1, dtype=complex)
    rhs[0] = beta
    for k in range(budget):
        w = apply(precondition(basis[k]))
        for j, v in enumerate(basis):  # modified Gram-Schmidt
            H[j, k] = np.vdot(v, w)
            w = w - H[j, k] * v
        H[k + 1, k] = np.linalg.norm(w)
        if not np.isfinite(H[:k + 2, k]).all():
            return None, k + 1
        y = np.linalg.lstsq(H[:k + 2, :k + 1], rhs[:k + 2], rcond=None)[0]
        resid = np.linalg.norm(rhs[:k + 2] - H[:k + 2, :k + 1] @ y) / beta
        if resid <= tol or H[k + 1, k] == 0.0:  # converged, or x is exact
            return precondition(np.stack(basis, axis=1) @ y), k + 1
        basis.append(w / H[k + 1, k])
    return None, budget


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
    converged: bool = True  # False: a power run stopped at _POWER_MAX_ITERS

    def __post_init__(self):
        if self.value < 1.0 - 1e-9:
            raise AssertionError("condition estimate below 1")  # pragma: no cover


def condition_estimate(A: sp.spmatrix, fac: Factorization | None = None,
                       coords: np.ndarray | None = None) -> ConditionEstimate:
    """2-norm condition number: dense SVD up to DENSE_SVD_LIMIT, else power
    iteration for sigma_max and inverse iteration through an LU for sigma_min.

    fac, a Factorization of this same A, is reused for the inverse
    iteration instead of factoring A again; a single-precision one raises
    ValueError, since its inverse is good only to about kappa * eps_single,
    and so does one holding an incomplete LU.
    Without one, A is factored first (ordered by coords), so a singular A
    costs no iterations (refused_condition).  A matrix that Factorization
    refuses as input (not square, 0 x 0 or non-finite) raises its
    ValueError here too."""
    if fac is not None and (fac.single or fac.incomplete):
        raise ValueError("condition estimate needs a double-precision factor, "
                         "and a complete one")
    A = _checked_system(A)
    n = A.shape[0]
    if n <= DENSE_SVD_LIMIT:
        return refused_condition(A)
    if fac is None:
        try:
            fac = Factorization(A, coords)
        except SingularMatrixError:
            return refused_condition(A)
    rng = np.random.default_rng(0)
    # A^H w as conj(A^T conj(w)): no conjugated copy of A
    smax, iters, ok = _power_norm(lambda v: np.conj(A.T @ np.conj(A @ v)), rng, n)
    inv_norm, inv_iters, inv_ok = _power_norm(
        lambda v: fac.solve_adjoint(fac.solve(v)), rng, n)
    smin = 1.0 / inv_norm
    return ConditionEstimate(value=float(smax / smin), method="power-iteration",
                             iterations=iters + inv_iters, converged=ok and inv_ok)


def refused_condition(A: sp.spmatrix) -> ConditionEstimate:
    """The estimate of A, a matrix that Factorization took as input and then
    refused as singular: the dense SVD's up to DENSE_SVD_LIMIT, else
    infinite with no further LU, since the refusal is the power iteration's
    own singularity test.  condition_estimate's dense branch and its
    refusal both return it."""
    if A.shape[0] > DENSE_SVD_LIMIT:
        return ConditionEstimate(value=np.inf, method="power-iteration", iterations=0)
    s = np.linalg.svd(np.asarray(A.toarray(), dtype=complex), compute_uv=False)
    return ConditionEstimate(value=float(s[0] / s[-1]) if s[-1] else np.inf,
                             method="dense-svd", iterations=0)


def _power_norm(apply, rng: np.random.Generator, n: int) -> tuple[float, int, bool]:
    """2-norm of the operator B from power iteration on apply = B^H B,
    started from a random complex vector; returns (norm, iterations,
    whether two successive estimates met _POWER_RTOL before the cap)."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for it in range(1, _POWER_MAX_ITERS + 1):
        w = apply(v)
        nw = np.linalg.norm(w)
        new = np.sqrt(nw)
        v = w / nw
        if abs(new - est) <= _POWER_RTOL * max(new, 1e-300):
            return new, it, True
        est = new
    return est, _POWER_MAX_ITERS, False
