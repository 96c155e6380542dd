"""Two-step solve orchestration, derived fields, and the H(curl) error.

Step one computes the scalar potential (the frequency-scaled
complex-conductivity Poisson problem, one system down to omega = 0); step
two the vector potential from the curl system, with the original,
tree-cotree stabilized, or Lagrange-multiplier variant.  hcurl_error
measures a solution against the manufactured case (assembly's).

Discrete gradients are the kernel of the curl, and in air only
omega^2 M_eps holds them, so run_two_step hands solve.Factorization one
such gradient (gradient_probe) with an original system, which can then
be proven singular before any LU; the gauged variants, refused where the
tree cannot span the kernel (refuse_unspanned_gauge), are never probed.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import ManufacturedCase, MatrixBundle, MaterialField
from .gauge import GaugeGraph, TreeCotreePartition, UnsupportedTopologyError
from .mesh import Mesh
from .solve import (ConditionEstimate, Factorization, InaccurateSolveError,
                    SingularMatrixError, SolveReport, condition_estimate,
                    refused_condition, sparse_lu_solve)
from .spaces import (EdgeSpace, ScalarSpace, physical_edge_basis,
                     physical_scalar_basis, tensor_quadrature)
from .system import (FrequencyPoint, build_curl_matrix, build_eqs_system,
                     build_lagrange_system, build_rhs, build_scaled_divergence,
                     build_stabilized_system, kappa_coupling, scaling_factors)

METHODS = ("original", "tree-cotree", "lagrange")

_ERROR_QUAD_ORDER = 3  # one order above assembly quadrature


@dataclass(frozen=True)
class BuiltScenario:
    """Everything assembled once per scenario; frequency enters later."""

    mesh: Mesh
    material: MaterialField
    scalar: ScalarSpace
    edge: EdgeSpace
    bundle: MatrixBundle
    gauge: GaugeGraph
    partition: TreeCotreePartition
    name: str = "scenario"

    @property
    def mms(self) -> ManufacturedCase | None:
        """The manufactured case, or None; the bundle owns it."""
        return self.bundle.source


@dataclass(frozen=True)
class Solution:
    u: np.ndarray               # scalar potential, all nodes (V)
    a: np.ndarray               # vector potential, all edges (Wb/m circulations)
    lam: np.ndarray | None      # multipliers (lagrange method only)
    frequency: FrequencyPoint
    method: str
    delta_D: float              # unscaled kappa-weighted gauge residual
    curl_report: SolveReport
    eqs_report: SolveReport
    condition: ConditionEstimate | None = None  # of the curl system, if asked


def solve_eqs_step(built: BuiltScenario, omega: float) -> tuple[np.ndarray, SolveReport]:
    """Scalar-potential step: one sparse LU solve at every frequency."""
    K, rhs = build_eqs_system(built.bundle, omega)
    rep = sparse_lu_solve(K, rhs, built.mesh.nodes[built.scalar.free])
    return built.scalar.full_vector(rep.x), rep


Excitation = namedtuple("Excitation", "frequency u eqs_report j_free")


def excitation(built: BuiltScenario, f: float) -> Excitation:
    """Step one and the curl right-hand side on the free edges, which every
    curl method at f Hz shares; the arrays are read-only."""
    frequency = FrequencyPoint(float(f))  # rejects a bad frequency
    u_full, report = solve_eqs_step(built, frequency.omega)
    j_free = build_rhs(built.bundle, frequency.omega, u_full)
    for arr in (u_full, report.x, j_free):
        arr.flags.writeable = False
    return Excitation(frequency, u_full, report, j_free)


def refuse_unspanned_gauge(built: BuiltScenario, methods) -> None:
    """Raise UnsupportedTopologyError when a gauged method is among methods
    and the tree count differs from the static curl kernel's dimension,
    counted when the gauge was built, since that method's system is then
    singular; the commands call it before any step-one solve."""
    gauged = [m for m in methods if m != "original"]
    if not gauged:
        return
    kernel = built.gauge.kernel_dimension
    if built.partition.tree.size != kernel:
        raise UnsupportedTopologyError(
            f"{gauged[0]}: {built.partition.tree.size} tree edges cannot span "
            f"a static curl kernel of dimension {kernel}; every phi face "
            "must be an a_zero face, and the a_zero faces one piece")


def curl_system(built: BuiltScenario, omega: float, method: str,
                j: np.ndarray | None = None) -> tuple[sp.csr_matrix, np.ndarray]:
    """The curl system A x = b of one method at one frequency.

    j is the curl right-hand side on the free edges (zero if omitted).  x
    is the free-edge vector, followed for lagrange by the multipliers; its
    unknowns are placed by curl_coordinates.  A gauged method raises
    UnsupportedTopologyError where refuse_unspanned_gauge does.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    refuse_unspanned_gauge(built, (method,))
    W = build_curl_matrix(built.bundle, omega)
    if j is None:
        j = np.zeros(W.shape[0], dtype=complex)
    if method == "original":
        return W, j
    factors = scaling_factors(omega, built.material)
    D = build_scaled_divergence(built.bundle, omega, factors, built.gauge)
    if method == "tree-cotree":
        return build_stabilized_system(W, D, j, built.partition)
    return build_lagrange_system(W, D, j)


def gradient_probe(built: BuiltScenario) -> np.ndarray | None:
    """The gradient g, on the free edges, of a seeded random potential on
    the gauge nodes outside the conductors, or None when no gauge node lies
    in air: Factorization's probe for an original curl matrix A.  The curl
    annihilates g and no i*omega*sigma term reaches it, so A g is only
    -omega^2 M_eps g."""
    air = np.setdiff1d(built.gauge.gauge_nodes,
                       np.flatnonzero(built.material.tags.conductor_nodes))
    if not air.size:
        return None
    phi = np.zeros(built.mesh.n_nodes)
    phi[air] = np.random.default_rng(0).standard_normal(air.size)
    low, high = built.mesh.edges[built.edge.free].T
    return phi[high] - phi[low]


def curl_coordinates(built: BuiltScenario, method: str) -> np.ndarray:
    """Positions of the unknowns of a method's curl system, which order its
    LU: the free-edge midpoints, then the gauge nodes for the multipliers."""
    mesh = built.mesh
    mid = mesh.nodes[mesh.edges[built.edge.free]].mean(axis=1)
    if method == "lagrange":
        return np.vstack([mid, mesh.nodes[built.gauge.gauge_nodes]])
    return mid


def run_two_step(built: BuiltScenario, frequency: Excitation | float,
                 method: str, condition: bool = False) -> Solution:
    """Solve both steps for one frequency with the selected curl variant.

    Step one and the curl right-hand side come from an Excitation, which
    the sweep and convergence loops share among the methods of one
    frequency; given a frequency in Hz, the call solves its own.  The curl
    system is factored in mixed precision (see solve.Factorization),
    except with condition=True: its 2-norm condition estimate is then made
    on the double LU that ends the solve and stored on the Solution.  A
    curl-step SingularMatrixError carries the estimate as .condition:
    solve.refused_condition when no LU was accepted, or the estimate
    through the LU whose residual refused the solve (InaccurateSolveError),
    made before that LU is freed; so no caller factors the system again.
    The curl LU is freed once the solve returns, before gauge_residual
    forms G_kappa, and freed heap goes back to the OS before each LU is
    built (glibc only).

    Propagates SingularMatrixError: expected for the original variant at
    low frequency, where the gradient probe usually proves it before any
    LU, and raised by step one without a scalar Dirichlet node or, as
    StaticSingularityError, for a floating conductor at 0 Hz.
    """
    if not isinstance(frequency, Excitation):
        frequency = excitation(built, frequency)
    frequency, u_full, eqs_report, j_free = frequency
    omega = frequency.omega

    A, b = curl_system(built, omega, method, j_free)
    probe = gradient_probe(built) if method == "original" else None
    try:
        fac = Factorization(A, curl_coordinates(built, method),
                            mixed=not condition, probe=probe)
        rep = fac.checked_solve(b)
    except InaccurateSolveError as exc:  # estimated on its LU, before it is freed
        exc.condition = condition_estimate(fac.A, fac=fac) if condition else None
        raise
    except SingularMatrixError as exc:  # no LU was accepted
        exc.condition = refused_condition(A) if condition else None
        raise
    est = condition_estimate(fac.A, fac=fac) if condition else None
    del A, b, fac  # the LU is freed before gauge_residual builds G_kappa
    n_free = built.edge.n_free
    a_free = rep.x[:n_free]
    lam = rep.x[n_free:] if method == "lagrange" else None

    a_full = built.edge.full_vector(a_free)
    delta = gauge_residual(built.bundle, omega, a_full, built.gauge)
    return Solution(u=u_full, a=a_full, lam=lam, frequency=frequency,
                    method=method, delta_D=delta, curl_report=rep,
                    eqs_report=eqs_report, condition=est)


def gauge_residual(bundle: MatrixBundle, omega: float, a_full: np.ndarray,
                   gauge: GaugeGraph) -> float:
    """l2 norm of D_kappa a on the gauge rows, read off D_kappa = -G_kappa^T
    (system.kappa_coupling) as |G_kappa^T a_full| there: a_full is zero on
    the constrained edges, so the same terms add in the same edge order as
    with D_kappa cut to the free edges, and the norm is equal bit for bit."""
    div = kappa_coupling(bundle, omega).T @ a_full
    return float(np.linalg.norm(div[gauge.gauge_nodes]))


def hcurl_error(built: BuiltScenario, a_full: np.ndarray,
                case: ManufacturedCase) -> float:
    """H(curl) distance between the discrete and prescribed vector potential,
    by element quadrature one order above the assembly rule."""
    mesh = built.mesh
    pts, wts = tensor_quadrature(_ERROR_QUAD_ORDER)
    W, C = physical_edge_basis(mesh.spacing, pts)
    coeff = a_full[mesh.cell_edges]
    A_h = (coeff @ W.transpose(1, 0, 2).reshape(12, -1)).reshape(mesh.n_cells, -1, 3)
    curl_h = (coeff @ C.transpose(1, 0, 2).reshape(12, -1)).reshape(mesh.n_cells, -1, 3)
    phys = mesh.cell_origins()[:, None, :] + (pts[None, :, :] + 1.0) * (0.5 * mesh.spacing)
    flat = phys.reshape(-1, 3)
    dA = A_h - case.A(flat).reshape(A_h.shape)
    dC = curl_h - case.curl_A(flat).reshape(curl_h.shape)
    det = mesh.spacing.prod() / 8.0
    err2 = det * np.einsum("q,cq->", wts,
                           np.abs(dA) ** 2 @ np.ones(3) + np.abs(dC) ** 2 @ np.ones(3))
    return float(np.sqrt(err2))


# eps and sigma are each point's cell values, as (n, 1) columns.
_PointBase = namedtuple("_PointBase", "grad_phi A B eps sigma")
# points per basis evaluation: the (q, 12, 3) bases of a block are the
# pass's largest temporaries, so its memory does not grow with the sample
_FIELD_BLOCK = 2048


class DerivedFields:
    """The physical fields of a solution at one batch of points.

    The first evaluator call locates all the points at once, then evaluates
    both bases and the potentials block by block, _FIELD_BLOCK points at a
    time, into a read-only _PointBase.  E = -grad phi - i*omega*A, and D
    and J split into an electroquasistatic part from grad phi and a
    full-Maxwell part from i*omega*A; the totals add the impressed source
    current where one is defined.
    """

    def __init__(self, built: BuiltScenario, solution: Solution,
                 points: np.ndarray):
        if solution.u.shape[0] != built.mesh.n_nodes or \
                solution.a.shape[0] != built.mesh.n_edges:
            raise ValueError("solution dimensions do not match the scenario mesh")
        self.built = built
        self.solution = solution
        self.omega = solution.frequency.omega
        self.points = np.atleast_2d(np.asarray(points, dtype=float))

    @cached_property
    def _base(self) -> _PointBase:
        mesh = self.built.mesh
        u, a = self.solution.u, self.solution.a
        cells, ref = mesh.locate_points(self.points)
        grad_phi = np.empty((cells.size, 3), np.result_type(u, np.float64))
        A = np.empty((cells.size, 3), np.result_type(a, np.float64))
        B = np.empty_like(A)
        for s in range(0, cells.size, _FIELD_BLOCK):
            blk = slice(s, s + _FIELD_BLOCK)
            _, grads = physical_scalar_basis(mesh.spacing, ref[blk])
            W, C = physical_edge_basis(mesh.spacing, ref[blk])
            coeff = a[mesh.cell_edges[cells[blk]]]
            grad_phi[blk] = np.einsum("ql,qld->qd", u[mesh.cells[cells[blk]]], grads)
            A[blk] = np.einsum("ql,qld->qd", coeff, W)
            B[blk] = np.einsum("ql,qld->qd", coeff, C)
        base = _PointBase(
            grad_phi=grad_phi, A=A, B=B,
            eps=self.built.material.eps[cells][:, None],
            sigma=self.built.material.sigma[cells][:, None])
        for arr in base:
            arr.flags.writeable = False
        return base

    def grad_phi(self) -> np.ndarray:
        return self._base.grad_phi

    def vector_potential(self) -> np.ndarray:
        return self._base.A

    def B(self) -> np.ndarray:
        return self._base.B

    def E(self) -> np.ndarray:
        return -self.grad_phi() - 1j * self.omega * self.vector_potential()

    def D_e(self) -> np.ndarray:
        return -self._base.eps * self.grad_phi()

    def D_m(self) -> np.ndarray:
        return -1j * self.omega * self._base.eps * self.vector_potential()

    def J_e(self) -> np.ndarray:
        return -self._base.sigma * self.grad_phi()

    def J_m(self) -> np.ndarray:
        return -1j * self.omega * self._base.sigma * self.vector_potential()

    def J_source(self) -> np.ndarray:
        if self.built.mms is not None:
            return self.built.mms.J_s(self.points, self.omega)
        return np.zeros((self.points.shape[0], 3), dtype=complex)

    def D_total(self) -> np.ndarray:
        return self.D_e() + self.D_m()

    def J_total(self) -> np.ndarray:
        return self.J_e() + self.J_m() + self.J_source()
