"""Two-step solve orchestration, derived fields, and verification cases.

Step one computes the scalar potential (the frequency-scaled
complex-conductivity Poisson problem, one system down to omega = 0); step
two the vector potential from the curl system, with the original,
tree-cotree stabilized, or Lagrange-multiplier variant.  The manufactured
trigonometric case, the only source, fills both steps' right-hand sides.

Discrete gradients are the kernel of the curl, and in air only
omega^2 M_eps holds them, so run_two_step hands solve.Factorization one
such gradient (gradient_probe) with an original system, which can then
be proven singular before any LU; the gauged variants, refused where the
tree cannot span the kernel (curl_system), are never probed.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.constants import epsilon_0, mu_0

from .assembly import (MatrixBundle, MaterialField, assemble_charge_vector,
                       assemble_current_vector)
from .gauge import (GaugeGraph, TreeCotreePartition, UnsupportedTopologyError,
                    curl_kernel_dimension)
from .mesh import Mesh
from .solve import (ConditionEstimate, Factorization, SolveReport,
                    condition_estimate, sparse_lu_solve)
from .spaces import (EdgeSpace, ScalarSpace, gradient_incidence,
                     physical_edge_basis, physical_scalar_basis,
                     tensor_quadrature)
from .system import (FrequencyPoint, build_curl_matrix, build_eqs_static_limit,
                     build_eqs_system, build_lagrange_system, build_rhs,
                     build_scaled_divergence, build_stabilized_system,
                     kappa_divergence, scaling_factors)

METHODS = ("original", "tree-cotree", "lagrange")

_ERROR_QUAD_ORDER = 3  # one order above assembly quadrature


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form trigonometric solution on the box (pi/2, 3pi/2)^3.

    The prescribed vector potential is divergence-free, has zero tangential
    trace on the boundary, and satisfies curl(curl A) = 3A; the scalar
    potential vanishes on the boundary.  Uniform materials keep the complex
    conductivity constant so the implicit divergence gauge holds exactly.
    """

    sigma: float = 0.0
    eps: float = epsilon_0
    nu: float = 1.0 / mu_0

    domain = ((np.pi / 2, 3 * np.pi / 2),) * 3

    def kappa(self, omega: float) -> complex:
        return self.sigma + 1j * omega * self.eps

    def A(self, points: np.ndarray) -> np.ndarray:
        x, y, z = np.atleast_2d(points).T
        return np.stack([np.sin(x) * np.cos(y) * np.cos(z),
                         -2.0 * np.cos(x) * np.sin(y) * np.cos(z),
                         np.cos(x) * np.cos(y) * np.sin(z)], axis=1)

    def phi(self, points: np.ndarray) -> np.ndarray:
        x, y, z = np.atleast_2d(points).T
        return np.cos(x) * np.cos(y) * np.cos(z)

    def grad_phi(self, points: np.ndarray) -> np.ndarray:
        x, y, z = np.atleast_2d(points).T
        return np.stack([-np.sin(x) * np.cos(y) * np.cos(z),
                         -np.cos(x) * np.sin(y) * np.cos(z),
                         -np.cos(x) * np.cos(y) * np.sin(z)], axis=1)

    def curl_A(self, points: np.ndarray) -> np.ndarray:
        x, y, z = np.atleast_2d(points).T
        return 3.0 * np.stack([-np.cos(x) * np.sin(y) * np.sin(z),
                               np.zeros_like(x),
                               np.sin(x) * np.sin(y) * np.cos(z)], axis=1)

    def curl_curl_A(self, points: np.ndarray) -> np.ndarray:
        return 3.0 * self.A(points)

    def J_s(self, points: np.ndarray, omega: float) -> np.ndarray:
        """(3 nu + i omega kappa) A + kappa grad phi, with the six sines and
        cosines shared by both terms (same products as A and grad_phi)."""
        x, y, z = np.atleast_2d(points).T
        sx, sy, sz = np.sin(x), np.sin(y), np.sin(z)
        cx, cy, cz = np.cos(x), np.cos(y), np.cos(z)
        A = np.stack([sx * cy * cz, -2.0 * cx * sy * cz, cx * cy * sz], axis=1)
        grad_phi = np.stack([-sx * cy * cz, -cx * sy * cz, -cx * cy * sz], axis=1)
        k = self.kappa(omega)
        return (3.0 * self.nu + 1j * omega * k) * A + k * grad_phi

    def rho_s(self, points: np.ndarray, omega: float) -> np.ndarray:
        if self.sigma == 0.0:
            return 3.0 * self.eps * self.phi(points)
        if omega == 0.0:
            raise ValueError("charge density undefined at omega = 0 for sigma > 0; "
                             "run the static check without the manufactured charge")
        return 3.0 * self.kappa(omega) * self.phi(points) / (1j * omega)

    def eqs_rhs(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        """i*omega*q_s over all nodes (the scalar system's conductor rows),
        from the finite 3*kappa*phi, so it stays finite as omega -> 0."""
        k = self.kappa(omega)
        return assemble_charge_vector(scalar, lambda p: 3.0 * k * self.phi(p))

    def charge_vector(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        """q_s over all nodes (the scalar system's air rows); raises where
        rho_s is undefined, so it is not called without air rows."""
        return assemble_charge_vector(scalar, lambda p: self.rho_s(p, omega))

    def current_vector(self, edge: EdgeSpace, omega: float) -> np.ndarray:
        """j_s over all edges."""
        return assemble_current_vector(edge, lambda p: self.J_s(p, omega))


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
    if omega == 0.0:
        K, rhs = build_eqs_static_limit(built.bundle)  # floating-conductor check
    else:
        K, rhs = build_eqs_system(built.bundle, omega)
    rep = sparse_lu_solve(K, rhs, built.mesh.nodes[built.scalar.free])
    return built.scalar.full_vector(rep.x), rep


Excitation = namedtuple("Excitation", "frequency u eqs_report j_free")


def excitation(built: BuiltScenario, frequency: FrequencyPoint | float) -> Excitation:
    """Step one and the curl right-hand side on the free edges, which every
    curl method at this frequency shares; the arrays are read-only."""
    if not isinstance(frequency, FrequencyPoint):
        frequency = FrequencyPoint(float(frequency))
    u_full, report = solve_eqs_step(built, frequency.omega)
    j_free = build_rhs(built.bundle, frequency.omega, u_full)
    for arr in (u_full, report.x, j_free):
        arr.flags.writeable = False
    return Excitation(frequency, u_full, report, j_free)


def curl_system(built: BuiltScenario, omega: float, method: str,
                j: np.ndarray | None = None) -> tuple[sp.csr_matrix, np.ndarray]:
    """The curl system A x = b of one method at one frequency.

    j is the curl right-hand side on the free edges (zero if omitted).  x
    is the free-edge vector, followed for lagrange by the multipliers; its
    unknowns are placed by curl_coordinates.  A gauged method raises
    UnsupportedTopologyError when its tree count differs from the static
    curl kernel's dimension, since that system is then singular.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method != "original":
        kernel = curl_kernel_dimension(built.mesh, built.edge)
        if built.partition.tree.size != kernel:
            raise UnsupportedTopologyError(
                f"{method}: {built.partition.tree.size} tree edges cannot span "
                f"a static curl kernel of dimension {kernel}; every phi face "
                "must be an a_zero face, and the a_zero faces one piece")
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
    return (gradient_incidence(built.mesh) @ phi)[built.edge.free]


def curl_coordinates(built: BuiltScenario, method: str) -> np.ndarray:
    """Positions of the unknowns of a method's curl system, which order its
    LU: the free-edge midpoints, then the gauge nodes for the multipliers."""
    mesh = built.mesh
    mid = mesh.nodes[mesh.edges[built.edge.free]].mean(axis=1)
    if method == "lagrange":
        return np.vstack([mid, mesh.nodes[built.gauge.gauge_nodes]])
    return mid


def run_two_step(built: BuiltScenario, frequency: Excitation | FrequencyPoint | float,
                 method: str, condition: bool = False) -> Solution:
    """Solve both steps for one frequency with the selected curl variant.

    Step one and the curl right-hand side come from an Excitation, which
    the sweep and convergence loops share among the methods of one
    frequency; given a frequency, the call solves its own.  The curl
    system is factored in mixed precision (see solve.Factorization),
    except with condition=True: the 2-norm condition estimate of the curl
    system is then computed on the double LU that solved it and stored on
    the Solution.

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
    fac = Factorization(A, curl_coordinates(built, method), mixed=not condition,
                        probe=probe)
    rep = fac.checked_solve(b)
    est = condition_estimate(A, fac=fac) if condition else None
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
    """l2 norm of the discrete kappa-weighted divergence of the solution."""
    D = kappa_divergence(bundle, omega, gauge)
    return float(np.linalg.norm(D @ a_full[bundle.edge.free]))


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


class DerivedFields:
    """The physical fields of a solution at one batch of points.

    The first evaluator call locates the points and evaluates both bases
    once, keeping a read-only _PointBase.  E = -grad phi - i*omega*A, and D
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
        cells, ref = mesh.locate_points(self.points)
        _, grads = physical_scalar_basis(mesh.spacing, ref)
        W, C = physical_edge_basis(mesh.spacing, ref)
        coeff = self.solution.a[mesh.cell_edges[cells]]
        base = _PointBase(
            grad_phi=np.einsum("ql,qld->qd", self.solution.u[mesh.cells[cells]], grads),
            A=np.einsum("ql,qld->qd", coeff, W),
            B=np.einsum("ql,qld->qd", coeff, C),
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
