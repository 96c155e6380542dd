"""Per-frequency linear systems of the two-step formulation.

Step one is the scalar-potential (electroquasistatic) system, frequency
scaled so that it keeps its static limit; step two the curl system for the
vector potential, either in its original form, with a Lagrange multiplier
enforcing the scaled divergence constraint, or with the tree rows replaced
by that constraint (the square stabilized system).  Both the scalar system
and the constraint take conductor-node rows from the complex conductivity
and air-node rows from the permittivity alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import MatrixBundle
from .gauge import GaugeGraph, TreeCotreePartition, node_components
from .solve import SingularMatrixError

DEFAULT_SIGMA_ART = 1e-6


class StaticSingularityError(SingularMatrixError):
    """A conductor component has no scalar Dirichlet node at omega = 0."""

    def __init__(self, component_node: int):
        super().__init__(
            f"floating conductor component (contains node {component_node}) "
            "makes the static current-flow block singular")
        self.component_node = component_node


@dataclass(frozen=True)
class FrequencyPoint:
    """Ordinary frequency in Hz with the derived angular frequency."""

    f: float

    def __post_init__(self):
        if not (np.isfinite(self.f) and self.f >= 0):
            raise ValueError(f"frequency must be finite and >= 0, got {self.f}")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.f


@dataclass(frozen=True)
class ScalingFactors:
    beta: float
    gamma: float

    def __post_init__(self):
        if self.beta <= 0 or self.gamma <= 0:
            raise ValueError("scaling factors must be positive")


def scaling_factors(omega: float, material) -> ScalingFactors:
    """beta = 1 + omega, gamma = (1 + omega)(max sigma + DEFAULT_SIGMA_ART)/max eps."""
    beta = 1.0 + omega
    gamma = (1.0 + omega) * (material.max_sigma + DEFAULT_SIGMA_ART) / material.max_eps
    return ScalingFactors(beta=beta, gamma=gamma)


def _region_rows(cond: np.ndarray, kappa_op: sp.spmatrix,
                 eps_op: sp.spmatrix) -> sp.csr_matrix:
    """Rows of kappa_op where cond holds (conductor nodes), of eps_op elsewhere."""
    c = cond.astype(float)
    return (sp.diags(c) @ kappa_op + sp.diags(1.0 - c) @ eps_op).tocsr()


def build_eqs_system(bundle: MatrixBundle, omega: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """Frequency-scaled scalar-potential system on free nodes.

    Conductor-node rows are K_kappa u = i*omega*q_s; air-node rows, where
    K_kappa = i*omega*K_eps, are divided by i*omega to K_eps u = q_s.  The
    matrix therefore stays regular as omega -> 0 (given no floating
    conductor), where it is the block lower-triangular static limit:
    stationary current flow in the conductors, electrostatics in air.  The
    Dirichlet lift goes to the right-hand side.  Without a Dirichlet node
    the constants lie in the kernel at every frequency, which raises
    SingularMatrixError.
    """
    scal = bundle.scalar
    if not scal.constrained.size:
        raise SingularMatrixError(
            "no scalar Dirichlet node (phi line): constant potentials make "
            "the scalar-potential system singular")
    cond = bundle.material.tags.conductor_nodes
    K = _region_rows(cond, bundle.K_kappa(omega), bundle.K_eps)
    rhs = np.zeros(scal.n_free, dtype=complex)
    source = bundle.source
    if source is not None:
        # each source is evaluated only where its rows exist: the charge
        # density of a conductor may be undefined at omega = 0
        in_cond = cond[scal.free]
        if in_cond.any():
            rhs[in_cond] = source.eqs_rhs(scal, omega)[scal.free[in_cond]]
        if not in_cond.all():
            rhs[~in_cond] = source.charge_vector(scal, omega)[scal.free[~in_cond]]
    rhs = rhs - K[scal.free][:, scal.constrained] @ scal.values
    return K[scal.free][:, scal.free].tocsr(), rhs


def build_eqs_static_limit(bundle: MatrixBundle) -> tuple[sp.csr_matrix, np.ndarray]:
    """The scalar system at omega = 0; raises StaticSingularityError for
    floating conductor components (no Dirichlet node)."""
    _check_conductor_components(bundle)
    return build_eqs_system(bundle, 0.0)


def _check_conductor_components(bundle: MatrixBundle) -> None:
    """Raise for the first conductor component with no Dirichlet node."""
    tags = bundle.material.tags
    labels = node_components(bundle.scalar.mesh, tags.conductor_edges)[1]
    floating = np.setdiff1d(labels[tags.conductor_nodes],
                            labels[bundle.scalar.constrained])
    if floating.size:  # a conductor component holds conductor nodes only
        raise StaticSingularityError(int(np.flatnonzero(labels == floating[0])[0]))


def build_curl_matrix(bundle: MatrixBundle, omega: float) -> sp.csr_matrix:
    """W = C_nu + i*omega*M_sigma - omega^2*M_eps on free edges (complex
    symmetric; rank-deficient by the tree count at omega = 0)."""
    fe = bundle.edge.free
    W = bundle.C_nu + 1j * omega * bundle.M_sigma - omega ** 2 * bundle.M_eps
    return W[fe][:, fe]  # complex CSR: the i*omega term makes it complex


def build_rhs(bundle: MatrixBundle, omega: float, u_full: np.ndarray) -> np.ndarray:
    """Right-hand side j(u) = j_s - G_kappa u on free edges; u includes the
    prescribed Dirichlet values, and j_s is 0 without a source."""
    source = bundle.source
    j_s = 0.0 if source is None else source.current_vector(bundle.edge, omega)
    return (j_s - bundle.G_kappa(omega) @ u_full)[bundle.edge.free]


def build_scaled_divergence(bundle: MatrixBundle, omega: float,
                            factors: ScalingFactors,
                            gauge: GaugeGraph) -> sp.csr_matrix:
    """Region-scaled divergence constraint rows (gauge nodes x free edges).

    Conductor-node rows carry the complex-conductivity weighting
    beta * (D_sigma + i*omega*D_eps); air-node rows the permittivity
    weighting gamma * D_eps.  Every row keeps a frequency-independent part
    (sigma in the conductor, eps in air), so none vanishes at omega = 0,
    while for omega > 0 each row is a positive multiple of the implicit
    divergence constraint already satisfied by the unstabilized solution.
    """
    cond = bundle.material.tags.conductor_nodes
    core = _region_rows(cond, bundle.D_kappa(omega), bundle.D_eps)
    row_scale = np.where(cond, factors.beta, factors.gamma)
    D = sp.diags(row_scale) @ core
    return D.tocsr()[gauge.gauge_nodes][:, bundle.edge.free].tocsr()


def kappa_divergence(bundle: MatrixBundle, omega: float,
                     gauge: GaugeGraph) -> sp.csr_matrix:
    """Unscaled, true-kappa weak divergence on the gauge rows; this is the
    operator behind the delta_D diagnostic, independent of beta/gamma."""
    D = bundle.D_kappa(omega)
    return D[gauge.gauge_nodes][:, bundle.edge.free].tocsr()


def build_lagrange_system(W: sp.spmatrix, D: sp.spmatrix,
                          rhs: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Saddle system [[W, D^T], [D, 0]] [a; lambda] = [j; 0]."""
    if D.shape[1] != W.shape[0]:
        raise ValueError(f"divergence columns {D.shape[1]} != system size {W.shape[0]}")
    S = sp.bmat([[W, D.T], [D, None]], format="csr")
    b = np.concatenate([rhs, np.zeros(D.shape[0], dtype=complex)])
    return S, b


def build_stabilized_system(W: sp.spmatrix, D: sp.spmatrix, rhs: np.ndarray,
                            partition: TreeCotreePartition
                            ) -> tuple[sp.csr_matrix, np.ndarray]:
    """Square system in free-edge order: cotree rows of W, and in each
    (statically redundant) tree row the divergence row of the gauge vertex
    that tree edge reaches.  The unknown is the free-edge vector itself.
    """
    if D.shape[0] != partition.tree.shape[0]:
        raise AssertionError(
            f"divergence rows {D.shape[0]} != tree count {partition.tree.shape[0]}; "
            "gauge construction invariant violated")
    n = W.shape[0]
    rows = np.arange(n)
    rows[partition.tree] = n + partition.tree_vertex
    S = sp.vstack([W, D]).tocsr()[rows]
    b = np.array(rhs, dtype=complex)
    b[partition.tree] = 0.0
    return S, b
