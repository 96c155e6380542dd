"""Per-frequency linear systems of the two-step formulation.

Step one is the scalar-potential (electroquasistatic) system, frequency
scaled so that it keeps its static limit; step two the curl system for the
vector potential, either in its original form, with a Lagrange multiplier
enforcing the scaled divergence constraint, or with the tree rows replaced
by that constraint (the square stabilized system).  The bundle stores
sigma- and eps-weighted matrices, and its source gives such charge
moments; only this module combines them, by one row rule (_row_rule) on
both sides of the scalar system and on the constraint: X_sigma + diag(w)
X_eps, w = i*omega on conductor-node rows (complex conductivity) and 1 on
air-node rows (permittivity alone), exact as an air node's sigma-weighted
row is empty.  kappa_coupling is the one statement of G_kappa = G_sigma +
i*omega*G_eps, for step two's right-hand side and delta_D.  Builders
return canonical CSR.
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
    """Ordinary frequency in Hz with the derived angular frequency, whose
    square (in the curl matrix) must not overflow."""

    f: float

    def __post_init__(self):
        if not (np.isfinite(self.f) and self.f >= 0):
            raise ValueError(f"frequency must be finite and >= 0, got {self.f}")
        if self.omega > np.sqrt(np.finfo(float).max):
            raise ValueError(f"frequency {self.f:g} Hz is too high: omega^2 "
                             "overflows a double")

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


def _row_weights(omega: float, cond: np.ndarray) -> np.ndarray:
    """i*omega on the rows where cond holds (conductor nodes), 1 elsewhere."""
    return np.where(cond, 1j * omega, 1.0)


def _row_rule(omega: float, cond: np.ndarray, X_sigma: sp.spmatrix,
              X_eps: sp.spmatrix) -> sp.csr_matrix:
    """X_sigma + diag(w) X_eps, w = _row_weights(omega, cond); canonical CSR
    in and out."""
    wX = X_eps.astype(complex)
    wX.data *= np.repeat(_row_weights(omega, cond), np.diff(wX.indptr))
    return X_sigma + wX


def build_eqs_system(bundle: MatrixBundle, omega: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """Frequency-scaled scalar-potential system on free nodes.

    By the row rule on both sides, conductor-node rows are (K_sigma +
    i*omega*K_eps) u = q_sigma + i*omega*q_eps, and air-node rows, whose
    sigma-weighted parts are empty, are divided by i*omega to K_eps u =
    q_eps, with (q_sigma, q_eps) the source's charge_moments (0 without a
    source), plus the Dirichlet lift.  The matrix thus stays regular down
    to omega = 0, the block lower-triangular static limit (current flow in
    the conductors, electrostatics in air), where a floating conductor
    raises StaticSingularityError.  Without a Dirichlet node the constants
    lie in the kernel at every frequency, which raises SingularMatrixError.
    """
    scal = bundle.scalar
    if not scal.constrained.size:
        raise SingularMatrixError(
            "no scalar Dirichlet node (phi line): constant potentials make "
            "the scalar-potential system singular")
    if omega == 0.0:
        _check_conductor_components(bundle)
    free = scal.free
    cond = bundle.material.tags.conductor_nodes[free]
    K = _row_rule(omega, cond, bundle.K_sigma[free], bundle.K_eps[free])
    rhs = np.zeros(scal.n_free, dtype=complex)
    if bundle.source is not None:
        q_sigma, q_eps = bundle.source.charge_moments(scal)
        rhs = q_sigma[free] + _row_weights(omega, cond) * q_eps[free]
    rhs = rhs - K[:, scal.constrained] @ scal.values
    return K[:, free], rhs


def build_eqs_static_limit(bundle: MatrixBundle) -> tuple[sp.csr_matrix, np.ndarray]:
    return build_eqs_system(bundle, 0.0)  # the scalar system at omega = 0


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


def kappa_coupling(bundle: MatrixBundle, omega: float) -> sp.csr_matrix:
    """G_kappa = G_sigma + i*omega*G_eps on all edges x all nodes, the
    complex-conductivity coupling of step one's potential to step two."""
    return bundle.G_sigma + 1j * omega * bundle.G_eps


def build_rhs(bundle: MatrixBundle, omega: float, u_full: np.ndarray) -> np.ndarray:
    """j(u) = j_s - G_kappa u on free edges, u with its Dirichlet values;
    j_s is 0 without a source."""
    source = bundle.source
    j_s = 0.0 if source is None else source.current_vector(bundle.edge, omega)
    return (j_s - kappa_coupling(bundle, omega) @ u_full)[bundle.edge.free]


def build_scaled_divergence(bundle: MatrixBundle, omega: float,
                            factors: ScalingFactors,
                            gauge: GaugeGraph) -> sp.csr_matrix:
    """Region-scaled divergence constraint rows (gauge nodes x free edges).

    By the row rule, conductor-node rows are beta * (D_sigma +
    i*omega*D_eps), air-node rows gamma * D_eps.  Every row keeps a
    frequency-independent part (sigma in the conductor, eps in air), so
    none vanishes at omega = 0, while for omega > 0 each row is a positive
    multiple of the implicit divergence constraint already satisfied by
    the unstabilized solution.
    """
    fe, gn = bundle.edge.free, gauge.gauge_nodes
    cond = bundle.material.tags.conductor_nodes[gn]
    D = _row_rule(omega, cond, *((-G[fe][:, gn]).T.tocsr()
                                 for G in (bundle.G_sigma, bundle.G_eps)))
    D.data *= np.repeat(np.where(cond, factors.beta, factors.gamma), np.diff(D.indptr))
    return D


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
