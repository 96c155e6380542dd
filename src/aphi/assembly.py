"""Global sparse matrix and source-vector assembly.

All cells of a box mesh share one geometry, so the unit-weight element
matrices are computed once per mesh and scattered with per-cell material
weights.  Assembly order is fixed (cell-major), and duplicate entries are
summed in canonical CSR order, so repeated runs produce identical arrays.

Source moments use the same shared geometry: the basis, weighted by the
Jacobian and the quadrature weights, is formed once, and the cells are
walked in fixed blocks.  Each block makes one source call on its 343
quadrature points per cell, laid out coordinate-major so that every
coordinate column is contiguous, and one matrix product with the weighted
basis, so the temporaries stay bounded by the block and not by the mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, RegionTags
from .spaces import (EdgeSpace, ScalarSpace, physical_edge_basis,
                     physical_scalar_basis, tensor_quadrature)

_QUAD_ORDER = 2  # exact for all bilinear forms on affine box cells

# Smooth (trigonometric) sources integrate to rounding level at order 7:
# on 2^3-8^3 the manufactured moments agree with order 10 within 4e-15 of
# the largest entry (order 6: 2e-12), so the current-charge compatibility
# identity holds at assembly accuracy, not at quadrature-error level.
_SOURCE_QUAD_ORDER = 7
# Cells per source call: bounds the temporaries, keeps each product large.
_SOURCE_CHUNK_CELLS = 256


class MaterialError(ValueError):
    pass


@dataclass(frozen=True)
class MaterialField:
    """Piecewise-constant conductivity, permittivity and reluctivity per cell.

    sigma in S/m (>= 0, exactly 0 on air cells), eps in F/m (> 0), nu in
    m/H (> 0).  The complex conductivity sigma + i*omega*eps is derived per
    frequency, never stored.
    """

    sigma: np.ndarray
    eps: np.ndarray
    nu: np.ndarray
    tags: RegionTags

    def __post_init__(self):
        # written so that nan fails every check
        if not all(np.all(np.isfinite(v)) for v in (self.sigma, self.eps, self.nu)):
            raise MaterialError("sigma, eps and nu must be finite everywhere")
        if not (np.all(self.eps > 0) and np.all(self.nu > 0)):
            raise MaterialError("eps and nu must be positive everywhere")
        if not np.all(self.sigma >= 0):
            raise MaterialError("sigma must be nonnegative")
        if np.any(self.sigma[self.tags.air_cells] != 0):
            raise MaterialError("sigma must vanish on air cells")
        if np.any(self.sigma[self.tags.conductor_cells] == 0):
            raise MaterialError("conductor cells must have sigma > 0")

    def kappa(self, omega: float) -> np.ndarray:
        return self.sigma + 1j * omega * self.eps

    @property
    def max_sigma(self) -> float:
        return float(self.sigma.max())

    @property
    def max_eps(self) -> float:
        return float(self.eps.max())

    @classmethod
    def uniform(cls, mesh: Mesh, tags: RegionTags, sigma: float, eps: float,
                nu: float) -> "MaterialField":
        n = mesh.n_cells
        return cls(sigma=np.full(n, float(sigma)), eps=np.full(n, float(eps)),
                   nu=np.full(n, float(nu)), tags=tags)


def element_matrices(spacing: np.ndarray) -> dict[str, np.ndarray]:
    """Unit-weight element matrices for one box cell.

    K: grad-grad (8x8), M: edge mass (12x12), C: curl-curl (12x12),
    G: grad-edge coupling (12x8) with G[i, j] = int w_i . grad N_j.
    """
    h = np.asarray(spacing, dtype=float)
    det = h.prod() / 8.0
    pts, wts = tensor_quadrature(_QUAD_ORDER)
    _, dN = physical_scalar_basis(h, pts)
    W, C = physical_edge_basis(h, pts)
    wd = wts * det
    K = np.einsum("q,qid,qjd->ij", wd, dN, dN)
    M = np.einsum("q,qid,qjd->ij", wd, W, W)
    Cc = np.einsum("q,qid,qjd->ij", wd, C, C)
    G = np.einsum("q,qid,qjd->ij", wd, W, dN)
    return {"K": K, "M": M, "C": Cc, "G": G}


def _resolve_weight(mat: MaterialField, weight) -> np.ndarray:
    if not isinstance(weight, str):
        return np.asarray(weight)
    try:
        return getattr(mat, weight)
    except AttributeError:
        raise ValueError(f"unknown material weight {weight!r}") from None


def _assemble_cells(w: np.ndarray, elem: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """Sum w[c] * elem[i, j] into entry (rows[c, i], cols[c, j]) over all
    cells c, cell-major, with duplicates summed in canonical CSR order."""
    vals = w[:, None, None] * elem[None, :, :]
    r = np.repeat(rows, cols.shape[1], axis=1)
    c = np.tile(cols, (1, rows.shape[1]))
    m = sp.coo_matrix((vals.ravel(), (r.ravel(), c.ravel())), shape=shape).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def assemble_grad_grad(space: ScalarSpace, mat: MaterialField, weight) -> sp.csr_matrix:
    """Weighted stiffness matrix int w grad N_j . grad N_i over all nodes."""
    mesh = space.mesh
    return _assemble_cells(_resolve_weight(mat, weight),
                           element_matrices(mesh.spacing)["K"],
                           mesh.cells, mesh.cells, (mesh.n_nodes, mesh.n_nodes))


def assemble_mass(space: EdgeSpace, mat: MaterialField, weight) -> sp.csr_matrix:
    """Weighted edge mass matrix int w w_j . w_i over all edges."""
    mesh = space.mesh
    return _assemble_cells(_resolve_weight(mat, weight),
                           element_matrices(mesh.spacing)["M"],
                           mesh.cell_edges, mesh.cell_edges,
                           (mesh.n_edges, mesh.n_edges))


def assemble_curl_curl(space: EdgeSpace, mat: MaterialField) -> sp.csr_matrix:
    """Reluctivity-weighted curl-curl matrix over all edges."""
    mesh = space.mesh
    return _assemble_cells(mat.nu, element_matrices(mesh.spacing)["C"],
                           mesh.cell_edges, mesh.cell_edges,
                           (mesh.n_edges, mesh.n_edges))


def assemble_grad_coupling(scalar: ScalarSpace, edge: EdgeSpace,
                           mat: MaterialField, weight) -> sp.csr_matrix:
    """Coupling G (n_edges x n_nodes) with G[i, j] = int w grad N_j . w_i."""
    mesh = scalar.mesh
    return _assemble_cells(_resolve_weight(mat, weight),
                           element_matrices(mesh.spacing)["G"],
                           mesh.cell_edges, mesh.cells,
                           (mesh.n_edges, mesh.n_nodes))


def _source_moments(mesh: Mesh, source: Callable, basis: np.ndarray,
                    dofs: np.ndarray, n: int) -> np.ndarray:
    """Load vector of n entries: int source . phi_l of each cell into dofs[cell, l].

    basis is the local basis at the source quadrature points, (q, c, nloc)
    with c = 1 for a scalar and c = 3 for a vector source.  Cells go in
    blocks of _SOURCE_CHUNK_CELLS: one source call per block on its points,
    coordinate-major, then one matrix product with the weighted basis.
    """
    pts, wts = tensor_quadrature(_SOURCE_QUAD_ORDER)
    h = mesh.spacing
    nloc = basis.shape[2]
    Bq = (h.prod() / 8.0 * wts[:, None, None] * basis).reshape(-1, nloc)
    # C-ordered (3, n) operands, so each block's sum is coordinate-major
    offsets = np.ascontiguousarray(((pts + 1.0) * (0.5 * h)).T)
    origins = np.ascontiguousarray(mesh.cell_origins().T)
    moments = []
    for start in range(0, mesh.n_cells, _SOURCE_CHUNK_CELLS):
        block = origins[:, start:start + _SOURCE_CHUNK_CELLS]
        points = (block[:, :, None] + offsets[:, None, :]).reshape(3, -1).T
        vals = np.asarray(source(points)).reshape(block.shape[1], -1)
        moments.append(vals @ Bq)
    contrib = np.concatenate(moments)
    out = np.zeros(n, dtype=contrib.dtype)
    np.add.at(out, dofs, contrib)
    return out.astype(complex)


def assemble_charge_vector(scalar: ScalarSpace, rho: Callable) -> np.ndarray:
    """Load vector q[i] = int rho N_i over all nodes."""
    mesh = scalar.mesh
    N, _ = physical_scalar_basis(mesh.spacing, tensor_quadrature(_SOURCE_QUAD_ORDER)[0])
    return _source_moments(mesh, rho, N[:, None, :], mesh.cells, mesh.n_nodes)


def assemble_current_vector(edge: EdgeSpace, current: Callable) -> np.ndarray:
    """Load vector j[i] = int J . w_i over all edges."""
    mesh = edge.mesh
    W, _ = physical_edge_basis(mesh.spacing, tensor_quadrature(_SOURCE_QUAD_ORDER)[0])
    return _source_moments(mesh, current, W.transpose(0, 2, 1), mesh.cell_edges,
                           mesh.n_edges)


class SourceModel(Protocol):
    """Volume sources of a scenario, assembled per frequency."""

    def eqs_rhs(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        """i*omega*q_s over all nodes, the right-hand side of the conductor
        rows of the scalar system at every omega; must stay finite as
        omega -> 0."""

    def charge_vector(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        """q_s over all nodes, the right-hand side of the air rows of the
        scalar system at every omega; may raise where the charge density is
        undefined (it is not called for a scenario without air rows)."""

    def current_vector(self, edge: EdgeSpace, omega: float) -> np.ndarray:
        """j_s over all edges."""


@dataclass(frozen=True)
class NoSource:
    def eqs_rhs(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        return np.zeros(scalar.entity_count, dtype=complex)

    def charge_vector(self, scalar: ScalarSpace, omega: float) -> np.ndarray:
        return np.zeros(scalar.entity_count, dtype=complex)

    def current_vector(self, edge: EdgeSpace, omega: float) -> np.ndarray:
        return np.zeros(edge.entity_count, dtype=complex)


@dataclass(frozen=True)
class MatrixBundle:
    """All frequency-independent matrices of one scenario, full entity size.

    Frequency-dependent systems are scalar combinations of these; free-DOF
    restriction and Dirichlet lifts happen when the per-frequency systems
    are formed.
    """

    mesh: Mesh
    scalar: ScalarSpace
    edge: EdgeSpace
    material: MaterialField
    K_sigma: sp.csr_matrix
    K_eps: sp.csr_matrix
    G_sigma: sp.csr_matrix
    G_eps: sp.csr_matrix
    M_sigma: sp.csr_matrix
    M_eps: sp.csr_matrix
    C_nu: sp.csr_matrix
    # Weak weighted divergences D = -G^T (n_nodes x n_edges).  Lowest-order
    # edge functions have discontinuous normal traces, so the divergence
    # pairing is realized through integration by parts; the boundary term
    # vanishes for test functions supported away from the boundary (the
    # gauge rows used downstream).
    D_sigma: sp.csr_matrix
    D_eps: sp.csr_matrix
    source: SourceModel = field(default_factory=NoSource)

    def K_kappa(self, omega: float) -> sp.csr_matrix:
        return (self.K_sigma + 1j * omega * self.K_eps).tocsr()

    def G_kappa(self, omega: float) -> sp.csr_matrix:
        return (self.G_sigma + 1j * omega * self.G_eps).tocsr()

    def D_kappa(self, omega: float) -> sp.csr_matrix:
        return (self.D_sigma + 1j * omega * self.D_eps).tocsr()


def assemble_bundle(scalar: ScalarSpace, edge: EdgeSpace, material: MaterialField,
                    source: SourceModel | None = None) -> MatrixBundle:
    G_sigma = assemble_grad_coupling(scalar, edge, material, "sigma")
    G_eps = assemble_grad_coupling(scalar, edge, material, "eps")
    return MatrixBundle(
        mesh=scalar.mesh, scalar=scalar, edge=edge, material=material,
        K_sigma=assemble_grad_grad(scalar, material, "sigma"),
        K_eps=assemble_grad_grad(scalar, material, "eps"),
        G_sigma=G_sigma,
        G_eps=G_eps,
        M_sigma=assemble_mass(edge, material, "sigma"),
        M_eps=assemble_mass(edge, material, "eps"),
        C_nu=assemble_curl_curl(edge, material),
        D_sigma=(-G_sigma).T.tocsr(),
        D_eps=(-G_eps).T.tocsr(),
        source=source if source is not None else NoSource(),
    )
