"""Global sparse matrices, and the manufactured source and its load vectors.

All cells of a box mesh share one geometry, so assemble_bundle computes the
four unit-weight element matrices once and scatters all seven weighted
matrices of the bundle from them with per-cell material weights (the weak
divergences are read off the gradient couplings, D = -G^T); the bundle
stores them, and system.py combines them per frequency.  Only the nonzero
element entries of the cells with nonzero weight are scattered: the edge
functions of perpendicular edges of a box cell are orthogonal, so two
thirds of the edge-mass entries are exact zeros, and sigma vanishes outside
the conductors, so the sigma-weighted matrices are conductor-supported.
Every returned matrix is canonical CSR, and the scatter order is fixed
(cell-major), so repeated runs produce identical arrays.  Its data and
indices are exactly nnz long, not views into the scatter's buffers: the
bundle lives as long as its scenario, so it sits, with the tree-cotree
system and the LU's input copy, under every curl LU's peak.

The manufactured case, the one source, gives each component as terms
coef * fx(x) * fy(y) * fz(z).  A box cell's basis functions are products
of one factor per axis, so the order-7 tensor rule gives a term's moments
as products of three per-axis Gauss sums (sum factorization, Orszag 1980).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy import cos, sin
from scipy.constants import epsilon_0, mu_0

from .mesh import (LOCAL_EDGE_AXIS, LOCAL_EDGE_TRANSVERSE, NODE_OFFSETS, Mesh,
                   RegionTags)
from .spaces import (EdgeSpace, ScalarSpace, physical_edge_basis,
                     physical_scalar_basis, tensor_quadrature)

_QUAD_ORDER = 2  # exact for all bilinear forms on affine box cells

# Smooth (trigonometric) sources integrate to rounding level at order 7:
# on 2^3-8^3 the manufactured moments agree with order 10 within 4e-15 of
# the largest entry (order 6: 2e-12), so the current-charge compatibility
# identity holds at assembly accuracy, not at quadrature-error level.
_SOURCE_QUAD_ORDER = 7


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
        if np.any(self.sigma[~self.tags.conductor_cells] != 0):
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


def _assemble_cells(w: np.ndarray, elem: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """Sum w[c] * elem[i, j] into entry (rows[c, i], cols[c, j]), cell-major,
    over the cells c with w[c] != 0 and the entries with elem[i, j] != 0;
    the COO-to-CSR conversion sums the duplicates and sorts the indices.
    The returned data and indices own exactly nnz entries each."""
    cells = np.flatnonzero(w)
    li, lj = np.nonzero(elem)
    # indices in scipy's index dtype, so that it does not copy them down
    big = max(*shape, cells.size * li.size) > np.iinfo(np.int32).max
    idx = np.int64 if big else np.int32
    vals = w[cells, None] * elem[li, lj]
    r = rows.astype(idx)[cells][:, li]
    c = cols.astype(idx)[cells][:, lj]
    A = sp.coo_matrix((vals.ravel(), (r.ravel(), c.ravel())), shape=shape).tocsr()
    # Summing the duplicates leaves both arrays views into the COO-sized
    # buffers unless they shrink by half, and a view holds its whole buffer
    # for as long as the matrix lives.
    A.data, A.indices = A.data.copy(), A.indices.copy()
    return A


def assemble_mass(space: EdgeSpace, mat: MaterialField, weight: np.ndarray) -> sp.csr_matrix:
    """Edge mass matrix int w w_j . w_i over all edges, w = weight per cell
    (mat is unread)."""
    mesh = space.mesh
    return _assemble_cells(np.asarray(weight), element_matrices(mesh.spacing)["M"],
                           mesh.cell_edges, mesh.cell_edges,
                           (mesh.n_edges, mesh.n_edges))


def _cell_moments(mesh: Mesh, terms, signs: np.ndarray) -> np.ndarray:
    """(n_cells, len(signs)) moments of the terms (coef, fx, fy, fz) against
    the functions prod_a (1 + s_a xi_a) / 8 of each cell, one row s of
    signs per function: per term, coef times one Gauss sum per axis."""
    xi, w = np.polynomial.legendre.leggauss(_SOURCE_QUAD_ORDER)
    h, n = mesh.spacing, mesh.subdivisions
    pts = [np.linspace(*mesh.extents[a], n[a] + 1)[:-1, None]
           + (xi + 1.0) * (0.5 * h[a]) for a in range(3)]  # points of each cell row
    basis = [w[:, None] * (1.0 + np.outer(xi, signs[:, a])) for a in range(3)]
    total = np.zeros(n[::-1] + (len(signs),))
    for c, *factors in terms:
        sx, sy, sz = (f(p) @ b for f, p, b in zip(factors, pts, basis))
        total = total + c * np.einsum("il,jl,kl->kjil", sx, sy, sz)
    return h.prod() / 64.0 * total.reshape(mesh.n_cells, -1)


def assemble_charge_vector(scalar: ScalarSpace, rho) -> np.ndarray:
    """Load vector q[i] = int rho N_i over all nodes; rho is a tuple of
    terms (coef, fx, fy, fz)."""
    mesh = scalar.mesh
    out = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(out, mesh.cells, _cell_moments(mesh, rho, 2.0 * NODE_OFFSETS - 1.0))
    return out


def assemble_current_vector(edge: EdgeSpace, current) -> np.ndarray:
    """Load vector j[i] = int J . w_i over all edges; current holds one tuple
    of terms per component, and J_a meets only the functions along axis a."""
    mesh = edge.mesh
    out = np.zeros(mesh.n_edges, dtype=complex)
    for a in range(3):
        m = LOCAL_EDGE_AXIS == a
        signs = np.insert(LOCAL_EDGE_TRANSVERSE[m], a, 0.0, axis=1)
        np.add.at(out, mesh.cell_edges[:, m],
                  2.0 / mesh.spacing[a] * _cell_moments(mesh, current[a], signs))
    return out


def _field(table, points: np.ndarray) -> np.ndarray:
    """The components of a term table at points, as (n, components)."""
    x, y, z = np.atleast_2d(points).T
    return np.stack([sum((c * (fx(x) * fy(y) * fz(z)) for c, fx, fy, fz in terms),
                         np.zeros_like(x)) for terms in table], axis=1)


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form trigonometric solution on the box (pi/2, 3pi/2)^3.

    The prescribed vector potential is divergence-free, has zero tangential
    trace on the boundary, and satisfies curl(curl A) = 3A; the scalar
    potential vanishes on the boundary.  Uniform materials keep the complex
    conductivity constant so the implicit divergence gauge holds exactly;
    sigma is the only setting, and eps and nu are the vacuum's.  Each
    field is stated once, as one tuple per component of terms (coef, fx,
    fy, fz), each coef * fx(x) * fy(y) * fz(z), read at points by _field
    and by the load vectors' per-axis sums.
    """

    sigma: float = 0.0

    eps = epsilon_0
    nu = 1.0 / mu_0
    domain = ((np.pi / 2, 3 * np.pi / 2),) * 3
    phi_terms = ((1.0, cos, cos, cos),)
    A_terms = (((1.0, sin, cos, cos),), ((-2.0, cos, sin, cos),), ((1.0, cos, cos, sin),))
    grad_phi_terms = (((-1.0, sin, cos, cos),), ((-1.0, cos, sin, cos),),
                      ((-1.0, cos, cos, sin),))
    curl_A_terms = (((-3.0, cos, sin, sin),), (), ((3.0, sin, sin, cos),))

    def kappa(self, omega: float) -> complex:
        return self.sigma + 1j * omega * self.eps

    def A(self, points: np.ndarray) -> np.ndarray:
        return _field(self.A_terms, points)

    def phi(self, points: np.ndarray) -> np.ndarray:
        return _field((self.phi_terms,), points)[:, 0]

    def grad_phi(self, points: np.ndarray) -> np.ndarray:
        return _field(self.grad_phi_terms, points)

    def curl_A(self, points: np.ndarray) -> np.ndarray:
        return _field(self.curl_A_terms, points)

    def curl_curl_A(self, points: np.ndarray) -> np.ndarray:
        return 3.0 * self.A(points)

    def _current(self, omega: float, A: np.ndarray, grad_phi: np.ndarray) -> np.ndarray:
        """J_s = (3 nu + i omega kappa) A + kappa grad phi, at points or moments."""
        k = self.kappa(omega)
        return (3.0 * self.nu + 1j * omega * k) * A + k * grad_phi

    def J_s(self, points: np.ndarray, omega: float) -> np.ndarray:
        return self._current(omega, self.A(points), self.grad_phi(points))

    def charge_moments(self, scalar: ScalarSpace) -> tuple[np.ndarray, np.ndarray]:
        """The sigma- and eps-weighted parts (3*sigma*q, 3*eps*q) of the
        moments of -div(kappa grad phi) = 3*kappa*phi, over all nodes, with
        q[i] = int phi N_i; system.py weights them by its row rule."""
        q = assemble_charge_vector(scalar, self.phi_terms)
        return 3.0 * self.sigma * q, 3.0 * self.eps * q

    def current_vector(self, edge: EdgeSpace, omega: float) -> np.ndarray:
        """j_s over all edges."""
        return self._current(omega, assemble_current_vector(edge, self.A_terms),
                             assemble_current_vector(edge, self.grad_phi_terms))


@dataclass(frozen=True)
class MatrixBundle:
    """All frequency-independent matrices of one scenario, full entity size.

    Each holds only the nonzero element entries of the cells with nonzero
    weight, so K_sigma, G_sigma and M_sigma have entries only on the nodes
    and edges of conductor cells (none without a conductor).  Each operator
    is stored once: the weak weighted divergences D = -G^T are read off the
    couplings.  Lowest-order edge functions have discontinuous normal
    traces, so the divergence pairing is realized through integration by
    parts; the boundary term vanishes for test functions supported away from
    the boundary (the gauge rows).  The bundle only stores: system.py
    combines these per frequency, restricts them to the free DOFs and lifts
    the Dirichlet values, with right-hand sides from source.  The bundle is
    the one owner of the manufactured case; its spaces own the mesh.  No
    module of the package reads D_sigma or D_eps.
    """

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
    source: ManufacturedCase | None = None  # None: no source terms

    D_sigma = property(lambda self: (-self.G_sigma).T.tocsr())
    D_eps = property(lambda self: (-self.G_eps).T.tocsr())


def assemble_bundle(scalar: ScalarSpace, edge: EdgeSpace, material: MaterialField,
                    source: ManufacturedCase | None = None) -> MatrixBundle:
    """All seven weighted matrices from one set of element matrices: K, G and
    M weighted by sigma and by eps, and the curl-curl matrix by nu."""
    mesh = scalar.mesh
    elem = element_matrices(mesh.spacing)
    nodes, edges = mesh.cells, mesh.cell_edges
    n, e = mesh.n_nodes, mesh.n_edges
    return MatrixBundle(
        scalar=scalar, edge=edge, material=material,
        K_sigma=_assemble_cells(material.sigma, elem["K"], nodes, nodes, (n, n)),
        K_eps=_assemble_cells(material.eps, elem["K"], nodes, nodes, (n, n)),
        G_sigma=_assemble_cells(material.sigma, elem["G"], edges, nodes, (e, n)),
        G_eps=_assemble_cells(material.eps, elem["G"], edges, nodes, (e, n)),
        M_sigma=_assemble_cells(material.sigma, elem["M"], edges, edges, (e, e)),
        M_eps=_assemble_cells(material.eps, elem["M"], edges, edges, (e, e)),
        C_nu=_assemble_cells(material.nu, elem["C"], edges, edges, (e, e)),
        source=source)
