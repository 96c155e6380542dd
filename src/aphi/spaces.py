"""Discrete scalar (trilinear nodal) and vector (lowest-order edge) spaces.

The scalar space is H1-conforming with one DOF per mesh node, the edge
space H(curl)-conforming with one DOF per mesh edge (the circulation along
the edge, oriented low node to high node).  Basis evaluation maps the
reference cell [-1,1]^3 to the physical box cell; edge functions use the
covariant transform so tangential traces and circulations are preserved.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import (LOCAL_EDGE_AXIS, LOCAL_EDGE_TRANSVERSE, NODE_OFFSETS,
                   BoundaryTags, Mesh)

# Reference coordinates of local nodes, in {-1, +1}^3.
_NODE_REF = 2.0 * NODE_OFFSETS - 1.0


@lru_cache(maxsize=8)
def tensor_quadrature(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule on [-1,1]^3: ((n^3, 3) points, weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    pts = np.array([(a, b, c) for c in x for b in x for a in x])
    wts = np.array([wa * wb * wc for wc in w for wb in w for wa in w])
    return pts, wts


def scalar_shape(ref_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear shape functions: values (q, 8) and reference gradients (q, 8, 3)."""
    pts = np.atleast_2d(ref_pts)
    q = pts.shape[0]
    vals = np.empty((q, 8))
    grads = np.empty((q, 8, 3))
    for l in range(8):
        s = _NODE_REF[l]
        f = (1 + s[0] * pts[:, 0], 1 + s[1] * pts[:, 1], 1 + s[2] * pts[:, 2])
        vals[:, l] = 0.125 * f[0] * f[1] * f[2]
        grads[:, l, 0] = 0.125 * s[0] * f[1] * f[2]
        grads[:, l, 1] = 0.125 * s[1] * f[0] * f[2]
        grads[:, l, 2] = 0.125 * s[2] * f[0] * f[1]
    return vals, grads


def edge_shape(ref_pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-order edge functions: values (q, 12, 3), reference curls (q, 12, 3).

    Each function points along its edge axis; its circulation along the own
    edge is 1 and 0 along every other edge.
    """
    pts = np.atleast_2d(ref_pts)
    q = pts.shape[0]
    vals = np.zeros((q, 12, 3))
    curls = np.zeros((q, 12, 3))
    for m in range(12):
        axis = LOCAL_EDGE_AXIS[m]
        t1, t2 = [ax for ax in range(3) if ax != axis]
        s1, s2 = LOCAL_EDGE_TRANSVERSE[m]
        f1 = 1 + s1 * pts[:, t1]
        f2 = 1 + s2 * pts[:, t2]
        vals[:, m, axis] = 0.125 * f1 * f2
        # curl of f(t1,t2) e_axis: d/dt2 * e_t1-ish with cyclic signs
        # computed explicitly from the cross-product structure
        e = np.zeros(3)
        e[axis] = 1.0
        # partial derivatives of the scalar factor
        d = np.zeros((q, 3))
        d[:, t1] = 0.125 * s1 * f2
        d[:, t2] = 0.125 * s2 * f1
        # curl(f e) = grad f x e
        curls[:, m, 0] = d[:, 1] * e[2] - d[:, 2] * e[1]
        curls[:, m, 1] = d[:, 2] * e[0] - d[:, 0] * e[2]
        curls[:, m, 2] = d[:, 0] * e[1] - d[:, 1] * e[0]
    return vals, curls


def physical_scalar_basis(spacing: np.ndarray, ref_pts: np.ndarray):
    """Shape values and physical gradients for a cell of the given spacing."""
    vals, grads = scalar_shape(ref_pts)
    return vals, grads * (2.0 / np.asarray(spacing))[None, None, :]


def physical_edge_basis(spacing: np.ndarray, ref_pts: np.ndarray):
    """Edge function values and curls in physical coordinates, each running
    along +axis like the global edge it belongs to."""
    h = np.asarray(spacing, dtype=float)
    vals, curls = edge_shape(ref_pts)
    vals = vals * (2.0 / h)[None, None, :]
    scale = np.array([4.0 / (h[1] * h[2]), 4.0 / (h[0] * h[2]), 4.0 / (h[0] * h[1])])
    curls = curls * scale[None, None, :]
    return vals, curls


@dataclass(frozen=True)
class DirichletSpec:
    """Boundary constraints: (label, value) pairs for the scalar potential,
    label list for tangential-zero edge constraints.  Later scalar entries
    override earlier ones on shared nodes."""

    scalar: tuple[tuple[str, complex], ...] = ()
    edge: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScalarSpace:
    mesh: Mesh
    free: np.ndarray          # node ids, ascending
    constrained: np.ndarray   # node ids, ascending
    values: np.ndarray        # complex, one per constrained node

    @property
    def n_free(self) -> int:
        return self.free.shape[0]

    def full_vector(self, free_values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_nodes, dtype=complex)
        out[self.free] = free_values
        out[self.constrained] = self.values
        return out


@dataclass(frozen=True)
class EdgeSpace:
    mesh: Mesh
    free: np.ndarray
    constrained: np.ndarray

    @property
    def n_free(self) -> int:
        return self.free.shape[0]

    def full_vector(self, free_values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.mesh.n_edges, dtype=complex)
        out[self.free] = free_values
        return out


def build_scalar_space(mesh: Mesh, tags: BoundaryTags, spec: DirichletSpec) -> ScalarSpace:
    """Free/constrained node partition with prescribed values per label."""
    value = {}
    for label, val in spec.scalar:
        for n in tags[label].nodes:
            value[int(n)] = complex(val)
    constrained = np.array(sorted(value), dtype=np.int64)
    vals = np.array([value[n] for n in constrained], dtype=complex)
    mask = np.ones(mesh.n_nodes, dtype=bool)
    mask[constrained] = False
    free = np.flatnonzero(mask)
    return ScalarSpace(mesh=mesh, free=free, constrained=constrained, values=vals)


def build_edge_space(mesh: Mesh, tags: BoundaryTags, spec: DirichletSpec) -> EdgeSpace:
    """Free/constrained edge partition; constrained edges carry value 0."""
    mask = np.ones(mesh.n_edges, dtype=bool)
    for label in spec.edge:
        mask[tags[label].edges] = False
    free = np.flatnonzero(mask)
    constrained = np.flatnonzero(~mask)
    return EdgeSpace(mesh=mesh, free=free, constrained=constrained)


def gradient_incidence(mesh: Mesh) -> sp.csr_matrix:
    """Signed node-edge incidence P (n_edges x n_nodes).

    Row e of P has +1 at the high node and -1 at the low node of edge e, so
    P @ v is the edge interpolant of grad v for nodal values v.
    """
    e = np.arange(mesh.n_edges)
    rows = np.concatenate([e, e])
    cols = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    data = np.concatenate([np.ones(mesh.n_edges), -np.ones(mesh.n_edges)])
    return sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_edges, mesh.n_nodes))
