"""Tree-cotree partition of the free edge DOFs.

The gauge graph has one vertex per mesh node that is neither an endpoint
of a constrained edge nor a Dirichlet node of the scalar space; all other
nodes collapse into a single virtual root.  A breadth-first spanning tree
of this graph marks the edge DOFs whose rows in the curl system become
redundant in the static limit: the tree count equals both the number of
gauge (divergence-constraint) rows and the kernel dimension of the
curl-curl matrix on the free edges.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .spaces import EdgeSpace, ScalarSpace


class UnsupportedTopologyError(ValueError):
    """The gauge graph is disconnected (domain not simply handled)."""


@dataclass(frozen=True)
class GaugeGraph:
    """Vertices are the gauge nodes plus an optional collapsed root."""

    n_vertices: int
    root: int | None               # vertex index of the virtual root
    gauge_nodes: np.ndarray        # mesh node ids owning a vertex, ascending
    edge_ids: np.ndarray           # global ids of the free edges; index = free position
    edge_vertices: np.ndarray      # (m, 2) vertex endpoints


def build_gauge_graph(mesh: Mesh, edge_space: EdgeSpace,
                      scalar_space: ScalarSpace) -> GaugeGraph:
    """Collapse constrained-edge endpoints and scalar Dirichlet nodes into
    one root vertex; graph edges are the free edge DOFs."""
    collapsed = np.zeros(mesh.n_nodes, dtype=bool)
    if edge_space.constrained.size:
        collapsed[mesh.edges[edge_space.constrained].ravel()] = True
    collapsed[scalar_space.constrained] = True

    gauge_nodes = np.flatnonzero(~collapsed)
    n_gauge = gauge_nodes.shape[0]
    has_root = bool(collapsed.any())
    root = n_gauge if has_root else None
    n_vertices = n_gauge + (1 if has_root else 0)

    vertex_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
    vertex_of_node[gauge_nodes] = np.arange(n_gauge)
    if has_root:
        vertex_of_node[collapsed] = root

    edge_ids = edge_space.free
    va = vertex_of_node[mesh.edges[edge_ids, 0]]
    vb = vertex_of_node[mesh.edges[edge_ids, 1]]
    return GaugeGraph(n_vertices=n_vertices, root=root, gauge_nodes=gauge_nodes,
                      edge_ids=edge_ids,
                      edge_vertices=np.stack([va, vb], axis=1))


def _adjacency(graph: GaugeGraph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_vertices)]
    for pos in range(graph.edge_ids.shape[0]):
        va, vb = graph.edge_vertices[pos]
        if va == vb:
            continue  # both endpoints collapsed; never a tree candidate
        adj[va].append((pos, vb))
        adj[vb].append((pos, va))
    return adj  # free positions ascend, so each list is edge-id sorted


def _bfs(graph: GaugeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search; returns (visited mask, tree edge positions)."""
    if graph.n_vertices == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    adj = _adjacency(graph)
    start = graph.root if graph.root is not None else 0
    visited = np.zeros(graph.n_vertices, dtype=bool)
    visited[start] = True
    queue = deque([start])
    tree = []
    while queue:
        v = queue.popleft()
        for pos, other in adj[v]:
            if not visited[other]:
                visited[other] = True
                tree.append(pos)
                queue.append(other)
    return visited, np.array(sorted(tree), dtype=np.int64)


@dataclass(frozen=True)
class TreeCotreePartition:
    """Split of the free edge DOFs into tree (T) and cotree (R) sets.

    Positions index the free-edge numbering.  perm lists free positions in
    [R | T] block order; restore_vector undoes a permuted solution.
    """

    n_free: int
    tree: np.ndarray     # free positions, ascending
    cotree: np.ndarray   # free positions, ascending

    @property
    def perm(self) -> np.ndarray:
        return np.concatenate([self.cotree, self.tree])

    def permute_vector(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[self.perm]

    def restore_vector(self, v_perm: np.ndarray) -> np.ndarray:
        out = np.empty_like(np.asarray(v_perm))
        out[self.perm] = v_perm
        return out

    def permute_matrix(self, A: sp.spmatrix) -> sp.csr_matrix:
        p = self.perm
        return A.tocsr()[p][:, p].tocsr()


def spanning_tree(graph: GaugeGraph) -> TreeCotreePartition:
    """BFS spanning tree from the root (or vertex 0), neighbors visited in
    ascending edge index; deterministic for identical inputs.

    Raises UnsupportedTopologyError if the gauge graph is disconnected.
    """
    visited, tree_pos = _bfs(graph)
    if not visited.all():
        missing = int(np.flatnonzero(~visited)[0])
        raise UnsupportedTopologyError(
            f"gauge graph is disconnected (vertex {missing} unreachable); "
            "only simply-connected box scenarios are supported")
    n_free = graph.edge_ids.shape[0]
    if tree_pos.shape[0] != max(graph.n_vertices - 1, 0):
        raise AssertionError("spanning tree size mismatch")  # pragma: no cover
    mask = np.zeros(n_free, dtype=bool)
    mask[tree_pos] = True
    return TreeCotreePartition(n_free=n_free, tree=tree_pos,
                               cotree=np.flatnonzero(~mask))
