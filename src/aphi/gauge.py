"""Tree-cotree partition of the free edge DOFs.

The gauge graph has one vertex per mesh node that is neither an endpoint
of a constrained edge nor a Dirichlet node of the scalar space; all other
nodes, or node 0 alone when nothing is constrained, collapse into a single
virtual root, so every graph is rooted.  The root is the last vertex, and
the graph's edges are the free edge DOFs in their free order, so neither
needs storing.  A breadth-first spanning tree of this graph marks the edge
DOFs whose rows in the curl system become redundant in the static limit:
the tree count equals the number of gauge (divergence-constraint) rows.
Each tree edge is paired with the vertex it reaches, whose divergence row
takes the place of its curl row.

The static curl kernel on the free edges holds the gradients of potentials
constant on each piece of the constrained edges (curl_kernel_dimension).
The tree count equals its dimension only when every scalar Dirichlet node
lies on a constrained edge and those edges form one piece; otherwise the
gauged systems stay singular.  node_components also serves the
floating-conductor check, so the package's graph searches all live here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .mesh import Mesh
from .spaces import EdgeSpace, ScalarSpace


class UnsupportedTopologyError(ValueError):
    """The gauge cannot span the static curl kernel: its graph is
    disconnected, or its tree count differs from curl_kernel_dimension (a
    scalar Dirichlet node off the constrained edges, or constrained edges
    in more than one piece)."""


def node_components(mesh: Mesh, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, label per node) of the components that the given edges (ids
    or a mask) join; a node on none of them is a component by itself."""
    a, b = mesh.edges[edges].T
    adj = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(mesh.n_nodes,) * 2)
    return connected_components(adj, directed=False)


def curl_kernel_dimension(mesh: Mesh, edge_space: EdgeSpace) -> int:
    """One potential per constrained-edge component, less the constant."""
    return int(node_components(mesh, edge_space.constrained)[0]) - 1


@dataclass(frozen=True)
class GaugeGraph:
    """Vertices are the gauge nodes, then the root; edges are the free edges."""

    gauge_nodes: np.ndarray        # mesh node ids owning a vertex, ascending
    edge_vertices: np.ndarray      # (n_free, 2) vertex endpoints


def build_gauge_graph(mesh: Mesh, edge_space: EdgeSpace,
                      scalar_space: ScalarSpace) -> GaugeGraph:
    """Collapse constrained-edge endpoints and scalar Dirichlet nodes into
    one root vertex, node 0 if there are none; graph edges are the free
    edge DOFs."""
    collapsed = np.zeros(mesh.n_nodes, dtype=bool)
    if edge_space.constrained.size:
        collapsed[mesh.edges[edge_space.constrained].ravel()] = True
    collapsed[scalar_space.constrained] = True
    if not collapsed.any():
        collapsed[0] = True  # with nothing constrained, node 0 is the root

    gauge_nodes = np.flatnonzero(~collapsed)
    root = gauge_nodes.shape[0]
    vertex_of_node = np.full(mesh.n_nodes, root, dtype=np.int64)
    vertex_of_node[gauge_nodes] = np.arange(root)

    return GaugeGraph(gauge_nodes=gauge_nodes,
                      edge_vertices=vertex_of_node[mesh.edges[edge_space.free]])


@dataclass(frozen=True)
class TreeCotreePartition:
    """Split of the free edge DOFs into tree (T) and cotree (R) sets.

    Positions index the free-edge numbering.  tree_vertex[i] is the gauge
    vertex that tree edge tree[i] reaches from its BFS parent; the
    stabilized system puts that vertex's divergence row in row tree[i].
    """

    tree: np.ndarray         # free positions, ascending
    cotree: np.ndarray       # free positions, ascending
    tree_vertex: np.ndarray  # gauge vertex reached by each tree edge


def spanning_tree(graph: GaugeGraph) -> TreeCotreePartition:
    """BFS spanning tree from the root, neighbors visited in
    ascending edge index; deterministic for identical inputs.

    Raises UnsupportedTopologyError if the gauge graph is disconnected.
    """
    root = graph.gauge_nodes.size
    n = root + 1
    # both endpoints collapsed: a self-loop, never a tree edge
    pos = np.flatnonzero(graph.edge_vertices[:, 0] != graph.edge_vertices[:, 1])
    a, b = graph.edge_vertices[pos].T
    # Row v lists v's neighbours in ascending free position, repeated edges
    # to the root included; directed=True walks exactly this stored order.
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.lexsort((np.concatenate([pos, pos]), src))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    adj = sp.csr_matrix((np.ones(order.size), dst[order], indptr), shape=(n, n))
    reached, pred = breadth_first_order(adj, root, directed=True,
                                        return_predecessors=True)
    if reached.size != n:
        missing = int(np.setdiff1d(np.arange(n), reached)[0])
        raise UnsupportedTopologyError(
            f"gauge graph is disconnected (vertex {missing} unreachable); "
            "only simply-connected box scenarios are supported")
    # An edge belongs to the tree if it joins a vertex to its BFS parent;
    # of parallel edges the lowest position, the one the BFS met first.
    child = np.where(pred[b] == a, b, np.where(pred[a] == b, a, -1))
    joins = child >= 0
    tree_vertex, first = np.unique(child[joins], return_index=True)
    tree_pos = pos[joins][first]
    by_pos = np.argsort(tree_pos)
    n_free = len(graph.edge_vertices)
    return TreeCotreePartition(tree=tree_pos[by_pos],
                               cotree=np.setdiff1d(np.arange(n_free), tree_pos),
                               tree_vertex=tree_vertex[by_pos])
