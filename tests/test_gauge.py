import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aphi.assembly import MaterialField, assemble_bundle
from aphi.gauge import (UnsupportedTopologyError, build_gauge_graph,
                        node_components, spanning_tree)
from aphi.mesh import (AIR, FACE_LABELS, Box, boundary_entities,
                       build_box_mesh, tag_regions)
from aphi.spaces import DirichletSpec, build_edge_space, build_scalar_space
from oracles import bfs_tree, dense_rank

UNIT = ((0, 1), (0, 1), (0, 1))


def _setup(subdivisions, constrain_all=True):
    mesh = build_box_mesh(UNIT, subdivisions)
    bt = boundary_entities(mesh)
    labels = FACE_LABELS if constrain_all else ()
    spec = DirichletSpec(scalar=tuple((l, 0.0) for l in labels), edge=labels)
    scal = build_scalar_space(mesh, bt, spec)
    edge = build_edge_space(mesh, bt, spec)
    return mesh, scal, edge


def test_graph_all_boundary_constrained_222():
    mesh, scal, edge = _setup((2, 2, 2))
    graph = build_gauge_graph(mesh, edge, scal)
    assert graph.gauge_nodes.shape[0] == 1  # the interior node
    # the six free edges join the interior node (vertex 0) to the root (1)
    assert np.array_equal(np.sort(graph.edge_vertices, axis=1), [[0, 1]] * 6)
    assert graph.edge_vertices.shape[0] == edge.n_free == 6  # candidate edges


def test_graph_unconstrained_single_cell():
    mesh, scal, edge = _setup((1, 1, 1), constrain_all=False)
    graph = build_gauge_graph(mesh, edge, scal)
    # nothing is constrained: node 0 alone collapses into the root, vertex 7
    assert np.array_equal(graph.gauge_nodes, np.arange(1, 8))
    assert np.count_nonzero(graph.edge_vertices == 7) == 3  # node 0's edges
    assert graph.edge_vertices.shape[0] == edge.n_free == 12


def test_graph_region_independent():
    # the graph uses topology only; conductor vs air layout cannot matter
    mesh, scal, edge = _setup((2, 2, 2))
    g1 = build_gauge_graph(mesh, edge, scal)
    g2 = build_gauge_graph(mesh, edge, scal)
    assert np.array_equal(g1.edge_vertices, g2.edge_vertices)
    assert np.array_equal(g1.gauge_nodes, g2.gauge_nodes)


def test_spanning_tree_counts():
    mesh, scal, edge = _setup((1, 1, 1), constrain_all=False)
    part = spanning_tree(build_gauge_graph(mesh, edge, scal))
    assert part.tree.size == 7 and part.cotree.size == 5

    mesh, scal, edge = _setup((2, 2, 2))
    part = spanning_tree(build_gauge_graph(mesh, edge, scal))
    assert part.tree.size == 1 and part.cotree.size == 5

    mesh, scal, edge = _setup((3, 3, 3))
    part = spanning_tree(build_gauge_graph(mesh, edge, scal))
    assert part.tree.size == 8  # (3-1)^3 interior nodes


def test_tree_is_acyclic_spanning():
    mesh, scal, edge = _setup((3, 3, 3), constrain_all=False)
    graph = build_gauge_graph(mesh, edge, scal)
    part = spanning_tree(graph)
    n_vertices = graph.gauge_nodes.size + 1
    assert part.tree.size == n_vertices - 1
    # union-find over tree edges: no cycles, all vertices connected
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for pos in part.tree:
        va, vb = graph.edge_vertices[pos]
        ra, rb = find(va), find(vb)
        assert ra != rb, "cycle in spanning tree"
        parent[ra] = rb
    assert len({find(v) for v in range(n_vertices)}) == 1


def test_tree_determinism():
    mesh, scal, edge = _setup((3, 3, 3))
    t1 = spanning_tree(build_gauge_graph(mesh, edge, scal))
    t2 = spanning_tree(build_gauge_graph(mesh, edge, scal))
    assert np.array_equal(t1.tree, t2.tree)
    assert np.array_equal(t1.tree_vertex, t2.tree_vertex)


@given(st.tuples(*[st.integers(1, 4)] * 3),
       st.lists(st.sampled_from(FACE_LABELS), unique=True),
       st.lists(st.sampled_from(FACE_LABELS), unique=True))
def test_spanning_tree_matches_bfs_oracle(subdivisions, scalar_faces, edge_faces):
    mesh = build_box_mesh(UNIT, subdivisions)
    bt = boundary_entities(mesh)
    scal = build_scalar_space(
        mesh, bt, DirichletSpec(scalar=tuple((l, 0.0) for l in scalar_faces)))
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=tuple(edge_faces)))
    graph = build_gauge_graph(mesh, edge, scal)
    part = spanning_tree(graph)
    tree, reached = bfs_tree(graph)
    assert np.array_equal(part.tree, tree)
    assert np.array_equal(part.tree_vertex, reached)
    ends = graph.edge_vertices[part.tree]
    assert np.all((ends[:, 0] == part.tree_vertex) | (ends[:, 1] == part.tree_vertex))
    root = graph.gauge_nodes.size
    assert np.array_equal(np.sort(part.tree_vertex), np.arange(root))


@pytest.mark.parametrize("subdivisions,constrain", [
    ((1, 1, 1), False), ((2, 2, 2), True), ((2, 2, 2), False),
    ((3, 3, 3), True), ((3, 2, 2), True)])
def test_tree_count_matches_curl_kernel(subdivisions, constrain):
    mesh, scal, edge = _setup(subdivisions, constrain_all=constrain)
    graph = build_gauge_graph(mesh, edge, scal)
    part = spanning_tree(graph)
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    mat = MaterialField.uniform(mesh, tag_regions(mesh, [(whole, AIR)]),
                                sigma=0.0, eps=1.0, nu=1.0)
    C = assemble_bundle(scal, edge, mat).C_nu[edge.free][:, edge.free]
    kernel = edge.n_free - dense_rank(C)
    assert part.tree.size == kernel


def test_cotree_block_nonsingular():
    # the cotree-cotree block of the static curl matrix has full rank
    for subdivisions, constrain in [((2, 2, 2), True), ((3, 3, 3), True),
                                    ((2, 2, 2), False)]:
        mesh, scal, edge = _setup(subdivisions, constrain_all=constrain)
        part = spanning_tree(build_gauge_graph(mesh, edge, scal))
        whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
        mat = MaterialField.uniform(mesh, tag_regions(mesh, [(whole, AIR)]),
                                    sigma=0.0, eps=1.0, nu=1.0)
        C = assemble_bundle(scal, edge, mat).C_nu[edge.free][:, edge.free].tocsr()
        RR = C[part.cotree][:, part.cotree]
        assert dense_rank(RR) == part.cotree.size


def test_full_rank_curl_cotree_block_at_zero_frequency(academic_built):
    # static curl system: cotree block full rank while the whole matrix is
    # rank deficient
    from aphi.system import build_curl_matrix
    built = academic_built
    W0 = build_curl_matrix(built.bundle, 0.0)
    part = built.partition
    assert dense_rank(W0[part.cotree][:, part.cotree]) == part.cotree.size
    assert dense_rank(W0) == built.edge.n_free - part.tree.size


def test_root_collapse_keeps_graph_connected():
    # collapsing constrained-edge endpoints into one root keeps the gauge
    # graph of any connected box mesh connected: edge paths through
    # constrained edges route through the root
    mesh = build_box_mesh(UNIT, (1, 1, 3))
    bt = boundary_entities(mesh)
    spec = DirichletSpec(edge=FACE_LABELS)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, spec)
    # every edge of a (1,1,3) grid lies on the boundary: nothing left free
    graph = build_gauge_graph(mesh, edge, scal)
    assert graph.edge_vertices.shape == (0, 2)
    assert graph.gauge_nodes.size == 0  # just the root


def test_disconnected_graph_raises():
    # the connectivity guard itself, on a hand-built rooted split graph
    from aphi.gauge import GaugeGraph
    graph = GaugeGraph(gauge_nodes=np.array([0]),
                       edge_vertices=np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(UnsupportedTopologyError):
        spanning_tree(graph)


def test_node_components_counts_lone_nodes():
    # one edge of a single cell joins two of its eight nodes; the other six
    # are components by themselves, whether edges come as ids or a mask
    mesh, _, _ = _setup((1, 1, 1))
    a, b = mesh.edges[3]
    mask = np.zeros(mesh.n_edges, dtype=bool)
    mask[3] = True
    for edges in (np.array([3]), mask):
        count, labels = node_components(mesh, edges)
        assert count == 7
        assert labels[a] == labels[b]
        assert np.unique(np.delete(labels, [a, b])).size == 6

