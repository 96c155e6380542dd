import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aphi.mesh import (AIR, CONDUCTOR, LOCAL_EDGE_AXIS, LOCAL_EDGE_NODES, Box,
                       UncoveredRegionError, boundary_entities, build_box_mesh,
                       tag_regions)
from oracles import brute_force_edges, brute_force_faces, interior_node_count

UNIT = ((0, 1), (0, 1), (0, 1))


def test_single_cell_counts():
    m = build_box_mesh(UNIT, (1, 1, 1))
    assert (m.n_nodes, m.n_edges, m.n_cells) == (8, 12, 1)


def test_222_counts():
    # edge-count formula 3 * 2 * 9 = 54, cross-checked by enumeration
    m = build_box_mesh(UNIT, (2, 2, 2))
    assert (m.n_nodes, m.n_edges, m.n_cells) == (27, 54, 8)
    assert sorted(map(tuple, m.edges)) == brute_force_edges((2, 2, 2))


def test_pi_box_444_counts():
    m = build_box_mesh(((np.pi / 2, 3 * np.pi / 2),) * 3, (4, 4, 4))
    assert (m.n_nodes, m.n_edges, m.n_cells) == (125, 300, 64)


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
def test_edge_count_formula_vs_enumeration(subdivisions):
    m = build_box_mesh(UNIT, subdivisions)
    expected = brute_force_edges(subdivisions)
    assert m.n_edges == len(expected)
    assert sorted(map(tuple, m.edges)) == expected
    # stored with the lower node id first, each edge exactly once
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    assert len({tuple(e) for e in m.edges}) == m.n_edges


@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
def test_euler_characteristic_and_face_sharing(subdivisions):
    m = build_box_mesh(UNIT, subdivisions)
    faces = brute_force_faces(m.cells)
    assert set(faces.values()) <= {1, 2}
    V, E, F, C = m.n_nodes, m.n_edges, len(faces), m.n_cells
    assert V - E + F - C == 1
    # boundary faces appear once, interior twice
    n_boundary = sum(1 for v in faces.values() if v == 1)
    n = subdivisions
    assert n_boundary == 2 * (n[0] * n[1] + n[1] * n[2] + n[0] * n[2])


def test_determinism():
    a = build_box_mesh(((0, 2), (0, 3), (0, 1)), (2, 3, 1))
    b = build_box_mesh(((0, 2), (0, 3), (0, 1)), (2, 3, 1))
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.cell_edges, b.cell_edges)


def test_lexicographic_numbering_x_fastest():
    m = build_box_mesh(((0, 1), (0, 2), (0, 3)), (2, 2, 3))
    # node 1 differs from node 0 in x only
    assert m.nodes[1, 0] > m.nodes[0, 0]
    assert m.nodes[1, 1] == m.nodes[0, 1] and m.nodes[1, 2] == m.nodes[0, 2]
    flat = m.nodes[:, 0] + 10 * m.nodes[:, 1] + 100 * m.nodes[:, 2]
    assert np.all(np.diff(flat) > 0)


SUBDIVISIONS = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@given(SUBDIVISIONS)
def test_cell_edges_reproduce_node_pairs(subdivisions):
    # local and global edges both run along +axis: no orientation sign
    m = build_box_mesh(((0, 1), (0, 2), (0, 1)), subdivisions)
    assert np.array_equal(m.edges[m.cell_edges], m.cells[:, LOCAL_EDGE_NODES])


@given(SUBDIVISIONS)
def test_edge_ids_follow_axis_then_lower_node_order(subdivisions):
    # ids sort by (axis, k, j, i) of the lower node, read off the coordinates
    m = build_box_mesh(((0, 1), (0, 2), (-1, 3)), subdivisions)
    lower = m.nodes[m.edges[:, 0]]
    axis = np.argmax(m.nodes[m.edges[:, 1]] - lower, axis=1)
    i, j, k = np.rint((lower - m.origin) / m.spacing).astype(int).T
    assert np.array_equal(np.lexsort((i, j, k, axis)), np.arange(m.n_edges))
    # so the cell edges are the ids of those keys, local axis included
    key = {(a, kk, jj, ii): e for e, (a, kk, jj, ii) in enumerate(zip(axis, k, j, i))}
    corner = np.rint((m.nodes[m.cells[:, LOCAL_EDGE_NODES[:, 0]]] - m.origin)
                     / m.spacing).astype(int)
    expected = [[key[(LOCAL_EDGE_AXIS[loc], *corner[c, loc, ::-1])] for loc in range(12)]
                for c in range(m.n_cells)]
    assert np.array_equal(m.cell_edges, expected)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_box_mesh(UNIT, (0, 1, 1))
    with pytest.raises(ValueError):
        build_box_mesh(UNIT, (2, -1, 2))
    with pytest.raises(ValueError):
        build_box_mesh(((1, 1), (0, 1), (0, 1)), (1, 1, 1))


def test_tag_regions_all_air(unit_cube_222):
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(unit_cube_222, [(whole, AIR)])
    assert not tags.conductor_cells.any()
    assert not tags.conductor_nodes.any()


def test_tag_regions_full_conductor(unit_cube_222):
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(unit_cube_222, [(whole, CONDUCTOR)])
    assert tags.conductor_cells.all()
    # air-only edge set is empty
    assert tags.conductor_edges.all()


def test_tag_regions_center_bar():
    m = build_box_mesh(((0, 0.22),) * 3, (3, 3, 3))
    whole = Box(lo=(0, 0, 0), hi=(0.22, 0.22, 0.22))
    bar = Box(lo=(0, 0.10, 0.10), hi=(0.22, 0.12, 0.12))
    tags = tag_regions(m, [(whole, AIR), (bar, CONDUCTOR)])
    centroids = m.cell_centroids()
    expected = bar.contains(centroids)
    assert np.array_equal(tags.conductor_cells, expected)
    assert tags.conductor_cells.sum() == 3
    # last match wins for overlapping predicates
    tags2 = tag_regions(m, [(whole, AIR), (bar, CONDUCTOR), (whole, AIR)])
    assert not tags2.conductor_cells.any()


def test_tag_regions_uncovered(unit_cube_222):
    half = Box(lo=(0, 0, 0), hi=(0.5, 1, 1))
    with pytest.raises(UncoveredRegionError):
        tag_regions(unit_cube_222, [(half, AIR)])


def test_conductor_touching_sets(unit_cube_222):
    # one conductor cell at the origin corner: its 8 nodes and 12 edges touch
    corner = Box(lo=(0, 0, 0), hi=(0.5, 0.5, 0.5))
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(unit_cube_222, [(whole, AIR), (corner, CONDUCTOR)])
    assert tags.conductor_cells.sum() == 1
    cell = np.flatnonzero(tags.conductor_cells)[0]
    assert set(np.flatnonzero(tags.conductor_nodes)) == set(unit_cube_222.cells[cell])
    assert set(np.flatnonzero(tags.conductor_edges)) == set(unit_cube_222.cell_edges[cell])


def boundary_nodes(faces):
    """Ids of the nodes on any box face, ascending."""
    return np.unique(np.concatenate([s.nodes for s in faces.values()]))


def test_boundary_single_cell():
    m = build_box_mesh(UNIT, (1, 1, 1))
    bt = boundary_entities(m)
    for label in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax"):
        assert bt[label].nodes.shape[0] == 4
        assert bt[label].edges.shape[0] == 4


def test_boundary_node_counts(unit_cube_222):
    bt = boundary_entities(unit_cube_222)
    assert boundary_nodes(bt).size == 26  # 27 - 1 interior
    m3 = build_box_mesh(UNIT, (3, 3, 3))
    bt3 = boundary_entities(m3)
    assert m3.n_nodes - boundary_nodes(bt3).size == interior_node_count((3, 3, 3)) == 8


def test_boundary_union_matches_coordinates(unit_cube_222):
    bt = boundary_entities(unit_cube_222)
    coords = unit_cube_222.nodes
    on_box = np.any((coords == 0.0) | (coords == 1.0), axis=1)
    assert np.array_equal(boundary_nodes(bt), np.flatnonzero(on_box))


def test_boundary_label_sharing(unit_cube_222):
    # face-interior entities carry one label; box-edge entities carry all
    # adjacent labels
    bt = boundary_entities(unit_cube_222)
    grid = unit_cube_222.node_grid_index(np.arange(unit_cube_222.n_nodes))
    for node in range(unit_cube_222.n_nodes):
        labels = [l for l in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")
                  if node in bt[l].nodes]
        i, j, k = grid[node]
        expected = sum([i == 0, i == 2, j == 0, j == 2, k == 0, k == 2])
        assert len(labels) == expected


def test_boundary_unknown_label(unit_cube_222):
    bt = boundary_entities(unit_cube_222)
    with pytest.raises(KeyError):
        bt["top"]


def test_locate_points(unit_cube_222):
    cells, ref = unit_cube_222.locate_points([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
    assert cells[0] == 0 and cells[1] == unit_cube_222.n_cells - 1
    assert np.all(np.abs(ref) <= 1)
    with pytest.raises(ValueError):
        unit_cube_222.locate_points([[1.5, 0.5, 0.5]])
