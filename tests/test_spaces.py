import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aphi.mesh import FACE_LABELS, boundary_entities, build_box_mesh
from aphi.spaces import (DirichletSpec, build_edge_space, build_scalar_space,
                         edge_interpolate, gradient_incidence,
                         physical_edge_basis, physical_scalar_basis)
from oracles import fd_gradient, line_integral

UNIT = ((0, 1), (0, 1), (0, 1))


@pytest.fixture(scope="module")
def cube222():
    m = build_box_mesh(UNIT, (2, 2, 2))
    return m, boundary_entities(m)


def test_scalar_space_all_faces_constrained(cube222):
    m, bt = cube222
    spec = DirichletSpec(scalar=tuple((l, 0.0) for l in FACE_LABELS))
    sp = build_scalar_space(m, bt, spec)
    assert sp.n_free == 1  # 27 - 26 boundary nodes


def test_scalar_space_unconstrained():
    m = build_box_mesh(UNIT, (1, 1, 1))
    bt = boundary_entities(m)
    sp = build_scalar_space(m, bt, DirichletSpec())
    assert sp.n_free == 8


def test_scalar_space_two_electrodes(cube222):
    # 0 V / 1 V on opposite faces, natural elsewhere: 27 - 18 free
    m, bt = cube222
    spec = DirichletSpec(scalar=(("xmin", 0.0), ("xmax", 1.0)))
    sp = build_scalar_space(m, bt, spec)
    assert sp.n_free == 9
    full = sp.full_vector(np.zeros(sp.n_free))
    assert np.all(full[bt["xmax"].nodes] == 1.0)
    assert np.all(full[bt["xmin"].nodes] == 0.0)


def test_scalar_space_later_entry_wins(cube222):
    m, bt = cube222
    spec = DirichletSpec(scalar=(("xmin", 2.0), ("ymin", 5.0)))
    sp = build_scalar_space(m, bt, spec)
    shared = np.intersect1d(bt["xmin"].nodes, bt["ymin"].nodes)
    full = sp.full_vector(np.zeros(sp.n_free))
    assert np.all(full[shared] == 5.0)


def test_edge_space_single_cell_all_constrained():
    m = build_box_mesh(UNIT, (1, 1, 1))
    bt = boundary_entities(m)
    es = build_edge_space(m, bt, DirichletSpec(edge=FACE_LABELS))
    assert es.n_free == 0  # all 12 edges lie on the boundary


def test_edge_space_222(cube222):
    m, bt = cube222
    es = build_edge_space(m, bt, DirichletSpec(edge=FACE_LABELS))
    # brute force: edges with no face containing both endpoints
    free = []
    for e, (a, b) in enumerate(m.edges):
        on_face = any(a in set(bt[l].nodes) and b in set(bt[l].nodes)
                      for l in FACE_LABELS)
        if not on_face:
            free.append(e)
    assert es.n_free == len(free) == 6
    assert np.array_equal(es.free, np.array(free))
    es_open = build_edge_space(m, bt, DirichletSpec())
    assert es_open.n_free == 54


def test_unknown_label_raises(cube222):
    m, bt = cube222
    with pytest.raises(KeyError):
        build_scalar_space(m, bt, DirichletSpec(scalar=(("lid", 0.0),)))


@given(st.lists(st.sampled_from(FACE_LABELS), max_size=6),
       st.lists(st.sampled_from(FACE_LABELS), max_size=6))
def test_bookkeeping_random_specs(scalar_labels, edge_labels):
    m = build_box_mesh(UNIT, (2, 2, 2))
    bt = boundary_entities(m)
    spec = DirichletSpec(scalar=tuple((l, 1.0) for l in scalar_labels),
                         edge=tuple(edge_labels))
    sp = build_scalar_space(m, bt, spec)
    es = build_edge_space(m, bt, spec)
    assert sp.n_free + sp.constrained.size == m.n_nodes
    assert es.n_free + es.constrained.size == m.n_edges
    assert np.array_equal(np.sort(np.concatenate([sp.free, sp.constrained])),
                          np.arange(m.n_nodes))


def test_scalar_basis_partition_of_unity():
    m = build_box_mesh(((0, 2), (0, 3), (0, 0.5)), (1, 1, 1))
    (vals,), (grads,) = physical_scalar_basis(m.spacing, (0.0, 0.0, 0.0))
    assert np.allclose(vals, 1 / 8)
    assert np.allclose(vals.sum(), 1.0)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-14)


def test_scalar_basis_lagrange_property():
    m = build_box_mesh(UNIT, (1, 1, 1))
    corners = 2.0 * np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                              (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]) - 1.0
    for l, corner in enumerate(corners):
        (vals,), _ = physical_scalar_basis(m.spacing, corner)
        expected = np.zeros(8)
        expected[l] = 1.0
        assert np.allclose(vals, expected)


def test_scalar_basis_gradient_vs_finite_difference(rng):
    m = build_box_mesh(((0, 1.3), (0, 0.7), (0, 2.1)), (1, 1, 1))
    h = m.spacing

    for _ in range(5):
        ref = rng.uniform(-0.8, 0.8, size=3)
        _, (grads,) = physical_scalar_basis(m.spacing, ref)
        for l in range(8):
            def value(x):
                r = 2 * (x - m.origin) / h - 1
                (vals,), _ = physical_scalar_basis(m.spacing, r)
                return vals[l]
            phys = m.origin + (ref + 1) * h / 2
            fd = fd_gradient(value, phys)
            assert np.allclose(grads[l], fd, rtol=1e-6, atol=1e-8)


def test_edge_basis_duality_unit_cell():
    # circulation of basis k along edge j equals delta_jk (5-pt Gauss oracle)
    m = build_box_mesh(UNIT, (1, 1, 1))
    mat = np.zeros((12, 12))
    for k in range(12):
        def field(pts, k=k):
            out = np.zeros((pts.shape[0], 3))
            for i, p in enumerate(np.atleast_2d(pts)):
                ref = 2 * (p - m.origin) / m.spacing - 1
                (vals,), _ = physical_edge_basis(m.spacing, ref)
                out[i] = vals[k]
            return out
        for j in range(12):
            eid = m.cell_edges[0, j]
            a, b = m.edges[eid]
            mat[j, k] = line_integral(lambda p: field(p[None, :])[0],
                                      m.nodes[a], m.nodes[b])
    assert np.allclose(mat, np.eye(12), atol=1e-12)


def test_edge_basis_curl_vs_finite_difference(rng):
    from oracles import fd_curl
    m = build_box_mesh(((0, 1.1), (0, 0.9), (0, 1.4)), (1, 1, 1))

    for k in (0, 5, 10):
        def field(x, k=k):
            ref = 2 * (x - m.origin) / m.spacing - 1
            (vals,), _ = physical_edge_basis(m.spacing, ref)
            return vals[k]
        for _ in range(3):
            ref = rng.uniform(-0.7, 0.7, size=3)
            phys = m.origin + (ref + 1) * m.spacing / 2
            _, (curls,) = physical_edge_basis(m.spacing, ref)
            assert np.allclose(curls[k], fd_curl(field, phys), rtol=1e-5, atol=1e-7)


def test_gradient_field_reproduction(rng):
    # interpolating grad of a trilinear nodal function via edge circulations
    # reproduces it exactly at interior points
    m = build_box_mesh(((0, 2), (0, 1), (0, 1)), (2, 2, 2))
    g = rng.standard_normal(m.n_nodes)
    P = gradient_incidence(m)
    a = P @ g
    for _ in range(10):
        pt = rng.uniform(0.05, 0.95, size=3) * np.array([2, 1, 1])
        cells, ref = m.locate_points(pt[None, :])
        c = cells[0]
        (Wv,), _ = physical_edge_basis(m.spacing, ref[0])
        interp = a[m.cell_edges[c]] @ Wv
        _, (grads,) = physical_scalar_basis(m.spacing, ref[0])
        exact = g[m.cells[c]] @ grads
        assert np.allclose(interp, exact, rtol=1e-12, atol=1e-13)


def test_gradient_incidence_structure(unit_cube_222):
    P = gradient_incidence(unit_cube_222)
    assert P.shape == (unit_cube_222.n_edges, unit_cube_222.n_nodes)
    nnz_per_row = np.diff(P.indptr)
    assert np.all(nnz_per_row == 2)
    assert set(np.unique(P.data)) == {-1.0, 1.0}


def test_inclusion_property_pointwise(rng):
    # column P(:, j) interpolates grad of the hat function of node j
    m = build_box_mesh(UNIT, (2, 2, 2))
    P = gradient_incidence(m).toarray()
    for j in rng.choice(m.n_nodes, size=5, replace=False):
        col = P[:, j]
        for c in range(m.n_cells):
            if j not in m.cells[c]:
                continue
            for _ in range(10):
                ref = rng.uniform(-1, 1, size=3)
                (Wv,), _ = physical_edge_basis(m.spacing, ref)
                _, (grads,) = physical_scalar_basis(m.spacing, ref)
                local = np.where(m.cells[c] == j)[0][0]
                assert np.allclose(col[m.cell_edges[c]] @ Wv, grads[local],
                                   atol=1e-13)


def test_edge_interpolate_linear_field_exact():
    # circulations of a constant field equal signed edge projections
    m = build_box_mesh(((0, 2), (0, 1), (0, 3)), (2, 2, 2))
    e_z = np.array([0.0, 0.0, 1.0])
    circ = edge_interpolate(m, lambda p: np.tile(e_z, (p.shape[0], 1)))
    vec = m.nodes[m.edges[:, 1]] - m.nodes[m.edges[:, 0]]
    assert np.allclose(circ.real, vec @ e_z, atol=1e-14)
