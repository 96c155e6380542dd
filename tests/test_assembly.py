import numpy as np
import pytest

from aphi import assembly
from aphi.assembly import (MaterialError, MaterialField, assemble_bundle,
                           assemble_charge_vector, assemble_curl_curl,
                           assemble_current_vector, assemble_grad_coupling,
                           assemble_grad_grad, assemble_mass)
from aphi.mesh import (AIR, CONDUCTOR, Box, boundary_entities, build_box_mesh,
                       tag_regions)
from aphi.physics import ManufacturedCase
from aphi.spaces import (DirichletSpec, build_edge_space, build_scalar_space,
                         edge_interpolate, gradient_incidence,
                         physical_edge_basis, physical_scalar_basis)
from oracles import dense_rank, min_eig_sym, source_moments, volume_quadrature

UNIT = ((0, 1), (0, 1), (0, 1))


def _uniform_setup(subdivisions, extents=UNIT, sigma=0.0):
    mesh = build_box_mesh(extents, subdivisions)
    bt = boundary_entities(mesh)
    label = CONDUCTOR if sigma > 0 else AIR
    tags = tag_regions(mesh, [(Box(lo=tuple(lo for lo, _ in extents),
                                   hi=tuple(hi for _, hi in extents)), label)])
    mat = MaterialField.uniform(mesh, tags, sigma=sigma, eps=1.0, nu=1.0)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec())
    return mesh, bt, tags, mat, scal, edge


def _two_region_setup():
    # conductor bar through the box center, air around it
    mesh = build_box_mesh(((0, 3), (0, 3), (0, 3)), (3, 3, 3))
    bt = boundary_entities(mesh)
    whole = Box(lo=(0, 0, 0), hi=(3, 3, 3))
    bar = Box(lo=(1, 1, 0), hi=(2, 2, 3))
    tags = tag_regions(mesh, [(whole, AIR), (bar, CONDUCTOR)])
    sigma = np.where(tags.conductor_cells, 2.0, 0.0)
    mat = MaterialField(sigma=sigma, eps=np.full(mesh.n_cells, 3.0),
                        nu=np.full(mesh.n_cells, 1.5), tags=tags)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec())
    return mesh, bt, tags, mat, scal, edge


def test_material_validation():
    mesh = build_box_mesh(UNIT, (1, 1, 1))
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(mesh, [(whole, AIR)])
    with pytest.raises(MaterialError):
        MaterialField.uniform(mesh, tags, sigma=1.0, eps=1.0, nu=1.0)
    with pytest.raises(MaterialError):
        MaterialField.uniform(mesh, tags, sigma=0.0, eps=-1.0, nu=1.0)
    ctags = tag_regions(mesh, [(whole, CONDUCTOR)])
    with pytest.raises(MaterialError):
        MaterialField.uniform(mesh, ctags, sigma=0.0, eps=1.0, nu=1.0)


@pytest.mark.parametrize("sigma, eps, nu", [
    (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, np.nan, 1.0),
    (1.0, np.inf, 1.0), (1.0, 1.0, np.nan), (1.0, 1.0, np.inf),
    (1.0, 1.0, 0.0),
])
def test_material_validation_rejects_non_finite_and_zero(sigma, eps, nu):
    # all conductor, so only the value under test is wrong; nan compares
    # false both ways, so it must fail a check of what is required
    mesh = build_box_mesh(UNIT, (1, 1, 1))
    tags = tag_regions(mesh, [(Box(lo=(0, 0, 0), hi=(1, 1, 1)), CONDUCTOR)])
    with pytest.raises(MaterialError):
        MaterialField.uniform(mesh, tags, sigma=sigma, eps=eps, nu=nu)


def test_stiffness_unit_cell_diagonal_third():
    # trilinear stiffness on the unit cube: diagonal entries 1/3, checked
    # against a 4^3 Gauss oracle of |grad N_l|^2
    mesh, bt, tags, mat, scal, edge = _uniform_setup((1, 1, 1))
    K = assemble_grad_grad(scal, mat, "eps").toarray()
    assert np.allclose(np.diag(K), 1.0 / 3.0, atol=1e-14)

    for l in range(3):
        def integrand(p, l=l):
            ref = 2.0 * p - 1.0
            _, (grads,) = physical_scalar_basis(mesh.spacing, ref)
            return float(grads[l] @ grads[l])
        oracle = volume_quadrature(integrand, (0, 0, 0), (1, 1, 1), n=4)
        assert np.isclose(K[l, l], oracle, rtol=1e-12)


def test_stiffness_constant_nullvector():
    _, _, _, mat, scal, _ = _uniform_setup((2, 2, 2))
    K = assemble_grad_grad(scal, mat, "eps")
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) < 1e-13 * abs(K).max()


def test_sigma_stiffness_zero_air_rows():
    mesh, _, tags, mat, scal, _ = _two_region_setup()
    K = assemble_grad_grad(scal, mat, "sigma")
    air_nodes = ~tags.conductor_nodes
    assert abs(K[air_nodes]).max() == 0.0
    assert abs(K[tags.conductor_nodes]).max() > 0.0


def test_grad_coupling_equals_mass_times_incidence():
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    G = assemble_grad_coupling(scal, edge, mat, "eps")
    M = assemble_mass(edge, mat, "eps")
    P = gradient_incidence(mesh)
    diff = abs(G - M @ P).max()
    assert diff < 1e-12 * abs(G).max()
    # G annihilates constants
    assert np.max(np.abs(G @ np.ones(mesh.n_nodes))) < 1e-13 * abs(G).max()


def test_sigma_coupling_zero_air_columns():
    mesh, _, tags, mat, scal, edge = _two_region_setup()
    G = assemble_grad_coupling(scal, edge, mat, "sigma").tocsc()
    air_nodes = ~tags.conductor_nodes
    assert abs(G[:, air_nodes]).max() == 0.0


def test_edge_mass_positive_definite():
    _, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    M = assemble_mass(edge, mat, "eps")
    assert min_eig_sym(M) > 0.0


def test_sigma_mass_zero_when_nonconducting():
    _, _, _, mat, _, edge = _uniform_setup((2, 2, 2))
    M = assemble_mass(edge, mat, "sigma")
    assert M.nnz == 0 or abs(M).max() == 0.0


def test_mass_quadratic_form_matches_fine_quadrature(rng):
    # integrate |interpolant|^2 cell by cell with an independent 5^3 rule
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2), extents=((0, 1.2), (0, 0.9), (0, 1.0)))
    M = assemble_mass(edge, mat, "eps")
    a = rng.standard_normal(mesh.n_edges)

    def interp_sq_in(c):
        def f(p):
            ref = 2.0 * (p - mesh.cell_origins()[c]) / mesh.spacing - 1.0
            (Wv,), _ = physical_edge_basis(mesh.spacing, ref)
            val = a[mesh.cell_edges[c]] @ Wv
            return float(val @ val)
        return f

    oracle = 0.0
    for c in range(mesh.n_cells):
        lo = mesh.cell_origins()[c]
        oracle += volume_quadrature(interp_sq_in(c), lo, lo + mesh.spacing, n=5)
    assert np.isclose(a @ (M @ a), oracle, rtol=1e-10)


def test_curl_curl_annihilates_gradients():
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    C = assemble_curl_curl(edge, mat)
    P = gradient_incidence(mesh)
    assert abs(C @ P).max() < 1e-12 * abs(C).max()


def test_curl_curl_rank_single_cell():
    # kernel = gradients: rank = 12 - (8 - 1) = 5
    _, _, _, mat, _, edge = _uniform_setup((1, 1, 1))
    C = assemble_curl_curl(edge, mat)
    assert dense_rank(C) == 5


def test_curl_curl_rank_constrained_222():
    from aphi.mesh import FACE_LABELS
    mesh = build_box_mesh(UNIT, (2, 2, 2))
    bt = boundary_entities(mesh)
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(mesh, [(whole, AIR)])
    mat = MaterialField.uniform(mesh, tags, sigma=0.0, eps=1.0, nu=1.0)
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=FACE_LABELS))
    C = assemble_curl_curl(edge, mat)
    C_free = C[edge.free][:, edge.free]
    assert C_free.shape == (6, 6)
    assert dense_rank(C_free) == 5  # n_w - one interior node


def test_weak_divergence_is_minus_coupling_transpose():
    _, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    D = assemble_bundle(scal, edge, mat).D_eps
    G = assemble_grad_coupling(scal, edge, mat, "eps")
    assert abs(D + G.T).max() < 1e-14 * abs(G).max()


def test_kappa_divergence_linearity():
    _, _, _, mat, scal, edge = _two_region_setup()
    bundle = assemble_bundle(scal, edge, mat)
    omega = 7.3
    D = bundle.D_kappa(omega)
    ref = bundle.D_sigma + 1j * omega * bundle.D_eps
    assert abs(D - ref).max() == 0.0


def _interior_weak_div_norm(field, subdivisions, domain):
    mesh = build_box_mesh(domain, subdivisions)
    bt = boundary_entities(mesh)
    whole = Box(lo=tuple(lo for lo, _ in domain), hi=tuple(hi for _, hi in domain))
    tags = tag_regions(mesh, [(whole, AIR)])
    mat = MaterialField.uniform(mesh, tags, sigma=0.0, eps=1.0, nu=1.0)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec())
    D = -assemble_grad_coupling(scal, edge, mat, "eps").T
    a = edge_interpolate(mesh, field, n_gauss=12)
    interior = np.flatnonzero(~bt.node_mask)
    return np.linalg.norm((D @ a)[interior]), np.linalg.norm(a)


def test_weak_divergence_of_divergence_free_interpolants():
    # the trigonometric case's tensor-product structure makes its interpolant
    # exactly weak-divergence-free on these grids; a non-separable
    # divergence-free field exhibits the generic decay under refinement
    case = ManufacturedCase()
    for s in (2, 4):
        norm, scale = _interior_weak_div_norm(case.A, (s, s, s), case.domain)
        assert norm <= 1e-12 * max(scale, 1.0)

    def curl_field(p):
        # curl of (0, 0, sin(x y / 3)): divergence-free, not separable
        x, y, z = np.atleast_2d(p).T
        c = np.cos(x * y / 3.0)
        return np.stack([x / 3.0 * c, -y / 3.0 * c, np.zeros_like(c)], axis=1)

    coarse, _ = _interior_weak_div_norm(curl_field, (4, 4, 4), case.domain)
    fine, _ = _interior_weak_div_norm(curl_field, (8, 8, 8), case.domain)
    assert fine < 0.5 * coarse


def test_charge_vector_zero_source():
    _, _, _, mat, scal, _ = _uniform_setup((2, 2, 2))
    q = assemble_charge_vector(scal, lambda p: np.zeros(p.shape[0]))
    assert np.all(q == 0)


def test_current_vector_gradient_source_matches_incidence(rng):
    # J = grad of a nodal function g: moments equal M_1 P g
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    g = rng.standard_normal(mesh.n_nodes)

    def grad_g(pts):
        out = np.zeros((pts.shape[0], 3))
        cells, refs = mesh.locate_points(pts)
        for i, (c, r) in enumerate(zip(cells, refs)):
            _, (grads,) = physical_scalar_basis(mesh.spacing, r)
            out[i] = g[mesh.cells[c]] @ grads
        return out

    j = assemble_current_vector(edge, grad_g)
    M = assemble_mass(edge, mat, np.ones(mesh.n_cells))
    P = gradient_incidence(mesh)
    expected = M @ (P @ g)
    assert np.allclose(j.real, expected, rtol=1e-10, atol=1e-12)


def test_current_vector_constant_field_unit_cell():
    # closed form: int e_z . w_i over the unit cell = 1/4 for each z-edge
    _, _, _, mat, _, edge = _uniform_setup((1, 1, 1))
    e_z = np.array([0.0, 0.0, 1.0])
    j = assemble_current_vector(edge, lambda p: np.tile(e_z, (p.shape[0], 1)))
    expected = np.zeros(12)
    expected[8:] = 0.25
    assert np.allclose(j.real, expected, atol=1e-13)


def test_source_moments_match_whole_mesh_oracle():
    # 7^3 = 343 cells span more than one block and end in a partial one
    mesh, _, _, _, scal, edge = _uniform_setup((7, 7, 7),
                                               extents=((0, 1), (0, 2), (-1, 1)))
    chunk = assembly._SOURCE_CHUNK_CELLS
    assert chunk < mesh.n_cells and mesh.n_cells % chunk
    seen = []

    def watched(f):
        def call(p):
            seen.append(p.shape[0])
            assert all(p[:, i].flags.c_contiguous for i in range(3))
            return f(p)
        return call

    def rho(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.exp(1j * (x * y + z)) * (1.0 + x * y * z)

    def current(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return np.stack([np.sin(x * y) + 1j * z, np.exp(x + y * z),
                         1j * (x - y) * np.cos(z * x)], axis=1)

    order = assembly._SOURCE_QUAD_ORDER
    for got, ref in ((assemble_charge_vector(scal, watched(rho)),
                      source_moments(mesh, rho, "scalar", order)),
                     (assemble_current_vector(edge, watched(current)),
                      source_moments(mesh, current, "edge", order))):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # 7^3 points per cell; one call per block and never more than a block
    assert max(seen) == chunk * 7 ** 3
    assert len(seen) == 2 * -(-mesh.n_cells // chunk)
    assert sum(seen) == 2 * mesh.n_cells * 7 ** 3


def test_symmetry_invariants():
    _, _, _, mat, scal, edge = _two_region_setup()
    bundle = assemble_bundle(scal, edge, mat)
    for name in ("K_sigma", "K_eps", "M_sigma", "M_eps", "C_nu"):
        A = getattr(bundle, name)
        scale = max(abs(A).max(), 1e-300)
        assert abs(A - A.T).max() < 1e-13 * scale, name


def test_kappa_mass_block_structure():
    # direct complex-weight assembly equals M_sigma + i w M_eps entrywise,
    # and M_sigma vanishes on air-only rows/columns
    mesh, _, tags, mat, scal, edge = _two_region_setup()
    omega = 3.7
    M_kappa = assemble_mass(edge, mat, mat.kappa(omega))
    combo = assemble_mass(edge, mat, "sigma") + 1j * omega * assemble_mass(edge, mat, "eps")
    assert abs(M_kappa - combo).max() <= 1e-13 * abs(M_kappa).max()
    M_sigma = assemble_mass(edge, mat, "sigma")
    air = ~tags.conductor_edges
    assert abs(M_sigma[air]).max() == 0.0
    assert abs(M_sigma.tocsc()[:, air]).max() == 0.0


def test_assembly_deterministic():
    _, _, _, mat, scal, edge = _two_region_setup()
    A = assemble_grad_coupling(scal, edge, mat, "eps")
    B = assemble_grad_coupling(scal, edge, mat, "eps")
    assert np.array_equal(A.data, B.data)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.indptr, B.indptr)
