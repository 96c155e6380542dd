import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from aphi import assembly
from aphi.assembly import (ManufacturedCase, MaterialError, MaterialField,
                           MatrixBundle, assemble_bundle, assemble_charge_vector,
                           assemble_current_vector)
from aphi.mesh import (AIR, CONDUCTOR, Box, boundary_entities, build_box_mesh,
                       tag_regions)
from aphi.spaces import (DirichletSpec, build_edge_space, build_scalar_space,
                         gradient_incidence, physical_edge_basis,
                         physical_scalar_basis)
from aphi.scenario import load_scenario
from aphi.gauge import build_gauge_graph
from aphi.physics import gauge_residual
from aphi.system import (build_curl_matrix, build_eqs_system,
                         build_scaled_divergence, kappa_coupling,
                         scaling_factors)
from oracles import (dense_rank, edge_interpolate, full_scatter, is_canonical_csr,
                     min_eig_sym, polynomial_moments, source_moments,
                     volume_quadrature)

UNIT = ((0, 1), (0, 1), (0, 1))
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
STORED_MATRICES = ("K_sigma", "K_eps", "G_sigma", "G_eps", "M_sigma", "M_eps",
                   "C_nu")
BUNDLE_MATRICES = STORED_MATRICES + ("D_sigma", "D_eps")  # D read off G


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
    K = assemble_bundle(scal, edge, mat).K_eps.toarray()
    assert np.allclose(np.diag(K), 1.0 / 3.0, atol=1e-14)

    for l in range(3):
        def integrand(p, l=l):
            ref = 2.0 * p - 1.0
            _, (grads,) = physical_scalar_basis(mesh.spacing, ref)
            return float(grads[l] @ grads[l])
        oracle = volume_quadrature(integrand, (0, 0, 0), (1, 1, 1), n=4)
        assert np.isclose(K[l, l], oracle, rtol=1e-12)


def test_stiffness_constant_nullvector():
    _, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    K = assemble_bundle(scal, edge, mat).K_eps
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) < 1e-13 * abs(K).max()


def test_sigma_stiffness_zero_air_rows():
    mesh, _, tags, mat, scal, edge = _two_region_setup()
    K = assemble_bundle(scal, edge, mat).K_sigma
    air_nodes = ~tags.conductor_nodes
    assert abs(K[air_nodes]).max() == 0.0
    assert abs(K[tags.conductor_nodes]).max() > 0.0


def test_grad_coupling_equals_mass_times_incidence():
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    bundle = assemble_bundle(scal, edge, mat)
    G, M = bundle.G_eps, bundle.M_eps
    P = gradient_incidence(mesh)
    diff = abs(G - M @ P).max()
    assert diff < 1e-12 * abs(G).max()
    # G annihilates constants
    assert np.max(np.abs(G @ np.ones(mesh.n_nodes))) < 1e-13 * abs(G).max()


def test_sigma_coupling_zero_air_columns():
    mesh, _, tags, mat, scal, edge = _two_region_setup()
    G = assemble_bundle(scal, edge, mat).G_sigma.tocsc()
    air_nodes = ~tags.conductor_nodes
    assert abs(G[:, air_nodes]).max() == 0.0


def test_edge_mass_positive_definite():
    _, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    M = assemble_bundle(scal, edge, mat).M_eps
    assert min_eig_sym(M) > 0.0


def test_sigma_mass_zero_when_nonconducting():
    _, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    M = assemble_bundle(scal, edge, mat).M_sigma
    assert M.nnz == 0


def test_mass_quadratic_form_matches_fine_quadrature(rng):
    # integrate |interpolant|^2 cell by cell with an independent 5^3 rule
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2), extents=((0, 1.2), (0, 0.9), (0, 1.0)))
    M = assemble_bundle(scal, edge, mat).M_eps
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
    C = assemble_bundle(scal, edge, mat).C_nu
    P = gradient_incidence(mesh)
    assert abs(C @ P).max() < 1e-12 * abs(C).max()


def test_curl_curl_rank_single_cell():
    # kernel = gradients: rank = 12 - (8 - 1) = 5
    _, _, _, mat, scal, edge = _uniform_setup((1, 1, 1))
    C = assemble_bundle(scal, edge, mat).C_nu
    assert dense_rank(C) == 5


def test_curl_curl_rank_constrained_222():
    from aphi.mesh import FACE_LABELS
    mesh = build_box_mesh(UNIT, (2, 2, 2))
    bt = boundary_entities(mesh)
    whole = Box(lo=(0, 0, 0), hi=(1, 1, 1))
    tags = tag_regions(mesh, [(whole, AIR)])
    mat = MaterialField.uniform(mesh, tags, sigma=0.0, eps=1.0, nu=1.0)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec(edge=FACE_LABELS))
    C = assemble_bundle(scal, edge, mat).C_nu
    C_free = C[edge.free][:, edge.free]
    assert C_free.shape == (6, 6)
    assert dense_rank(C_free) == 5  # n_w - one interior node


def _assert_same_csr(A, B, label):
    assert A.format == B.format == "csr" and A.shape == B.shape, label
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, part), getattr(B, part)), (label, part)


def test_weak_divergence_is_minus_coupling_transpose():
    # D = -G^T exactly: the same arrays, not only the same values; the
    # kappa-weighted one on the gauge rows and free-edge columns gives
    # delta_D to the last bit
    rng = np.random.default_rng(3)
    for config in ("academic", "mms_sigma6e7"):
        scenario = load_scenario(CONFIG_DIR / f"{config}.cfg")
        built = scenario.with_subdivisions((4, 4, 4)).build()
        bundle = built.bundle
        for name in ("sigma", "eps"):
            _assert_same_csr(getattr(bundle, f"D_{name}"),
                             (-getattr(bundle, f"G_{name}")).T.tocsr(), (config, name))
        n = built.edge.n_free
        a_free = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for f in (0.0, 1e3, 1e9):
            omega = 2 * np.pi * f
            G_kappa = bundle.G_sigma + 1j * omega * bundle.G_eps
            ref = (-G_kappa).T.tocsr()[built.gauge.gauge_nodes][:, built.edge.free]
            assert gauge_residual(bundle, omega, built.edge.full_vector(a_free),
                                  built.gauge) == np.linalg.norm(ref @ a_free), \
                (config, f"kappa at {f:g} Hz")


def test_bundle_stores_each_operator_once():
    # seven stored matrices; no one of them is another's transpose or its
    # negative, so a stored divergence would show
    names = {f.name for f in fields(MatrixBundle)}
    assert names == set(STORED_MATRICES) | {"scalar", "edge", "material", "source"}
    _, _, _, mat, scal, edge = _two_region_setup()
    bundle = assemble_bundle(scal, edge, mat)
    for a, b in itertools.permutations(STORED_MATRICES, 2):
        A, B = getattr(bundle, a), getattr(bundle, b).T
        if A.shape == B.shape:
            for sign in (1, -1):
                assert abs(A - sign * B).max() > 0, (a, b, sign)


@pytest.mark.parametrize("config, n", [("two-region", 3), ("academic", 4),
                                       ("academic", 5), ("academic", 11),
                                       ("mms_sigma6e7", 4)])
def test_gauge_residual_is_the_kappa_weighted_divergence_norm(config, n):
    # delta_D, read off G_kappa^T a_full, equals the norm of the kappa
    # divergence D_sigma + i*omega*D_eps on the gauge rows and free edges,
    # float for float, at every sweep frequency
    if config == "two-region":
        mesh, _, _, mat, scal, edge = _two_region_setup()
        bundle, gauge = assemble_bundle(scal, edge, mat), build_gauge_graph(mesh, edge, scal)
    else:
        built = load_scenario(CONFIG_DIR / f"{config}.cfg").with_subdivisions(
            (n,) * 3).build()
        bundle, gauge, edge = built.bundle, built.gauge, built.edge
    rng = np.random.default_rng(11)
    a_free = rng.standard_normal(edge.n_free) + 1j * rng.standard_normal(edge.n_free)
    a_full = edge.full_vector(a_free)
    for f in (0.0, 1e-3, 1.0, 1e3, 1e6, 1e9):
        omega = 2 * np.pi * f
        D = (bundle.D_sigma + 1j * omega * bundle.D_eps)[gauge.gauge_nodes][:, edge.free]
        assert gauge_residual(bundle, omega, a_full, gauge) == \
            np.linalg.norm(D @ a_free), f


def _interior_weak_div_norm(field, subdivisions, domain):
    mesh = build_box_mesh(domain, subdivisions)
    bt = boundary_entities(mesh)
    whole = Box(lo=tuple(lo for lo, _ in domain), hi=tuple(hi for _, hi in domain))
    tags = tag_regions(mesh, [(whole, AIR)])
    mat = MaterialField.uniform(mesh, tags, sigma=0.0, eps=1.0, nu=1.0)
    scal = build_scalar_space(mesh, bt, DirichletSpec())
    edge = build_edge_space(mesh, bt, DirichletSpec())
    D = assemble_bundle(scal, edge, mat).D_eps
    a = edge_interpolate(mesh, field, n_gauss=12)
    on_faces = np.concatenate([face.nodes for face in bt.values()])
    interior = np.setdiff1d(np.arange(mesh.n_nodes), on_faces)
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


def _term_values(terms, p):
    """A tuple of terms (coef, fx, fy, fz) summed at (n, 3) points."""
    return sum(c * fx(p[:, 0]) * fy(p[:, 1]) * fz(p[:, 2]) for c, fx, fy, fz in terms)


def test_charge_vector_zero_source():
    _, _, _, mat, scal, _ = _uniform_setup((2, 2, 2))
    for rho in ((), ((0.0, np.exp, np.cos, np.sin),)):
        q = assemble_charge_vector(scal, rho)
        assert np.all(q == 0)


def test_current_vector_gradient_source_matches_incidence(rng):
    # J = grad g of a global trilinear g = sum c[p] x^p0 y^p1 z^p2, which
    # lies in the nodal space: its moments equal M_1 P g
    mesh, _, _, mat, scal, edge = _uniform_setup((2, 2, 2))
    c = rng.standard_normal((2, 2, 2))
    powers = list(itertools.product((0, 1), repeat=3))
    g = sum(c[p] * np.prod(mesh.nodes ** np.array(p), axis=1) for p in powers)
    monomial = (np.ones_like, lambda t: t)  # t^0, t^1
    grad_g = [tuple((c[p], *(monomial[p[t] - (t == ax)] for t in range(3)))
                    for p in powers if p[ax])
              for ax in range(3)]

    j = assemble_current_vector(edge, grad_g)
    M = assemble_bundle(scal, edge, mat).M_eps  # eps = 1
    P = gradient_incidence(mesh)
    expected = M @ (P @ g)
    assert np.allclose(j.real, expected, rtol=1e-10, atol=1e-12)


def test_current_vector_constant_field_unit_cell():
    # closed form: int e_z . w_i over the unit cell = 1/4 for each z-edge
    _, _, _, mat, _, edge = _uniform_setup((1, 1, 1))
    one = np.ones_like
    j = assemble_current_vector(edge, ((), (), ((1.0, one, one, one),)))
    expected = np.zeros(12)
    expected[8:] = 0.25
    assert np.allclose(j.real, expected, atol=1e-13)


def test_source_moments_match_whole_mesh_oracle():
    # separable, non-trigonometric factors with complex coefficients, at
    # the assembly's order: the per-axis sums give the tensor rule's moments
    mesh, _, _, _, scal, edge = _uniform_setup((7, 7, 7),
                                               extents=((0, 1), (0, 2), (-1, 1)))
    rho = ((1.0 + 2.0j, np.exp, lambda t: 1.0 + t ** 2, np.cosh),
           (-0.5j, lambda t: t, np.exp, lambda t: 1.0 / (2.0 + t)))
    current = (((1.0, np.exp, np.sqrt, lambda t: t ** 3),),
               ((2.0j, lambda t: 1.0 / (1.0 + t), np.ones_like, np.exp),
                (-1.0, np.cosh, np.exp, np.ones_like)),
               ((0.5 - 1.0j, lambda t: t * t, lambda t: t - 1.0, np.tanh),))
    order = assembly._SOURCE_QUAD_ORDER
    for got, ref in ((assemble_charge_vector(scal, rho),
                      source_moments(mesh, lambda p: _term_values(rho, p), "scalar",
                                     order)),
                     (assemble_current_vector(edge, current),
                      source_moments(mesh, lambda p: np.stack(
                          [_term_values(t, p) for t in current], axis=1), "edge", order))):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


_box_axis = st.tuples(st.integers(1, 4), st.floats(0.3, 3.0), st.floats(-5.0, 5.0))
_coefs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=13)  # degree <= 12


@given(st.tuples(_box_axis, _box_axis, _box_axis),
       st.lists(st.tuples(st.integers(0, 3), st.complex_numbers(
           max_magnitude=2.0, allow_nan=False, allow_infinity=False),
           _coefs, _coefs, _coefs), min_size=1, max_size=4))
def test_source_moments_exact_for_polynomials(axes, raw_terms):
    # order 7 is exact to degree 13: a degree-12 factor times the linear
    # basis factor.  Each term goes to the charge (component 3) or to one
    # current component, and the oracle integrates each cell in closed form.
    n = tuple(k for k, _, _ in axes)
    extents = tuple((o, o + k * h) for k, h, o in axes)
    mesh, _, _, _, scal, edge = _uniform_setup(n, extents=extents)
    terms = [(k, (c, *(Polynomial(cf, domain=extents[a]) for a, cf in enumerate(cfs))))
             for k, c, *cfs in raw_terms]
    rho = tuple(t for k, t in terms if k == 3)
    current = tuple(tuple(t for k, t in terms if k == a) for a in range(3))
    got = {"scalar": assemble_charge_vector(scal, rho),
           "edge": assemble_current_vector(edge, current)}
    ref = {kind: np.zeros_like(v) for kind, v in got.items()}
    # The tolerance is 1e-12 of the exact moments, summed term by term so
    # that no cancellation between terms counts, plus a rounding floor for
    # terms whose exact moments cancel (an odd factor along a current's own
    # axis): 64 eps times a bound on the term's cell integrals, each factor
    # bounded on the window [-1, 1] by the 1-norm of its coefficients.  3000
    # examples rounded to at most 6 eps of that bound.  Below the smallest
    # normal double no relative precision is left.
    scale = {kind: 0.0 for kind in got}
    floor = {kind: np.finfo(float).tiny for kind in got}
    for k, t in terms:
        kind = "scalar" if k == 3 else "edge"
        alone = polynomial_moments(mesh, (t,) if k == 3 else tuple(
            (t,) if a == k else () for a in range(3)), kind)
        ref[kind] += alone
        scale[kind] += np.abs(alone).max()
        floor[kind] += 64 * np.finfo(float).eps * abs(t[0]) * np.prod(
            [np.abs(p.coef).sum() * (1.0 if a == k else h)
             for a, (_, h, _), p in zip(range(3), axes, t[1:])])
    for kind in got:
        assert np.abs(got[kind] - ref[kind]).max() <= 1e-12 * scale[kind] + floor[kind], kind


def test_symmetry_invariants():
    _, _, _, mat, scal, edge = _two_region_setup()
    bundle = assemble_bundle(scal, edge, mat)
    for name in ("K_sigma", "K_eps", "M_sigma", "M_eps", "C_nu"):
        A = getattr(bundle, name)
        scale = max(abs(A).max(), 1e-300)
        assert abs(A - A.T).max() < 1e-13 * scale, name


def test_kappa_mass_block_structure():
    # the conductivity block M_sigma of M_kappa = M_sigma + i w M_eps
    # vanishes on air-only rows/columns
    mesh, _, tags, mat, scal, edge = _two_region_setup()
    M_sigma = assemble_bundle(scal, edge, mat).M_sigma
    air = ~tags.conductor_edges
    assert abs(M_sigma[air]).max() == 0.0
    assert abs(M_sigma.tocsc()[:, air]).max() == 0.0


def test_assembly_deterministic():
    _, _, _, mat, scal, edge = _two_region_setup()
    A = assemble_bundle(scal, edge, mat).G_eps
    B = assemble_bundle(scal, edge, mat).G_eps
    assert np.array_equal(A.data, B.data)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.indptr, B.indptr)


def test_bundle_integrates_the_element_matrices_once(monkeypatch):
    # all seven weighted matrices scatter from one set of element matrices
    _, _, _, mat, scal, edge = _two_region_setup()
    calls = []
    real = assembly.element_matrices
    monkeypatch.setattr(assembly, "element_matrices",
                        lambda spacing: calls.append(spacing) or real(spacing))
    assemble_bundle(scal, edge, mat)
    assert len(calls) == 1


def _oracle_matrices(bundle):
    """The nine bundle matrices scattered over every cell and every entry
    of the element matrices, stored zeros included."""
    mesh = bundle.scalar.mesh
    mat = bundle.material
    elem = assembly.element_matrices(mesh.spacing)
    nodes, edges = mesh.cells, mesh.cell_edges
    n, e = mesh.n_nodes, mesh.n_edges
    out = {"C_nu": full_scatter(mat.nu, elem["C"], edges, edges, (e, e))}
    for name in ("sigma", "eps"):
        w = getattr(mat, name)
        out[f"K_{name}"] = full_scatter(w, elem["K"], nodes, nodes, (n, n))
        out[f"G_{name}"] = full_scatter(w, elem["G"], edges, nodes, (e, n))
        out[f"M_{name}"] = full_scatter(w, elem["M"], edges, edges, (e, e))
        out[f"D_{name}"] = (-out[f"G_{name}"]).T.tocsr()
    return out


def _assert_close(A, B, name):
    # duplicate sums may be taken in another order: 4 eps of the largest entry
    assert A.shape == B.shape, name
    scale = abs(B).max() if B.nnz else 0.0
    diff = abs(A - B)
    assert (diff.max() if diff.nnz else 0.0) <= 4 * np.finfo(float).eps * scale, name


def _assert_zero_free_bundle(bundle):
    """Each of the nine matrices equals the full scatter, stores no 0.0, is
    canonical, and the sigma-weighted ones live on the conductor cells."""
    oracle = _oracle_matrices(bundle)
    for name in BUNDLE_MATRICES:
        A = getattr(bundle, name)
        _assert_close(A, oracle[name], name)
        assert not np.any(A.data == 0), name
        assert is_canonical_csr(A), name
    mesh = bundle.scalar.mesh
    cells = bundle.material.tags.conductor_cells
    cn = np.zeros(mesh.n_nodes, dtype=bool)
    cn[mesh.cells[cells]] = True
    ce = np.zeros(mesh.n_edges, dtype=bool)
    ce[mesh.cell_edges[cells]] = True
    for name, (row_ok, col_ok) in {"K_sigma": (cn, cn), "G_sigma": (ce, cn),
                                   "M_sigma": (ce, ce), "D_sigma": (cn, ce)}.items():
        A = getattr(bundle, name).tocoo()
        assert row_ok[A.row].all() and col_ok[A.col].all(), name


@pytest.mark.parametrize("subdivs", [3, 4, 5])
@pytest.mark.parametrize("config", ["academic", "mms_sigma0", "mms_sigma6e7"])
def test_bundle_is_the_full_scatter_without_its_zeros(config, subdivs):
    scenario = load_scenario(CONFIG_DIR / f"{config}.cfg")
    built = scenario.with_subdivisions((subdivs,) * 3).build()
    _assert_zero_free_bundle(built.bundle)


@given(h=st.tuples(*[st.floats(0.3, 3.0)] * 3),
       subdivs=st.tuples(*[st.integers(1, 4)] * 3),
       boxes=st.lists(st.tuples(st.tuples(*[st.floats(0.0, 1.0)] * 3),
                                st.tuples(*[st.floats(0.0, 1.0)] * 3)),
                      max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_bundle_zero_free_on_anisotropic_cells_and_random_regions(h, subdivs, boxes, seed):
    # boxes in units of the domain, so some hold cells and some none
    extents = tuple((0.0, hi) for hi in h)
    mesh = build_box_mesh(extents, subdivs)
    bt = boundary_entities(mesh)
    regions = [(Box(lo=(0, 0, 0), hi=h), AIR)]
    for a, b in boxes:
        lo = tuple(min(p, q) * hi for p, q, hi in zip(a, b, h))
        up = tuple(max(p, q) * hi for p, q, hi in zip(a, b, h))
        regions.append((Box(lo=lo, hi=up), CONDUCTOR))
    tags = tag_regions(mesh, regions)
    r = np.random.default_rng(seed)
    n = mesh.n_cells
    mat = MaterialField(sigma=np.where(tags.conductor_cells, r.uniform(0.5, 5.0, n), 0.0),
                        eps=r.uniform(1.0, 4.0, n), nu=r.uniform(0.5, 2.0, n),
                        tags=tags)
    bundle = assemble_bundle(build_scalar_space(mesh, bt, DirichletSpec()),
                             build_edge_space(mesh, bt, DirichletSpec()), mat)
    _assert_zero_free_bundle(bundle)


@pytest.mark.parametrize("config, subdivs", [("academic", 3), ("academic", 5),
                                             ("mms_sigma6e7", 4)])
def test_per_frequency_operators_match_the_full_scatter(config, subdivs):
    # the dropped entries are zeros, so every operator that the system
    # builders form from the bundle has the full scatter's pattern and its
    # values
    scenario = load_scenario(CONFIG_DIR / f"{config}.cfg")
    built = scenario.with_subdivisions((subdivs,) * 3).build()
    ours, gauge = built.bundle, built.gauge
    # only the stored matrices are replaced; D follows from the oracle's G
    oracle = _oracle_matrices(ours)
    full = replace(ours, **{name: oracle[name] for name in STORED_MATRICES})
    for omega in (0.0, 2 * np.pi * 1e3, 2 * np.pi * 1e9):
        factors = scaling_factors(omega, built.material)
        for name, form in (("curl", lambda b: build_curl_matrix(b, omega)),
                           ("eqs", lambda b: build_eqs_system(b, omega)[0]),
                           ("scaled divergence",
                            lambda b: build_scaled_divergence(b, omega, factors, gauge)),
                           ("kappa coupling", lambda b: kappa_coupling(b, omega))):
            A, B = form(ours), form(full)
            label = f"{name} at omega {omega:g}"
            assert np.array_equal(A.indptr, B.indptr), label
            assert np.array_equal(A.indices, B.indices), label
            _assert_close(A, B, label)
