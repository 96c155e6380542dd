from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.constants import epsilon_0

from aphi.scenario import Scenario, RegionSpec, academic_scenario, mms_scenario
from aphi.mesh import (Box, FACE_LABELS, boundary_entities, build_box_mesh,
                       derive_entity_tags)
from aphi.physics import run_two_step, solve_eqs_step
from aphi.solve import sparse_lu_solve
from aphi.spaces import DirichletSpec, build_scalar_space, gradient_incidence
from aphi.system import (FrequencyPoint, ScalingFactors, StaticSingularityError,
                         _check_conductor_components, build_curl_matrix,
                         build_eqs_static_limit, build_eqs_system,
                         build_lagrange_system, build_rhs,
                         build_scaled_divergence, build_stabilized_system,
                         kappa_divergence, scaling_factors)
from oracles import dense_rank, floating_conductor_node


def test_frequency_point():
    fp = FrequencyPoint(50.0)
    assert fp.omega == pytest.approx(2 * np.pi * 50.0)
    with pytest.raises(ValueError):
        FrequencyPoint(-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            FrequencyPoint(bad)


def test_scaling_factors_formula():
    class Mat:
        max_sigma = 0.0
        max_eps = epsilon_0
    f = scaling_factors(0.0, Mat)
    assert f.beta == 1.0
    assert f.gamma == pytest.approx(1e-6 / epsilon_0)

    class Mat2:
        max_sigma = 6e7
        max_eps = epsilon_0
    f2 = scaling_factors(1.0, Mat2)
    assert f2.beta == 2.0
    assert f2.gamma == pytest.approx(2.0 * (6e7 + 1e-6) / epsilon_0)


def test_scaling_factors_positive():
    class Mat:
        max_sigma = 0.0
        max_eps = 1.0
    for omega in (0.0, 1e-9, 1.0, 1e12):
        f = scaling_factors(omega, Mat)
        assert f.beta > 0 and f.gamma > 0
    with pytest.raises(ValueError):
        ScalingFactors(beta=0.0, gamma=1.0)


def test_eqs_matrix_linearity(academic_built):
    bundle = academic_built.bundle
    omega = 123.4
    K = bundle.K_kappa(omega)
    ref = bundle.K_sigma + 1j * omega * bundle.K_eps
    assert abs(K - ref).max() == 0.0


def test_eqs_kappa_vanishes_nonconducting_static(mms_built_sigma0):
    # sigma = 0 everywhere: the omega -> 0 scalar matrix is identically zero
    K0 = mms_built_sigma0.bundle.K_kappa(0.0)
    assert abs(K0).max() == 0.0


def test_eqs_rhs_is_lift_only_for_dirichlet_drive(academic_built):
    # no volume charge: the free-row RHS comes from the prescribed values,
    # lifted through K_kappa on conductor rows and K_eps on air rows
    bundle = academic_built.bundle
    omega = 2 * np.pi * 50.0
    K, rhs = build_eqs_system(bundle, omega)
    scal = bundle.scalar
    in_cond = bundle.material.tags.conductor_nodes[scal.free]
    assert in_cond.any() and not in_cond.all()
    for op, rows in ((bundle.K_kappa(omega), in_cond), (bundle.K_eps, ~in_cond)):
        lift = -op[scal.free[rows]][:, scal.constrained] @ scal.values
        assert np.abs(lift).max() > 0
        np.testing.assert_allclose(rhs[rows], lift, rtol=1e-12, atol=0)


@pytest.mark.parametrize("f", [0.0, 1e3])
def test_no_source_leaves_only_the_dirichlet_terms(academic_built, f):
    # without a source object both right-hand sides are exactly the
    # Dirichlet lift of step one and -G_kappa u of step two
    bundle, scal = academic_built.bundle, academic_built.scalar
    assert bundle.source is None
    omega = FrequencyPoint(f).omega
    _, rhs = build_eqs_system(bundle, omega)
    in_cond = bundle.material.tags.conductor_nodes[scal.free]
    lift = np.empty(scal.n_free, dtype=complex)
    for op, rows in ((bundle.K_kappa(omega), in_cond), (bundle.K_eps, ~in_cond)):
        lift[rows] = -op[scal.free[rows]][:, scal.constrained] @ scal.values
    assert np.array_equal(rhs, lift)
    u_full, _ = solve_eqs_step(academic_built, omega)
    assert np.array_equal(build_rhs(bundle, omega, u_full),
                          -(bundle.G_kappa(omega) @ u_full)[bundle.edge.free])


def test_eqs_system_rows_continuous_at_zero_frequency(academic_built):
    # the air rows are divided by i*omega, so every row of the scalar
    # system tends to the same row of the static system
    bundle = academic_built.bundle
    K1, _ = build_eqs_system(bundle, 2 * np.pi * 1e-6)
    K0, _ = build_eqs_static_limit(bundle)
    row_max = np.asarray(abs(K0).max(axis=1).todense()).ravel()
    row_diff = np.asarray(abs(K1 - K0).max(axis=1).todense()).ravel()
    assert np.all(row_max > 0)
    assert np.all(row_diff <= 1e-12 * row_max)


def test_eqs_step_is_one_solve_at_zero_frequency(academic_built):
    u, rep = solve_eqs_step(academic_built, 0.0)
    scal = academic_built.scalar
    assert rep.x.shape == (scal.n_free,)
    assert np.array_equal(u[scal.free], rep.x)
    assert rep.rel_residual <= 1e-12


def test_eqs_sources_evaluated_only_on_their_rows():
    # the manufactured case's materials are uniform, so eqs_rhs gives every
    # free row's source, the uniform conductor's at 0 Hz too
    for sigma in (0.0, 6e7):
        built = mms_scenario(sigma, (3, 3, 3)).build()
        scal, source = built.scalar, built.bundle.source
        for omega in (0.0, 2 * np.pi * 10.0):
            _, rhs = build_eqs_system(built.bundle, omega)
            assert np.array_equal(rhs, source.eqs_rhs(scal, omega)[scal.free])
        _, rhs = build_eqs_static_limit(built.bundle)
        assert np.array_equal(rhs, source.eqs_rhs(scal, 0.0)[scal.free])


def test_static_limit_matches_small_frequency(academic_built):
    u0, _ = solve_eqs_step(academic_built, 0.0)
    u1, _ = solve_eqs_step(academic_built, 2 * np.pi * 1e-6)
    assert np.linalg.norm(u0 - u1) / np.linalg.norm(u0) < 1e-3


def test_static_limit_all_air_is_electrostatics():
    # (4,4,4) academic mesh has no cell centroid inside the bars: all air
    built = academic_scenario((4, 4, 4)).build()
    assert not built.material.tags.conductor_cells.any()
    scal = built.scalar
    K0, _ = build_eqs_static_limit(built.bundle)
    assert abs(K0 - built.bundle.K_eps[scal.free][:, scal.free]).max() == 0.0
    u, _ = solve_eqs_step(built, 0.0)
    resid = built.bundle.K_eps[scal.free] @ u
    assert np.linalg.norm(resid) < 1e-12 * abs(built.bundle.K_eps).max()


def test_floating_conductor_raises():
    # conductor cube in the center, electrodes on x faces it never touches
    L = 1.0
    whole = Box(lo=(0, 0, 0), hi=(L, L, L))
    blob = Box(lo=(0.3, 0.3, 0.3), hi=(0.7, 0.7, 0.7))
    scenario = Scenario(
        extents=((0, L),) * 3, subdivisions=(3, 3, 3),
        regions=(RegionSpec(box=whole, eps_r=1.0, sigma=0.0),
                 RegionSpec(box=blob, eps_r=1.0, sigma=1.0)),
        phi_bcs=(("xmin", 0.0), ("xmax", 1.0)), a_zero=FACE_LABELS)
    built = scenario.build()
    assert built.material.tags.conductor_cells.sum() == 1
    with pytest.raises(StaticSingularityError):
        build_eqs_static_limit(built.bundle)


@given(st.lists(st.booleans(), min_size=27, max_size=27),
       st.lists(st.sampled_from(FACE_LABELS), unique=True))
@example([i in (13, 26) for i in range(27)], [])  # two floating: node 21 named
def test_floating_conductor_check_matches_loop_oracle(conductor_cells, phi_faces):
    mesh = build_box_mesh(((0, 1),) * 3, (3, 3, 3))
    tags = derive_entity_tags(mesh, np.array(conductor_cells))
    scalar = build_scalar_space(mesh, boundary_entities(mesh), DirichletSpec(
        scalar=tuple((face, 0.0) for face in phi_faces)))
    bundle = SimpleNamespace(scalar=scalar, material=SimpleNamespace(tags=tags))
    expected = floating_conductor_node(mesh, tags.conductor_cells, scalar.constrained)
    if expected is None:
        _check_conductor_components(bundle)
    else:
        with pytest.raises(StaticSingularityError) as err:
            _check_conductor_components(bundle)
        assert err.value.component_node == expected


def test_curl_matrix_static_rank_deficiency(academic_built):
    W0 = build_curl_matrix(academic_built.bundle, 0.0)
    deficiency = W0.shape[0] - dense_rank(W0)
    assert deficiency == academic_built.partition.tree.size


def test_curl_matrix_symmetric_and_linear(academic_built):
    bundle = academic_built.bundle
    for f in (0.0, 17.0, 1e5):
        omega = 2 * np.pi * f
        W = build_curl_matrix(bundle, omega)
        assert abs(W - W.T).max() <= 1e-13 * abs(W).max()
        fe = bundle.edge.free
        ref = (bundle.C_nu + 1j * omega * bundle.M_sigma
               - omega ** 2 * bundle.M_eps)[fe][:, fe]
        assert abs(W - ref).max() == 0.0


def test_curl_matrix_approaches_static_limit(academic_built):
    bundle = academic_built.bundle
    C = build_curl_matrix(bundle, 0.0)
    norms = [abs(build_curl_matrix(bundle, 2 * np.pi * f) - C).max()
             for f in (1.0, 1e-2, 1e-4)]
    assert norms[2] < norms[1] < norms[0]
    assert norms[2] / norms[1] == pytest.approx(1e-2, rel=1e-3)  # linear in omega


def test_rhs_zero_sources(academic_built):
    j = build_rhs(academic_built.bundle, 1.0, np.zeros(academic_built.mesh.n_nodes))
    assert np.all(j == 0)


def test_rhs_compatibility_academic(academic_built):
    # the gradient moments of j(u) vanish once the scalar step is solved
    omega = 2 * np.pi * 50.0
    u, _ = solve_eqs_step(academic_built, omega)
    j = build_rhs(academic_built.bundle, omega, u)
    P = gradient_incidence(academic_built.mesh).tocsr()
    Pg = P[academic_built.edge.free][:, academic_built.gauge.gauge_nodes]
    assert np.linalg.norm(Pg.T @ j) <= 1e-10 * np.linalg.norm(j)


def test_rhs_matches_manufactured_sources(mms_built_sigma0):
    # j(u) with the exact nodal interpolant of phi approximates the moment
    # vector of J_s - kappa grad phi
    built = mms_built_sigma0
    case = built.mms
    omega = 2 * np.pi * 10.0
    phi_nodes = case.phi(built.mesh.nodes).astype(complex)
    j = build_rhs(built.bundle, omega, phi_nodes)
    from aphi.assembly import assemble_current_vector
    kappa = case.kappa(omega)
    ref = case.current_vector(built.edge, omega) \
        - kappa * assemble_current_vector(built.edge, case.grad_phi_terms)
    # interpolation error of grad phi is O(h^1..2); compare at that level
    scale = np.linalg.norm(ref[built.edge.free])
    diff = np.linalg.norm(j - ref[built.edge.free])
    assert diff < 0.1 * scale


def test_scaled_divergence_all_air(mms_built_sigma0):
    built = mms_built_sigma0
    factors = scaling_factors(0.0, built.material)
    D = build_scaled_divergence(built.bundle, 0.0, factors, built.gauge)
    ref = built.bundle.D_eps[built.gauge.gauge_nodes][:, built.edge.free]
    assert abs(D - factors.gamma * ref).max() <= 1e-13 * abs(D).max()


def test_scaled_divergence_nonconducting_matches_kappa_form(mms_built_sigma0):
    # with sigma = 0 and unit factors, D equals D_kappa / (i*omega)
    built = mms_built_sigma0
    omega = 2 * np.pi * 42.0
    factors = ScalingFactors(beta=1.0, gamma=1.0)
    D = build_scaled_divergence(built.bundle, omega, factors, built.gauge)
    Dk = kappa_divergence(built.bundle, omega, built.gauge)
    assert abs(D - Dk / (1j * omega)).max() <= 1e-13 * abs(D).max()


def test_scaled_divergence_no_zero_rows_at_static(academic_built):
    built = academic_built
    factors = scaling_factors(0.0, built.material)
    D = build_scaled_divergence(built.bundle, 0.0, factors, built.gauge)
    row_max = np.array([abs(D[i]).max() for i in range(D.shape[0])])
    assert np.all(row_max > 0)


def test_scaled_divergence_conductor_rows_scale_implicit_constraint(academic_built):
    # for omega > 0, conductor rows are beta times the kappa-weighted rows
    built = academic_built
    omega = 2 * np.pi * 3.0
    factors = scaling_factors(omega, built.material)
    D = build_scaled_divergence(built.bundle, omega, factors, built.gauge)
    Dk = kappa_divergence(built.bundle, omega, built.gauge)
    cond_rows = built.material.tags.conductor_nodes[built.gauge.gauge_nodes]
    diff = abs(D[cond_rows] - factors.beta * Dk[cond_rows]).max()
    assert diff <= 1e-13 * abs(D).max()


def test_lagrange_system_symmetric_nonconducting_static(mms_built_sigma0):
    built = mms_built_sigma0
    W = build_curl_matrix(built.bundle, 0.0)
    factors = scaling_factors(0.0, built.material)
    D = build_scaled_divergence(built.bundle, 0.0, factors, built.gauge)
    S, b = build_lagrange_system(W, D, np.zeros(W.shape[0], dtype=complex))
    assert abs(S - S.T).max() <= 1e-13 * abs(S).max()
    assert b.shape[0] == W.shape[0] + D.shape[0]


def test_lagrange_solution_satisfies_constraint(academic_built):
    built = academic_built
    sol = run_two_step(built, 7.0, "lagrange")
    factors = scaling_factors(sol.frequency.omega, built.material)
    D = build_scaled_divergence(built.bundle, sol.frequency.omega, factors,
                                built.gauge)
    a_free = sol.a[built.edge.free]
    assert np.linalg.norm(D @ a_free) <= 1e-10 * max(np.linalg.norm(a_free), 1e-30)


def test_lagrange_multiplier_decays_with_frequency(academic_built):
    norms = [np.linalg.norm(run_two_step(academic_built, f, "lagrange").lam)
             for f in (1e-3, 1.0, 1e3, 1e6)]
    assert norms[-1] < 1e-3 * norms[0]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_stabilized_nonsingular_where_original_is_not(academic_built):
    built = academic_built
    W0 = build_curl_matrix(built.bundle, 0.0)
    assert dense_rank(W0) < W0.shape[0]
    factors = scaling_factors(0.0, built.material)
    D = build_scaled_divergence(built.bundle, 0.0, factors, built.gauge)
    S, _ = build_stabilized_system(W0, D, np.zeros(W0.shape[0], dtype=complex),
                                   built.partition)
    assert S.shape == W0.shape
    assert dense_rank(S) == S.shape[0]


def test_stabilized_matches_original_at_high_frequency(academic_built):
    built = academic_built
    f = 1e6
    a_orig = run_two_step(built, f, "original").a
    a_tc = run_two_step(built, f, "tree-cotree").a
    assert np.linalg.norm(a_tc - a_orig) / np.linalg.norm(a_tc) < 1e-8


def test_stabilized_solution_satisfies_constraint_everywhere(academic_built):
    built = academic_built
    for f in (0.0, 1e-3, 1.0, 1e3, 1e6):
        sol = run_two_step(built, f, "tree-cotree")
        factors = scaling_factors(sol.frequency.omega, built.material)
        D = build_scaled_divergence(built.bundle, sol.frequency.omega, factors,
                                    built.gauge)
        a_free = sol.a[built.edge.free]
        bound = 1e-10 * max(np.linalg.norm(a_free), 1e-30)
        assert np.linalg.norm(D @ a_free) <= bound


@pytest.fixture(scope="module")
def academic_built_444():
    # 4^3 rather than 3^3: at 3^3 the tree edges, sorted by position, reach
    # the gauge vertices in vertex order, so pairing and gauge order coincide
    return academic_scenario((4, 4, 4)).build()


@pytest.mark.parametrize("f", [0.0, 1e3])
def test_stabilized_rows_pair_tree_edges_with_divergence_rows(academic_built_444, f):
    # free-edge order: cotree rows are W's, tree row p is the divergence row
    # of the vertex tree edge p reaches, so no diagonal entry is left empty
    built = academic_built_444
    part = built.partition
    omega = 2 * np.pi * f
    W = build_curl_matrix(built.bundle, omega)
    D = build_scaled_divergence(built.bundle, omega,
                                scaling_factors(omega, built.material), built.gauge)
    j = np.random.default_rng(3).standard_normal(W.shape[0]) + 0j
    S, b = build_stabilized_system(W, D, j, part)
    assert S.shape == W.shape
    assert (S[part.cotree] != W[part.cotree]).nnz == 0
    assert (S[part.tree] != D[part.tree_vertex]).nnz == 0
    assert np.array_equal(b[part.cotree], j[part.cotree])
    assert not b[part.tree].any()
    coo = S.tocoo()
    stored = np.zeros(S.shape[0], dtype=bool)
    stored[coo.row[coo.row == coo.col]] = True
    assert stored.all()


def test_stabilized_row_count_guard(academic_built):
    built = academic_built
    W = build_curl_matrix(built.bundle, 0.0)
    factors = scaling_factors(0.0, built.material)
    D = build_scaled_divergence(built.bundle, 0.0, factors, built.gauge)
    with pytest.raises(AssertionError):
        build_stabilized_system(W, D[:-1], np.zeros(W.shape[0], dtype=complex),
                                built.partition)


def test_variant_equivalence_grid():
    # tree-cotree and Lagrange agree on both scenario families, omega = 0
    # included
    for scenario in (academic_scenario((2, 2, 2)), mms_scenario(0.0, (3, 3, 3))):
        built = scenario.build()
        for f in (0.0, 1e-3, 1.0, 1e3, 1e6):
            a_tc = run_two_step(built, f, "tree-cotree").a
            a_lm = run_two_step(built, f, "lagrange").a
            denom = max(np.linalg.norm(a_tc), 1.0)
            assert np.linalg.norm(a_tc - a_lm) / denom <= 1e-8, (scenario.name, f)


def test_scaling_invariance_of_stabilized_solution(academic_built, rng):
    # multiplying beta and gamma by arbitrary positive factors rescales
    # constraint rows only; the solution is unchanged beyond solver noise
    built = academic_built
    omega = 2 * np.pi * 5.0
    u, _ = solve_eqs_step(built, omega)
    W = build_curl_matrix(built.bundle, omega)
    j = build_rhs(built.bundle, omega, u)
    base = scaling_factors(omega, built.material)
    solutions = []
    for fb, fg in [(1.0, 1.0), (37.0, 0.002), (1e-4, 1e4)]:
        factors = ScalingFactors(beta=base.beta * fb, gamma=base.gamma * fg)
        D = build_scaled_divergence(built.bundle, omega, factors, built.gauge)
        S, b = build_stabilized_system(W, D, j, built.partition)
        rep = sparse_lu_solve(S, b)
        solutions.append(rep.x)
    ref = np.linalg.norm(solutions[0])
    for other in solutions[1:]:
        assert np.linalg.norm(other - solutions[0]) <= 1e-9 * ref


def test_frequency_consistency_of_stabilized(academic_built):
    # for omega > 0 the replaced rows were redundant: the stabilized
    # solution still satisfies the original curl system
    built = academic_built
    for f in (1.0, 1e3, 1e6):
        omega = 2 * np.pi * f
        u, _ = solve_eqs_step(built, omega)
        W = build_curl_matrix(built.bundle, omega)
        j = build_rhs(built.bundle, omega, u)
        a_free = run_two_step(built, f, "tree-cotree").a[built.edge.free]
        assert np.linalg.norm(W @ a_free - j) <= 1e-8 * np.linalg.norm(j)
