import numpy as np
import pytest

from hdgcd.assembly import (ProblemSpec, get_context, load, neumann_data, pull_back,
                            scatter_systems, stiffness, transport)
from hdgcd.mesh import BoundaryTag, build_uniform_triangulation, dirichlet_where
from hdgcd.supg import PE_LIMIT, PE_SERIES, assemble_supg, solve_supg, supg_tau
from hdgcd.analysis import error_l2
from hdgcd.cli import main


def test_tau_reference_value():
    # Pe = |b| / (2 eps) = 1, h = 1:  tau = 0.5 (coth 1 - 1)
    coth1 = (np.e ** 2 + 1.0) / (np.e ** 2 - 1.0)
    tau = supg_tau(1.0, 1.0, 0.5)
    assert tau == pytest.approx(0.5 * (coth1 - 1.0), rel=1e-15)
    assert tau == pytest.approx(0.15652, abs=5e-6)


def test_tau_small_peclet_series():
    # Pe = 5e-5 is below the series switch
    h, b = 0.25, 1.0
    eps = b / (2.0 * 5e-5)
    pe = 5e-5
    expect = (h / (2.0 * b)) * (pe / 3.0 - pe ** 3 / 45.0)
    assert supg_tau(h, b, eps) == pytest.approx(expect, rel=1e-15)
    # branch agreement at (almost) the same Peclet number on both sides of
    # the switch: the direct coth evaluation loses ~1e-7 to cancellation
    lo = supg_tau(1.0, 1.0, 1.0 / (2.0 * 1e-4 * (1.0 - 1e-9)))
    hi = supg_tau(1.0, 1.0, 1.0 / (2.0 * 1e-4 * (1.0 + 1e-9)))
    assert hi == pytest.approx(lo, rel=1e-6)


def test_tau_large_peclet_limit():
    # convection dominated: tau -> h / (2 |b|)
    tau = supg_tau(1.0, 1.0, 1e-12)
    assert tau == pytest.approx(0.5, rel=1e-11)
    # coth(50) - 1 is ~1e-43: both branches agree to machine precision
    lo = supg_tau(1.0, 1.0, 1.0 / (2.0 * 50.0 * (1.0 - 1e-9)))
    hi = supg_tau(1.0, 1.0, 1.0 / (2.0 * 50.0 * (1.0 + 1e-9)))
    assert abs(hi - lo) < 1e-10


def test_tau_degenerate_and_invalid():
    assert supg_tau(0.1, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        supg_tau(0.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        supg_tau(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        supg_tau(0.1, -1.0, 1.0)


def test_tau_at_subnormal_epsilon_takes_the_limit_without_a_warning(capsys):
    # Pe = |b| / (2 eps) overflows to inf, the asymptotic branch (filterwarnings = error)
    assert supg_tau(0.5, 1.0, 1e-310) == 0.25
    assert main(["--n", "2", "--method", "supg", "--epsilon", "1e-310"]) == 0
    assert capsys.readouterr().err == ""


def test_tau_monotone_in_epsilon():
    taus = [supg_tau(0.1, 1.0, eps) for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-6)]
    assert all(a < b for a, b in zip(taus, taus[1:]))
    assert taus[-1] <= 0.05  # capped by h / (2 |b|)


def test_supg_reproduces_linear_solution():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    prob = ProblemSpec(
        epsilon=1.0,
        b=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        f=lambda x, y: 1.0 + x,
        c=lambda x, y: np.ones_like(x),
        g_N=lambda x, y: np.where(x > 1.0 - 1e-12, 1.0, 0.0),
        boundary=rule, rho0=1.0)
    mesh = build_uniform_triangulation(4, rule)
    sol = solve_supg(prob, mesh)
    assert error_l2(sol, lambda x, y: x) < 1e-12
    x_v = mesh.vertices[:, 0]
    np.testing.assert_allclose(sol.nodal, x_v, atol=1e-12)


def test_supg_zero_at_dirichlet_vertices():
    from hdgcd.problems import case_smooth
    case = case_smooth(1e-3)
    mesh = build_uniform_triangulation(5, case.problem.boundary)
    sol = solve_supg(case.problem, mesh)
    on_boundary = ((mesh.vertices[:, 0] < 1e-12) | (mesh.vertices[:, 0] > 1 - 1e-12)
                   | (mesh.vertices[:, 1] < 1e-12) | (mesh.vertices[:, 1] > 1 - 1e-12))
    np.testing.assert_array_equal(sol.nodal[on_boundary], 0.0)
    assert sol.info["dofs_total"] == (5 - 1) ** 2
    assert sol.u.shape == (mesh.n_elements, 3)


def test_stabilized_system_matches_hand_assembly():
    # the plain P1 Galerkin system plus the streamline term, against a
    # direct hand assembly with analytic P1 element matrices
    mesh = build_uniform_triangulation(3)
    eps, bvec, c_val, f_val = 0.7, np.array([0.3, -0.2]), 2.0, 1.5
    prob = ProblemSpec(
        epsilon=eps,
        b=lambda x, y: (np.full_like(x, bvec[0]), np.full_like(x, bvec[1])),
        f=lambda x, y: np.full_like(x, f_val),
        c=lambda x, y: np.full_like(x, c_val), rho0=2.0)
    A, rhs, free = assemble_supg(prob, mesh)

    nv = mesh.n_vertices
    dense, plain = np.zeros((nv, nv)), np.zeros((nv, nv))
    load = np.zeros(nv)
    for t in range(mesh.n_elements):
        vid = mesh.triangles[t]
        p = mesh.vertices[vid]
        area = 0.5 * mesh.det_jacobians[t]
        # grad of barycentric coordinate i: perpendicular of the opposite
        # edge, scaled by 1 / (2 area)
        g = np.empty((3, 2))
        for i in range(3):
            e = p[(i + 2) % 3] - p[(i + 1) % 3]
            g[i] = np.array([-e[1], e[0]]) / (2.0 * area)
        stiff = eps * area * (g @ g.T)
        mass = c_val * area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        conv = area / 3.0 * np.outer(np.ones(3), g @ bvec)
        # tau_K (b . grad phi_j + c phi_j, b . grad phi_i)_K and (f, tau_K b . grad phi_i)_K
        tau = supg_tau(mesh.h_K[t], np.hypot(*bvec), eps)
        stab = tau * area * np.outer(g @ bvec, g @ bvec + c_val / 3.0)
        plain[np.ix_(vid, vid)] += stiff + mass + conv
        dense[np.ix_(vid, vid)] += stiff + mass + conv + stab
        load[vid] += f_val * area / 3.0 + tau * f_val * area * (g @ bvec)
    np.testing.assert_allclose(A.toarray(), dense[np.ix_(free, free)], atol=1e-13)
    np.testing.assert_allclose(rhs, load[free], atol=1e-14)
    # the unstabilized system of the Galerkin comparison below, element by element
    A_plain, _, free_plain = plain_system(prob, mesh)
    np.testing.assert_array_equal(free_plain, free)
    np.testing.assert_allclose(A_plain.toarray(), plain[np.ix_(free, free)], atol=1e-13)


def test_tau_on_arrays_matches_scalar_calls():
    # Peclet numbers on both sides of both switch points, and b = 0
    eps = 0.5
    b_norm = np.array([0.0, 2e-5 * 2 * eps, 2e-4 * 2 * eps, 1.0, 40.0, 60.0, 1e4])
    h_K = np.linspace(0.1, 0.7, b_norm.size)
    pe = b_norm / (2 * eps)
    assert (pe[1:] < PE_SERIES).any() and (pe > PE_LIMIT).any()
    assert ((pe > PE_SERIES) & (pe < PE_LIMIT)).any()
    taus = supg_tau(h_K, b_norm, eps)
    assert isinstance(taus, np.ndarray) and taus.shape == b_norm.shape
    expect = [supg_tau(float(h), float(b), eps) for h, b in zip(h_K, b_norm)]
    assert all(isinstance(t, float) for t in expect)
    np.testing.assert_array_equal(taus, expect)
    assert taus[0] == 0.0
    with pytest.raises(ValueError, match="b_norm"):
        supg_tau(h_K, np.where(b_norm > 50.0, -1.0, b_norm), eps)
    with pytest.raises(ValueError, match="h_K"):
        supg_tau(np.where(b_norm == 1.0, 0.0, h_K), b_norm, eps)
    with pytest.raises(ValueError, match="epsilon"):
        supg_tau(h_K, b_norm, 0.0)


def plain_system(problem, mesh, quad_order=None):
    """The unstabilized P1 Galerkin system (A, rhs, free) on the free
    vertices, from the volume kernels SUPG shares with the HDG element
    systems."""
    ctx = get_context(mesh, 1, quad_order)
    w, c = ctx.volume_weights(mesh), ctx.volume_values(problem.c, "c")
    mats = stiffness(ctx, mesh, problem.epsilon)
    mats += transport(ctx, w * pull_back(mesh, ctx.volume_values(problem.b, "b", vector=True)),
                      None if c is None else w * c)
    rhs = load(ctx, w * ctx.volume_values(problem.f, "f"), neumann_data(problem, mesh, ctx),
               ctx.traces(mesh))
    free = np.setdiff1d(np.arange(mesh.n_vertices),
                        mesh.edges[mesh.edge_tags == BoundaryTag.DIRICHLET])
    gids = np.full(mesh.n_vertices, -1)
    gids[free] = np.arange(free.size)
    mat, rhs = scatter_systems(mats, rhs, gids[mesh.triangles], free.size)
    return mat, rhs, free


def plain_galerkin(problem, mesh, quad_order):
    """Nodal values of the unstabilized P1 Galerkin solution."""
    mat, rhs, free = plain_system(problem, mesh, quad_order)
    nodal = np.zeros(mesh.n_vertices)
    nodal[free] = np.linalg.solve(mat.toarray(), rhs)
    return nodal


def test_supg_differs_from_galerkin_when_stabilized():
    from hdgcd.problems import case_layer
    case = case_layer(1e-6)
    mesh = build_uniform_triangulation(8, case.problem.boundary)
    stab = solve_supg(case.problem, mesh, quad_order=case.quad_order)
    plain = plain_galerkin(case.problem, mesh, case.quad_order)
    gap = np.abs(stab.nodal - plain).max()
    assert gap > 0.01
    # the stabilized solution is much tamer in the layer
    assert np.abs(stab.nodal).max() < np.abs(plain).max()


def test_supg_rejects_bad_problem():
    prob = ProblemSpec(
        epsilon=1.0,
        b=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x), rho0=1.0)  # actual rho = 0
    mesh = build_uniform_triangulation(2)
    with pytest.raises(ValueError):
        solve_supg(prob, mesh)


def test_supg_quadrature_order_below_two_is_rejected():
    # orders 0 and 1 cannot integrate the P1 mass: they gave error_l2 2.80e-2
    # and 2.57e-2 against 2.36e-2 at the default 4, with no warning
    from hdgcd.problems import case_smooth
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(8, case.problem.boundary)
    for quad_order in (0, 1):
        with pytest.raises(ValueError, match=f"^quadrature order {quad_order} is below "
                                             "2k = 2 for degree 1"):
            solve_supg(case.problem, mesh, quad_order=quad_order)
    errors = [error_l2(solve_supg(case.problem, mesh, quad_order=q), case.exact)
              for q in (2, 4, 12)]
    assert all(np.isfinite(errors)) and max(errors) < 2.5e-2
