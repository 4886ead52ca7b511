import numpy as np
import pytest

from hdgcd.analysis import (conservation_residual, convergence_table,
                            error_h1_broken, error_hdg, error_l2, hdg_norm,
                            overshoot_metric, project_to_hdg, subsquare)
from hdgcd.assembly import ProblemSpec, assemble_local_systems
from hdgcd.fespace import build_dofmap
from hdgcd.mesh import build_uniform_triangulation
from hdgcd.problems import case_layer, case_smooth
from hdgcd.solver import (HdgSolution, condense, recover_interior, solve_hdg,
                          solve_skeleton)
from test_unstructured import jittered_mesh


def pair_from_projection(exact, mesh, degree, mode="dg"):
    dm = build_dofmap(mesh, degree, mode)
    return project_to_hdg(exact, dm)


def test_error_l2_of_projection_of_polynomial_is_zero():
    mesh = build_uniform_triangulation(3)
    pair = pair_from_projection(lambda x, y: 1.0 + 2.0 * x - y, mesh, 1)
    assert error_l2(pair, lambda x, y: 1.0 + 2.0 * x - y) < 1e-13


def test_error_l2_constant_offset():
    mesh = build_uniform_triangulation(2)
    pair = pair_from_projection(lambda x, y: np.zeros_like(x), mesh, 1)
    # |Omega| = 1, so the L2 distance to the constant 3 is exactly 3
    assert error_l2(pair, lambda x, y: 3.0 + 0.0 * x) == pytest.approx(3.0, rel=1e-12)


def test_error_h1_linear_field():
    mesh = build_uniform_triangulation(2)
    pair = pair_from_projection(lambda x, y: np.zeros_like(x), mesh, 1)
    # grad distance to u = 2x - y is the constant vector (2, -1)
    err = error_h1_broken(pair, lambda x, y: (np.full_like(x, 2.0),
                                              np.full_like(x, -1.0)))
    assert err == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_region_restriction():
    mesh = build_uniform_triangulation(4)
    pair = pair_from_projection(lambda x, y: np.zeros_like(x), mesh, 1)
    full = error_l2(pair, lambda x, y: np.ones_like(x))
    half = error_l2(pair, lambda x, y: np.ones_like(x), region=subsquare(0.5))
    assert full == pytest.approx(1.0, rel=1e-12)
    # the [0, 0.5)^2 box contains a quarter of the area
    assert half == pytest.approx(0.5, rel=1e-12)


def test_empty_region_integrates_to_zero():
    mesh = build_uniform_triangulation(2)
    pair = pair_from_projection(lambda x, y: np.ones_like(x), mesh, 1)
    nowhere = subsquare(1e-9)
    assert error_l2(pair, lambda x, y: np.zeros_like(x), region=nowhere) == 0.0


def test_hdg_norm_recombination():
    case = case_smooth(1e-3)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=1)
    rep = error_hdg(sol, case.exact, case.problem, eta=10.0)
    eps, rho0 = case.problem.epsilon, case.problem.rho0
    recombined = (eps * (rep.seminorm_h1_sq + rep.seminorm_h2_sq + rep.jump_sq)
                  + rep.conv_sq + rho0 * rep.err_l2 ** 2)
    assert rep.err_hdg ** 2 == pytest.approx(recombined, rel=1e-12)
    # rep.err_l2 measures the distance to the projection, which agrees with
    # the distance to the exact solution only up to the projection error
    direct = error_l2(sol, case.exact)
    assert 0.1 * direct < rep.err_l2 < 10.0 * direct


def test_hdg_norm_h2_counts_the_mixed_derivative_once():
    # u = x^2 + 3xy - y^2 has u_xx^2 + u_xy^2 + u_yy^2 = 4 + 9 + 4 = 17 per
    # unit area; the Frobenius norm of the Hessian would give 26
    mesh = jittered_mesh(4, None)
    pair = pair_from_projection(lambda x, y: x * x + 3.0 * x * y - y * y, mesh, 2)
    prob = ProblemSpec(epsilon=1.0, b=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
                       f=lambda x, y: np.zeros_like(x))
    h2_sq = hdg_norm(pair, prob, eta=10.0).seminorm_h2_sq
    areas = 0.5 * mesh.det_jacobians
    assert h2_sq == pytest.approx(17.0 * (areas * mesh.h_K ** 2).sum(), rel=1e-12)


def test_hdg_norm_zero_for_zero_pair():
    mesh = build_uniform_triangulation(2)
    dm = build_dofmap(mesh, 1)
    zero = HdgSolution(dofmap=dm,
                       u=np.zeros((mesh.n_elements, 3)),
                       uhat=np.zeros(dm.n_trace_active))
    prob = ProblemSpec(epsilon=1.0,
                       b=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
                       f=lambda x, y: np.zeros_like(x))
    rep = hdg_norm(zero, prob, eta=10.0)
    assert rep.err_hdg == 0.0


def test_conservation_residual_small_on_solution():
    case = case_smooth(1e-3)
    mesh = build_uniform_triangulation(8, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=1)
    resid = conservation_residual(sol, case.problem)
    assert resid.shape == (mesh.n_elements,)
    f_inf = case.exact_max * (2e-3 * np.pi ** 2 + 2 * np.pi)  # coarse bound
    assert np.abs(resid).max() <= 1e-9 * (1.0 + f_inf)


def test_conservation_residual_detects_perturbation():
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=1)
    u = sol.u.copy()
    u[5] += 0.01
    broken = HdgSolution(dofmap=sol.dofmap, u=u, uhat=sol.uhat,
                         info=dict(sol.info))
    resid = conservation_residual(broken, case.problem)
    assert np.abs(resid[5]) > 1e-6


def test_conservation_residual_needs_the_solve_settings():
    # a solve run stage by stage records neither its penalty nor its quadrature
    case = case_smooth(1e-3)
    mesh = build_uniform_triangulation(8, case.problem.boundary)
    dm = build_dofmap(mesh, 1)
    system = condense(assemble_local_systems(mesh, dm, case.problem, eta=13.0), dm)
    sol = recover_interior(solve_skeleton(system), system)
    with pytest.raises(ValueError, match="needs the solve's 'eta'"):
        conservation_residual(sol, case.problem)
    sol.info["eta"] = 13.0
    with pytest.raises(ValueError, match="needs the solve's 'quad_order'"):
        conservation_residual(sol, case.problem)
    sol.info["quad_order"] = None
    assert np.abs(conservation_residual(sol, case.problem)).max() <= 1e-12


def test_convergence_table():
    rates = convergence_table([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25])
    np.testing.assert_allclose(rates, [2.0, 2.0], rtol=1e-12)
    rates = convergence_table([1.0, 0.0], [1.0, 0.5])
    assert rates == [None]
    with pytest.raises(ValueError):
        convergence_table([1.0], [1.0, 0.5])


@pytest.mark.parametrize("hs,message", [
    ([1.0, 0.5, 0.5], "mesh sizes 1 and 2 are equal"),
    ([1.0, -0.5], "mesh size 1 must be positive and finite"),
    ([0.0, 0.5], "mesh size 0 must be positive and finite"),
    ([np.nan, 0.5], "mesh size 0 must be positive and finite"),
    ([1.0, np.inf], "mesh size 1 must be positive and finite"),
], ids=["repeated", "negative", "zero", "nan", "inf"])
def test_convergence_table_rejects_degenerate_mesh_sizes(hs, message):
    # these gave inf or nan rates with a RuntimeWarning; a vanishing error
    # still gives None
    with pytest.raises(ValueError, match=f"^{message}"):
        convergence_table([1.0] * len(hs), hs)


def test_overshoot_metric_projection():
    mesh = build_uniform_triangulation(4)
    pair = pair_from_projection(lambda x, y: x, mesh, 1)
    # max of x on the square is 1; a linear interpolant cannot overshoot
    assert overshoot_metric(pair, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert overshoot_metric(pair, 0.5) == pytest.approx(0.5, rel=1e-12)


def test_project_to_hdg_cg_interpolates_vertices():
    mesh = build_uniform_triangulation(3)
    dm = build_dofmap(mesh, 1, "cg")
    f = lambda x, y: np.sin(x + y)
    pair = project_to_hdg(f, dm)
    for e in dm.skeleton_edges:
        gids = dm.edge_dofs[e]
        for slot, v in enumerate(mesh.edges[e]):
            if gids[slot] >= 0:
                x, y = mesh.vertices[v]
                assert pair.uhat[gids[slot]] == pytest.approx(f(x, y), rel=1e-12)


def test_layer_region_excludes_layers():
    case = case_layer(1e-6)
    mesh = build_uniform_triangulation(10, case.problem.boundary)
    from hdgcd.analysis import _region_mask
    assert case.region(0.89, 0.89) and not case.region(0.91, 0.5)
    mask = _region_mask(case.region, mesh)
    centers = mesh.barycenters[mask]
    assert (centers < 0.9).all()
    assert _region_mask(None, mesh).all()
