import re
from dataclasses import replace

import numpy as np
import pytest

from hdgcd.analysis import (_error_context, conservation_residual, convergence_table,
                            error_h1_broken, error_hdg, error_l2, errors, hdg_norm,
                            overshoot_metric, project_to_hdg, subsquare)
from hdgcd.assembly import ProblemSpec, assemble_local_systems, get_context
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
    from hdgcd.analysis import _elements
    assert case.region(0.89, 0.89) and not case.region(0.91, 0.5)
    centers = mesh.barycenters[_elements(case.region, mesh)]
    assert (centers < 0.9).all()
    assert _elements(None, mesh) == slice(None)


ERRORS_CASES = [("layer", 1e-6, 1, "dg"), ("layer", 1e-6, 2, "dg"), ("layer", 1e-6, 3, "dg"),
                ("smooth", 1e-3, 1, "dg"), ("smooth", 1e-3, 2, "dg"), ("smooth", 1e-3, 3, "dg"),
                ("layer", 1e-6, 1, "cg"), ("smooth", 1e-3, 1, "cg")]


def _case_solution(name, eps, k, mode, n=6):
    case = (case_layer if name == "layer" else case_smooth)(eps)
    mesh = build_uniform_triangulation(n, case.problem.boundary)
    return case, solve_hdg(case.problem, mesh, degree=k, skeleton_mode=mode)


@pytest.mark.parametrize("name,eps,k,mode", ERRORS_CASES)
def test_errors_equal_the_single_measures(name, eps, k, mode):
    case, sol = _case_solution(name, eps, k, mode)
    assert (case.region is None) == (name == "smooth")
    err_l2, err_h1, rep = errors(sol, case, 7.5)
    assert err_l2 == error_l2(sol, case.exact, region=case.region)
    assert err_h1 == error_h1_broken(sol, case.exact_grad, region=case.region)
    assert vars(rep) == vars(error_hdg(sol, case.exact, case.problem, 7.5, region=case.region))


def _counted(func, sizes):
    def wrapped(x, y):
        sizes.append(x.size)
        return func(x, y)
    return wrapped


@pytest.mark.parametrize("mode", ["dg", "cg"])
def test_errors_evaluate_each_field_once_per_point_set(mode):
    # on the whole mesh, although the layer case's region leaves elements out
    case, sol = _case_solution("layer", 1e-6, 1, mode, n=8)
    mesh = sol.mesh
    inside = case.region(mesh.barycenters[:, 0], mesh.barycenters[:, 1])
    assert 0 < inside.sum() < mesh.n_elements
    exact_sizes, grad_sizes = [], []
    counted = replace(case, exact=_counted(case.exact, exact_sizes),
                      exact_grad=_counted(case.exact_grad, grad_sizes))
    assert errors(sol, counted, 7.5) == errors(sol, case, 7.5)

    ctx = _error_context(mesh, 1)
    volume = mesh.n_elements * ctx.vol.weights.size
    if mode == "dg":   # every free edge, at the edge points
        trace = int((sol.dofmap.edge_dofs[:, 0] >= 0).sum()) * ctx.edge.weights.size
    else:              # every free vertex
        trace = int((sol.dofmap.vertex_dofs >= 0).sum())
    assert exact_sizes == [volume, trace]
    assert grad_sizes == [volume]


def test_an_exact_field_must_be_finite_outside_the_region():
    # the region selects element integrals; it does not hide a field's values
    case, sol = _case_solution("layer", 1e-6, 1, "dg", n=8)
    broken = replace(case, exact=lambda x, y: np.where(x < 0.95, case.exact(x, y), np.nan))
    assert not case.region(0.95, 0.5)
    with pytest.raises(ValueError, match="^field exact has non-finite values$"):
        errors(sol, broken, 7.5)
    with pytest.raises(ValueError, match="^field exact has non-finite values$"):
        error_l2(sol, broken.exact, region=case.region)


BAD_PENALTIES = [-10.0, 0.0, np.nan, np.inf]


@pytest.mark.parametrize("measure", ["error_hdg", "hdg_norm", "errors"])
@pytest.mark.parametrize("eta", BAD_PENALTIES, ids=["negative", "zero", "nan", "inf"])
def test_scheme_norm_rejects_a_bad_penalty(measure, eta):
    # these returned 0.1199 (eta = -10) and 0.1228 (eta = 0), and nan or inf as the result
    case, sol = _case_solution("smooth", 1e-3, 1, "dg", n=4)
    calls = {"error_hdg": lambda: error_hdg(sol, case.exact, case.problem, eta),
             "hdg_norm": lambda: hdg_norm(sol, case.problem, eta),
             "errors": lambda: errors(sol, case, eta)}
    with pytest.raises(ValueError, match="^penalty eta must be positive and finite, got "):
        calls[measure]()


@pytest.mark.parametrize("region,shape", [
    (lambda x, y: True, "()"),
    (lambda x, y: np.array([True, False, True]), "(3,)"),
], ids=["scalar", "length-3"])
@pytest.mark.parametrize("measure", ["error_l2", "error_h1_broken", "error_hdg", "hdg_norm"])
def test_region_must_give_one_bool_per_element(region, shape, measure):
    # these failed with a raw IndexError from the boolean mask
    case, sol = _case_solution("smooth", 1e-3, 1, "dg", n=4)
    calls = {"error_l2": lambda: error_l2(sol, case.exact, region=region),
             "error_h1_broken": lambda: error_h1_broken(sol, case.exact_grad, region=region),
             "error_hdg": lambda: error_hdg(sol, case.exact, case.problem, 10.0, region=region),
             "hdg_norm": lambda: hdg_norm(sol, case.problem, 10.0, region=region)}
    message = rf"^region must give one bool per element barycenter, shape \(32,\); got shape {re.escape(shape)}$"
    with pytest.raises(ValueError, match=message):
        calls[measure]()
    with pytest.raises(ValueError, match=message):
        errors(sol, replace(case, region=region), 10.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_region_sums_equal_whole_mesh_sums(k):
    # the region's element integrals, summed in element order, are those of
    # a whole-mesh evaluation masked afterwards, to the last bit; regions of
    # one element and of scattered elements included
    case = case_smooth(1e-3)
    mesh = jittered_mesh(7, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=k)
    ctx = _error_context(mesh, k)
    w = ctx.volume_weights(mesh)
    l2_elem = ((sol.u @ ctx.N.T - ctx.volume_values(case.exact, "exact")) ** 2 * w).sum(axis=1)
    grads = ctx.field_gradients(mesh, sol.u)
    gx, gy = ctx.volume_values(case.exact_grad, "exact_grad", vector=True)
    h1_elem = (((grads[..., 0] - gx) ** 2 + (grads[..., 1] - gy) ** 2) * w).sum(axis=1)
    proj = project_to_hdg(case.exact, sol.dofmap)
    gap = HdgSolution(dofmap=sol.dofmap, u=proj.u - sol.u, uhat=proj.uhat - sol.uhat)
    tctx = get_context(mesh, k)
    tr = tctx.traces(mesh)
    slot_gap = (tr.gather(gap.edge_traces()) @ sol.dofmap.slot_values(tctx.edge.points).T
                - np.einsum("tpi,ti->tp", tr.values, gap.u))
    jump_pts = (10.0 / tr.h) * tr.weights * slot_gap ** 2
    for region in (subsquare(0.9), subsquare(0.2), lambda x, y: np.sin(40.0 * x) > 0.0,
                   lambda x, y: np.arange(x.size) == 17):
        mask = region(mesh.barycenters[:, 0], mesh.barycenters[:, 1])
        assert error_l2(sol, case.exact, region=region) == float(np.sqrt(l2_elem[mask].sum()))
        assert (error_h1_broken(sol, case.exact_grad, region=region)
                == float(np.sqrt(h1_elem[mask].sum())))
        # the region's projection equals the whole-mesh projection there
        rep = hdg_norm(gap, case.problem, 10.0, region=region)
        assert vars(error_hdg(sol, case.exact, case.problem, 10.0, region=region)) == vars(rep)
        assert rep.jump_sq == float(jump_pts[mask[:, None] & ~tr.neumann].sum())


def test_empty_region_gives_a_zero_report():
    case, sol = _case_solution("smooth", 1e-3, 2, "dg", n=4)
    nowhere = replace(case, region=subsquare(1e-9))
    err_l2, err_h1, rep = errors(sol, nowhere, 10.0)
    assert err_l2 == err_h1 == 0.0
    assert set(vars(rep).values()) == {0.0}
