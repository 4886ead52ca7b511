import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from hdgcd.assembly import ProblemSpec, assemble_local_systems, scatter_systems
from hdgcd.fespace import build_dofmap
from hdgcd.mesh import BoundaryTag, build_uniform_triangulation, dirichlet_where
from hdgcd.problems import case_layer, case_smooth
from hdgcd.solver import (COND_LIMIT, ElementSolvabilityError, SingularSystemError, condense,
                          recover_interior, solve_hdg, solve_monolithic, solve_skeleton,
                          sparse_factor, sparse_solve)
from hdgcd.supg import solve_supg
from test_unstructured import bilinear_problem, jittered_mesh


def relative_gap(a, b):
    scale = max(np.abs(a.u).max(), np.abs(b.u).max(), 1e-300)
    gap = np.abs(a.u - b.u).max() / scale
    if a.uhat.size:
        tr = max(np.abs(a.uhat).max(), np.abs(b.uhat).max(), 1e-300)
        gap = max(gap, np.abs(a.uhat - b.uhat).max() / tr)
    return gap


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("epsilon", [1.0, 1e-3])
def test_condensed_matches_monolithic(degree, n, epsilon):
    case = case_smooth(epsilon)
    mesh = build_uniform_triangulation(n, case.problem.boundary)
    condensed = solve_hdg(case.problem, mesh, degree=degree)
    direct = solve_monolithic(case.problem, mesh, degree=degree)
    assert relative_gap(condensed, direct) < 1e-10


def test_condensed_matches_monolithic_mixed_bc():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    prob = ProblemSpec(
        epsilon=1e-2,
        b=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        f=lambda x, y: np.sin(np.pi * x) * np.cos(y),
        c=lambda x, y: np.ones_like(x),
        g_N=lambda x, y: np.where(x > 1.0 - 1e-12, 0.5, 0.0),
        boundary=rule, rho0=1.0)
    mesh = build_uniform_triangulation(4, rule)
    condensed = solve_hdg(prob, mesh, degree=2)
    direct = solve_monolithic(prob, mesh, degree=2)
    assert relative_gap(condensed, direct) < 1e-10


def test_solution_info_populated():
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=1)
    info = sol.info
    assert info["method"] == "condensed"
    assert sol.degree == 1
    assert sol.dofmap.skeleton_mode == "dg"
    assert sol.mesh is mesh
    assert info["dofs_total"] == 3 * mesh.n_elements + info["dofs_skeleton"]
    assert info["eta"] == pytest.approx(10.0)
    assert info["quad_order"] == 4
    assert 0.0 <= info["max_recovery_residual"] < 1e-10


def test_skeleton_dimension_formulas():
    # dg trace: (k+1) dofs per non-Dirichlet skeleton edge; cg trace: one
    # dof per unconstrained skeleton vertex
    for n in (8, 32):
        mesh = build_uniform_triangulation(n)
        n_interior_edges = mesh.n_edges - 4 * n
        dm = build_dofmap(mesh, 1, "dg")
        assert dm.n_trace_active == 2 * n_interior_edges
        dm_cg = build_dofmap(mesh, 1, "cg")
        assert dm_cg.n_trace_active == (n - 1) ** 2


def test_trace_on_edge_zero_on_dirichlet():
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(3, case.problem.boundary)
    traces = solve_hdg(case.problem, mesh, degree=1).edge_traces()
    np.testing.assert_array_equal(traces[mesh.boundary_edges], 0.0)
    interior = np.setdiff1d(np.arange(mesh.n_edges), mesh.boundary_edges)
    assert np.abs(traces[interior]).max() > 0.0


def test_cg_skeleton_solve_converges():
    from hdgcd.analysis import error_l2
    case = case_smooth(1.0)
    errs = []
    for n in (4, 8):
        mesh = build_uniform_triangulation(n, case.problem.boundary)
        sol = solve_hdg(case.problem, mesh, degree=1, skeleton_mode="cg")
        errs.append(error_l2(sol, case.exact))
    assert errs[0] < 0.1
    assert errs[1] < 0.35 * errs[0]


def test_rejects_invalid_problem():
    bad = ProblemSpec(epsilon=1.0,
                      b=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
                      f=lambda x, y: np.zeros_like(x),
                      rho0=1.0)  # rho = 0 < claimed rho0
    mesh = build_uniform_triangulation(2)
    for solve in (solve_hdg, solve_monolithic, solve_supg):
        with pytest.raises(ValueError, match="^problem is not well posed on this mesh: rho"):
            solve(bad, mesh)


@pytest.mark.parametrize("f", [lambda x, y: np.ones_like(x), lambda x, y: np.cos(np.pi * x)],
                         ids=["f=1", "zero_mean_f"])
def test_rejects_pure_neumann_problem_without_reaction(f):
    # no Dirichlet edge and rho = 0: constants solve the homogeneous problem
    def solid(x, y):
        return np.zeros_like(x), np.zeros_like(x)

    def neumann(x, y):
        return BoundaryTag.NEUMANN

    bad = ProblemSpec(epsilon=1.0, b=solid, f=f, boundary=neumann)
    mesh = build_uniform_triangulation(4, bad.boundary)
    for solve in (solve_hdg, solve_monolithic, solve_supg):
        with pytest.raises(ValueError, match="no boundary edge is Dirichlet"):
            solve(bad, mesh)
    # a positive reaction makes the same boundary well posed
    good = ProblemSpec(epsilon=1.0, b=solid, f=f, c=lambda x, y: np.ones_like(x),
                       boundary=neumann, rho0=1.0)
    assert np.isfinite(solve_hdg(good, mesh).u).all()


def test_recovery_residual_is_enforced():
    # a perturbed elimination makes the recovered interior miss its own
    # equations (relative residual about 3e-7)
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    dm = build_dofmap(mesh, 2)
    system = condense(assemble_local_systems(mesh, dm, case.problem), dm)
    system.inv[5, 0, 0] += 1e-6
    with pytest.raises(SingularSystemError, match="^interior recovery residual .* exceeds 1.0e-11"):
        recover_interior(solve_skeleton(system), system)


def swirling_systems(degree):
    """Problem, mesh, dof map and element systems of the jittered n = 6 mesh,
    all Dirichlet, with eps = 0.05 and a swirling b."""
    problem, _, _ = bilinear_problem()
    problem = replace(problem, epsilon=0.05, b=lambda x, y: (1.0 + y * y, x - 0.5 * y),
                      boundary=None)
    mesh = jittered_mesh(6, problem.boundary)
    dm = build_dofmap(mesh, degree)
    return problem, mesh, dm, assemble_local_systems(mesh, dm, problem)


# measured moves of S, g and u against the per-element solves, relative to
# the largest entry: <= 3.5e-15 at k <= 3, 8.1e-15 at k = 6, 3.1e-14 at
# k = 8 and 3.2e-13 at k = 10, where max_block_cond is 6.8e4
ELIMINATION_RTOL = {1: 1e-14, 2: 1e-14, 3: 1e-14, 6: 1e-13, 8: 5e-13, 10: 5e-12}


@pytest.mark.parametrize("degree", sorted(ELIMINATION_RTOL))
def test_elimination_matches_per_element_solves(degree):
    # the reference solves each interior block against its coupling and
    # load columns, W = A_uu^{-1} [A_ut | b_u], one element at a time
    _, _, dm, sy = swirling_systems(degree)
    system = condense(sy, dm)
    W = np.stack([np.linalg.solve(a, np.column_stack([a_ut, b_u]))
                  for a, a_ut, b_u in zip(sy.A_uu, sy.A_ut, sy.b_u)])
    S, g = scatter_systems(sy.A_tt - sy.A_tu @ W[..., :-1], -(sy.A_tu @ W[..., -1:])[..., 0],
                           dm.element_trace_dofs(), dm.n_trace_active)
    traces = solve_skeleton(system)
    uhat = dm.gather(traces, dm.element_trace_dofs())
    u = W[..., -1] - (W[..., :-1] @ uhat[..., None])[..., 0]
    rtol = ELIMINATION_RTOL[degree]
    assert abs(system.S - S).max() <= rtol * abs(S).max()
    assert np.abs(system.g - g).max() <= rtol * np.abs(g).max()
    assert np.abs(recover_interior(traces, system).u - u).max() <= rtol * np.abs(u).max()


@pytest.mark.parametrize("degree", [1, 3, 10])
def test_condition_estimate_is_the_one_norm_product(degree, monkeypatch):
    # per block |A_uu|_1 |A_uu^{-1}|_1 with the inverse from a solve against I,
    # bit for bit; with two blocks above the limit the check names the first
    problem, mesh, dm, sy = swirling_systems(degree)
    eye = np.eye(sy.A_uu.shape[-1])
    cond = np.array([np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.solve(a, eye), 1)
                     for a in sy.A_uu])
    assert condense(sy, dm).max_block_cond == cond.max()
    info = solve_hdg(problem, mesh, degree=degree).info
    assert info["max_block_cond"] == cond.max() < COND_LIMIT
    limit = float(np.sort(cond)[-3])
    monkeypatch.setattr("hdgcd.solver.COND_LIMIT", limit)
    t = int(np.argmax(cond > limit))
    message = f"element {t}: interior block condition estimate {cond[t]:.3e} exceeds"
    with pytest.raises(ElementSolvabilityError, match=f"^{re.escape(message)}"):
        condense(sy, dm)


@pytest.mark.parametrize("singular", [True, False], ids=["exactly_singular", "nearly_singular"])
def test_condense_detects_ill_conditioned_block(singular):
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(2, case.problem.boundary)
    dm = build_dofmap(mesh, 1)
    blocks = assemble_local_systems(mesh, dm, case.problem)
    a = blocks.A_uu[3]
    if singular:
        a[:] = 0.0
        a[0, 0] = 1.0
    else:   # a duplicated row with its first entry perturbed in the last bits
        a[1] = a[0]
        a[1, 0] *= 1.0 + 1e-15
    with pytest.raises(ElementSolvabilityError) as err:
        condense(blocks, dm)
    assert "element 3" in str(err.value)
    # an exactly singular block has an infinite estimate, a nearly singular one a finite one
    assert ("estimate inf" in str(err.value)) == singular


def test_smallest_mesh_skeleton_is_one_edge():
    # the n=1 mesh couples its two triangles through the single diagonal
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(1, case.problem.boundary)
    sol = solve_hdg(case.problem, mesh, degree=2)
    assert sol.uhat.size == 3
    assert sol.info["dofs_skeleton"] == 3
    assert np.isfinite(sol.u).all()


def test_skeleton_factor_fill_is_bounded():
    # Minimum-degree ordering with threshold pivoting keeps the layer
    # skeleton's fill nnz(L+U)/nnz(S) at 4.4; COLAMD with partial pivoting
    # gives 6.2, and the same ordering with threshold 1.0 gives 16.6.
    case = case_layer(1e-6)
    mesh = build_uniform_triangulation(20, case.problem.boundary)
    dm = build_dofmap(mesh, 1)
    S = condense(assemble_local_systems(mesh, dm, case.problem, quad_order=case.quad_order), dm).S
    lu = sparse_factor(S, "skeleton")
    assert (lu.L.nnz + lu.U.nnz) / S.nnz <= 5.0


@pytest.mark.parametrize("name", ["skeleton", "uncondensed", "stabilized"])
@pytest.mark.parametrize("dense", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [0.0, 0.0]]],
                         ids=["rank1", "zero_row"])
def test_singular_system_is_named(name, dense):
    with pytest.raises(SingularSystemError, match=f"^{name} system is singular"):
        sparse_solve(sp.csr_matrix(dense), np.ones(2), name)


def test_overflowing_solution_is_named():
    # 1 / 1e-320 overflows to inf in the triangular solve
    with pytest.raises(SingularSystemError, match=r"^x system is singular \(non-finite solution\)$"):
        sparse_solve(sp.csr_matrix([[1e-320]]), np.ones(1), "x")


def test_all_dirichlet_triangle_has_no_skeleton():
    # every edge of a lone triangle is Dirichlet, so no trace dof is active
    from hdgcd.mesh import Mesh
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    problem = ProblemSpec(epsilon=1.0, b=lambda x, y: (np.ones_like(x), np.ones_like(x)),
                          f=lambda x, y: np.ones_like(x))
    sol = solve_hdg(problem, mesh, degree=2)
    assert sol.uhat.size == 0 and sol.info["dofs_skeleton"] == 0
    assert sol.u.shape == (1, 6) and np.isfinite(sol.u).all() and np.abs(sol.u).max() > 0.0
    assert (sol.edge_traces() == 0.0).all()
    # the stabilized system of its three Dirichlet vertices is empty too
    supg = solve_supg(problem, mesh)
    assert (supg.nodal == 0.0).all() and supg.nodal.shape == (3,)
    assert supg.info["dofs_total"] == 0
    assert sparse_solve(sp.csr_matrix((0, 0)), np.zeros(0), "x").shape == (0,)


@pytest.mark.parametrize("name, solve", [("skeleton", solve_hdg), ("uncondensed", solve_monolithic),
                                         ("stabilized", solve_supg)],
                         ids=["skeleton", "uncondensed", "stabilized"])
def test_every_system_checks_its_residual(name, solve, monkeypatch):
    # no solve is exact in floating point, so a zero tolerance must trip
    monkeypatch.setattr("hdgcd.solver.RESIDUAL_RTOL", 0.0)
    mesh = build_uniform_triangulation(4)
    with pytest.raises(SingularSystemError, match=f"^{name} residual .* exceeds tolerance"):
        solve(case_smooth(1e-3).problem, mesh)
