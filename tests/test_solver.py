import numpy as np
import pytest
import scipy.sparse as sp

from hdgcd.assembly import ProblemSpec, assemble_local_systems
from hdgcd.fespace import build_dofmap
from hdgcd.mesh import BoundaryTag, build_uniform_triangulation, dirichlet_where
from hdgcd.problems import case_layer, case_smooth
from hdgcd.solver import (ElementSolvabilityError, SingularSystemError, condense,
                          recover_interior, solve_hdg, solve_monolithic, solve_skeleton,
                          sparse_factor, sparse_solve)
from hdgcd.supg import solve_supg


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
    # equations (relative residual about 5e-7)
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    dm = build_dofmap(mesh, 2)
    system = condense(assemble_local_systems(mesh, dm, case.problem), dm)
    system.W[5, 0, -1] += 1e-6
    with pytest.raises(SingularSystemError, match="^interior recovery residual .* exceeds 1.0e-11"):
        recover_interior(solve_skeleton(system), system)


@pytest.mark.parametrize("singular", [True, False], ids=["exactly_singular", "nearly_singular"])
def test_condense_detects_ill_conditioned_block(singular):
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(2, case.problem.boundary)
    dm = build_dofmap(mesh, 1)
    blocks = assemble_local_systems(mesh, dm, case.problem)
    a = blocks[3].A_uu
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
