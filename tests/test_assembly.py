import gc
import itertools
import weakref

import numpy as np
import pytest

from hdgcd.assembly import (AssemblyContext, ProblemSpec, assemble_local_systems,
                            assemble_monolithic, bracket, check_problem,
                            default_eta, default_quad_order, get_context,
                            local_diffusion)
from hdgcd.fespace import build_dofmap, get_edge_basis, get_element_basis
from hdgcd.mesh import build_uniform_triangulation, dirichlet_where
from hdgcd.problems import case_smooth
from hdgcd.solver import HdgSolution, solve_hdg, solve_monolithic
from hdgcd.supg import solve_supg
from hdgcd.analysis import error_h1_broken, error_hdg, error_l2, hdg_norm
from test_unstructured import jittered_mesh


def constant_velocity(bx, by):
    return lambda x, y: (np.full_like(x, bx), np.full_like(x, by))


def make_problem(epsilon=1.0, b=(0.7, -0.4), c=None, rho0=0.0, boundary=None,
                 f=None, g_N=None):
    return ProblemSpec(epsilon=epsilon, b=constant_velocity(*b),
                       f=f or (lambda x, y: np.zeros_like(x)),
                       c=c, g_N=g_N, boundary=boundary, rho0=rho0)


def test_bracket_identities_exact():
    rng = np.random.default_rng(20240214)
    x = rng.standard_normal(10 ** 6) * 50.0
    plus, minus = bracket(x)
    assert (plus >= 0).all() and (minus >= 0).all()
    assert np.array_equal(plus - minus, x)
    assert np.array_equal(plus + minus, np.abs(x))
    p0, m0 = bracket(0.0)
    assert p0 == 0.0 and m0 == 0.0


def test_defaults():
    assert default_eta(1) == 10.0
    assert default_eta(2) == 40.0
    assert default_quad_order(1) == 4
    assert default_quad_order(3) == 8


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        make_problem(epsilon=0.0)
    with pytest.raises(ValueError):
        make_problem(epsilon=-1.0)
    with pytest.raises(ValueError, match="^velocity b must be callable$"):
        ProblemSpec(epsilon=1.0, b=None, f=lambda x, y: x)
    with pytest.raises(ValueError, match="^source f must be callable$"):
        ProblemSpec(epsilon=1.0, b=constant_velocity(1.0, 0.0), f=0.0)
    with pytest.raises(ValueError):
        make_problem(rho0=-0.5)
    # a non-finite coefficient fails here, naming its field, not in the solve
    with pytest.raises(ValueError, match="^diffusion coefficient must be positive and finite"):
        make_problem(epsilon=np.inf)
    with pytest.raises(ValueError, match="^rho0 must be non-negative and finite"):
        make_problem(rho0=np.nan)


@pytest.mark.parametrize("name", ["c", "g_N", "div_b"])
def test_constant_coefficient_is_named(name):
    # a constant where a function belongs used to fail deep in the solve
    # with "'float' object is not callable"
    fields = {"epsilon": 1.0, "b": constant_velocity(1.0, 0.0), "f": lambda x, y: x, name: 1.0}
    with pytest.raises(ValueError, match=f" {name} must be callable or None$"):
        ProblemSpec(**fields)


def test_check_problem_rho_and_inflow():
    mesh = build_uniform_triangulation(4)
    good = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0)
    report = check_problem(good, mesh)
    assert report.ok and report.min_rho == pytest.approx(1.0)

    # claims rho0=1 but c=0 gives rho=0
    bad = make_problem(rho0=1.0)
    report = check_problem(bad, mesh)
    assert not report.ok
    assert any("rho" in m for m in report.messages)

    # inflow through a Neumann edge
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh_mixed = build_uniform_triangulation(4, rule)
    backward = make_problem(b=(-1.0, 0.0))
    report = check_problem(backward, mesh_mixed)
    assert not report.ok
    assert any("inflow" in m.lower() for m in report.messages)


def test_check_problem_builds_the_rho_context_only_for_c_or_div_b():
    # rho = c - div(b)/2 is sampled at the order-4 points of the degree-1
    # context; without c and div_b it is zero and no context is built
    def c(x, y):
        return 1.0 + x * y - y * y

    def div_b(x, y):
        return x

    for kwargs in ({"c": c}, {"c": c, "div_b": div_b}, {"div_b": lambda x, y: -x}):
        mesh = build_uniform_triangulation(4)
        report = check_problem(ProblemSpec(epsilon=1.0, b=constant_velocity(0.7, -0.4),
                                           f=lambda x, y: np.zeros_like(x), **kwargs), mesh)
        assert set(mesh.contexts) == {(1, 4)}
        pts = get_context(mesh, 1, 4).X_vol
        rho = np.zeros(pts.shape[:2])
        if "c" in kwargs:
            rho += c(pts[..., 0], pts[..., 1])
        if "div_b" in kwargs:
            rho -= 0.5 * kwargs["div_b"](pts[..., 0], pts[..., 1])
        assert report.ok and report.min_rho == float(rho.min())
    mesh = build_uniform_triangulation(4)
    report = check_problem(make_problem(rho0=1.0), mesh)
    assert mesh.contexts == {} and report.min_rho == 0.0
    assert report.messages == (
        "rho = c - div(b)/2 drops to 0.000e+00, below the declared bound 1.000e+00",)


def test_diffusive_local_matrices_symmetric():
    mesh = build_uniform_triangulation(3)
    for k in (1, 2, 3):
        basis = get_element_basis(k)
        eb = get_edge_basis(k)
        for t in range(mesh.n_elements):
            blk = local_diffusion(mesh, t, basis, eb, epsilon=1.0,
                                  eta=default_eta(k))
            full = blk.full_matrix()
            assert np.abs(full - full.T).max() < 1e-12


def test_diffusion_scales_linearly_in_epsilon():
    mesh = build_uniform_triangulation(2)
    basis, eb = get_element_basis(1), get_edge_basis(1)
    one = local_diffusion(mesh, 5, basis, eb, epsilon=1.0, eta=10.0).full_matrix()
    tiny = local_diffusion(mesh, 5, basis, eb, epsilon=1e-6, eta=10.0).full_matrix()
    np.testing.assert_allclose(tiny, 1e-6 * one, rtol=1e-12)


def test_local_diffusion_rejects_an_element_past_the_mesh():
    mesh = build_uniform_triangulation(1)
    basis, eb = get_element_basis(1), get_edge_basis(1)
    with pytest.raises(ValueError, match="^element index 2 out of range$"):
        local_diffusion(mesh, mesh.n_elements, basis, eb, epsilon=1.0, eta=10.0)


def test_convective_form_nonnegative_globally():
    # with div b = 0 and c = 0 the global convective-reaction form is
    # positive semidefinite; elementwise it need not be
    mesh = build_uniform_triangulation(4)
    dm = build_dofmap(mesh, 1)
    prob = make_problem()
    A, _ = assemble_monolithic(mesh, dm, prob, parts=("convection",))
    A = A.toarray()
    rng = np.random.default_rng(20240214)
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        assert v @ A @ v >= -1e-10


def test_convective_form_jump_identity():
    # exact identity: B^rc(v, v) = 1/2 sum_K || |b.n|^{1/2} (vhat - v) ||^2
    # for constant b, c = 0 and a fully Dirichlet boundary, also with
    # jittered geometry, renumbering and rotated slot order
    prob = make_problem(b=(0.3, 0.9))
    for mesh, k in itertools.product((build_uniform_triangulation(3), jittered_mesh(3, None)),
                                     (1, 2)):
        dm = build_dofmap(mesh, k)
        A, _ = assemble_monolithic(mesh, dm, prob, parts=("convection",))
        A = A.toarray()
        rng = np.random.default_rng(11)
        ni = dm.n_interior
        for _ in range(10):
            v = rng.standard_normal(dm.n_total)
            pair = HdgSolution(dofmap=dm,
                               u=v[:ni].reshape(mesh.n_elements, dm.ndof_elem).copy(),
                               uhat=v[ni:].copy())
            rep = hdg_norm(pair, prob, eta=default_eta(k))
            assert v @ A @ v == pytest.approx(0.5 * rep.conv_sq, rel=1e-12)


def test_local_diffusion_rejects_mismatched_edge_basis():
    mesh = build_uniform_triangulation(2)
    with pytest.raises(ValueError, match="^edge basis degree 3 does not match element basis degree 1"):
        local_diffusion(mesh, 0, get_element_basis(1), get_edge_basis(3), epsilon=1.0, eta=10.0)


def test_local_blocks_shapes():
    mesh = build_uniform_triangulation(2)
    basis, eb = get_element_basis(2), get_edge_basis(2)
    blk = local_diffusion(mesh, 0, basis, eb, epsilon=1.0, eta=40.0)
    assert blk.A_uu.shape == (6, 6)
    assert blk.A_ut.shape == (6, 9)
    assert blk.A_tu.shape == (9, 6)
    assert blk.A_tt.shape == (9, 9)
    assert blk.full_matrix().shape == (15, 15)


def test_assembly_builds_trace_tables_once(monkeypatch):
    calls = []
    traces = AssemblyContext.traces

    def counted(self, mesh):
        calls.append(mesh)
        return traces(self, mesh)

    monkeypatch.setattr(AssemblyContext, "traces", counted)
    mesh = build_uniform_triangulation(3)
    prob = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0)
    assemble_local_systems(mesh, build_dofmap(mesh, 2), prob)
    assert len(calls) == 1


def test_neumann_load_only_touches_interior():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(2, rule)
    # element adjacent to the x=1 boundary
    t = int(mesh.edge_elems[mesh.boundary_edges[np.argmax(
        mesh.edge_midpoints[mesh.boundary_edges, 0])], 0])
    prob = make_problem(boundary=rule, g_N=lambda x, y: np.ones_like(x))
    blk = assemble_local_systems(mesh, build_dofmap(mesh, 1), prob, parts=("load",))[t]
    assert np.abs(blk.b_u).max() > 0.0
    assert np.abs(blk.b_t).max() == 0.0


def test_neumann_flux_integral_value():
    # integral of g_N = 1 against P1 test functions over one boundary edge
    # of length h splits h into h/2 per endpoint basis function
    rule = dirichlet_where(lambda x, y: y > 1e-12)  # Dirichlet only at y=0
    mesh = build_uniform_triangulation(1, rule)
    prob = make_problem(boundary=rule, g_N=lambda x, y: np.ones_like(x))
    blocks = assemble_local_systems(mesh, build_dofmap(mesh, 1), prob, parts=("load",))
    for t in range(mesh.n_elements):
        blk = blocks[t]
        # integrating g_N = 1 over the element's Neumann edges gives their
        # total length, split h/2 per endpoint test function
        assert blk.b_u.sum() == pytest.approx(
            sum(mesh.h_e[e] for e in mesh.elem_edges[t]
                if mesh.edge_tags[e] == 2), rel=1e-12)


def test_monolithic_matches_local_blocks():
    rule = dirichlet_where(lambda x, y: x < 0.5)
    mesh = build_uniform_triangulation(2, rule)
    dm = build_dofmap(mesh, 2)
    prob = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0,
                        f=lambda x, y: x + y,
                        g_N=lambda x, y: np.ones_like(x))
    A, rhs = assemble_monolithic(mesh, dm, prob)
    dense = np.zeros((dm.n_total, dm.n_total))
    vec = np.zeros(dm.n_total)
    blocks = assemble_local_systems(mesh, dm, prob)
    ni = dm.n_interior
    elem_dofs, trace_dofs = np.arange(ni).reshape(mesh.n_elements, -1), dm.element_trace_dofs()
    for t in range(mesh.n_elements):
        blk = blocks[t]
        rows_u = elem_dofs[t]
        gids = trace_dofs[t]
        act = gids >= 0
        rows_t = ni + gids[act]
        dense[np.ix_(rows_u, rows_u)] += blk.A_uu
        dense[np.ix_(rows_u, rows_t)] += blk.A_ut[:, act]
        dense[np.ix_(rows_t, rows_u)] += blk.A_tu[act, :]
        dense[np.ix_(rows_t, rows_t)] += blk.A_tt[np.ix_(act, act)]
        vec[rows_u] += blk.b_u
        vec[rows_t] += blk.b_t[act]
    np.testing.assert_allclose(A.toarray(), dense, atol=1e-13)
    np.testing.assert_allclose(rhs, vec, atol=1e-13)


def test_assemble_rejects_unknown_parts():
    mesh = build_uniform_triangulation(1)
    dm = build_dofmap(mesh, 1)
    with pytest.raises(ValueError):
        assemble_local_systems(mesh, dm, make_problem(), parts=("advection",))


def test_exact_solution_annihilates_residual():
    # insert the interpolant of u = x (zero on the Dirichlet part, in the
    # discrete space for k = 1) with matching trace into the full form:
    # the residual must vanish, confirming the consistency of every flux term
    from hdgcd.analysis import project_to_hdg
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    dm = build_dofmap(mesh, 1)
    u_exact = lambda x, y: x
    # -eps lap + b.grad u + c u with b=(1,0), c=1:  1 + x
    prob = ProblemSpec(
        epsilon=1.0, b=constant_velocity(1.0, 0.0),
        f=lambda x, y: 1.0 + x,
        c=lambda x, y: np.ones_like(x),
        g_N=lambda x, y: np.where(x > 1.0 - 1e-12, 1.0, 0.0),
        boundary=rule, rho0=1.0)
    A, rhs = assemble_monolithic(mesh, dm, prob)
    proj = project_to_hdg(u_exact, dm)
    v = np.concatenate([proj.u.ravel(), proj.uhat])
    resid = A @ v - rhs
    assert np.abs(resid).max() < 1e-12


def test_context_dies_with_its_mesh():
    # a solved and dropped mesh frees its cached context by refcount alone
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    prob = make_problem(b=(1.0, 0.0), boundary=rule, f=lambda x, y: x)
    gc.disable()
    try:
        mesh = build_uniform_triangulation(3, rule)
        solve_hdg(prob, mesh, degree=2)
        ref = weakref.ref(get_context(mesh, degree=2))
        del mesh
        assert ref() is None
    finally:
        gc.enable()


BAD_FIELDS = {
    "f": dict(f=lambda x, y: np.full_like(x, np.nan)),
    "b": dict(b=lambda x, y: (np.full_like(x, np.inf), np.zeros_like(x))),
    "c": dict(c=lambda x, y: np.ones(3)),
    "g_N": dict(g_N=lambda x, y: np.full_like(x, np.nan)),
    "div_b": dict(div_b=lambda x, y: np.full_like(x, np.inf)),
}


@pytest.mark.parametrize("solve", [solve_hdg, solve_supg], ids=["hdg", "supg"])
@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_bad_field_is_named(solve, name):
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    fields = dict(epsilon=1e-2, b=constant_velocity(1.0, 0.0),
                  f=lambda x, y: np.ones_like(x), boundary=rule)
    fields.update(BAD_FIELDS[name])
    with pytest.raises(ValueError, match=f"field {name} "):
        solve(ProblemSpec(**fields), mesh)


@pytest.mark.parametrize("solve", [solve_hdg, solve_supg], ids=["hdg", "supg"])
def test_vector_and_scalar_fields_of_any_container(solve):
    # a stacked ndarray velocity, a constant (2,) velocity and a list-valued
    # scalar field solve like their tuple and ndarray forms
    mesh = build_uniform_triangulation(3)
    base = dict(epsilon=1e-2, f=lambda x, y: np.ones_like(x))
    ref = solve(ProblemSpec(b=constant_velocity(1.0, 0.5), c=lambda x, y: np.ones_like(x),
                            **base), mesh)
    for b, c in ((lambda x, y: np.array([np.ones_like(x), np.full_like(x, 0.5)]),
                  lambda x, y: np.ones_like(x)),
                 (lambda x, y: np.array([1.0, 0.5]), lambda x, y: [1.0])):
        sol = solve(ProblemSpec(b=b, c=c, **base), mesh)
        np.testing.assert_allclose(np.ravel(sol.u), np.ravel(ref.u), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("check", [check_problem, solve_supg, solve_hdg],
                         ids=["check_problem", "supg", "hdg"])
def test_velocity_not_finite_on_neumann_edges_is_named(check):
    # b is NaN only on the outflow side x = 1, tagged Neumann: no volume point
    # sees it, so the inflow check is where it must be caught
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    prob = ProblemSpec(epsilon=1.0, f=lambda x, y: np.ones_like(x), boundary=rule,
                       b=lambda x, y: (np.where(x > 1.0 - 1e-12, np.nan, 1.0), np.zeros_like(y)))
    with pytest.raises(ValueError, match="^field b has non-finite values$"):
        check(prob, mesh)


@pytest.mark.parametrize("degree,quad_order", [(1, 0), (1, 1), (2, 2), (3, 1), (3, 5), (4, 2)])
def test_quadrature_order_below_2k_is_rejected(degree, quad_order):
    # an edge rule of fewer than k + 1 points cannot hold the P_k trace mass:
    # it made the skeleton singular, or gave err_l2 = 1.7e13 or 1.4 silently
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(4)
    message = f"^quadrature order {quad_order} is below 2k = {2 * degree} for degree {degree}"
    for solve in (solve_hdg, solve_monolithic):
        with pytest.raises(ValueError, match=message):
            solve(case.problem, mesh, degree=degree, quad_order=quad_order)
    sol = solve_hdg(case.problem, mesh, degree=degree, quad_order=2 * degree)
    assert sol.info["quad_order"] == 2 * degree


def test_non_integer_degree_or_order_is_named():
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(2)
    get_context(mesh, 2)   # a cached context of degree 2 must not answer for 2.0
    with pytest.raises(ValueError, match=r"^quadrature order must be an integer, got 2\.5$"):
        solve_hdg(case.problem, mesh, quad_order=2.5)
    with pytest.raises(ValueError, match=r"^polynomial degree must be an integer, got 2\.0$"):
        get_context(mesh, 2.0)
    with pytest.raises(ValueError, match=r"^polynomial degree must be an integer, got 2\.0$"):
        solve_hdg(case.problem, mesh, degree=2.0)
    # only the context built above: no truncated (1, 2) or (2, 2), and no
    # (1, 4) for the well-posedness check, as rho = 0 without c and div_b
    assert set(mesh.contexts) == {(2, 6)}


def test_velocity_without_two_components_is_named():
    with pytest.raises(ValueError, match="field b does not evaluate to two components"):
        solve_hdg(ProblemSpec(epsilon=1.0, b=lambda x, y: np.ones_like(x),
                              f=lambda x, y: np.zeros_like(x)),
                  build_uniform_triangulation(2))


def _nan(x, y):
    return np.full_like(x, np.nan)


def _nan_pair(x, y):
    return _nan(x, y), _nan(x, y)


BAD_EXACT = {
    "error_l2": ("exact", lambda sol, prob: error_l2(sol, _nan)),
    "error_h1_broken": ("exact_grad", lambda sol, prob: error_h1_broken(sol, _nan_pair)),
    "error_hdg": ("exact", lambda sol, prob: error_hdg(sol, _nan, prob, sol.info["eta"])),
}


@pytest.mark.parametrize("norm", sorted(BAD_EXACT))
def test_bad_exact_solution_is_named(norm):
    field, measure = BAD_EXACT[norm]
    prob = make_problem(f=lambda x, y: np.ones_like(x))
    sol = solve_hdg(prob, build_uniform_triangulation(2), degree=1)
    with pytest.raises(ValueError, match=f"field {field} "):
        measure(sol, prob)
