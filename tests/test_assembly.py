import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import hdgcd.assembly
import hdgcd.cli
import hdgcd.supg
from hdgcd.assembly import (AssemblyContext, ProblemSpec, assemble_local_systems,
                            assemble_monolithic, bracket, check_problem,
                            default_eta, default_quad_order, eval_field, get_context)
from hdgcd.fespace import build_dofmap, quad_triangle
from hdgcd.mesh import build_uniform_triangulation, dirichlet_where
from hdgcd.cli import RunConfig, run_study
from hdgcd.problems import case_smooth, get_case
from hdgcd.solver import HdgSolution, solve_hdg, solve_monolithic
from hdgcd.supg import assemble_supg, solve_supg
from hdgcd.analysis import (conservation_residual, error_h1_broken, error_hdg, error_l2,
                            hdg_norm)
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


def test_check_problem_rho_tolerance():
    # RHO_TOL forgives round-off below rho0, not a real dip
    mesh = build_uniform_triangulation(2)
    for dip, ok in ((1e-6, False), (1e-12, True)):
        report = check_problem(make_problem(c=lambda x, y: np.full_like(x, 1.0 - dip), rho0=1.0),
                               mesh)
        assert report.ok == ok and report.min_rho == 1.0 - dip
        assert ok or report.messages[0].startswith("rho = c - div(b)/2 drops to")


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


def diffusion_blocks(mesh, k, epsilon=1.0, eta=None):
    """The stacked ``("diffusion",)`` assembly of a problem with diffusion ``epsilon``."""
    problem = make_problem(epsilon=epsilon)
    return assemble_local_systems(mesh, build_dofmap(mesh, k), problem,
                                  eta=default_eta(k) if eta is None else eta, parts=("diffusion",))


def test_diffusive_local_matrices_symmetric():
    mesh = build_uniform_triangulation(3)
    for k in (1, 2, 3):
        full = diffusion_blocks(mesh, k).full_matrix()
        assert np.abs(full - np.swapaxes(full, -1, -2)).max() < 1e-12


def test_diffusion_scales_linearly_in_epsilon():
    mesh = build_uniform_triangulation(2)
    one = diffusion_blocks(mesh, 1, epsilon=1.0, eta=10.0).full_matrix()
    tiny = diffusion_blocks(mesh, 1, epsilon=1e-6, eta=10.0).full_matrix()
    np.testing.assert_allclose(tiny, 1e-6 * one, rtol=1e-12)


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


def test_local_blocks_shapes():
    mesh = build_uniform_triangulation(2)
    blocks = diffusion_blocks(mesh, 2, eta=40.0)
    nt = mesh.n_elements
    assert blocks.A_uu.shape == (nt, 6, 6)
    assert blocks.A_ut.shape == (nt, 6, 9)
    assert blocks.A_tu.shape == (nt, 9, 6)
    assert blocks.A_tt.shape == (nt, 9, 9)
    assert blocks.b_u.shape == (nt, 6)
    assert blocks.full_matrix().shape == (nt, 15, 15)


def counting(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that appends ``name`` to ``calls``."""
    func = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return func(*args)

    monkeypatch.setattr(owner, name, counted)


def test_assembly_builds_trace_tables_once(monkeypatch):
    calls = []
    counting(monkeypatch, AssemblyContext, "traces", calls)
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    prob = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0)
    assemble_local_systems(mesh, build_dofmap(mesh, 2), prob)
    assert len(calls) == 1
    # the Neumann load and the edge terms share one table
    calls.clear()
    prob = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0, boundary=rule,
                        g_N=lambda x, y: 1.0 + y)
    assemble_local_systems(mesh, build_dofmap(mesh, 2), prob)
    assert len(calls) == 1


@pytest.mark.parametrize("g_N", [None, lambda x, y: 1.0 + y], ids=["dirichlet", "neumann"])
def test_assemblers_form_each_coefficient_array_once(monkeypatch, g_N):
    # the volume weights once per assembly; pull-backs of the velocity and,
    # in the trace tables, of the normals; SUPG builds its trace table only
    # for Neumann data
    calls = []
    counting(monkeypatch, AssemblyContext, "volume_weights", calls)
    counting(monkeypatch, AssemblyContext, "traces", calls)
    for module in (hdgcd.assembly, hdgcd.supg):
        counting(monkeypatch, module, "pull_back", calls)
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    prob = make_problem(c=lambda x, y: np.ones_like(x), rho0=1.0, boundary=rule, g_N=g_N)
    assemble_local_systems(mesh, build_dofmap(mesh, 1), prob)
    assert sorted(calls) == ["pull_back", "pull_back", "traces", "volume_weights"]
    calls.clear()
    assemble_supg(prob, mesh)
    traced = ["pull_back", "traces"] if g_N else []
    assert sorted(calls) == sorted(["pull_back", "volume_weights"] + traced)


def test_neumann_load_only_touches_interior():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(2, rule)
    # element adjacent to the x=1 boundary
    t = int(mesh.edge_elems[mesh.boundary_edges[np.argmax(
        mesh.edge_midpoints[mesh.boundary_edges, 0])], 0])
    prob = make_problem(boundary=rule, g_N=lambda x, y: np.ones_like(x))
    dm = build_dofmap(mesh, 1)
    _, rhs = assemble_monolithic(mesh, dm, prob, parts=("load",))
    assert np.abs(rhs[dm.n_interior:]).max() == 0.0
    interior = np.arange(dm.n_interior).reshape(mesh.n_elements, -1)
    assert np.abs(rhs[interior[t]]).max() > 0.0


def test_neumann_flux_integral_value():
    # integral of g_N = 1 against P1 test functions over one boundary edge
    # of length h splits h into h/2 per endpoint basis function
    rule = dirichlet_where(lambda x, y: y > 1e-12)  # Dirichlet only at y=0
    mesh = build_uniform_triangulation(1, rule)
    prob = make_problem(boundary=rule, g_N=lambda x, y: np.ones_like(x))
    b_u = assemble_local_systems(mesh, build_dofmap(mesh, 1), prob, parts=("load",)).b_u
    for t in range(mesh.n_elements):
        # integrating g_N = 1 over the element's Neumann edges gives their
        # total length, split h/2 per endpoint test function
        assert b_u[t].sum() == pytest.approx(
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
        rows_u = elem_dofs[t]
        gids = trace_dofs[t]
        act = gids >= 0
        rows_t = ni + gids[act]
        dense[np.ix_(rows_u, rows_u)] += blocks.A_uu[t]
        dense[np.ix_(rows_u, rows_t)] += blocks.A_ut[t][:, act]
        dense[np.ix_(rows_t, rows_u)] += blocks.A_tu[t][act, :]
        dense[np.ix_(rows_t, rows_t)] += blocks.A_tt[t][np.ix_(act, act)]
        vec[rows_u] += blocks.b_u[t]
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


def test_a_layer_study_evaluates_its_source_once_per_mesh(monkeypatch):
    # the HDG and SUPG solves of a row share the order-12 source values
    shapes = []

    def counting_case(name, epsilon):
        case = get_case(name, epsilon)

        def f(x, y):
            shapes.append(np.shape(x))
            return case.problem.f(x, y)

        return replace(case, problem=replace(case.problem, f=f))

    monkeypatch.setattr(hdgcd.cli, "get_case", counting_case)
    run_study(RunConfig(study="layer", epsilon=1e-6, mesh_sizes=(4, 8)))
    nq = quad_triangle(12).weights.size
    assert [s for s in shapes if len(s) == 2] == [(32, nq), (128, nq)]


def solve_both(problem, mesh):
    return solve_hdg(problem, mesh).u, solve_supg(problem, mesh).nodal


def test_solves_on_one_mesh_reuse_no_other_problems_fields():
    a = make_problem(epsilon=1e-2, b=(1.0, 0.3), f=lambda x, y: 1.0 + x * y)
    b = make_problem(epsilon=1e-2, b=(1.0, -0.2), c=lambda x, y: 1.0 + y, rho0=1.0,
                     f=lambda x, y: np.sin(3.0 * x))
    mesh = build_uniform_triangulation(4)
    for problem in (a, b, a):
        got = solve_both(problem, mesh)
        fresh = solve_both(problem, build_uniform_triangulation(4))
        assert all(np.array_equal(x, y) for x, y in zip(got, fresh))
        values = get_context(mesh, 1).fields(problem)
        assert all(v is None or not v.flags.writeable for v in values)


def test_the_field_slot_holds_one_problem():
    mesh = build_uniform_triangulation(3)
    a = make_problem(epsilon=1e-2, f=lambda x, y: x)
    solve_hdg(a, mesh)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is not None   # the context holds the last problem's values
    solve_hdg(make_problem(epsilon=1e-2, f=lambda x, y: y), mesh)
    gc.collect()
    assert ref() is None


POINTS = np.linspace(0.0, 1.0, 24).reshape(4, 6)


def test_a_field_one_ulp_off_constant_keeps_every_value():
    # a tolerance, or a look at the first and last values alone, would
    # broadcast the first value over the one in between
    values = np.full(POINTS.shape, 0.3)
    values[2, 3] = np.nextafter(0.3, 1.0)
    got = eval_field(lambda x, y: values, POINTS, POINTS, "f")
    assert np.array_equal(got, values)


def test_a_field_of_signed_zeros_keeps_its_sign_bits():
    # -0.0 == 0.0, so a plain comparison would broadcast the first zero
    values = np.zeros(POINTS.shape)
    values[1, ::2] = -0.0
    got = eval_field(lambda x, y: values, POINTS, POINTS, "f")
    assert np.array_equal(np.signbit(got), np.signbit(values))


def test_a_vector_field_with_one_constant_component_keeps_both():
    got = eval_field(lambda x, y: (np.full_like(x, -2.0), x * y), POINTS, POINTS, "b",
                     vector=True)
    assert got.shape == (2,) + POINTS.shape
    assert np.array_equal(got[0], np.full(POINTS.shape, -2.0))
    assert np.array_equal(got[1], POINTS * POINTS)


def test_a_jet_comes_back_as_its_checked_value_and_gradient():
    got, grad = eval_field(lambda x, y: (x * y, [y, 2.0]), POINTS, POINTS, "exact",
                           grad_name="exact_grad")
    assert np.array_equal(got, POINTS * POINTS) and not got.flags.writeable
    assert grad.shape == (2,) + POINTS.shape and not grad.flags.writeable
    assert np.array_equal(grad, [POINTS, np.full(POINTS.shape, 2.0)])


@pytest.mark.parametrize("jet,message", [
    (lambda x, y: x, r"field exact does not evaluate to a pair \(exact, exact_grad\): "),
    (lambda x, y: (np.full_like(x, np.nan), (x, y)), "field exact has non-finite values$"),
    (lambda x, y: (x, (x,)), "field exact_grad does not evaluate to two components "),
    (lambda x, y: (x, (x, np.full_like(y, np.inf))), "field exact_grad has non-finite values$"),
], ids=["no-pair", "value", "gradient-shape", "gradient-value"])
def test_a_bad_jet_names_its_part(jet, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        eval_field(jet, POINTS, POINTS, "exact", grad_name="exact_grad")


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_constant_fields_come_back_read_only(vector):
    func = (lambda x, y: (np.ones_like(x), -np.zeros_like(x))) if vector else (lambda x, y: 2.5)
    got = eval_field(func, POINTS, POINTS, "g", vector=vector)
    assert got.shape == (2,) * vector + POINTS.shape and not got.flags.writeable
    expected = [np.ones(POINTS.shape), -np.zeros(POINTS.shape)] if vector else 2.5
    assert np.array_equal(got, np.broadcast_to(expected, got.shape))
    assert np.array_equal(np.signbit(got), np.signbit(np.broadcast_to(expected, got.shape)))
    with pytest.raises(ValueError, match="read-only"):
        got[...] = 0.0


def test_the_layer_fields_keep_only_the_source_at_full_size():
    # b = (1, 1) is kept as one broadcast pair; f, which varies, is the only
    # full (nt, nq) array in the slot (with b stacked, it held 2.30 MiB)
    ctx = get_context(build_uniform_triangulation(32), 1, 12)
    problem = get_case("layer", 1e-6).problem
    tracemalloc.start()
    try:
        b, c, f = ctx.fields(problem)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert c is None and b.shape == (2,) + f.shape
    assert retained <= f.nbytes + 64 * 1024


def materialized(func, *args, **kwargs):
    """:func:`eval_field` with every result a fresh, writeable full array."""
    out = func(*args, **kwargs)
    return None if out is None else np.array(out)


@pytest.mark.parametrize("name", ["layer", "reduced_limit"])
def test_constant_fields_as_views_give_the_same_numbers(monkeypatch, name):
    # every consumer of b and c gives the same bits from the broadcast view
    # as from a full array: element systems, both solves, rho and conservation
    case = get_case(name, 1e-2)

    def run():
        mesh = jittered_mesh(5, case.problem.boundary, 303)
        systems = assemble_local_systems(mesh, build_dofmap(mesh, 2), case.problem)
        sol = solve_hdg(case.problem, mesh, degree=2)
        return [*vars(systems).values(), sol.u, sol.uhat, conservation_residual(sol, case.problem),
                solve_supg(case.problem, mesh).nodal, check_problem(case.problem, mesh).min_rho]

    views = run()
    monkeypatch.setattr(hdgcd.assembly, "eval_field",
                        partial(materialized, hdgcd.assembly.eval_field))
    full = run()
    assert all(np.array_equal(a, b) for a, b in zip(views, full, strict=True))


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
