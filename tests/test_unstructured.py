"""The stacked element kernels on a jittered, renumbered mesh.

Uniform meshes have two element shapes and fixed slot orientations, so a
wrong orientation gather or Neumann mask can cancel there.  This mesh has
a distinct shape per element, random vertex and element numbering and a
rotated start vertex per triangle.  A smoothly perturbed family of such
meshes carries the paper's convergence rates.
"""

from dataclasses import replace

import numpy as np
import pytest

from hdgcd.analysis import conservation_residual, convergence_table, error_l2, errors
from hdgcd.assembly import (ElementSystems, ProblemSpec, _edge_terms, assemble_local_systems,
                            default_eta, get_context, load, neumann_data,
                            pull_back, scatter_systems, stiffness, transport)
from hdgcd.fespace import build_dofmap, quad_triangle
from hdgcd.mesh import BoundaryTag, Mesh, build_uniform_triangulation, dirichlet_where
from hdgcd.problems import case_smooth
from hdgcd.solver import solve_hdg, solve_monolithic
from hdgcd.supg import assemble_supg, supg_tau

SEED = 20240214


def relabelled_mesh(n, boundary, jitter, permute, rotate):
    """n-by-n square grid with its k interior vertices moved by the
    (radii, angles) of ``jitter(k)``, then vertices and elements renumbered
    by the permutations ``permute(size)`` and the start vertex of each of
    the nt triangles rotated by ``rotate(nt)`` (values in 0..2)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # [j, i]
    p00, p10 = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    p01, p11 = vid[1:, :-1].ravel(), vid[1:, 1:].ravel()
    triangles = np.concatenate([np.column_stack([p00, p10, p11]),
                                np.column_stack([p00, p11, p01])])
    inner = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    r, theta = jitter(int(inner.sum()))
    vertices[inner] += np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    new_id = permute(vertices.shape[0])
    renumbered = np.empty_like(vertices)
    renumbered[new_id] = vertices
    triangles = new_id[triangles][permute(triangles.shape[0])]
    shift = rotate(triangles.shape[0])
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return Mesh(renumbered, triangles, boundary=boundary)


def jittered_mesh(n, boundary, seed=SEED):
    """:func:`relabelled_mesh` with interior vertices moved by up to 0.2 h,
    uniformly over the disc, and seeded random numbering and rotation."""
    rng = np.random.default_rng(seed)
    return relabelled_mesh(
        n, boundary, lambda k: (0.2 / n * np.sqrt(rng.random(k)), 2.0 * np.pi * rng.random(k)),
        rng.permutation, lambda nt: rng.integers(0, 3, nt))


def perturbed_mesh(n, boundary, phase, seed=SEED):
    """:func:`relabelled_mesh` with interior vertices (x, y) moved along one
    smooth field, 0.2 h / sqrt(2) (sin(7x + 3y + phase), cos(5x - 2y + phase))
    with h = 1/n, and seeded random numbering and rotation: the same shapes
    at every n, so rates read against h carry no jitter noise."""
    rng = np.random.default_rng(seed)
    grid = relabelled_mesh(n, boundary, lambda k: (np.zeros(k), np.zeros(k)),
                           rng.permutation, lambda nt: rng.integers(0, 3, nt))
    x, y = grid.vertices.T
    inner = ((grid.vertices > 0.0) & (grid.vertices < 1.0)).all(axis=1)
    shift = np.column_stack([np.sin(7.0 * x + 3.0 * y + phase), np.cos(5.0 * x - 2.0 * y + phase)])
    moved = grid.vertices + (0.2 / (n * np.sqrt(2.0))) * inner[:, None] * shift
    return Mesh(moved, grid.triangles, boundary=boundary)


def bilinear_problem():
    """u = x y: Dirichlet (zero) on the inflow sides x = 0 and y = 0,
    Neumann flux eps du/dn on the outflow sides."""
    rule = dirichlet_where(lambda x, y: (x < 1e-12) | (y < 1e-12))
    problem = ProblemSpec(
        epsilon=1.0,
        b=lambda x, y: (np.ones_like(x), np.ones_like(x)),
        f=lambda x, y: x + y + x * y,
        c=lambda x, y: np.ones_like(x),
        g_N=lambda x, y: np.where(x > 1.0 - 1e-12, y, x),
        boundary=rule, rho0=1.0)
    return problem, (lambda x, y: x * y), 3.0   # sup |f| on the square


def relative_gap(a, b):
    gap = np.abs(a.u - b.u).max() / np.abs(b.u).max()
    return max(gap, np.abs(a.uhat - b.uhat).max() / np.abs(b.uhat).max())


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_jittered_mesh_invariants(degree):
    problem, exact, f_sup = bilinear_problem()
    mesh = jittered_mesh(6, problem.boundary)
    assert np.unique(np.round(mesh.det_jacobians, 12)).size > 2
    assert mesh.edge_forward.any(axis=0).all() and (~mesh.edge_forward).any(axis=0).all()

    sol = solve_hdg(problem, mesh, degree=degree)
    assert relative_gap(sol, solve_monolithic(problem, mesh, degree=degree)) <= 1e-10
    assert np.abs(conservation_residual(sol, problem)).max() <= 1e-12 * (1.0 + f_sup)
    if degree >= 2:
        assert error_l2(sol, exact) <= 1e-10


def test_smooth_rates_on_a_perturbed_family():
    # the paper's rates at eps = 1 on one smoothly perturbed, renumbered
    # family, against the nominal h = 1/n, with criterion 2's margin of 0.2:
    # L2 k + 1, broken H1 and the scheme norm k
    case = case_smooth(1.0)
    ns = (4, 8, 16, 32)
    for k in (1, 2, 3):
        errs = []
        for n in ns:
            sol = solve_hdg(case.problem, perturbed_mesh(n, case.problem.boundary, 0.0), degree=k)
            err_l2, err_h1, report = errors(sol, case, default_eta(k))
            errs.append((err_l2, err_h1, report.err_hdg))
        rates = [convergence_table(e, [1.0 / n for n in ns])[-1] for e in zip(*errs)]
        np.testing.assert_allclose(rates, [k + 1, k, k], rtol=0.0, atol=0.2, err_msg=f"k={k}")


@pytest.mark.parametrize("degree", [1, 2, 3, 6, 8, 10])
def test_solutions_do_not_depend_on_the_vertex_numbering(degree):
    # relabelling vertex v as nv - 1 - v keeps every element and its local
    # vertex order but flips every edge slot; the element fields must agree
    # to the round-off of the solves, also where the monomial edge basis is
    # reversal-symmetric only to about 1e-9 (k = 10), and so must the trace on
    # every edge, whose coefficients now run the other way along it
    problem, _, _ = bilinear_problem()
    problem = replace(problem, epsilon=0.05, b=lambda x, y: (1.0 + y * y, x - 0.5 * y),
                      boundary=None)
    mesh = jittered_mesh(6, problem.boundary)
    nv = mesh.n_vertices
    flipped = Mesh(mesh.vertices[::-1], nv - 1 - mesh.triangles)
    assert not (flipped.edge_forward == mesh.edge_forward).any()
    sol, sol_flipped = (solve_hdg(problem, m, degree=degree) for m in (mesh, flipped))
    assert np.abs(sol_flipped.u - sol.u).max() <= 1e-12 * np.abs(sol.u).max()
    index = {edge: e for e, edge in enumerate(map(tuple, flipped.edges.tolist()))}
    image = [index[nv - 1 - b, nv - 1 - a] for a, b in mesh.edges.tolist()]
    uhat, uhat_flipped = sol.edge_traces(), sol_flipped.edge_traces()[image, ::-1]
    assert np.abs(uhat_flipped - uhat).max() <= 1e-12 * np.abs(uhat).max()


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_edge_pass_is_sum_of_parts(degree):
    # the one gap coupling splits into its penalty and upwind weights, with
    # a varying velocity and a reaction term on mixed boundary tags
    problem, _, _ = bilinear_problem()
    problem = replace(problem, b=lambda x, y: (1.0 + y * y, x - 0.5 * y))
    mesh = jittered_mesh(4, problem.boundary)
    assert (mesh.edge_tags == BoundaryTag.NEUMANN).any()
    dofmap = build_dofmap(mesh, degree)
    both, diff, conv = (assemble_local_systems(mesh, dofmap, problem, eta=13.0, parts=parts)
                        for parts in (("diffusion", "convection"), ("diffusion",),
                                      ("convection",)))
    for name in ("A_uu", "A_ut", "A_tu", "A_tt"):
        want = getattr(diff, name) + getattr(conv, name)
        np.testing.assert_allclose(getattr(both, name), want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max(), err_msg=name)


def physical_gradients(table, mesh):
    """Reference basis gradients (..., nd, 2) mapped to every element, dN J^{-1}:
    the physical-gradient quadrature the kernels are checked against."""
    return table @ np.swapaxes(mesh.inv_jacobians_t, -1, -2)[:, None]


def canonical_slot(ctx, mesh, s):
    """Forward mask (nt,) of slot s, read from the vertex labels, and the
    element basis (nt, nqe, nd) and its reference gradients (nt, nqe, nd, 2)
    along slot s at the edge rule's points in the edge's own direction, from
    the lower to the higher vertex index: a backward slot reads the points
    of the element's direction in reverse order."""
    tri = mesh.triangles
    forward = tri[:, s] < tri[:, (s + 1) % 3]
    phi, dphi = (np.where(forward.reshape((-1,) + (1,) * table.ndim), table, table[::-1])
                 for table in (ctx.N_tr[s], ctx.dN_tr[s]))
    return forward, phi, dphi


def reference_residual(sol, problem):
    """conservation_residual from physical gradients at the volume and edge
    points, each edge read in its own direction."""
    mesh, eta, eps = sol.mesh, sol.info["eta"], problem.epsilon
    ctx = get_context(mesh, sol.degree, sol.info["quad_order"])
    grad = np.einsum("tqia,ti->tqa", physical_gradients(ctx.dN, mesh), sol.u)
    bx, by = ctx.volume_values(problem.b, "b", vector=True)
    c, f = ctx.volume_values(problem.c, "c"), ctx.volume_values(problem.f, "f")
    vol = bx * grad[..., 0] + by * grad[..., 1] + c * (sol.u @ ctx.N.T) - f
    residual = (vol * ctx.volume_weights(mesh)).sum(axis=1)
    bx_e, by_e = ctx.edge_values(problem.b, "b", vector=True)
    g_n = ctx.edge_values(problem.g_N, "g_N")
    trace = sol.dofmap.trace_values(ctx.edge.points)
    for s in range(3):
        # slot s read straight from the mesh, independently of the trace tables
        edges, normals = mesh.elem_edges[:, s], mesh.normals[:, s]
        _, phi, dphi = canonical_slot(ctx, mesh, s)
        dn = np.einsum("tqia,ta,ti->tq", physical_gradients(dphi, mesh), normals, sol.u)
        gap = sol.edge_traces()[edges] @ trace.T - np.einsum("tqi,ti->tq", phi, sol.u)
        bn = bx_e[edges] * normals[:, :1] + by_e[edges] * normals[:, 1:]
        h = mesh.h_e[edges][:, None]
        flux = eps * (dn + eta / h * gap) + np.maximum(-bn, 0.0) * gap
        flux = np.where((mesh.edge_tags[edges] == BoundaryTag.NEUMANN)[:, None], g_n[edges], flux)
        residual -= (ctx.edge.weights * h * flux).sum(axis=1)
    return residual


def reference_edge_blocks(mesh, degree, quad_order, problem, eta):
    """The edge part of the element systems, the consistency terms
    <eps dn(u), vhat - v> + <uhat - u, eps dn(v)> and the gap coupling
    <uhat - u, w_t vhat - w_u v>, from physical gradients one slot at a time,
    each edge read in its own direction; a backward slot's trace rows and
    columns are then put in its element's direction."""
    ctx = get_context(mesh, degree, quad_order)
    eps, nt = problem.epsilon, mesh.n_elements
    trace = build_dofmap(mesh, degree).trace_values(ctx.edge.points)
    psi, m = np.broadcast_to(trace, (nt,) + trace.shape), trace.shape[1]
    out = ElementSystems.zeros(nt, ctx.N.shape[1], 3 * m)
    bx_e, by_e = ctx.edge_values(problem.b, "b", vector=True)

    def form(w, test, trial):
        return np.einsum("tq,tqi,tqj->tij", w, test, trial)

    for s in range(3):
        # slot s read straight from the mesh, independently of the trace tables
        edges, normals = mesh.elem_edges[:, s], mesh.normals[:, s]
        forward, phi, dphi = canonical_slot(ctx, mesh, s)
        dn = eps * np.einsum("tqia,ta->tqi", physical_gradients(dphi, mesh), normals)
        bn = bx_e[edges] * normals[:, :1] + by_e[edges] * normals[:, 1:]
        h = mesh.h_e[edges][:, None]
        w = ctx.edge.weights * h * (mesh.edge_tags[edges] != BoundaryTag.NEUMANN)[:, None]
        w_t, w_u = (w * (eps * eta / h + np.maximum(sign * bn, 0.0)) for sign in (1.0, -1.0))
        tt, tu = form(w_t, psi, psi), form(w, psi, dn) - form(w_t, psi, phi)
        ut = form(w, dn, psi) - form(w_u, phi, psi)
        back = ~forward
        tt[back], tu[back], ut[back] = tt[back, ::-1, ::-1], tu[back, ::-1], ut[back, :, ::-1]
        slot = slice(s * m, (s + 1) * m)
        out.A_tt[:, slot, slot] += tt
        out.A_tu[:, slot] += tu
        out.A_ut[:, :, slot] += ut
        out.A_uu += form(w_u, phi, phi) - form(w, phi, dn) - form(w, dn, phi)
    return out


def assert_close_to_max(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("neumann", [False, True], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("quad_order", [None, 12], ids=["default", "q12"])
@pytest.mark.parametrize("degree", [1, 2, 3, 6])
def test_edge_kernels_match_slot_by_slot_reference(degree, quad_order, neumann):
    # the one-product edge kernels, each slot in its element's direction,
    # against the edge forms assembled per slot along the edge's own direction
    # and put in the element's direction afterwards, with a swirling velocity,
    # so that both upwind brackets and the diffusive terms count
    problem, _, _ = bilinear_problem()
    problem = replace(problem, epsilon=0.05, b=lambda x, y: (1.0 + y * y, x - 0.5 * y),
                      boundary=problem.boundary if neumann else None)
    mesh = jittered_mesh(4, problem.boundary)
    assert (mesh.edge_tags == BoundaryTag.NEUMANN).any() == neumann
    dofmap = build_dofmap(mesh, degree)
    ctx = get_context(mesh, degree, quad_order)
    got = ElementSystems.zeros(mesh.n_elements, dofmap.ndof_elem, 3 * dofmap.ndof_edge)
    _edge_terms(ctx, ctx.traces(mesh), dofmap, got, problem, 13.0, ("diffusion", "convection"))
    want = reference_edge_blocks(mesh, degree, quad_order, problem, 13.0)
    for name in ("A_uu", "A_ut", "A_tu", "A_tt"):
        assert_close_to_max(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("quad_order", [None, 12], ids=["default", "q12"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_reference_kernels_match_physical_quadrature(degree, quad_order):
    # stiffness from the reference tensors, transport, the SUPG streamline
    # term and the conservation residual from the pulled-back velocity,
    # against physical gradients
    problem, _, _ = bilinear_problem()
    mesh = jittered_mesh(4, problem.boundary)
    ctx = get_context(mesh, degree, quad_order)
    G = physical_gradients(ctx.dN, mesh)   # (nt, nq, nd, 2)
    w = ctx.volume_weights(mesh)
    assert_close_to_max(stiffness(ctx, mesh, 0.3),
                        0.3 * np.einsum("tqia,tqja->tij", w[..., None, None] * G, G))

    swirl = ctx.volume_values(lambda x, y: (1.0 + y * y, x - 0.5 * y), "b", vector=True)
    c = ctx.volume_values(problem.c, "c")
    bgrad_ref = swirl[0][..., None] * G[..., 0] + swirl[1][..., None] * G[..., 1]
    transport_ref = ctx.N.T @ (w[..., None] * (bgrad_ref + c[..., None] * ctx.N))
    assert_close_to_max(transport(ctx, w * pull_back(mesh, swirl), w * c), transport_ref)
    if degree == 1:
        # the SUPG system, its streamline term and load from the streamline
        # tables; at eps = 1e-3 the streamline term outweighs the stiffness
        eps = 1e-3
        supg = replace(problem, epsilon=eps, b=lambda x, y: (1.0 + y * y, x - 0.5 * y))
        A, rhs, free = assemble_supg(supg, mesh, quad_order)
        tau = supg_tau(mesh.h_K, np.hypot(*swirl).max(axis=1), eps)[:, None]
        wb = w[..., None] * bgrad_ref
        mats = (eps * np.einsum("tqia,tqja->tij", w[..., None, None] * G, G) + transport_ref
                + tau[..., None] * np.einsum("tqi,tqj->tij", wb, bgrad_ref + c[..., None] * ctx.N))
        f = ctx.volume_values(supg.f, "f")
        loads = (load(ctx, w * f, neumann_data(supg, mesh, ctx), ctx.traces(mesh))
                 + tau * np.einsum("tq,tqi->ti", f, wb))
        gids = np.full(mesh.n_vertices, -1)
        gids[free] = np.arange(free.size)
        A_ref, rhs_ref = scatter_systems(mats, loads, gids[mesh.triangles], free.size)
        assert_close_to_max(A.toarray(), A_ref.toarray())
        assert_close_to_max(rhs, rhs_ref)

    # a solved pair balances to round-off; a seeded perturbation makes every
    # term of the residual count
    sol = solve_hdg(problem, mesh, degree=degree, quad_order=quad_order)
    rng = np.random.default_rng(SEED)
    sol.u += 0.1 * rng.standard_normal(sol.u.shape)
    sol.uhat += 0.1 * rng.standard_normal(sol.uhat.shape)
    assert_close_to_max(conservation_residual(sol, problem), reference_residual(sol, problem))


def loop_topology(triangles):
    """Edges, elem_edges, edge_forward and edge_elems built element by element."""
    local = [(int(tri[s]), int(tri[(s + 1) % 3])) for tri in triangles for s in range(3)]
    index = {pair: e for e, pair in enumerate(sorted({(min(p), max(p)) for p in local}))}
    elem_edges = np.empty(len(local), dtype=np.int64)
    edge_elems = np.full((len(index), 2), -1, dtype=np.int64)
    for i, (a, b) in enumerate(local):
        elem_edges[i] = index[(min(a, b), max(a, b))]
        edge_elems[elem_edges[i], 0 if a < b else 1] = i // 3
    boundary = edge_elems[:, 0] < 0
    edge_elems[boundary] = edge_elems[boundary, ::-1]
    forward = np.array([a < b for a, b in local])
    return (np.array(sorted(index)), elem_edges.reshape(-1, 3), forward.reshape(-1, 3),
            edge_elems)


def test_mesh_topology_matches_loop_reference():
    # lexicographic edge numbering and the boundary element in column 0,
    # on random vertex numbering and start vertices
    problem, _, _ = bilinear_problem()
    for mesh in (jittered_mesh(5, problem.boundary), build_uniform_triangulation(3)):
        edges, elem_edges, forward, edge_elems = loop_topology(mesh.triangles)
        np.testing.assert_array_equal(mesh.edges, edges)
        np.testing.assert_array_equal(mesh.elem_edges, elem_edges)
        np.testing.assert_array_equal(mesh.edge_forward, forward)
        np.testing.assert_array_equal(mesh.edge_elems, edge_elems)


@pytest.mark.parametrize("make_mesh", [lambda: build_uniform_triangulation(10),
                                       lambda: build_uniform_triangulation(80),
                                       lambda: jittered_mesh(32, None)],
                         ids=["uniform10", "uniform80", "jittered32"])
def test_geometry_kernels_bit_identical_to_einsum_forms(make_mesh):
    # Point images, pull-backs and edge numbering equal the einsum and
    # row-wise np.unique forms bit for bit, so study outputs do not move by
    # an ulp.  A matmul point map, for one, differs by 1 ulp on uniform n=10
    # and n=80 and on the jittered mesh.
    mesh = make_mesh()
    a, b = mesh.triangles, np.roll(mesh.triangles, -1, axis=1)
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1).reshape(-1, 2)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges) and mesh.edges.dtype == edges.dtype
    assert np.array_equal(mesh.elem_edges, inverse.reshape(-1, 3))

    m = mesh.inv_jacobians_t
    normals = np.moveaxis(mesh.normals, -1, 0)
    assert np.array_equal(pull_back(mesh, normals), np.einsum("tca,ct...->at...", m, normals))
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    rng = np.random.default_rng(SEED)
    for order in (4, 12):
        ref = quad_triangle(order).points
        assert np.array_equal(mesh.physical_points(ref),
                              v0[:, None, :] + np.einsum("qd,tad->tqa", ref, mesh.jacobians))
        v = rng.standard_normal((2, mesh.n_elements, ref.shape[0]))
        assert np.array_equal(pull_back(mesh, v), np.einsum("tca,ct...->at...", m, v))
