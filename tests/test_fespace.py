import numpy as np
import pytest

from hdgcd import fespace
from hdgcd.analysis import project_to_hdg
from hdgcd.assembly import get_context
from hdgcd.cli import TRACE_SAMPLES, RunConfig
from hdgcd.fespace import (EdgeBasis, ElementBasis, build_dofmap, get_element_basis, quad_edge,
                           quad_triangle)
from hdgcd.mesh import build_uniform_triangulation, dirichlet_where


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_element_basis_partition_of_unity(degree):
    basis = ElementBasis(degree)
    assert basis.dim == (degree + 1) * (degree + 2) // 2
    rng = np.random.default_rng(3)
    pts = rng.random((50, 2)) * 0.5  # inside the reference triangle
    vals = basis.values(pts)
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    grads = basis.gradients(pts)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-11)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_element_basis_nodal(degree):
    basis = ElementBasis(degree)
    vals = basis.values(basis.nodes)
    np.testing.assert_allclose(vals, np.eye(basis.dim), atol=1e-12)


def test_degree_one_nodes_are_vertices():
    basis = ElementBasis(1)
    np.testing.assert_allclose(basis.nodes,
                               [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_element_basis_gradients_match_fd():
    basis = ElementBasis(3)
    pts = np.array([[0.2, 0.3], [0.1, 0.05], [0.4, 0.4]])
    grads = basis.gradients(pts)
    h = 1e-6
    for d, shift in enumerate(np.eye(2) * h):
        fd = (basis.values(pts + shift) - basis.values(pts - shift)) / (2 * h)
        np.testing.assert_allclose(grads[:, :, d], fd, atol=1e-8)


def test_element_basis_second_derivatives_match_fd():
    basis = ElementBasis(3)
    pts = np.array([[0.25, 0.25], [0.1, 0.6]])
    sec = basis.second_derivatives(pts)  # (np, dim, 3): xx, xy, yy
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    fxx = (basis.values(pts + ex) - 2 * basis.values(pts) + basis.values(pts - ex)) / h**2
    fyy = (basis.values(pts + ey) - 2 * basis.values(pts) + basis.values(pts - ey)) / h**2
    fxy = (basis.values(pts + ex + ey) - basis.values(pts + ex - ey)
           - basis.values(pts - ex + ey) + basis.values(pts - ex - ey)) / (4 * h**2)
    np.testing.assert_allclose(sec[:, :, 0], fxx, atol=1e-4)
    np.testing.assert_allclose(sec[:, :, 1], fxy, atol=1e-4)
    np.testing.assert_allclose(sec[:, :, 2], fyy, atol=1e-4)


def test_element_basis_rejects_bad_degree():
    with pytest.raises(ValueError, match="^polynomial degree must be >= 1, got 0$"):
        ElementBasis(0)
    with pytest.raises(ValueError, match="^polynomial degree 11 exceeds supported maximum 10$"):
        ElementBasis(11)
    with pytest.raises(ValueError, match="^edge degree must be >= 0, got -1$"):
        EdgeBasis(-1)
    with pytest.raises(ValueError, match="^edge degree 11 exceeds supported maximum 10$"):
        EdgeBasis(11)
    # a whole-valued float is named as a non-integer, also where a cached
    # basis of that degree exists
    get_element_basis(2)
    for make in (ElementBasis, get_element_basis):
        with pytest.raises(ValueError, match=r"^polynomial degree must be an integer, got 2\.0$"):
            make(2.0)


@pytest.mark.parametrize("flag", [True, np.True_])
def test_bool_is_not_an_integer(flag):
    # isinstance(True, int) held, so degree=True ran at degree 1 and the
    # CLI printed "degree=True" in its config comment
    mesh = build_uniform_triangulation(2)
    message = f"must be an integer, got {flag!r}$"
    with pytest.raises(ValueError, match="^polynomial degree " + message):
        RunConfig(degree=flag, mesh_sizes=(2,)).validate()
    with pytest.raises(ValueError, match="^polynomial degree " + message):
        get_context(mesh, flag)
    with pytest.raises(ValueError, match="^quadrature order " + message):
        quad_triangle(flag)
    assert not mesh.contexts


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_edge_basis_nodal_and_unity(degree):
    eb = EdgeBasis(degree)
    assert eb.dim == degree + 1
    t = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(eb.values(t).sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(eb.values(eb.nodes), np.eye(eb.dim), atol=1e-12)


def test_triangle_quadrature_exactness():
    # total weight is the reference area
    for order in (1, 2, 4, 8):
        rule = quad_triangle(order)
        assert (rule.weights > 0).all()
        assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    # monomial integrals over the reference triangle:
    # int x^p y^q = p! q! / (p + q + 2)!
    from math import factorial
    for order in (3, 5, 10):
        rule = quad_triangle(order)
        for p in range(order + 1):
            for q in range(order + 1 - p):
                exact = factorial(p) * factorial(q) / factorial(p + q + 2)
                got = (rule.weights * rule.points[:, 0] ** p
                       * rule.points[:, 1] ** q).sum()
                assert got == pytest.approx(exact, rel=1e-12), (order, p, q)


def test_edge_quadrature_exactness():
    rule = quad_edge(2)
    got = (rule.weights * rule.points ** 2).sum()
    assert got == pytest.approx(1.0 / 3.0, rel=1e-14)
    for order in (1, 4, 9):
        rule = quad_edge(order)
        for p in range(order + 1):
            assert (rule.weights * rule.points ** p).sum() == pytest.approx(
                1.0 / (p + 1), rel=1e-12)


def test_quadrature_order_bounds():
    with pytest.raises(ValueError, match="^quadrature order must be >= 0, got -1$"):
        quad_triangle(-1)
    with pytest.raises(ValueError, match=r"^quadrature order must be an integer, got 2\.5$"):
        quad_edge(2.5)
    with pytest.raises(ValueError, match="^quadrature order 61 exceeds supported maximum 60$"):
        quad_triangle(61)
    with pytest.raises(ValueError, match="^quadrature order must be >= 0, got -1$"):
        quad_edge(-1)
    with pytest.raises(ValueError, match="^quadrature order 61 exceeds supported maximum 60$"):
        quad_edge(61)


def test_dofmap_counts_dg():
    mesh = build_uniform_triangulation(4)
    for k in (1, 2, 3):
        dm = build_dofmap(mesh, k)
        ndof = (k + 1) * (k + 2) // 2
        assert dm.n_interior == mesh.n_elements * ndof
        n_interior_edges = mesh.n_edges - mesh.boundary_edges.size
        # all-Dirichlet boundary: only interior edges carry active dofs
        assert dm.n_trace_active == n_interior_edges * (k + 1)
        assert dm.n_total == dm.n_interior + dm.n_trace_active


def test_dofmap_reuses_the_cached_element_basis(monkeypatch):
    mesh = build_uniform_triangulation(3)
    dim = get_element_basis(3).dim

    def no_new_basis(degree):
        raise AssertionError("DofMap built a new ElementBasis")

    monkeypatch.setattr(fespace, "ElementBasis", no_new_basis)
    assert build_dofmap(mesh, 3).ndof_elem == dim == 10


def test_dofmap_dirichlet_constrained():
    mesh = build_uniform_triangulation(3)
    dm = build_dofmap(mesh, 2)
    for e in mesh.boundary_edges:
        assert (dm.edge_dofs[e] == -1).all()
    gids = dm.edge_dofs[dm.edge_dofs >= 0]
    assert sorted(gids.tolist()) == list(range(dm.n_trace_active))


def test_dofmap_neumann_edges_off_skeleton():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(3, rule)
    dm = build_dofmap(mesh, 1)
    for e in mesh.boundary_edges:
        x = mesh.edge_midpoints[e, 0]
        assert (dm.edge_dofs[e] == -1).all()
        if x > 1e-12:
            assert e not in set(dm.skeleton_edges.tolist())


def test_dofmap_cg_counts():
    mesh = build_uniform_triangulation(4)
    dm = build_dofmap(mesh, 1, "cg")
    # interior vertices only; boundary vertices touch Dirichlet edges
    assert dm.n_trace_active == (4 - 1) ** 2
    with pytest.raises(ValueError, match="^continuous skeleton mode is only defined for degree 1$"):
        build_dofmap(mesh, 2, "cg")
    with pytest.raises(ValueError, match="^unknown skeleton mode 'mixed'$"):
        build_dofmap(mesh, 1, "mixed")


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dofmap_owns_the_trace_basis(degree):
    # one trace space: the edge basis, its width and the three-slot table
    dm = build_dofmap(build_uniform_triangulation(2), degree)
    assert dm.edge_basis is fespace.get_edge_basis(degree)
    assert dm.ndof_edge == dm.edge_basis.dim == dm.edge_dofs.shape[1] == degree + 1
    t = quad_edge(2 * degree + 2).points
    slots = dm.slot_values(t)
    assert slots.shape == (3 * t.size, 3 * (degree + 1))
    for s in range(3):
        for r in range(3):
            block = slots[s * t.size:(s + 1) * t.size, r * (degree + 1):(r + 1) * (degree + 1)]
            assert np.array_equal(block, dm.trace_values(t) if s == r else 0.0 * block)


# largest |trace_values - edge_basis.values| over the edge rules of orders
# 2k..MAX_QUAD_ORDER and TRACE_SAMPLES, measured with numpy 2.4 (1.1e-16 at
# k = 1, 1.6e-15 at k = 3, 3.4e-13 at k = 6, 8.6e-10 at k = 10), times about 10:
# the monomial edge basis is reversal-symmetric only to round-off that grows with k
TRACE_ASYMMETRY_BOUND = {1: 1e-15, 2: 2e-15, 3: 2e-14, 4: 1e-13, 5: 1e-12, 6: 4e-12,
                         7: 3e-11, 8: 2e-10, 9: 2e-9, 10: 1e-8}


@pytest.mark.parametrize("degree", range(1, fespace.MAX_DEGREE + 1))
def test_trace_values_are_exactly_symmetric(degree):
    # reversing the points and the functions gives the table back bit for
    # bit, on every edge rule an assembly context can build and on the trace
    # dump samples, and it stays the edge basis up to its own asymmetry
    dm = build_dofmap(build_uniform_triangulation(1), degree)
    rules = [quad_edge(order).points for order in range(2 * degree, fespace.MAX_QUAD_ORDER + 1)]
    for t in rules + [np.array(TRACE_SAMPLES)]:
        T = dm.trace_values(t)
        assert T.shape == (t.size, degree + 1)
        assert np.array_equal(T.view(np.uint64), T[::-1, ::-1].view(np.uint64))
        assert np.abs(T - dm.edge_basis.values(t)).max() <= TRACE_ASYMMETRY_BOUND[degree]
    with pytest.raises(ValueError, match=r"^trace points must be symmetric about the edge "
                                         r"midpoint \(t\[i\] \+ t\[-1 - i\] == 1\), "
                                         r"got \[0\.1, 0\.2\]$"):
        dm.trace_values([0.1, 0.2])


def test_dofmap_cg_shares_vertices():
    mesh = build_uniform_triangulation(3)
    dm = build_dofmap(mesh, 1, "cg")
    for e in dm.skeleton_edges:
        a, b = mesh.edges[e]
        assert dm.edge_dofs[e, 0] == dm.vertex_dofs[a]
        assert dm.edge_dofs[e, 1] == dm.vertex_dofs[b]


def test_element_trace_dofs_layout():
    # slot s runs from local vertex s to s + 1: its dofs are the edge's own
    # where that is from the lower to the higher vertex index, else reversed
    mesh = build_uniform_triangulation(2)
    tri = mesh.triangles
    ends = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1)   # (nt, 3, 2) local vertices
    assert (ends[..., 0] < ends[..., 1]).any() and (ends[..., 0] > ends[..., 1]).any()
    for degree, mode in ((1, "dg"), (3, "dg"), (1, "cg")):
        dm, m = build_dofmap(mesh, degree, mode), degree + 1
        gids = dm.element_trace_dofs()
        assert gids.shape == (mesh.n_elements, 3 * m)
        for t in range(mesh.n_elements):
            for s in range(3):
                own = dm.edge_dofs[mesh.elem_edges[t, s]]
                want = own if ends[t, s, 0] < ends[t, s, 1] else own[::-1]
                np.testing.assert_array_equal(gids[t, s * m:(s + 1) * m], want)
    # continuous traces: the two vertex dofs of every slot in local vertex order
    np.testing.assert_array_equal(gids, dm.vertex_dofs[ends].reshape(mesh.n_elements, -1))


def test_project_element_reproduces_polynomials():
    mesh = build_uniform_triangulation(2)
    basis = ElementBasis(2)
    coef = project_to_hdg(lambda x, y: x * y + 2.0 * x - y, build_dofmap(mesh, 2)).u[3]
    nodes_phys = (mesh.vertices[mesh.triangles[3, 0]]
                  + basis.nodes @ mesh.jacobians[3].T)
    expect = nodes_phys[:, 0] * nodes_phys[:, 1] + 2 * nodes_phys[:, 0] - nodes_phys[:, 1]
    np.testing.assert_allclose(coef, expect, atol=1e-12)


def test_edge_projection_error_oracle():
    # L2-projection error of f(x, y) = x^2 onto P1 on a horizontal edge of
    # length h: the quadratic Legendre component gives h^{5/2} / sqrt(180),
    # observed rate 2.5 under refinement.  The edge is interior, so its trace
    # is a free unknown of the projected pair.
    eb = EdgeBasis(1)
    rule = quad_edge(12)
    errors, hs = [], []
    for n in (2, 4, 8, 16):
        mesh = build_uniform_triangulation(n)
        h = 1.0 / n
        # first interior horizontal edge: vertices n + 1 and n + 2
        a, b = n + 1, n + 2
        e = int(np.nonzero((mesh.edges[:, 0] == a) & (mesh.edges[:, 1] == b))[0][0])
        coef = project_to_hdg(lambda x, y: x ** 2, build_dofmap(mesh, 1)).edge_traces()[e]
        pts = mesh.vertices[a] + rule.points[:, None] * (mesh.vertices[b] - mesh.vertices[a])
        vals = eb.values(rule.points) @ coef
        err = np.sqrt(h * (rule.weights * (pts[:, 0] ** 2 - vals) ** 2).sum())
        assert err == pytest.approx(h ** 2.5 / np.sqrt(180.0), rel=1e-10)
        errors.append(err)
        hs.append(h)
    rates = np.log(np.array(errors[:-1]) / errors[1:]) / np.log(np.array(hs[:-1]) / hs[1:])
    np.testing.assert_allclose(rates, 2.5, atol=1e-9)
