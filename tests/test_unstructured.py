"""The stacked element kernels on a jittered, renumbered mesh.

Uniform meshes have two element shapes and fixed slot orientations, so a
wrong orientation gather or Neumann mask can cancel there.  This mesh has
a distinct shape per element, random vertex and element numbering and a
rotated start vertex per triangle.
"""

import numpy as np
import pytest

from hdgcd.analysis import conservation_residual, error_l2
from hdgcd.assembly import ProblemSpec, assemble_local_systems, local_diffusion
from hdgcd.fespace import build_dofmap, get_edge_basis, get_element_basis
from hdgcd.mesh import Mesh, dirichlet_where
from hdgcd.solver import solve_hdg, solve_monolithic

SEED = 20240214


def jittered_mesh(n, boundary, seed=SEED):
    """n-by-n square grid, interior vertices moved by up to 0.2 h, then
    vertices and elements renumbered and each start vertex rotated."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # [j, i]
    p00, p10 = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    p01, p11 = vid[1:, :-1].ravel(), vid[1:, 1:].ravel()
    triangles = np.concatenate([np.column_stack([p00, p10, p11]),
                                np.column_stack([p00, p11, p01])])
    inner = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    r = 0.2 / n * np.sqrt(rng.random(inner.sum()))
    theta = 2.0 * np.pi * rng.random(inner.sum())
    vertices[inner] += np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    new_id = rng.permutation(vertices.shape[0])
    renumbered = np.empty_like(vertices)
    renumbered[new_id] = vertices
    triangles = new_id[triangles][rng.permutation(triangles.shape[0])]
    shift = rng.integers(0, 3, triangles.shape[0])
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return Mesh(renumbered, triangles, boundary=boundary)


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


def test_local_diffusion_matches_stacked_slice():
    # the one-element path keeps slot order, orientation and Neumann edges
    problem, _, _ = bilinear_problem()
    mesh = jittered_mesh(4, problem.boundary)
    stacked = assemble_local_systems(mesh, build_dofmap(mesh, 2), problem,
                                     eta=13.0, parts=("diffusion",))
    basis, eb = get_element_basis(2), get_edge_basis(2)
    for t in range(mesh.n_elements):
        one = local_diffusion(mesh, t, basis, eb, epsilon=problem.epsilon, eta=13.0)
        np.testing.assert_allclose(one.full_matrix(), stacked[t].full_matrix(),
                                   rtol=0.0, atol=1e-12 * np.abs(stacked[t].A_uu).max())
