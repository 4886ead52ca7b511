import numpy as np
import pytest

from hdgcd.mesh import (BoundaryTag, Mesh, MeshError, all_dirichlet,
                        build_uniform_triangulation, dirichlet_where,
                        extract_skeleton, load_mesh, outward_normal,
                        quasi_uniformity_ratio, save_mesh,
                        verify_inflow_in_dirichlet)


def test_uniform_mesh_counts():
    for n in (1, 2, 3, 8):
        mesh = build_uniform_triangulation(n)
        assert mesh.n_vertices == (n + 1) ** 2
        assert mesh.n_elements == 2 * n * n
        assert mesh.n_edges == 3 * n * n + 2 * n
        assert mesh.boundary_edges.size == 4 * n
        # Euler characteristic of a disk: V - E + T = 1
        assert mesh.n_vertices - mesh.n_edges + mesh.n_elements == 1


def test_triangles_counterclockwise():
    mesh = build_uniform_triangulation(4)
    v = mesh.vertices[mesh.triangles]
    cross = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
             - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
    assert (cross > 0).all()
    np.testing.assert_allclose(mesh.areas, cross / 2.0)
    np.testing.assert_allclose(mesh.areas.sum(), 1.0, rtol=1e-14)


def test_edges_canonical_and_sorted():
    mesh = build_uniform_triangulation(3)
    assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()
    order = np.lexsort((mesh.edges[:, 1], mesh.edges[:, 0]))
    assert (order == np.arange(mesh.n_edges)).all()


def test_edge_element_adjacency():
    mesh = build_uniform_triangulation(3)
    boundary = mesh.edge_elems[:, 1] < 0
    assert boundary.sum() == 12
    assert (mesh.edge_elems[:, 0] >= 0).all()
    # every element lists each of its edges exactly once
    seen = np.zeros(mesh.n_edges, dtype=int)
    for t in range(mesh.n_elements):
        for e in mesh.elem_edges[t]:
            seen[e] += 1
    np.testing.assert_array_equal(seen, np.where(boundary, 1, 2))


def test_outward_normals_unit_and_outward():
    mesh = build_uniform_triangulation(2)
    for t in range(mesh.n_elements):
        center = mesh.barycenters[t]
        for s in range(3):
            e = mesh.elem_edges[t, s]
            nrm = outward_normal(mesh, t, e)
            assert nrm == pytest.approx(tuple(mesh.normals[t, s]))
            assert np.hypot(*nrm) == pytest.approx(1.0, abs=1e-14)
            mid = mesh.edge_midpoints[e]
            assert np.dot(nrm, mid - center) > 0.0


def test_normals_opposite_across_interior_edges():
    mesh = build_uniform_triangulation(3)
    for e in range(mesh.n_edges):
        t0, t1 = mesh.edge_elems[e]
        if t1 < 0:
            continue
        s0 = list(mesh.elem_edges[t0]).index(e)
        s1 = list(mesh.elem_edges[t1]).index(e)
        np.testing.assert_allclose(mesh.normals[t0, s0], -mesh.normals[t1, s1],
                                   atol=1e-14)


def test_h_values():
    mesh = build_uniform_triangulation(4)
    h = 0.25
    np.testing.assert_allclose(mesh.h_K, np.full(32, h * np.sqrt(2.0)))
    axis = np.isclose(mesh.h_e, h)
    diag = np.isclose(mesh.h_e, h * np.sqrt(2.0))
    assert (axis | diag).all() and axis.any() and diag.any()
    # all elements share the diagonal as longest edge
    assert quasi_uniformity_ratio(mesh) == pytest.approx(1.0)


def test_default_boundary_all_dirichlet():
    mesh = build_uniform_triangulation(2)
    tags = mesh.edge_tags[mesh.boundary_edges]
    assert (tags == int(BoundaryTag.DIRICHLET)).all()
    interior = np.setdiff1d(np.arange(mesh.n_edges), mesh.boundary_edges)
    assert (mesh.edge_tags[interior] == int(BoundaryTag.INTERIOR)).all()


def test_mixed_boundary_rule():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(4, rule)
    for e in mesh.boundary_edges:
        x, y = mesh.edge_midpoints[e]
        expect = BoundaryTag.DIRICHLET if x < 1e-12 else BoundaryTag.NEUMANN
        assert mesh.edge_tags[e] == int(expect)


def test_skeleton_excludes_neumann():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(4, rule)
    skel = extract_skeleton(mesh)
    assert (mesh.edge_tags[skel] != int(BoundaryTag.NEUMANN)).all()
    n_interior = mesh.n_edges - mesh.boundary_edges.size
    assert skel.size == n_interior + 4  # four Dirichlet edges on x=0


def test_boundary_dict_rule():
    mesh = build_uniform_triangulation(2, all_dirichlet)
    tags = {(int(a), int(b)): BoundaryTag.NEUMANN
            for a, b in mesh.edges[mesh.boundary_edges]}
    remesh = Mesh(mesh.vertices, mesh.triangles, boundary=tags)
    assert (remesh.edge_tags[remesh.boundary_edges] == int(BoundaryTag.NEUMANN)).all()
    with pytest.raises(MeshError):
        Mesh(mesh.vertices, mesh.triangles, boundary={})  # tags missing


def test_inflow_check():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(4, rule)
    ok = verify_inflow_in_dirichlet(mesh, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert ok.ok and not ok.violations
    bad = verify_inflow_in_dirichlet(mesh, lambda x, y: (-np.ones_like(x), np.zeros_like(x)))
    assert not bad.ok
    edges = {e for e, _ in bad.violations}
    mids = mesh.edge_midpoints[sorted(edges)]
    assert (mids[:, 0] > 1.0 - 1e-12).all()  # inflow through x=1, tagged Neumann
    # a velocity given as constants samples the same points
    assert verify_inflow_in_dirichlet(mesh, lambda x, y: (-1.0, 0.0)) == bad


def test_invalid_meshes_rejected():
    with pytest.raises(MeshError):
        Mesh(np.zeros((3, 2)), np.array([[0, 1, 1]]))
    # the first offending triangle or edge is named
    mesh = build_uniform_triangulation(3)
    tri = mesh.triangles
    with pytest.raises(MeshError, match="triangle 5 has repeated vertices"):
        Mesh(mesh.vertices, np.vstack([tri[:5], [[4, 4, 5]], tri[5:], [[1, 2, 2]]]))
    with pytest.raises(MeshError, match="edge 12 is traversed twice in the same direction"):
        Mesh(mesh.vertices, np.vstack([tri, tri[7:8], tri[3:4]]))
    with pytest.raises(MeshError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 3]]))
    with pytest.raises(MeshError):
        # clockwise orientation
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 2, 1]]))
    with pytest.raises(ValueError):
        build_uniform_triangulation(0)


def test_arrays_immutable():
    mesh = build_uniform_triangulation(2)
    for arr in (mesh.vertices, mesh.triangles, mesh.edges, mesh.elem_edges,
                mesh.edge_tags, mesh.normals, mesh.h_e, mesh.h_K):
        with pytest.raises(ValueError):
            arr[..., 0] = 0


def test_save_load_roundtrip(tmp_path):
    rule = dirichlet_where(lambda x, y: y < 0.5)
    mesh = build_uniform_triangulation(3, rule)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)
    np.testing.assert_allclose(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.edge_tags, mesh.edge_tags)
    assert back.n_edges == mesh.n_edges


def test_load_rejects_tampered_tags(tmp_path):
    mesh = build_uniform_triangulation(2)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    text = path.read_text().splitlines()
    # edge lines follow the vertex and triangle blocks; retag an interior
    # edge as Dirichlet, which no boundary rule can reproduce
    first_edge_line = 1 + mesh.n_vertices + mesh.n_elements
    for i in range(first_edge_line, len(text)):
        if text[i].endswith(" 0"):
            text[i] = text[i][:-1] + "1"
            break
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshError):
        load_mesh(path)
