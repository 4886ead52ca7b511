import numpy as np
import pytest

from hdgcd.assembly import verify_inflow_in_dirichlet
from hdgcd.fespace import build_dofmap
from hdgcd.mesh import (BoundaryTag, Mesh, MeshError, all_dirichlet,
                        build_uniform_triangulation, dirichlet_where,
                        load_mesh, save_mesh)
from test_unstructured import jittered_mesh


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
    np.testing.assert_allclose(0.5 * mesh.det_jacobians, cross / 2.0)
    np.testing.assert_allclose(0.5 * mesh.det_jacobians.sum(), 1.0, rtol=1e-14)


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
            nrm = mesh.normals[t, s]
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
    assert mesh.h_K.max() / mesh.h_K.min() == pytest.approx(1.0)


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
    skel = build_dofmap(mesh, 1).skeleton_edges
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
    # keys are ascending vertex pairs; a reversed key leaves its edge untagged
    a, b = (int(v) for v in mesh.edges[mesh.boundary_edges[0]])
    reversed_key = dict(tags)
    reversed_key[b, a] = reversed_key.pop((a, b))
    with pytest.raises(MeshError, match=rf"^missing boundary tag for edge \({a}, {b}\) "
                                        r"\(keys are vertex pairs \(a, b\) with a < b\)$"):
        Mesh(mesh.vertices, mesh.triangles, boundary=reversed_key)


@pytest.mark.parametrize("stray", ["interior", "no_edge"])
def test_boundary_dict_rejects_a_pair_that_is_not_a_boundary_edge(stray):
    # a key beyond the boundary edges is named, never dropped: dropped, an
    # interior edge tagged Neumann would keep tag 0
    mesh = build_uniform_triangulation(2)
    tags = {(int(a), int(b)): BoundaryTag.DIRICHLET for a, b in mesh.edges[mesh.boundary_edges]}
    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)[0]
    pair = tuple(mesh.edges[interior].tolist()) if stray == "interior" else (0, 99)
    tags[pair] = BoundaryTag.NEUMANN
    with pytest.raises(MeshError, match=rf"^boundary tag given for \({pair[0]}, {pair[1]}\), "
                                        r"which is not a boundary edge \(keys are vertex pairs "
                                        r"\(a, b\) with a < b\)$"):
        Mesh(mesh.vertices, mesh.triangles, boundary=tags)


def test_inflow_check():
    rule = dirichlet_where(lambda x, y: x < 1e-12)
    mesh = build_uniform_triangulation(4, rule)
    assert verify_inflow_in_dirichlet(mesh, lambda x, y: (np.ones_like(x), np.zeros_like(x))) == ()
    bad = verify_inflow_in_dirichlet(mesh, lambda x, y: (-np.ones_like(x), np.zeros_like(x)))
    assert bad
    edges = {e for e, _ in bad}
    mids = mesh.edge_midpoints[sorted(edges)]
    assert (mids[:, 0] > 1.0 - 1e-12).all()  # inflow through x=1, tagged Neumann
    # a velocity given as constants samples the same points
    assert verify_inflow_in_dirichlet(mesh, lambda x, y: (-1.0, 0.0)) == bad
    # b . n changes sign at the midpoint of the lowest x = 1 edge and enters
    # below it, where only the Gauss points off the midpoint see it
    turning = verify_inflow_in_dirichlet(mesh, lambda x, y: (y - 0.125, np.zeros_like(x)))
    assert {e for e, _ in turning} == {12}
    assert all(x == 1.0 and y < 0.125 for _, (x, y) in turning)


def test_invalid_meshes_rejected():
    with pytest.raises(MeshError):
        Mesh(np.zeros((3, 2)), np.array([[0, 1, 1]]))
    # the first offending vertex, triangle or edge is named; an unused vertex
    # is not reported as a wrong Euler characteristic
    mesh = build_uniform_triangulation(3)
    tri = mesh.triangles
    with pytest.raises(MeshError, match="^vertex 16 is not used by any triangle$"):
        Mesh(np.vstack([mesh.vertices, [[0.5, 0.25]]]), tri)
    with pytest.raises(MeshError, match="^vertex 6 is not used by any triangle$"):
        Mesh(mesh.vertices, tri[(tri != 6).all(axis=1)])
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
    with pytest.raises(ValueError, match="^subdivision count must be >= 1, got 0$"):
        build_uniform_triangulation(0)


def test_malformed_meshes_are_named():
    unit = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(MeshError, match=r"^triangles must form an \(nt, 3\) array$"):
        Mesh(unit, np.zeros((1, 4)))
    with pytest.raises(MeshError, match="^mesh has no elements$"):
        Mesh(unit, np.zeros((0, 3), dtype=int))
    # two disjoint triangles: V - E + T = 6 - 6 + 2
    far = [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]
    with pytest.raises(MeshError, match=r"^Euler characteristic V - E \+ T = 2, expected 1$"):
        Mesh(unit + far, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(MeshError, match="^boundary edges must be tagged Dirichlet or Neumann$"):
        build_uniform_triangulation(2, lambda x, y: BoundaryTag.INTERIOR)


def test_duplicate_coordinates_are_not_positively_oriented():
    # vertices 2 and 3 coincide, so edge (2, 3) has zero length and triangle
    # 1 has zero area: the orientation check is what rejects it
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(MeshError, match="^triangle 1 is not positively oriented$"):
        Mesh(vertices, [[0, 1, 2], [1, 3, 2]])


@pytest.mark.parametrize("bad", [1.7, np.nan])
def test_non_integer_triangle_index_rejected(bad):
    # the int64 cast made [0, 1.7, 2] the triangle (0, 1, 2)
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    message = "^triangle 1 has a vertex index that is not a whole number$"
    with pytest.raises(MeshError, match=message):
        Mesh(vertices, [[0, 1, 2], [1, 3, bad]])
    with pytest.raises(MeshError, match="^triangle vertex index out of range$"):
        Mesh(vertices, [[0, 1, 2], [1, 3, np.inf]])
    # whole-valued floats still build the mesh
    whole = Mesh(vertices, np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 2.0]]))
    assert np.array_equal(whole.triangles, [[0, 1, 2], [1, 3, 2]])
    assert whole.triangles.dtype == np.int64


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_rejected(bad):
    mesh = build_uniform_triangulation(2)
    vertices = mesh.vertices.copy()
    vertices[4, 1] = bad
    with pytest.raises(MeshError, match="^vertex 4 has non-finite coordinates"):
        Mesh(vertices, mesh.triangles)


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


def test_save_load_roundtrip_exact_on_jittered_mesh(tmp_path):
    # interior vertices moved by up to 0.04, renumbered, start vertices rotated
    mesh = jittered_mesh(5, dirichlet_where(lambda x, y: (x < 1e-12) | (y > 1.0 - 1e-12)))
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_mesh(mesh, first)
    back = load_mesh(first)
    for name in ("vertices", "triangles", "edges", "edge_tags"):
        np.testing.assert_array_equal(getattr(back, name), getattr(mesh, name))
    save_mesh(back, second)
    assert second.read_bytes() == first.read_bytes()


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
    with pytest.raises(MeshError, match=r"^boundary tag given for \(\d+, \d+\), which is not a "
                                        r"boundary edge "):
        load_mesh(path)


def test_load_names_unused_vertex(tmp_path):
    # an extra vertex line, with the header's vertex count raised to match
    mesh = build_uniform_triangulation(2)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    lines[0] = f"{mesh.n_vertices + 1} {mesh.n_elements} {mesh.n_edges}"
    lines.insert(1 + mesh.n_vertices, "0.5 0.25")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="^vertex 9 is not used by any triangle$"):
        load_mesh(path)


def test_load_rejects_repeated_edge_line(tmp_path):
    # a second line for one boundary edge, with the header's edge count raised to match
    mesh = build_uniform_triangulation(3)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    a, b = mesh.edges[mesh.boundary_edges[0]]
    lines[0] = f"{mesh.n_vertices} {mesh.n_elements} {mesh.n_edges + 1}"
    lines.append(f"{a} {b} {int(BoundaryTag.NEUMANN)}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="^edge list in file does not match triangle connectivity$"):
        load_mesh(path)


# a saved n=2 mesh has the counts line, 9 vertex lines and 8 triangle lines, so its
# edge lines start at line 18 with "0 1 1"; each case replaces lines[start:stop] by rows
@pytest.mark.parametrize("start, stop, rows, message", [
    (0, None, [], "^mesh file is truncated$"),
    (-1, None, [], "^mesh file is truncated$"),
    (99, 99, ["7"], "^trailing data in mesh file$"),
    (18, 19, ["0 1.5 1"], r"^bad integer in mesh file: invalid literal for int\(\) with base 10: '1.5'$"),
    (18, 19, ["0 1 99999999999999999999"],
     "^bad integer in mesh file: Python int too large to convert to C long$"),
    (1, 2, ["x0 0"], "^bad number in mesh file: could not convert string to float: 'x0'$"),
    (18, 19, ["0 1 0"],
     r"^missing boundary tag for edge \(0, 1\) \(keys are vertex pairs \(a, b\) with a < b\)$"),
    (0, 1, ["-1 8 16"], "^negative count in mesh file header: -1 8 16$"),
], ids=["empty", "truncated", "trailing", "bad_integer", "huge_integer", "bad_number",
        "untagged_boundary", "negative_count"])
def test_load_fault_is_named(tmp_path, start, stop, rows, message):
    path = tmp_path / "mesh.txt"
    save_mesh(build_uniform_triangulation(2), path)
    lines = path.read_text().splitlines()
    assert lines[18] == "0 1 1"
    lines[start:stop] = rows
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(MeshError, match=message):
        load_mesh(path)
