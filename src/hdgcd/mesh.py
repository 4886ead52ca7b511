"""Conforming triangulations of the unit square with edge adjacency and tags.

A mesh is immutable after construction.  All geometry the assembly loops
need (jacobians, outward normals, element diameters, edge lengths) is
precomputed here so downstream code never touches raw coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# Tolerance for deciding whether a coordinate lies on a boundary feature.
ON_BOUNDARY_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class BoundaryTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    NEUMANN = 2


def all_dirichlet(x, y):
    """Boundary rule that tags every boundary edge Dirichlet."""
    return BoundaryTag.DIRICHLET


def dirichlet_where(predicate):
    """Boundary rule: Dirichlet where ``predicate(x, y)`` holds, else Neumann.

    The predicate is evaluated at edge midpoints.
    """

    def rule(x, y):
        return BoundaryTag.DIRICHLET if predicate(x, y) else BoundaryTag.NEUMANN

    return rule


@dataclass(frozen=True)
class InflowReport:
    """Result of the inflow-boundary compatibility check.

    ``violations`` holds ``(edge_index, (x, y))`` pairs sampled where the
    velocity enters the domain through a non-Dirichlet boundary edge.
    """

    ok: bool
    violations: tuple


class Mesh:
    """Triangle mesh with edge adjacency, boundary tags and cached geometry.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, positively oriented (counterclockwise).
    edges : (ne, 2) int array
        Endpoint indices with ``a < b``, rows sorted lexicographically.
    edge_elems : (ne, 2) int array
        Adjacent elements; the second entry is -1 for boundary edges.
    edge_tags : (ne,) int array
        ``BoundaryTag`` value per edge.
    elem_edges : (nt, 3) int array
        Global edge index of local edge ``s``, joining local vertices
        ``s`` and ``s + 1 (mod 3)``.
    edge_forward : (nt, 3) bool array
        True when local edge ``s`` traverses its global edge from the
        smaller to the larger vertex index.
    normals : (nt, 3, 2) float array
        Unit outward normal per element and local edge.
    h_K : (nt,) element diameters;  h_e : (ne,) edge lengths.
    contexts : dict
        Assembly contexts of this mesh keyed by (basis, edge basis,
        quadrature order); they live exactly as long as the mesh.  A context
        must not refer back to the mesh, so a dropped mesh is freed by refcount.
    """

    def __init__(self, vertices, triangles, boundary=None, generator_n=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must form an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must form an (nt, 3) array")
        nv = vertices.shape[0]
        nt = triangles.shape[0]
        if nt == 0:
            raise MeshError("mesh has no elements")
        if triangles.min() < 0 or triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        repeated = (triangles == np.roll(triangles, -1, axis=1)).any(axis=1)
        if repeated.any():
            raise MeshError(f"triangle {int(np.argmax(repeated))} has repeated vertices")

        self.vertices = vertices
        self.triangles = triangles
        self.generator_n = generator_n

        tri_pts = vertices[triangles]  # (nt, 3, 2)
        d1 = tri_pts[:, 1] - tri_pts[:, 0]
        d2 = tri_pts[:, 2] - tri_pts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmin(det))
            raise MeshError(f"triangle {bad} is not positively oriented")

        # Jacobian of the affine map from the reference triangle
        # (0,0)-(1,0)-(0,1); columns are the spanning edge vectors.
        jac = np.empty((nt, 2, 2))
        jac[:, :, 0] = d1
        jac[:, :, 1] = d2
        inv_jac = np.empty_like(jac)
        inv_jac[:, 0, 0] = jac[:, 1, 1]
        inv_jac[:, 0, 1] = -jac[:, 0, 1]
        inv_jac[:, 1, 0] = -jac[:, 1, 0]
        inv_jac[:, 1, 1] = jac[:, 0, 0]
        inv_jac /= det[:, None, None]
        self.jacobians = jac
        self.det_jacobians = det
        self.inv_jacobians_t = np.ascontiguousarray(inv_jac.transpose(0, 2, 1))
        self.areas = 0.5 * det
        self.barycenters = tri_pts.mean(axis=1)

        # Local edge s joins local vertices s and s + 1; edges are the unique
        # sorted vertex pairs, numbered lexicographically.
        a, b = triangles, np.roll(triangles, -1, axis=1)
        edge_forward = a < b
        pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1).reshape(-1, 2)
        edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
        elem_edges = inverse.reshape(nt, 3)
        ne = edges.shape[0]

        # Column 0 of edge_elems is the element traversing the edge forward,
        # column 1 the one traversing it backward.
        slot = elem_edges.ravel() * 2 + ~edge_forward.ravel()
        order = np.argsort(slot, kind="stable")
        repeat = np.zeros(slot.size, dtype=bool)
        repeat[order[1:]] = slot[order[1:]] == slot[order[:-1]]
        if repeat.any():
            e = elem_edges.flat[np.argmax(repeat)]
            raise MeshError(f"edge {e} is traversed twice in the same direction")
        edge_elems = np.full(2 * ne, -1, dtype=np.int64)
        edge_elems[slot] = np.repeat(np.arange(nt), 3)
        edge_elems = edge_elems.reshape(ne, 2)
        # Keep the (unique) adjacent element of a boundary edge in column 0.
        swap = edge_elems[:, 0] == -1
        edge_elems[swap] = edge_elems[swap][:, ::-1]

        self.edges = edges
        self.edge_elems = edge_elems
        self.elem_edges = elem_edges
        self.edge_forward = edge_forward

        euler = nv - ne + nt
        if euler != 1:
            raise MeshError(f"Euler characteristic V - E + T = {euler}, expected 1")

        evec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
        self.h_e = np.hypot(evec[:, 0], evec[:, 1])
        if np.any(self.h_e <= 0.0):
            raise MeshError("degenerate edge of zero length")
        self.edge_midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

        # Element diameter = longest edge of the triangle.
        self.h_K = self.h_e[elem_edges].max(axis=1)

        # Outward unit normal of local edge s: rotate the traversal
        # direction (CCW boundary) clockwise by 90 degrees.
        tang = tri_pts[:, [1, 2, 0], :] - tri_pts  # (nt, 3, 2)
        tlen = np.hypot(tang[:, :, 0], tang[:, :, 1])
        normals = np.empty_like(tang)
        normals[:, :, 0] = tang[:, :, 1] / tlen
        normals[:, :, 1] = -tang[:, :, 0] / tlen
        self.normals = normals

        boundary_mask = edge_elems[:, 1] == -1
        tags = np.full(ne, int(BoundaryTag.INTERIOR), dtype=np.int64)
        if isinstance(boundary, dict):
            for e in np.nonzero(boundary_mask)[0]:
                key = (int(edges[e, 0]), int(edges[e, 1]))
                if key not in boundary:
                    raise MeshError(f"missing boundary tag for edge {key}")
                tags[e] = int(boundary[key])
        else:
            rule = all_dirichlet if boundary is None else boundary
            mids = self.edge_midpoints
            for e in np.nonzero(boundary_mask)[0]:
                tags[e] = int(rule(mids[e, 0], mids[e, 1]))
        bad = boundary_mask & ~np.isin(tags, (int(BoundaryTag.DIRICHLET), int(BoundaryTag.NEUMANN)))
        if np.any(bad):
            raise MeshError("boundary edges must be tagged Dirichlet or Neumann")
        self.edge_tags = tags
        self.contexts = {}

        for arr in (self.vertices, self.triangles, self.edges, self.edge_elems,
                    self.elem_edges, self.edge_forward, self.edge_tags,
                    self.jacobians, self.det_jacobians, self.inv_jacobians_t,
                    self.areas, self.barycenters, self.h_e, self.h_K,
                    self.normals, self.edge_midpoints):
            arr.flags.writeable = False

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def boundary_edges(self):
        return np.nonzero(self.edge_elems[:, 1] == -1)[0]

    def physical_points(self, ref_points):
        """Images (nt, nq, 2) of reference-triangle points (nq, 2) in every element."""
        v0 = self.vertices[self.triangles[:, 0]]
        return v0[:, None, :] + np.einsum("qd,tad->tqa", ref_points, self.jacobians)

    def edge_points(self, t, edges=slice(None)):
        """Points va + t (vb - va), (n, nq, 2), at parameters t (nq,) along the
        selected edges, running from the lower to the higher vertex index."""
        va = self.vertices[self.edges[edges, 0]]
        vb = self.vertices[self.edges[edges, 1]]
        return va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]


def build_uniform_triangulation(n, boundary=None):
    """Uniform n-by-n triangulation of the unit square.

    Each grid cell is split along its SW-NE diagonal into two triangles.
    ``boundary`` is an optional rule ``(x, y) -> BoundaryTag`` applied at
    boundary edge midpoints; by default every boundary edge is Dirichlet.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    j, i = np.divmod(np.arange(n * n), n)
    p00 = j * (n + 1) + i
    p10, p01 = p00 + 1, p00 + n + 1
    p11 = p01 + 1
    # cell (i, j) gives triangle 2 (j n + i) below and 2 (j n + i) + 1 above its
    # diagonal; cli._locate_points relies on this numbering
    triangles = np.stack([np.column_stack([p00, p10, p11]),
                          np.column_stack([p00, p11, p01])], axis=1).reshape(-1, 3)
    return Mesh(vertices, triangles, boundary=boundary, generator_n=n)


def extract_skeleton(mesh):
    """Edge indices of the skeleton: interior plus Dirichlet boundary edges.

    Neumann edges carry no trace unknowns and are excluded.  The result is
    sorted ascending and stable across calls.
    """
    keep = mesh.edge_tags != int(BoundaryTag.NEUMANN)
    return np.nonzero(keep)[0]


def outward_normal(mesh, element, edge):
    """Unit outward normal of ``edge`` as seen from ``element``."""
    if not 0 <= element < mesh.n_elements:
        raise ValueError(f"element index {element} out of range")
    slots = np.nonzero(mesh.elem_edges[element] == edge)[0]
    if slots.size == 0:
        raise ValueError(f"edge {edge} is not an edge of element {element}")
    return mesh.normals[element, slots[0]].copy()


def verify_inflow_in_dirichlet(mesh, velocity, tol=1e-12, n_samples=4):
    """Check that the inflow boundary is contained in the Dirichlet part.

    Samples ``b . n`` at ``n_samples`` Gauss points of every non-Dirichlet
    boundary edge and records points where it drops below ``-tol``.
    """
    gl, _ = np.polynomial.legendre.leggauss(n_samples)
    bnd = mesh.boundary_edges
    edges = bnd[mesh.edge_tags[bnd] != int(BoundaryTag.DIRICHLET)]
    t = mesh.edge_elems[edges, 0]
    nrm = mesh.normals[t, (mesh.elem_edges[t] == edges[:, None]).argmax(axis=1)]
    pts = mesh.edge_points(0.5 * (gl + 1.0), edges)
    bx, by = velocity(pts[..., 0], pts[..., 1])
    bn = np.broadcast_to(np.asarray(bx) * nrm[:, None, 0] + np.asarray(by) * nrm[:, None, 1],
                         pts.shape[:2])   # a constant velocity still checks every sample
    violations = tuple((int(edges[i]), (float(pts[i, q, 0]), float(pts[i, q, 1])))
                       for i, q in zip(*np.nonzero(bn < -tol)))
    return InflowReport(ok=not violations, violations=violations)


def quasi_uniformity_ratio(mesh):
    """Ratio of the largest to the smallest element diameter."""
    return float(mesh.h_K.max() / mesh.h_K.min())


def save_mesh(mesh, path):
    """Write a mesh in the plain text exchange format.

    First line: vertex, triangle and edge counts.  Then one line per
    vertex ``x y``, per triangle ``i j k`` and per edge ``a b tag``.
    """
    lines = [f"{mesh.n_vertices} {mesh.n_elements} {mesh.n_edges}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    for (a, b), tag in zip(mesh.edges, mesh.edge_tags):
        lines.append(f"{a} {b} {tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh` and validate it.

    The edge list in the file must match the edges derived from the
    triangles, interior edges must be tagged 0, and the usual mesh
    invariants (orientation, conformity) are re-checked on construction.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise MeshError("mesh file is truncated")
    it = iter(tokens)

    def take_int():
        try:
            return int(next(it))
        except StopIteration:
            raise MeshError("mesh file is truncated") from None
        except ValueError as exc:
            raise MeshError(f"bad integer in mesh file: {exc}") from None

    def take_float():
        try:
            return float(next(it))
        except StopIteration:
            raise MeshError("mesh file is truncated") from None
        except ValueError as exc:
            raise MeshError(f"bad number in mesh file: {exc}") from None

    nv, nt, ne = take_int(), take_int(), take_int()
    vertices = np.array([[take_float(), take_float()] for _ in range(nv)])
    triangles = np.array([[take_int(), take_int(), take_int()] for _ in range(nt)])
    file_edges = []
    tag_map = {}
    for _ in range(ne):
        a, b, tag = take_int(), take_int(), take_int()
        if a > b:
            a, b = b, a
        file_edges.append((a, b))
        tag_map[(a, b)] = tag
    if next(it, None) is not None:
        raise MeshError("trailing data in mesh file")

    boundary = {k: v for k, v in tag_map.items() if v != int(BoundaryTag.INTERIOR)}
    mesh = Mesh(vertices, triangles, boundary=boundary)
    derived = {(int(a), int(b)) for a, b in mesh.edges}
    if derived != set(file_edges):
        raise MeshError("edge list in file does not match triangle connectivity")
    for e, (a, b) in enumerate(mesh.edges):
        if tag_map[(int(a), int(b))] != int(mesh.edge_tags[e]):
            raise MeshError(f"edge ({a}, {b}) has inconsistent tag")
    return mesh
