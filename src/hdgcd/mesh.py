"""Conforming triangulations of the unit square with edge adjacency and tags.

A mesh is immutable after construction.  All geometry the assembly loops
need (jacobians, outward normals, element diameters, edge lengths) is
precomputed here so downstream code never touches raw coordinates.
"""

from __future__ import annotations

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


class Mesh:
    """Triangle mesh with edge adjacency, boundary tags and cached geometry.

    ``vertices`` and ``triangles`` are as below; every vertex must belong
    to a triangle.  ``boundary`` tags the boundary edges: a rule
    ``(x, y) -> BoundaryTag`` evaluated at each edge midpoint, a dict from
    every boundary edge's vertex pair ``(a, b)`` with ``a < b`` to its tag,
    or None for all Dirichlet.

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
        Assembly contexts of this mesh keyed by (degree, quadrature order);
        they live exactly as long as the mesh.  A context must not refer back
        to the mesh, so a dropped mesh is freed by refcount.
    """

    def __init__(self, vertices, triangles, boundary=None, generator_n=None):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must form an (nv, 2) array")
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            raise MeshError(f"vertex {int(np.argmin(finite))} has non-finite coordinates")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must form an (nt, 3) array")
        if triangles.dtype.kind not in "iu":   # the int64 cast would turn 1.7 into 1
            triangles = triangles.astype(float)
            whole = (triangles == np.round(triangles)).all(axis=1)   # False for nan
            if not whole.all():
                raise MeshError(f"triangle {int(np.argmin(whole))} has a vertex index "
                                "that is not a whole number")
        nv = vertices.shape[0]
        nt = triangles.shape[0]
        if nt == 0:
            raise MeshError("mesh has no elements")
        if triangles.min() < 0 or triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        unused = np.bincount(triangles.ravel(), minlength=nv) == 0
        if unused.any():
            raise MeshError(f"vertex {int(np.argmax(unused))} is not used by any triangle")
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
        self.jacobians = np.stack([d1, d2], axis=2)
        self.det_jacobians = det
        # J^{-T} = adj(J)^T / det: its columns are d2 and d1 turned by -90 and +90 degrees
        turn = np.array([1.0, -1.0])
        adj_t = np.stack([d2[:, ::-1] * turn, -d1[:, ::-1] * turn], axis=2)
        self.inv_jacobians_t = adj_t / det[:, None, None]
        self.barycenters = tri_pts.mean(axis=1)

        # Local edge s joins local vertices s and s + 1; edges are the unique
        # sorted vertex pairs, numbered lexicographically.
        a, b = triangles, np.roll(triangles, -1, axis=1)
        edge_forward = a < b
        # one int64 key per pair sorts in the same lexicographic order
        keys, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True)
        edges = np.column_stack([keys // nv, keys % nv])
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
                    raise MeshError(f"missing boundary tag for edge {key} "
                                    "(keys are vertex pairs (a, b) with a < b)")
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
                    self.barycenters, self.h_e, self.h_K,
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
        # v0 + (r0 J[:, a, 0] + r1 J[:, a, 1]) one (nt, nq) coordinate plane at a
        # time: this order keeps the points bit-stable, and planes avoid the
        # slow length-2 innermost broadcast
        r0, r1 = ref_points[:, 0], ref_points[:, 1]
        v0 = self.vertices[self.triangles[:, 0]]
        out = np.empty((self.n_elements, len(ref_points), 2))
        for a in range(2):
            plane = out[..., a]
            np.multiply(self.jacobians[:, a, 0, None], r0, out=plane)
            plane += self.jacobians[:, a, 1, None] * r1
            plane += v0[:, a, None]
        return out

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
    # cell (i, j): triangle 2 (j n + i) below its diagonal, 2 (j n + i) + 1 above
    triangles = np.stack([np.column_stack([p00, p10, p11]),
                          np.column_stack([p00, p11, p01])], axis=1).reshape(-1, 3)
    return Mesh(vertices, triangles, boundary=boundary, generator_n=n)


def _locate_points(mesh, pts):
    """Element index and reference coordinates of each sample point."""
    n = mesh.generator_n
    if n is None:
        raise ValueError("field dumps need a build_uniform_triangulation mesh")
    x = np.clip(pts[:, 0], 0.0, 1.0)
    y = np.clip(pts[:, 1], 0.0, 1.0)
    i = np.minimum((x * n).astype(int), n - 1)
    j = np.minimum((y * n).astype(int), n - 1)
    xl = x * n - i
    yl = y * n - j
    lower = yl <= xl
    elems = 2 * (j * n + i) + np.where(lower, 0, 1)
    ref = np.empty_like(pts)
    ref[lower, 0] = xl[lower] - yl[lower]
    ref[lower, 1] = yl[lower]
    ref[~lower, 0] = xl[~lower]
    ref[~lower, 1] = yl[~lower] - xl[~lower]
    return elems, ref


def save_mesh(mesh, path):
    """Write a mesh in the plain text exchange format.

    First line: vertex, triangle and edge counts.  Then one line per
    vertex ``x y``, per triangle ``i j k`` and per edge ``a b tag``.
    """
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} {mesh.n_edges}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, mesh.triangles, fmt="%d")
        np.savetxt(fh, np.column_stack([mesh.edges, mesh.edge_tags]), fmt="%d")


def _read_block(tokens, start, rows, cols, dtype):
    """The (rows, cols) array of ``dtype`` (int or float) at ``tokens[start:]``."""
    block = tokens[start:start + rows * cols]
    if len(block) != rows * cols:
        raise MeshError("mesh file is truncated")
    try:
        return np.array(block, dtype=dtype).reshape(rows, cols)
    except (ValueError, OverflowError) as exc:
        kind = "integer" if dtype is int else "number"
        raise MeshError(f"bad {kind} in mesh file: {exc}") from None


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh` and validate it.

    The edge list in the file must hold each edge derived from the
    triangles exactly once (in any order, either endpoint first), interior
    edges must be tagged 0, and the usual mesh invariants (finite
    coordinates, orientation, conformity) are re-checked on construction.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    nv, nt, ne = _read_block(tokens, 0, 1, 3, int)[0].tolist()
    if min(nv, nt, ne) < 0:
        raise MeshError(f"negative count in mesh file header: {nv} {nt} {ne}")
    vertices = _read_block(tokens, 3, nv, 2, float)
    triangles = _read_block(tokens, 3 + 2 * nv, nt, 3, int)
    rows = _read_block(tokens, 3 + 2 * nv + 3 * nt, ne, 3, int)
    if len(tokens) > 3 + 2 * nv + 3 * nt + 3 * ne:
        raise MeshError("trailing data in mesh file")

    edges, tags = np.sort(rows[:, :2], axis=1), rows[:, 2]
    tagged = tags != int(BoundaryTag.INTERIOR)
    mesh = Mesh(vertices, triangles,
                boundary=dict(zip(map(tuple, edges[tagged].tolist()), tags[tagged].tolist())))
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    if not np.array_equal(edges[order], mesh.edges):
        raise MeshError("edge list in file does not match triangle connectivity")
    bad = np.flatnonzero(tags[order] != mesh.edge_tags)
    if bad.size:
        a, b = mesh.edges[bad[0]]
        raise MeshError(f"edge ({a}, {b}) has inconsistent tag")
    return mesh
