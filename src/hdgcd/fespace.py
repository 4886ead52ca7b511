"""Reference bases, quadrature rules, degree-of-freedom maps and projections.

Element spaces are nodal Lagrange P_k on the reference triangle with
vertices (0,0), (1,0), (0,1); edge trace spaces are nodal P_k on the
reference interval [0, 1].  The basis representation (nodal vs modal) is
an implementation detail: all consumers go through evaluation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hdgcd.mesh import BoundaryTag, extract_skeleton

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_MAX_DEGREE = 10
_MAX_QUAD_ORDER = 60


def _exponents(degree):
    """Monomial exponents (a, b) with a + b <= degree, graded order."""
    return [(tot - j, j) for tot in range(degree + 1) for j in range(tot + 1)]


def _lattice(degree):
    """Equispaced lattice nodes in row-major order; for degree 1 these are
    exactly the reference vertices in local order."""
    pts = [(i / degree, j / degree)
           for j in range(degree + 1) for i in range(degree + 1 - j)]
    return np.array(pts)


class ElementBasis:
    """Nodal Lagrange basis of degree k on the reference triangle.

    Node ordering is row-major over the equispaced lattice, so for k = 1
    the nodes coincide with the reference vertices in local order.
    """

    def __init__(self, degree):
        if not isinstance(degree, (int, np.integer)) or degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree!r}")
        if degree > _MAX_DEGREE:
            raise ValueError(f"polynomial degree {degree} exceeds supported maximum {_MAX_DEGREE}")
        self.degree = int(degree)
        self.nodes = _lattice(self.degree)
        self.dim = self.nodes.shape[0]
        self._expo = np.array(_exponents(self.degree))
        vand = self._monomials(self.nodes)
        self._coeff = np.linalg.inv(vand)  # columns: monomial coefficients per basis fn

    def _monomials(self, pts):
        x = pts[:, 0][:, None]
        y = pts[:, 1][:, None]
        a = self._expo[:, 0][None, :]
        b = self._expo[:, 1][None, :]
        return x ** a * y ** b

    def _monomials_d(self, pts, dx, dy):
        # Derivative of x^a y^b of order (dx, dy) with falling factorials.
        x = pts[:, 0][:, None]
        y = pts[:, 1][:, None]
        a = self._expo[:, 0][None, :]
        b = self._expo[:, 1][None, :]
        fa = np.ones_like(a, dtype=float)
        for r in range(dx):
            fa = fa * np.maximum(a - r, 0)
        fb = np.ones_like(b, dtype=float)
        for r in range(dy):
            fb = fb * np.maximum(b - r, 0)
        ax = np.maximum(a - dx, 0)
        by = np.maximum(b - dy, 0)
        return fa * fb * x ** ax * y ** by

    def values(self, pts):
        """Basis values at reference points, shape (npts, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._monomials(pts) @ self._coeff

    def gradients(self, pts):
        """Reference gradients, shape (npts, dim, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        gx = self._monomials_d(pts, 1, 0) @ self._coeff
        gy = self._monomials_d(pts, 0, 1) @ self._coeff
        return np.stack([gx, gy], axis=-1)

    def second_derivatives(self, pts):
        """Reference second derivatives (xx, xy, yy), shape (npts, dim, 3)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dxx = self._monomials_d(pts, 2, 0) @ self._coeff
        dxy = self._monomials_d(pts, 1, 1) @ self._coeff
        dyy = self._monomials_d(pts, 0, 2) @ self._coeff
        return np.stack([dxx, dxy, dyy], axis=-1)


class EdgeBasis:
    """Nodal Lagrange basis of degree k on [0, 1], nodes at i/k.

    For k >= 1 the endpoints are nodes, which is what lets traces on
    adjacent edges share vertex values in the continuous skeleton mode.
    """

    def __init__(self, degree):
        if not isinstance(degree, (int, np.integer)) or degree < 0:
            raise ValueError(f"edge degree must be >= 0, got {degree!r}")
        if degree > _MAX_DEGREE:
            raise ValueError(f"edge degree {degree} exceeds supported maximum {_MAX_DEGREE}")
        self.degree = int(degree)
        self.dim = self.degree + 1
        if self.degree == 0:
            self.nodes = np.array([0.5])
        else:
            self.nodes = np.linspace(0.0, 1.0, self.dim)
        vand = self.nodes[:, None] ** np.arange(self.dim)[None, :]
        self._coeff = np.linalg.inv(vand)

    def values(self, t):
        """Basis values at parameters t in [0, 1], shape (npts, dim)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mono = t[:, None] ** np.arange(self.dim)[None, :]
        return mono @ self._coeff


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight quadrature rule with a guaranteed exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


def _gauss01(npts):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def quad_triangle(order):
    """Rule on the reference triangle exact for polynomials up to ``order``.

    Built as a tensor Gauss rule on the collapsed square x = u(1 - v),
    y = v; the extra (1 - v) jacobian factor raises the required degree in
    v by one.  All weights are positive for any order.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"quadrature order must be >= 0, got {order!r}")
    if order > _MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} exceeds supported maximum {_MAX_QUAD_ORDER}")
    order = int(order)
    nu = (order + 2) // 2
    nv = (order + 3) // 2
    u, wu = _gauss01(max(nu, 1))
    v, wv = _gauss01(max(nv, 1))
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (uu * (1.0 - vv)).ravel()
    y = vv.ravel()
    w = (wu[:, None] * (wv * (1.0 - v))[None, :]).ravel()
    pts = np.column_stack([x, y])
    pts.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(points=pts, weights=w, exactness=order)


@lru_cache(maxsize=None)
def quad_edge(order):
    """Gauss-Legendre rule on [0, 1] exact up to ``order``."""
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"quadrature order must be >= 0, got {order!r}")
    if order > _MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} exceeds supported maximum {_MAX_QUAD_ORDER}")
    t, w = _gauss01(int(order) // 2 + 1)
    t.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(points=t, weights=w, exactness=int(order))


class DofMap:
    """Global indexing of interior and skeleton unknowns.

    Interior dofs come first, element by element; active trace dofs
    follow.  Trace dofs on Dirichlet edges are fixed to zero and removed
    from the global index space (marked -1), not penalized.

    ``skeleton_mode``:
      * ``"dg"``: one independent P_k trace per skeleton edge,
      * ``"cg"``: continuous piecewise-linear trace (requires k = 1);
        vertex values are shared and vertices touching a Dirichlet edge
        are constrained to zero.
    """

    def __init__(self, mesh, degree, skeleton_mode="dg"):
        if skeleton_mode not in ("dg", "cg"):
            raise ValueError(f"unknown skeleton mode {skeleton_mode!r}")
        if skeleton_mode == "cg" and degree != 1:
            raise ValueError("continuous skeleton mode is only defined for degree 1")
        basis = ElementBasis(degree)
        self.mesh = mesh
        self.degree = int(degree)
        self.skeleton_mode = skeleton_mode
        self.ndof_elem = basis.dim
        self.ndof_edge = self.degree + 1
        self.n_interior = mesh.n_elements * self.ndof_elem
        self.skeleton_edges = extract_skeleton(mesh)

        ne = mesh.n_edges
        edge_dofs = np.full((ne, self.ndof_edge), -1, dtype=np.int64)
        self.vertex_dofs = None
        skel = self.skeleton_edges
        dirichlet = mesh.edge_tags == int(BoundaryTag.DIRICHLET)
        if skeleton_mode == "dg":
            self.n_trace_total = skel.size * self.ndof_edge
            free = skel[~dirichlet[skel]]
            self.n_trace_active = free.size * self.ndof_edge
            edge_dofs[free] = np.arange(self.n_trace_active).reshape(-1, self.ndof_edge)
        else:
            skel_verts = np.unique(mesh.edges[skel])
            free = np.setdiff1d(skel_verts, mesh.edges[dirichlet])
            vertex_dofs = np.full(mesh.n_vertices, -1, dtype=np.int64)
            vertex_dofs[free] = np.arange(free.size)
            self.n_trace_total = int(skel_verts.size)
            self.n_trace_active = int(free.size)
            self.vertex_dofs = vertex_dofs
            edge_dofs[skel] = vertex_dofs[mesh.edges[skel]]
        self.edge_dofs = edge_dofs
        edge_dofs.flags.writeable = False

    @property
    def n_total(self):
        return self.n_interior + self.n_trace_active

    def element_dofs(self, elements=slice(None)):
        """Global interior dof indices of one element (nd,), or of an index
        array or slice of elements (n, nd); all elements by default."""
        return np.arange(self.n_interior).reshape(-1, self.ndof_elem)[elements]

    def element_trace_dofs(self, elements=slice(None)):
        """Active-trace indices of the elements' three edge slots, slot by
        slot, -1 where the slot is constrained (Dirichlet) or off the
        skeleton (Neumann); shaped like :meth:`element_dofs`."""
        slots = self.mesh.elem_edges[elements]
        return self.edge_dofs[slots].reshape(*slots.shape[:-1], -1)


def build_dofmap(mesh, degree, skeleton_mode="dg"):
    """Construct the :class:`DofMap` for a mesh, degree and skeleton mode."""
    return DofMap(mesh, degree, skeleton_mode)


@lru_cache(maxsize=None)
def get_element_basis(degree):
    """Shared immutable ElementBasis instance per degree."""
    return ElementBasis(degree)


@lru_cache(maxsize=None)
def get_edge_basis(degree):
    """Shared immutable EdgeBasis instance per degree."""
    return EdgeBasis(degree)


def project_all_elements(f, mesh, basis, quad_order=None):
    """L2 projection of ``f`` element by element, shape (nt, dim)."""
    if quad_order is None:
        quad_order = max(12, 2 * basis.degree)
    rule = quad_triangle(quad_order)
    vals = basis.values(rule.points)
    mass = vals.T @ (rule.weights[:, None] * vals)
    pts = mesh.physical_points(rule.points)
    fv = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    rhs = fv @ (rule.weights[:, None] * vals)  # (nt, dim)
    return np.linalg.solve(mass, rhs.T).T


def project_all_edges(f, mesh, edge_basis, edge_ids, quad_order=None):
    """L2 projection of ``f`` on a family of edges, shape (len(edge_ids), k+1)."""
    if quad_order is None:
        quad_order = max(12, 2 * edge_basis.degree)
    rule = quad_edge(quad_order)
    vals = edge_basis.values(rule.points)
    mass = vals.T @ (rule.weights[:, None] * vals)
    pts = mesh.edge_points(rule.points, np.asarray(edge_ids, dtype=np.int64))
    fv = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    rhs = fv @ (rule.weights[:, None] * vals)
    return np.linalg.solve(mass, rhs.T).T
