"""Reference bases, quadrature rules and degree-of-freedom maps.

Element spaces are nodal Lagrange P_k on the reference triangle with
vertices (0,0), (1,0), (0,1); edge trace spaces are nodal P_k on the
reference interval [0, 1].  The basis representation (nodal vs modal) is
an implementation detail: all consumers go through evaluation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hdgcd.mesh import BoundaryTag, _bounded_int

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
MAX_DEGREE = 10
MAX_QUAD_ORDER = 60


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
        self.degree = _bounded_int("polynomial degree", degree, 1, MAX_DEGREE)
        self.nodes = _lattice(self.degree)
        self.dim = self.nodes.shape[0]
        self._expo = np.array(_exponents(self.degree))
        vand = self._monomials(self.nodes, 0, 0)
        self._coeff = np.linalg.inv(vand)  # columns: monomial coefficients per basis fn

    def _monomials(self, pts, dx, dy):
        # Derivative of order (dx, dy) of every x^a y^b: the integer falling
        # factorials a (a-1) ... (a-dx+1) b ... (b-dy+1), zero once dx > a or
        # dy > b, times x^(a-dx) y^(b-dy).
        a, b = self._expo.T[:, None]
        coef = 1
        for r in range(dx):
            coef = coef * (a - r)
        for r in range(dy):
            coef = coef * (b - r)
        return coef * pts[:, :1] ** np.maximum(a - dx, 0) * pts[:, 1:] ** np.maximum(b - dy, 0)

    def _table(self, pts, dx=0, dy=0):
        """Derivative (dx, dy) of every basis function at reference points, (npts, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._monomials(pts, dx, dy) @ self._coeff

    def values(self, pts):
        """Basis values at reference points, shape (npts, dim)."""
        return self._table(pts)

    def gradients(self, pts):
        """Reference gradients, shape (npts, dim, 2)."""
        return np.stack([self._table(pts, 1, 0), self._table(pts, 0, 1)], axis=-1)

    def second_derivatives(self, pts):
        """Reference second derivatives (xx, xy, yy), shape (npts, dim, 3)."""
        return np.stack([self._table(pts, *d) for d in ((2, 0), (1, 1), (0, 2))], axis=-1)


class EdgeBasis:
    """Nodal Lagrange basis of degree k on [0, 1], nodes at i/k.

    For k >= 1 the endpoints are nodes, which is what lets traces on
    adjacent edges share vertex values in the continuous skeleton mode.
    """

    def __init__(self, degree):
        self.degree = _bounded_int("edge degree", degree, 0, MAX_DEGREE)
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
    """Positive-weight quadrature rule on a reference cell; :func:`quad_triangle`
    and :func:`quad_edge` build it exact up to the order they are given."""

    points: np.ndarray
    weights: np.ndarray


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
    order = _bounded_int("quadrature order", order, 0, MAX_QUAD_ORDER)
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
    return QuadratureRule(points=pts, weights=w)


@lru_cache(maxsize=None)
def quad_edge(order):
    """Gauss-Legendre rule on [0, 1] exact up to ``order``."""
    order = _bounded_int("quadrature order", order, 0, MAX_QUAD_ORDER)
    t, w = _gauss01(order // 2 + 1)
    t.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(points=t, weights=w)


def check_skeleton_mode(skeleton_mode, degree):
    """ValueError unless ``skeleton_mode`` is ``"dg"``, or ``"cg"`` at degree 1."""
    if skeleton_mode not in ("dg", "cg"):
        raise ValueError(f"unknown skeleton mode {skeleton_mode!r}")
    if skeleton_mode == "cg" and degree != 1:
        raise ValueError("continuous skeleton mode is only defined for degree 1")


class DofMap:
    """Global indexing of interior and skeleton unknowns, and the trace space.

    Interior dofs come first, element by element; active trace dofs
    follow (:meth:`element_global_dofs`).  Traces live on ``skeleton_edges``,
    the interior and Dirichlet edges in ascending order; those on Dirichlet
    edges are fixed to zero and removed from the global index space (marked
    -1, which :meth:`gather` reads as 0), not penalized.  ``free_edges``
    ("dg") or ``free_vertices`` ("cg") lists the entities with active dofs.
    The trace basis is ``edge_basis`` (``ndof_edge`` functions), read through
    :meth:`trace_values` only.

    ``skeleton_mode`` (see :func:`check_skeleton_mode`):
      * ``"dg"``: one independent P_k trace per skeleton edge,
      * ``"cg"``: continuous piecewise-linear trace (requires k = 1);
        vertex values are shared and vertices touching a Dirichlet edge
        are constrained to zero.
    """

    def __init__(self, mesh, degree, skeleton_mode="dg"):
        check_skeleton_mode(skeleton_mode, degree)
        self.ndof_elem = get_element_basis(degree).dim
        self.mesh = mesh
        self.degree = int(degree)
        self.skeleton_mode = skeleton_mode
        self.edge_basis = get_edge_basis(self.degree)
        self.ndof_edge = self.edge_basis.dim
        self.n_interior = mesh.n_elements * self.ndof_elem
        self.skeleton_edges = np.flatnonzero(mesh.edge_tags != int(BoundaryTag.NEUMANN))

        ne = mesh.n_edges
        edge_dofs = np.full((ne, self.ndof_edge), -1, dtype=np.int64)
        self.vertex_dofs = self.free_edges = self.free_vertices = None
        skel = self.skeleton_edges
        dirichlet = mesh.edge_tags == int(BoundaryTag.DIRICHLET)
        if skeleton_mode == "dg":
            self.free_edges = free = skel[~dirichlet[skel]]
            self.n_trace_active = free.size * self.ndof_edge
            edge_dofs[free] = np.arange(self.n_trace_active).reshape(-1, self.ndof_edge)
        else:
            skel_verts = np.unique(mesh.edges[skel])
            self.free_vertices = free = np.setdiff1d(skel_verts, mesh.edges[dirichlet])
            vertex_dofs = np.full(mesh.n_vertices, -1, dtype=np.int64)
            vertex_dofs[free] = np.arange(free.size)
            self.n_trace_active = int(free.size)
            self.vertex_dofs = vertex_dofs
            edge_dofs[skel] = vertex_dofs[mesh.edges[skel]]
        self.edge_dofs = edge_dofs
        edge_dofs.flags.writeable = False

    @property
    def n_total(self):
        return self.n_interior + self.n_trace_active

    def trace_values(self, t):
        """The trace basis (nq, ndof_edge) at points ``t`` (nq,) symmetric about the
        edge midpoint (else ValueError), averaged with its mirror image: reversing
        the points and the functions gives it back bit for bit, so an edge read
        backward with its dofs reversed (:meth:`element_trace_dofs`) sees this table."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not (np.abs(t + t[::-1] - 1.0) <= 1e-14).all():
            raise ValueError(f"trace points must be symmetric about the edge midpoint "
                             f"(t[i] + t[-1 - i] == 1), got {t.tolist()}")
        E = self.edge_basis.values(t)
        return 0.5 * (E + E[::-1, ::-1])

    def slot_values(self, t):
        """Block-diagonal table (3 nq, 3 ndof_edge) of :meth:`trace_values` at ``t`` per slot."""
        return np.kron(np.eye(3), self.trace_values(t))

    def element_trace_dofs(self):
        """Active-trace indices of every element's three edge slots, slot by
        slot, (nt, 3 (k+1)); -1 where the slot is constrained (Dirichlet) or
        off the skeleton (Neumann); each slot's dofs in its element's direction
        (:meth:`hdgcd.mesh.Mesh.slot_index`)."""
        return self.edge_dofs.take(self.mesh.slot_index(self.ndof_edge))

    def element_global_dofs(self):
        """Global indices (nt, nd + 3 (k+1)) of every element's interior dofs,
        then its trace slots: active trace dofs are numbered after all
        interior ones, and a constrained slot stays -1."""
        interior = np.arange(self.n_interior).reshape(-1, self.ndof_elem)
        traces = self.element_trace_dofs()
        traces = np.where(traces >= 0, self.n_interior + traces, -1)
        return np.concatenate([interior, traces], axis=1)

    def gather(self, uhat, dofs):
        """Values of the active trace vector ``uhat`` at the index table
        ``dofs`` (e.g. ``edge_dofs``), 0 where an index is -1."""
        return np.append(uhat, 0.0)[dofs]


def build_dofmap(mesh, degree, skeleton_mode="dg"):
    """Construct the :class:`DofMap` for a mesh, degree and skeleton mode."""
    return DofMap(mesh, degree, skeleton_mode)


# typed: 2.0 must reach the integer check, not the cached basis of 2
@lru_cache(maxsize=None, typed=True)
def get_element_basis(degree):
    """Shared immutable ElementBasis instance per degree."""
    return ElementBasis(degree)


@lru_cache(maxsize=None, typed=True)
def get_edge_basis(degree):
    """Shared immutable EdgeBasis instance per degree."""
    return EdgeBasis(degree)

