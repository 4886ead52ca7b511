"""Local and global assembly of the hybridized convection-diffusion forms.

Element-local blocks couple interior unknowns u with the trace unknowns
uhat on the element's three edge slots.  Rows are test functions, columns
trial functions:

    [ A_uu  A_ut ] [ u    ]   [ b_u ]
    [ A_tu  A_tt ] [ uhat ] = [ b_t ]

The diffusive part consists of the broken stiffness term, the two
adjoint-consistent flux terms against (uhat - u) and the edge penalty
epsilon * eta / h_e.  The convective part adds the volume transport term
and the upwind coupling built from the positive/negative parts of b . n.
Trace terms live on every element edge except Neumann boundary edges;
Neumann edges only receive the flux load against the interior test
function.  Trace dofs on Dirichlet edges are fixed to zero and never
enter the global index space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from hdgcd.fespace import (REF_VERTICES, get_edge_basis, get_element_basis,
                           quad_edge, quad_triangle)
from hdgcd.mesh import BoundaryTag, Mesh, verify_inflow_in_dirichlet

_NEUMANN = int(BoundaryTag.NEUMANN)


def default_eta(degree):
    """Default penalty parameter, 10 k^2."""
    return 10.0 * degree * degree


def default_quad_order(degree):
    """Default assembly quadrature exactness, 2k + 2."""
    return 2 * degree + 2


def bracket(x):
    """Positive and negative parts (max(0, x), max(0, -x)) of b . n.

    Elementwise exact: plus - minus == x and plus + minus == |x|.
    """
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0), np.maximum(-x, 0.0)


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and boundary data of one convection-diffusion problem.

    ``b`` maps coordinate arrays to the two velocity components; ``c``,
    ``f``, ``g_N`` and ``div_b`` are scalar fields (None means zero).
    ``boundary`` is the edge-midpoint tagging rule handed to the mesh
    generator; None tags the whole boundary Dirichlet.  ``rho0`` is the
    claimed lower bound of rho = c - div(b)/2.
    """

    epsilon: float
    b: Callable
    f: Callable
    c: Optional[Callable] = None
    g_N: Optional[Callable] = None
    boundary: Optional[Callable] = None
    rho0: float = 0.0
    div_b: Optional[Callable] = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.epsilon!r}")
        if self.rho0 < 0.0:
            raise ValueError(f"rho0 must be non-negative, got {self.rho0!r}")
        if not callable(self.b):
            raise ValueError("velocity b must be callable")
        if not callable(self.f):
            raise ValueError("source f must be callable")


@dataclass(frozen=True)
class ProblemReport:
    """Outcome of the well-posedness checks for a (problem, mesh) pair."""

    ok: bool
    min_rho: float
    inflow_ok: bool
    messages: tuple

    def require_ok(self):
        """Raise ValueError listing the failed checks, if any."""
        if not self.ok:
            raise ValueError("problem is not well posed on this mesh: "
                             + "; ".join(self.messages))


def eval_field(func, x, y, name, vector=False):
    """Values of the field ``func`` at the points (x, y), broadcast to x.shape.

    A vector field (``vector=True``) may return any sequence or array of two
    components and comes back stacked as (2, *x.shape); None stays None.
    Raises ValueError naming the field when the values do not broadcast to
    the points, a vector field has no two components, or a value is not finite.
    """
    if func is None:
        return None
    vals = func(x, y)
    try:
        comps = list(vals) if vector else [vals]
        if len(comps) != (2 if vector else 1):
            raise ValueError(f"got {len(comps)} components")
        out = np.stack([np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in comps])
    except (TypeError, ValueError) as exc:
        shape = f"two components of point shape {x.shape}" if vector else f"point shape {x.shape}"
        raise ValueError(f"field {name} does not evaluate to {shape}: {exc}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"field {name} has non-finite values")
    return out if vector else out[0]


def check_problem(problem, mesh, quad_order=4, rho_tol=1e-10, inflow_tol=1e-12):
    """Verify reaction positivity and inflow/Dirichlet compatibility.

    rho = c - div(b)/2 must stay above ``problem.rho0`` (up to ``rho_tol``)
    at the volume quadrature points, and the velocity must not enter the
    domain through a non-Dirichlet boundary edge.
    """
    pts = mesh.physical_points(quad_triangle(quad_order).points)
    x, y = pts[..., 0], pts[..., 1]
    eval_field(problem.b, x, y, "b", vector=True)   # named error before the inflow check uses b
    cv = eval_field(problem.c, x, y, "c")
    dv = eval_field(problem.div_b, x, y, "div_b")
    rho = np.zeros(x.shape)
    if cv is not None:
        rho += cv
    if dv is not None:
        rho -= 0.5 * dv
    min_rho = float(rho.min())
    messages = []
    if min_rho < problem.rho0 - rho_tol:
        messages.append(
            f"rho = c - div(b)/2 drops to {min_rho:.3e}, below the declared bound {problem.rho0:.3e}")
    inflow = verify_inflow_in_dirichlet(mesh, problem.b, tol=inflow_tol)
    if not inflow.ok:
        e, (px, py) = inflow.violations[0]
        messages.append(
            f"inflow crosses non-Dirichlet boundary edge {e} near ({px:.4f}, {py:.4f})")
    return ProblemReport(ok=not messages, min_rho=min_rho,
                         inflow_ok=inflow.ok, messages=tuple(messages))


@dataclass
class ElementSystems:
    """Element-local systems of a whole mesh, stacked along a leading axis.

    Blocks are (nt, nd, nd) ``A_uu``, (nt, nd, ntr) ``A_ut``, (nt, ntr, nd)
    ``A_tu``, (nt, ntr, ntr) ``A_tt`` and the loads ``b_u`` (nt, nd) and
    ``b_t`` (nt, ntr).  Trace columns are grouped by local edge slot,
    ``ndof_edge`` entries per slot in canonical edge orientation;
    ``trace_gids`` holds the matching global active-trace indices, -1 for
    constrained slots.  ``systems[t]`` gives element t's blocks as views.
    """

    A_uu: np.ndarray
    A_ut: np.ndarray
    A_tu: np.ndarray
    A_tt: np.ndarray
    b_u: np.ndarray
    b_t: np.ndarray
    trace_gids: np.ndarray

    @classmethod
    def zeros(cls, n_elements, ndof_elem, ndof_trace):
        nt, nd, ntr = n_elements, ndof_elem, ndof_trace
        return cls(A_uu=np.zeros((nt, nd, nd)), A_ut=np.zeros((nt, nd, ntr)),
                   A_tu=np.zeros((nt, ntr, nd)), A_tt=np.zeros((nt, ntr, ntr)),
                   b_u=np.zeros((nt, nd)), b_t=np.zeros((nt, ntr)),
                   trace_gids=np.full((nt, ntr), -1, dtype=np.int64))

    def __getitem__(self, element):
        return ElementSystems(**{name: arr[element] for name, arr in vars(self).items()})

    def full_matrix(self):
        """Dense (interior + trace) local matrices, test rows x trial cols."""
        return np.concatenate([np.concatenate([self.A_uu, self.A_ut], axis=-1),
                               np.concatenate([self.A_tu, self.A_tt], axis=-1)], axis=-2)


def _swap(a):
    return np.swapaxes(a, -1, -2)


class SlotTables(NamedTuple):
    """Local edge slot s of every element, in canonical edge orientation."""

    edges: np.ndarray      # (nt,) global edge index
    neumann: np.ndarray    # (nt,) True where the edge is Neumann (no trace)
    normals: np.ndarray    # (nt, 2) unit outward normal
    weights: np.ndarray    # (nt, nqe) edge quadrature weights times h_e
    values: np.ndarray     # (nt, nqe, nd) element basis values
    normal_derivs: Optional[np.ndarray]  # (nt, nqe, nd) physical d/dn of the basis

    def normal_velocity(self, bx_e, by_e):
        """b . n at the slot's points, from velocity values per edge (ne, nqe)."""
        return bx_e[self.edges] * self.normals[:, :1] + by_e[self.edges] * self.normals[:, 1:]


class AssemblyContext:
    """Reference evaluation tables and physical quadrature geometry.

    Element traces along an edge are tabulated for both traversal
    directions so that every edge quantity is expressed in the canonical
    (ascending vertex index) parameterization shared by the trace basis.
    The context keeps no reference to its mesh, so it can live in
    ``mesh.contexts`` and be freed with it.
    """

    def __init__(self, mesh, basis, edge_basis, quad_order):
        self.basis = basis
        self.edge_basis = edge_basis
        self.quad_order = quad_order
        self.vol = quad_triangle(quad_order)
        self.edge = quad_edge(quad_order)
        self.N = basis.values(self.vol.points)
        self.dN = basis.gradients(self.vol.points)
        t = self.edge.points
        self.E = edge_basis.values(t)
        nqe = t.size
        n_tr = np.empty((3, 2, nqe, basis.dim))
        dn_tr = np.empty((3, 2, nqe, basis.dim, 2))
        for s in range(3):
            r0 = REF_VERTICES[s]
            r1 = REF_VERTICES[(s + 1) % 3]
            for o, tt in ((0, 1.0 - t), (1, t)):
                pts = r0[None, :] + tt[:, None] * (r1 - r0)[None, :]
                n_tr[s, o] = basis.values(pts)
                dn_tr[s, o] = basis.gradients(pts)
        self.N_tr = n_tr
        self.dN_tr = dn_tr
        self.X_vol = mesh.physical_points(self.vol.points)
        self.X_edge = mesh.edge_points(t)

    def gradients(self, mesh):
        """Physical basis gradients at the volume points, (nt, nq, nd, 2)."""
        return self.dN @ _swap(mesh.inv_jacobians_t)[:, None]

    def volume_weights(self, mesh):
        """Physical volume quadrature weights, (nt, nq)."""
        return self.vol.weights * mesh.det_jacobians[:, None]

    def volume_values(self, func, name, vector=False):
        """:func:`eval_field` of ``func`` at the volume points, (nt, nq)."""
        return eval_field(func, self.X_vol[..., 0], self.X_vol[..., 1], name, vector)

    def edge_values(self, func, name, vector=False):
        """:func:`eval_field` of ``func`` at the edge points, (ne, nqe)."""
        return eval_field(func, self.X_edge[..., 0], self.X_edge[..., 1], name, vector)

    def slot(self, mesh, s, normal_derivs=False):
        """:class:`SlotTables` of local edge slot ``s`` for every element.

        The orientation gather ``N_tr[s, edge_forward[:, s]]`` happens here
        only; the tables are built per call and not cached.
        """
        o = mesh.edge_forward[:, s].astype(np.intp)
        edges = mesh.elem_edges[:, s]
        dn = None
        if normal_derivs:
            # d/dn of a basis function: reference gradient . J^{-1} n
            m_n = np.einsum("tab,ta->tb", mesh.inv_jacobians_t, mesh.normals[:, s])
            dn = np.einsum("tqib,tb->tqi", self.dN_tr[s, o], m_n)
        return SlotTables(edges, mesh.edge_tags[edges] == _NEUMANN, mesh.normals[:, s],
                          self.edge.weights * mesh.h_e[edges][:, None], self.N_tr[s, o], dn)


def get_context(mesh, basis=None, edge_basis=None, quad_order=None, degree=None):
    """AssemblyContext cached for the lifetime of ``mesh``.

    Bases default to the shared instances of ``degree``.
    """
    if basis is None:
        basis = get_element_basis(degree)
    if edge_basis is None:
        edge_basis = get_edge_basis(basis.degree)
    if quad_order is None:
        quad_order = default_quad_order(basis.degree)
    key = (basis, edge_basis, int(quad_order))
    if key not in mesh.contexts:
        mesh.contexts[key] = AssemblyContext(mesh, *key)
    return mesh.contexts[key]


# Volume terms shared by the HDG element systems and the SUPG baseline.  Each
# returns stacked (nt, nd, nd) matrices or (nt, nd) loads, test rows x trial cols.

def stiffness(ctx, mesh, epsilon):
    """Broken stiffness epsilon (grad phi_j, grad phi_i)_K."""
    G = ctx.gradients(mesh)
    return epsilon * np.einsum("tqia,tqja->tij", ctx.volume_weights(mesh)[..., None, None] * G, G)


def transport(ctx, mesh, b, c):
    """Transport and reaction term (b . grad phi_j + c phi_j, phi_i)_K.

    ``b`` (2, nt, nq) and ``c`` (nt, nq) or None are the coefficient values
    at the volume points.  Also returns the streamline derivatives
    b . grad phi (nt, nq, nd) and the weighted trial values
    w (b . grad phi + c phi) (nt, nq, nd) the term is built from.
    """
    G = ctx.gradients(mesh)
    bgrad = b[0][..., None] * G[..., 0] + b[1][..., None] * G[..., 1]
    trial = bgrad if c is None else bgrad + c[..., None] * ctx.N
    w_trial = ctx.volume_weights(mesh)[..., None] * trial
    return ctx.N.T @ w_trial, bgrad, w_trial


def load(ctx, mesh, problem):
    """Source (f, phi_i)_K plus the Neumann data <g_N, phi_i> on Neumann slots.

    Also returns the weighted source values w f (nt, nq).
    """
    w_f = ctx.volume_weights(mesh) * ctx.volume_values(problem.f, "f")
    out = w_f @ ctx.N
    g = neumann_data(problem, mesh, ctx)
    if g is not None:
        for s in range(3):
            sl = ctx.slot(mesh, s)
            out += np.einsum("tq,tqi->ti", sl.weights * g[sl.edges], sl.values)
    return out, w_f


def _diffusion(ctx, mesh, out, epsilon, eta):
    """Broken stiffness, adjoint-consistent flux terms and edge penalty."""
    out.A_uu += stiffness(ctx, mesh, epsilon)
    E = ctx.E
    k1 = ctx.edge_basis.dim
    for s in range(3):
        sl = ctx.slot(mesh, s, normal_derivs=True)
        c = slice(s * k1, (s + 1) * k1)
        we = sl.weights * ~sl.neumann[:, None]
        Nq = sl.values
        # consistency term <eps dn(u), vhat - v> and its adjoint
        wdn = we[..., None] * sl.normal_derivs
        out.A_tu[:, c, :] += epsilon * (E.T @ wdn)
        out.A_uu -= epsilon * (_swap(Nq) @ wdn)
        out.A_ut[:, :, c] += epsilon * (_swap(wdn) @ E)
        out.A_uu -= epsilon * (_swap(wdn) @ Nq)
        # penalty eps * eta / h_e <uhat - u, vhat - v>
        pen = (epsilon * eta / mesh.h_e[sl.edges])[:, None, None]
        we_e = we[..., None] * E
        out.A_tt[:, c, c] += pen * (E.T @ we_e)
        out.A_ut[:, :, c] -= pen * (_swap(Nq) @ we_e)
        out.A_tu[:, c, :] -= pen * (_swap(we_e) @ Nq)
        out.A_uu += pen * (_swap(Nq) @ (we[..., None] * Nq))


def _convection(ctx, mesh, out, problem):
    """Volume transport and reaction plus the upwind trace coupling."""
    b = ctx.volume_values(problem.b, "b", vector=True)
    out.A_uu += transport(ctx, mesh, b, ctx.volume_values(problem.c, "c"))[0]
    bx_e, by_e = ctx.edge_values(problem.b, "b", vector=True)
    E = ctx.E
    k1 = ctx.edge_basis.dim
    for s in range(3):
        sl = ctx.slot(mesh, s)
        c = slice(s * k1, (s + 1) * k1)
        we = sl.weights * ~sl.neumann[:, None]
        Nq = sl.values
        bp, bm = bracket(sl.normal_velocity(bx_e, by_e))
        # upwind coupling <uhat - u, [bn]+ vhat - [bn]- v>
        wbp = (we * bp)[..., None]
        wbm = (we * bm)[..., None]
        out.A_tt[:, c, c] += E.T @ (wbp * E)
        out.A_tu[:, c, :] -= E.T @ (wbp * Nq)
        out.A_ut[:, :, c] -= _swap(Nq) @ (wbm * E)
        out.A_uu += _swap(Nq) @ (wbm * Nq)


def neumann_data(problem, mesh, ctx):
    """g_N at the edge quadrature points, (ne, nqe); zero off Neumann edges.

    None when the problem has no Neumann data or the mesh no Neumann edge.
    """
    neu = mesh.edge_tags == _NEUMANN
    if problem.g_N is None or not neu.any():
        return None
    xe = ctx.X_edge[neu]
    g = np.zeros(ctx.X_edge.shape[:2])
    g[neu] = eval_field(problem.g_N, xe[..., 0], xe[..., 1], "g_N")
    return g


def local_diffusion(mesh, element, basis, edge_basis, epsilon, eta, quad_order=None):
    """Diffusive local blocks of one element (stiffness, flux, penalty)."""
    if not 0 <= element < mesh.n_elements:
        raise ValueError(f"element index {element} out of range")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not eta > 0.0:
        raise ValueError(f"penalty eta must be positive, got {eta!r}")
    one = _element_mesh(mesh, element)
    ctx = get_context(one, basis, edge_basis, quad_order)
    out = ElementSystems.zeros(1, basis.dim, 3 * edge_basis.dim)
    _diffusion(ctx, one, out, epsilon, eta)
    return out[0]


def _element_mesh(mesh, element):
    """One-element mesh of ``element`` with its geometry, slot order, edge
    orientations and Neumann edges; its other edges are tagged Dirichlet."""
    tri = mesh.triangles[element]
    vids = np.sort(tri)
    loc = np.searchsorted(vids, tri)   # ascending renumbering keeps each edge's orientation
    tags = {}
    for s in range(3):
        a, b = sorted((int(loc[s]), int(loc[(s + 1) % 3])))
        neumann = mesh.edge_tags[mesh.elem_edges[element, s]] == _NEUMANN
        tags[(a, b)] = BoundaryTag.NEUMANN if neumann else BoundaryTag.DIRICHLET
    return Mesh(mesh.vertices[vids], loc[None, :], boundary=tags)


def assemble_local_systems(mesh, dofmap, problem, eta=None, quad_order=None,
                           parts=("diffusion", "convection", "load")):
    """Stacked :class:`ElementSystems` of the full form on every element.

    Field coefficients are evaluated once on the whole mesh and every term
    is batched over the elements.  ``parts`` restricts the assembled terms
    (used by diagnostics and tests).
    """
    unknown = set(parts) - {"diffusion", "convection", "load"}
    if unknown:
        raise ValueError(f"unknown assembly parts {sorted(unknown)}")
    degree = dofmap.degree
    if eta is None:
        eta = default_eta(degree)
    if not eta > 0.0:
        raise ValueError(f"penalty eta must be positive, got {eta!r}")
    ctx = get_context(mesh, degree=degree, quad_order=quad_order)
    out = ElementSystems.zeros(mesh.n_elements, ctx.basis.dim, 3 * ctx.edge_basis.dim)
    if "diffusion" in parts:
        _diffusion(ctx, mesh, out, problem.epsilon, eta)
    if "convection" in parts:
        _convection(ctx, mesh, out, problem)
    if "load" in parts:
        out.b_u += load(ctx, mesh, problem)[0]
    out.trace_gids[:] = dofmap.element_trace_dofs()
    return out


def assemble_monolithic(mesh, dofmap, problem, eta=None, quad_order=None,
                        parts=("diffusion", "convection", "load")):
    """Uncondensed sparse system over interior plus active trace dofs.

    This is the reference path the condensed solver is checked against.
    Returns (A, rhs) with A in CSR format.
    """
    systems = assemble_local_systems(mesh, dofmap, problem, eta=eta,
                                     quad_order=quad_order, parts=parts)
    traces = np.where(systems.trace_gids >= 0, dofmap.n_interior + systems.trace_gids, -1)
    gids = np.concatenate([dofmap.element_dofs(), traces], axis=1)
    loads = np.concatenate([systems.b_u, systems.b_t], axis=1)
    return scatter_systems(systems.full_matrix(), loads, gids, dofmap.n_total)


def scatter_systems(mats, vecs, gids, n):
    """Sum stacked element matrices (nt, m, m) and vectors (nt, m) into an
    n x n CSR matrix and a length-n vector at the global indices ``gids``
    (nt, m); an index of -1 drops its row and column.
    """
    keep = gids >= 0
    pair = keep[:, :, None] & keep[:, None, :]
    rows = np.broadcast_to(gids[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(gids[:, None, :], pair.shape)[pair]
    mat = sp.coo_matrix((mats[pair], (rows, cols)), shape=(n, n)).tocsr()
    return mat, np.bincount(gids[keep], weights=vecs[keep], minlength=n)
