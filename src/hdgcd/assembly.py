"""Local and global assembly of the hybridized convection-diffusion forms.

Element-local blocks couple interior unknowns u with the trace unknowns
uhat on the element's three edge slots.  Rows are test functions, columns
trial functions:

    [ A_uu  A_ut ] [ u    ]   [ b_u ]
    [ A_tu  A_tt ] [ uhat ] = [ b_t ]

Elements couple only through one numerical flux on their boundaries,
eps dn(u) + w_u (uhat - u).  Its two gap weights (:func:`flux_weights`) are
w_t = eps eta / h_e + [b.n]+ against trace test functions and
w_u = eps eta / h_e + [b.n]- against interior ones.  The volume terms are
the broken stiffness, transport and reaction; one edge pass adds the
adjoint-consistent flux terms <eps dn(u), vhat - v> + <uhat - u, eps dn(v)>
and the gap coupling <uhat - u, w_t vhat - w_u v>.
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

from hdgcd.fespace import (MAX_DEGREE, MAX_QUAD_ORDER, REF_VERTICES, _bounded_int, build_dofmap,
                           get_element_basis, quad_edge, quad_triangle)
from hdgcd.mesh import BoundaryTag

_NEUMANN = int(BoundaryTag.NEUMANN)
# well-posedness check: rho is sampled at the points of this volume rule
CHECK_QUAD_ORDER = 4
RHO_TOL = 1e-10
# inflow check: b . n at INFLOW_SAMPLES Gauss points per edge, flagged below -INFLOW_TOL
INFLOW_SAMPLES = 4
INFLOW_TOL = 1e-12


def default_eta(degree):
    """Default penalty parameter, 10 k^2."""
    return 10.0 * degree * degree


def default_quad_order(degree):
    """Default assembly quadrature exactness, 2k + 2."""
    return 2 * degree + 2


def check_penalty(eta):
    """Raise ValueError unless the penalty ``eta`` is positive and finite."""
    if not 0.0 < eta < np.inf:
        raise ValueError(f"penalty eta must be positive and finite, got {eta!r}")


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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"diffusion coefficient must be positive and finite, got {self.epsilon!r}")
        if not 0.0 <= self.rho0 < np.inf:
            raise ValueError(f"rho0 must be non-negative and finite, got {self.rho0!r}")
        for name, what in (("b", "velocity b"), ("f", "source f"), ("c", "reaction c"),
                           ("g_N", "Neumann data g_N"), ("div_b", "divergence div_b")):
            value, optional = getattr(self, name), name not in ("b", "f")
            if not (callable(value) or optional and value is None):
                raise ValueError(f"{what} must be callable" + " or None" * optional)


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
    the points, a vector field has no two components, a value is not
    finite, or ``func`` raises an ArithmeticError (a Python float overflow);
    ``func`` runs with floating-point warnings off, so that is all it reports.
    """
    if func is None:
        return None
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = func(x, y)
    except ArithmeticError as exc:
        raise ValueError(f"field {name} fails to evaluate: {type(exc).__name__}: {exc}") from None
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


def verify_inflow_in_dirichlet(mesh, velocity):
    """Check that the inflow boundary is contained in the Dirichlet part.

    Samples ``b . n`` at ``INFLOW_SAMPLES`` Gauss points of every
    non-Dirichlet boundary edge and returns the ``(edge_index, (x, y))``
    pairs where it drops below ``-INFLOW_TOL``; empty when the check passes.
    """
    gl, _ = np.polynomial.legendre.leggauss(INFLOW_SAMPLES)
    bnd = mesh.boundary_edges
    edges = bnd[mesh.edge_tags[bnd] != int(BoundaryTag.DIRICHLET)]
    t = mesh.edge_elems[edges, 0]
    nrm = mesh.normals[t, (mesh.elem_edges[t] == edges[:, None]).argmax(axis=1)]
    pts = mesh.edge_points(0.5 * (gl + 1.0), edges)
    bx, by = eval_field(velocity, pts[..., 0], pts[..., 1], "b", vector=True)
    bn = bx * nrm[:, None, 0] + by * nrm[:, None, 1]
    return tuple((int(edges[i]), (float(pts[i, q, 0]), float(pts[i, q, 1])))
                 for i, q in zip(*np.nonzero(bn < -INFLOW_TOL)))


def check_problem(problem, mesh):
    """Verify reaction positivity, uniqueness and inflow/Dirichlet compatibility.

    rho = c - div(b)/2 must stay above ``problem.rho0`` (up to ``RHO_TOL``)
    at the points of the degree-1 context with quadrature order
    ``CHECK_QUAD_ORDER``, and above ``RHO_TOL`` at one of them when no edge
    is Dirichlet (else constants solve the homogeneous problem); on every
    non-Dirichlet boundary edge b must be finite and must not enter.  Without
    ``c`` and ``div_b`` rho is zero, and no context is built.
    """
    rho = np.zeros(1)
    if problem.c is not None or problem.div_b is not None:
        ctx = get_context(mesh, 1, CHECK_QUAD_ORDER)
        rho = np.zeros(ctx.X_vol.shape[:2])
        if problem.c is not None:
            rho += ctx.volume_values(problem.c, "c")
        if problem.div_b is not None:
            rho -= 0.5 * ctx.volume_values(problem.div_b, "div_b")
    min_rho = float(rho.min())
    messages = []
    if min_rho < problem.rho0 - RHO_TOL:
        messages.append(
            f"rho = c - div(b)/2 drops to {min_rho:.3e}, below the declared bound {problem.rho0:.3e}")
    if not (mesh.edge_tags == int(BoundaryTag.DIRICHLET)).any() and rho.max() <= RHO_TOL:
        messages.append("no boundary edge is Dirichlet and rho = c - div(b)/2 vanishes "
                        "everywhere, so the solution is unique only up to a constant")
    violations = verify_inflow_in_dirichlet(mesh, problem.b)
    if violations:
        e, (px, py) = violations[0]
        messages.append(
            f"inflow crosses non-Dirichlet boundary edge {e} near ({px:.4f}, {py:.4f})")
    return ProblemReport(ok=not messages, min_rho=min_rho,
                         inflow_ok=not violations, messages=tuple(messages))


@dataclass
class ElementSystems:
    """Element-local systems of a whole mesh, stacked along a leading axis.

    Blocks are (nt, nd, nd) ``A_uu``, (nt, nd, ntr) ``A_ut``, (nt, ntr, nd)
    ``A_tu``, (nt, ntr, ntr) ``A_tt`` and the loads ``b_u`` (nt, nd) and
    ``b_t`` (nt, ntr).  Trace columns are grouped by local edge slot,
    ``ndof_edge`` entries per slot in canonical edge orientation, as in
    :meth:`hdgcd.fespace.DofMap.element_trace_dofs`.  ``systems[t]`` gives
    element t's blocks as views.
    """

    A_uu: np.ndarray
    A_ut: np.ndarray
    A_tu: np.ndarray
    A_tt: np.ndarray
    b_u: np.ndarray
    b_t: np.ndarray

    @classmethod
    def zeros(cls, n_elements, ndof_elem, ndof_trace):
        nt, nd, ntr = n_elements, ndof_elem, ndof_trace
        return cls(A_uu=np.zeros((nt, nd, nd)), A_ut=np.zeros((nt, nd, ntr)),
                   A_tu=np.zeros((nt, ntr, nd)), A_tt=np.zeros((nt, ntr, ntr)),
                   b_u=np.zeros((nt, nd)), b_t=np.zeros((nt, ntr)))

    def __getitem__(self, element):
        return ElementSystems(**{name: arr[element] for name, arr in vars(self).items()})

    def full_matrix(self):
        """Dense (interior + trace) local matrices, test rows x trial cols."""
        return np.concatenate([np.concatenate([self.A_uu, self.A_ut], axis=-1),
                               np.concatenate([self.A_tu, self.A_tt], axis=-1)], axis=-2)


def _swap(a):
    return np.swapaxes(a, -1, -2)


class TraceTables(NamedTuple):
    """The three edge slots of each of nt elements in canonical edge
    orientation, with the slot and point axes flattened to p = s * nqe + q."""

    edges: np.ndarray          # (nt, 3) global edge index of each slot
    neumann: np.ndarray        # (nt, 3nqe) True on Neumann edges (no trace)
    h: np.ndarray              # (nt, 3nqe) edge length h_e
    normals: np.ndarray        # (nt, 3nqe, 2) unit outward normal
    weights: np.ndarray        # (nt, 3nqe) edge quadrature weights times h_e
    values: np.ndarray         # (nt, 3nqe, nd) element basis values
    normal_derivs: np.ndarray  # (nt, 3nqe, nd) physical d/dn of the basis

    def gather(self, per_edge):
        """Rows (ne, m) of per-edge data at every element's slots, (nt, 3m)."""
        slots = per_edge[self.edges]
        return slots.reshape(len(slots), 3 * per_edge.shape[1])

    def normal_velocity(self, bx_e, by_e):
        """b . n at the trace points, from velocity values per edge (ne, nqe)."""
        return self.gather(bx_e) * self.normals[..., 0] + self.gather(by_e) * self.normals[..., 1]


def pull_back(mesh, v):
    """Reference components J^{-1} v (2, nt, ...) of the physical vectors
    ``v`` (2, nt, ...) on every element, so that
    v . grad phi = (J^{-1} v) . grad_ref phi."""
    m = mesh.inv_jacobians_t
    m = m.reshape(m.shape + (1,) * (v.ndim - 2))
    return np.stack([m[:, 0, a] * v[0] + m[:, 1, a] * v[1] for a in (0, 1)])


class AssemblyContext:
    """Reference evaluation tables and physical quadrature geometry.

    Elements are affine, so volume derivatives stay on the reference
    triangle: the context holds reference basis tables and the stiffness
    tensors ``R[a, b] = sum_q w_q d_a phi_i d_b phi_j`` (2, 2, nd, nd), and
    the element metric maps coefficients, never the basis (:func:`pull_back`).
    Element traces along an edge are tabulated for both traversal
    directions so that every edge quantity is expressed in the canonical
    (ascending vertex index) parameterization shared by the trace basis;
    :meth:`traces` gathers them for all three slots at once.  The trace
    basis itself belongs to the dof map (:meth:`hdgcd.fespace.DofMap.slot_values`
    tabulates it at ``edge.points``), so the context holds element tables only.
    The context keeps no reference to its mesh, so it can live in
    ``mesh.contexts`` and be freed with it.  It is the only place that
    builds quadrature points, basis tables and physical point images.
    """

    def __init__(self, mesh, degree, quad_order):
        self.basis = basis = get_element_basis(degree)
        self.vol = quad_triangle(quad_order)
        self.edge = quad_edge(quad_order)
        self.N = basis.values(self.vol.points)
        self.dN = basis.gradients(self.vol.points)
        self.R = np.einsum("q,qia,qjb->abij", self.vol.weights, self.dN, self.dN)
        self.N_vert = basis.values(REF_VERTICES)
        t = self.edge.points
        # slot s from vertex s to s + 1, traversed backward (o = 0) or forward (o = 1)
        r0 = REF_VERTICES[:, None, None]
        r1 = np.roll(REF_VERTICES, -1, axis=0)[:, None, None]
        pts = (r0 + np.stack([1.0 - t, t])[..., None] * (r1 - r0)).reshape(-1, 2)
        self.N_tr = basis.values(pts).reshape(3, 2, t.size, -1)   # [s, o, q, i]
        self.dN_tr = basis.gradients(pts).reshape(3, 2, t.size, -1, 2)
        self.X_vol = mesh.physical_points(self.vol.points)
        self.X_edge = mesh.edge_points(t)

    def streamline(self, mesh, b):
        """Streamline derivatives b . grad phi (nt, nq, nd) of the basis from
        the velocity ``b`` (2, nt, nq) at the volume points."""
        bx, by = pull_back(mesh, b)
        return bx[..., None] * self.dN[..., 0] + by[..., None] * self.dN[..., 1]

    def field_gradients(self, mesh, u):
        """Physical gradients M g_ref (nt, nq, 2), M = J^{-T}, at the volume
        points of the fields with element coefficients ``u`` (nt, nd)."""
        return np.tensordot(u, self.dN, axes=(1, 1)) @ _swap(mesh.inv_jacobians_t)

    def field_hessians(self, mesh, u):
        """Physical Hessians M H_ref M^T (nt, nq, 2, 2) at the volume points
        of the fields with element coefficients ``u`` (nt, nd)."""
        d2 = self.basis.second_derivatives(self.vol.points)[..., [[0, 1], [1, 2]]]
        h_ref = np.tensordot(u, d2.transpose(1, 2, 0, 3), axes=(1, 0))   # (nt, a, nq, b)
        m, nt = mesh.inv_jacobians_t, len(u)
        h = (m @ h_ref.reshape(nt, 2, -1)).reshape(nt, -1, 2) @ _swap(m)   # rows (a, q)
        return h.reshape(nt, 2, -1, 2).transpose(0, 2, 1, 3)

    def volume_weights(self, mesh):
        """Physical volume quadrature weights, (nt, nq)."""
        return self.vol.weights * mesh.det_jacobians[:, None]

    def volume_values(self, func, name, vector=False):
        """:func:`eval_field` of ``func`` at the volume points, (nt, nq)."""
        return eval_field(func, self.X_vol[..., 0], self.X_vol[..., 1], name, vector)

    def edge_values(self, func, name, vector=False, edges=slice(None)):
        """:func:`eval_field` of ``func`` at the points of ``edges``, (n, nqe)."""
        pts = self.X_edge[edges]
        return eval_field(func, pts[..., 0], pts[..., 1], name, vector)

    def traces(self, mesh):
        """:class:`TraceTables` of all three edge slots of every element.

        The orientation gather ``N_tr[s, edge_forward[:, s]]`` happens here
        only; the tables are built per call and not cached.
        """
        nqe = self.edge.weights.size
        o = mesh.edge_forward.astype(np.intp)
        slots = np.arange(3)
        edges = mesh.elem_edges
        neumann, h, normals = (np.repeat(a, nqe, axis=1) for a in
                               (mesh.edge_tags[edges] == _NEUMANN, mesh.h_e[edges], mesh.normals))
        # d/dn of a basis function: reference gradient . J^{-1} n
        n_ref = pull_back(mesh, np.moveaxis(mesh.normals, -1, 0))
        shape = (mesh.n_elements, 3 * nqe, self.N.shape[1])
        dn = np.einsum("tsqib,bts->tsqi", self.dN_tr[slots, o], n_ref).reshape(shape)
        return TraceTables(edges, neumann, h, normals, np.tile(self.edge.weights, 3) * h,
                           self.N_tr[slots, o].reshape(shape), dn)


def get_context(mesh, degree, quad_order=None):
    """AssemblyContext of the shared degree-``degree`` bases, cached for the
    lifetime of ``mesh``; the quadrature order defaults to 2k + 2.  Both are
    checked to be integers in range before they key the cache, and an order
    below 2k, whose rules cannot integrate the P_k mass (an edge rule of
    fewer than k + 1 points), raises a ValueError: the one home of that rule
    for the HDG systems, the SUPG baseline and the error norms."""
    if quad_order is None:
        quad_order = default_quad_order(degree)
    key = (_bounded_int("polynomial degree", degree, 1, MAX_DEGREE),
           _bounded_int("quadrature order", quad_order, 0, MAX_QUAD_ORDER))
    if key[1] < 2 * key[0]:
        raise ValueError(f"quadrature order {key[1]} is below 2k = {2 * key[0]} for "
                         f"degree {key[0]}: the rules cannot integrate the P_k mass")
    if key not in mesh.contexts:
        mesh.contexts[key] = AssemblyContext(mesh, *key)
    return mesh.contexts[key]


# Volume terms shared by the HDG element systems and the SUPG baseline.  Each
# returns stacked (nt, nd, nd) matrices or (nt, nd) loads, test rows x trial cols.

def stiffness(ctx, mesh, epsilon):
    """Broken stiffness epsilon (grad phi_j, grad phi_i)_K from the reference
    tensors: epsilon |det J| sum_ab C[a, b] R[a, b] with C = J^{-1} J^{-T}."""
    m = mesh.inv_jacobians_t
    metric = (epsilon * mesh.det_jacobians)[:, None, None] * (_swap(m) @ m)
    return np.tensordot(metric, ctx.R, axes=2)


def transport(ctx, mesh, b, c):
    """Transport and reaction term (b . grad phi_j + c phi_j, phi_i)_K.

    ``b`` (2, nt, nq) and ``c`` (nt, nq) or None are the coefficient values
    at the volume points.  Also returns the streamline derivatives
    b . grad phi (nt, nq, nd) and the weighted trial values
    w (b . grad phi + c phi) (nt, nq, nd) the term is built from.
    """
    bgrad = ctx.streamline(mesh, b)
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
        tr = ctx.traces(mesh)
        out += np.einsum("tp,tpi->ti", tr.weights * tr.gather(g), tr.values)
    return out, w_f


def flux_weights(ctx, tr, problem, eta, parts=("diffusion", "convection")):
    """Gap weights (w_t, w_u) (nt, 3nqe) of the numerical flux at the points
    of the trace tables ``tr``.

    w_t = eps eta / h_e + [b.n]+ weighs the trace test functions and
    w_u = eps eta / h_e + [b.n]- the interior ones, so the flux through a
    slot is eps dn(u) + w_u (uhat - u).  The penalty enters with
    ``"diffusion"`` in ``parts``, the upwind brackets with ``"convection"``.
    """
    w_t = w_u = 0.0
    if "diffusion" in parts:
        w_t = w_u = (problem.epsilon * eta) / tr.h
    if "convection" in parts:
        bp, bm = bracket(tr.normal_velocity(*ctx.edge_values(problem.b, "b", vector=True)))
        w_t, w_u = w_t + bp, w_u + bm
    return w_t, w_u


def _edge_terms(ctx, mesh, dofmap, out, problem, eta, parts):
    """Consistency terms and the gap coupling on every non-Neumann slot."""
    tr = ctx.traces(mesh)
    E, Nq = dofmap.slot_values(ctx.edge.points), tr.values
    we = tr.weights * ~tr.neumann
    if "diffusion" in parts:
        # consistency term <eps dn(u), vhat - v> and its adjoint
        wdn = (problem.epsilon * we)[..., None] * tr.normal_derivs
        out.A_tu += E.T @ wdn
        out.A_ut += _swap(wdn) @ E
        out.A_uu -= _swap(Nq) @ wdn + _swap(wdn) @ Nq
    # gap coupling <uhat - u, w_t vhat - w_u v>
    w_t, w_u = ((we * w)[..., None] for w in flux_weights(ctx, tr, problem, eta, parts))
    out.A_tt += E.T @ (w_t * E)
    out.A_tu -= E.T @ (w_t * Nq)
    out.A_ut -= _swap(Nq) @ (w_u * E)
    out.A_uu += _swap(Nq) @ (w_u * Nq)


def neumann_data(problem, mesh, ctx):
    """g_N at the edge quadrature points, (ne, nqe); zero off Neumann edges.

    None when the problem has no Neumann data or the mesh no Neumann edge.
    """
    neu = mesh.edge_tags == _NEUMANN
    if problem.g_N is None or not neu.any():
        return None
    g = np.zeros((mesh.n_edges, ctx.edge.weights.size))
    g[neu] = ctx.edge_values(problem.g_N, "g_N", edges=neu)
    return g


def local_diffusion(mesh, element, basis, edge_basis, epsilon, eta):
    """Diffusive local blocks of one element (stiffness, flux, penalty): its
    slice of the ``("diffusion",)`` assembly with degree ``basis.degree``,
    which ``edge_basis`` must share."""
    if not 0 <= element < mesh.n_elements:
        raise ValueError(f"element index {element} out of range")
    dofmap = build_dofmap(mesh, basis.degree)
    if edge_basis.degree != dofmap.edge_basis.degree:
        raise ValueError(f"edge basis degree {edge_basis.degree} does not match "
                         f"element basis degree {basis.degree}")
    # the diffusive part never evaluates b or f
    problem = ProblemSpec(epsilon=epsilon, b=lambda x, y: (0 * x, 0 * y), f=lambda x, y: 0 * x)
    return assemble_local_systems(mesh, dofmap, problem, eta=eta, parts=("diffusion",))[element]


def assemble_local_systems(mesh, dofmap, problem, eta=None, quad_order=None,
                           parts=("diffusion", "convection", "load")):
    """Stacked :class:`ElementSystems` of the full form on every element.

    Field coefficients are evaluated once on the whole mesh and every term
    is batched over the elements.  ``parts`` restricts the assembled terms
    (used by diagnostics and tests).  A ``quad_order`` below 2k raises a
    ValueError (:func:`get_context`).
    """
    unknown = set(parts) - {"diffusion", "convection", "load"}
    if unknown:
        raise ValueError(f"unknown assembly parts {sorted(unknown)}")
    degree = dofmap.degree
    if eta is None:
        eta = default_eta(degree)
    check_penalty(eta)
    ctx = get_context(mesh, degree, quad_order)
    out = ElementSystems.zeros(mesh.n_elements, dofmap.ndof_elem, 3 * dofmap.ndof_edge)
    if "diffusion" in parts:
        out.A_uu += stiffness(ctx, mesh, problem.epsilon)
    if "convection" in parts:
        out.A_uu += transport(ctx, mesh, ctx.volume_values(problem.b, "b", vector=True),
                              ctx.volume_values(problem.c, "c"))[0]
    if "load" in parts:
        out.b_u += load(ctx, mesh, problem)[0]
    if "diffusion" in parts or "convection" in parts:
        _edge_terms(ctx, mesh, dofmap, out, problem, eta, parts)
    return out


def assemble_monolithic(mesh, dofmap, problem, eta=None, quad_order=None,
                        parts=("diffusion", "convection", "load")):
    """Uncondensed sparse system over interior plus active trace dofs.

    This is the reference path the condensed solver is checked against.
    Returns (A, rhs) with A in CSR format.
    """
    systems = assemble_local_systems(mesh, dofmap, problem, eta=eta,
                                     quad_order=quad_order, parts=parts)
    loads = np.concatenate([systems.b_u, systems.b_t], axis=1)
    return scatter_systems(systems.full_matrix(), loads, dofmap.element_global_dofs(),
                           dofmap.n_total)


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
