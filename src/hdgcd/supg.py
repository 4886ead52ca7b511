"""Streamline-upwind Petrov-Galerkin baseline on continuous P1 elements.

The stabilized form adds tau_K (b . grad u + c u - f, b . grad v)_K per
element to the plain Galerkin form; the -eps lap(u) part of the residual
vanishes for piecewise linears.  Dirichlet values are imposed strongly
(the constrained vertices are dropped from the system), Neumann data
enters naturally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgcd.assembly import check_problem, eval_field, get_context, neumann_data
from hdgcd.fespace import get_edge_basis, get_element_basis
from hdgcd.mesh import BoundaryTag
from hdgcd.solver import SingularSystemError

# Switch points of the coth evaluation: series for small Peclet numbers,
# asymptotic limit once coth is 1 to machine precision.
PE_SERIES = 1e-4
PE_LIMIT = 50.0
_NEUMANN = int(BoundaryTag.NEUMANN)
_DIRICHLET = int(BoundaryTag.DIRICHLET)


def supg_tau(h_K, b_norm, epsilon):
    """Stabilization parameter (h_K / (2 |b|)) (coth Pe - 1 / Pe).

    Pe = |b| / (2 eps) is the local Peclet number; ``b_norm`` is the
    sup-norm of the velocity magnitude over the element.  A vanishing
    velocity returns tau = 0.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if b_norm < 0.0:
        raise ValueError(f"b_norm must be non-negative, got {b_norm!r}")
    if not h_K > 0.0:
        raise ValueError(f"h_K must be positive, got {h_K!r}")
    if b_norm == 0.0:
        return 0.0
    pe = b_norm / (2.0 * epsilon)
    if pe < PE_SERIES:
        factor = pe / 3.0 - pe ** 3 / 45.0
    elif pe > PE_LIMIT:
        factor = 1.0 - 1.0 / pe
    else:
        factor = 1.0 / np.tanh(pe) - 1.0 / pe
    return float(h_K / (2.0 * b_norm) * factor)


@dataclass
class SupgSolution:
    """Continuous piecewise-linear solution with nodal values."""

    mesh: object
    nodal: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def degree(self):
        return 1

    @property
    def u(self):
        """Per-element view in the local P1 basis (vertex order)."""
        return self.nodal[self.mesh.triangles]


def _dirichlet_vertices(mesh):
    dir_edges = np.nonzero(mesh.edge_tags == _DIRICHLET)[0]
    return np.unique(mesh.edges[dir_edges].ravel())


def assemble_supg(problem, mesh, quad_order=None, tau_scale=1.0):
    """Assemble the stabilized system reduced to the free vertices.

    Returns (A, rhs, free) where ``free`` lists the unconstrained vertex
    indices; ``tau_scale = 0`` reproduces the plain Galerkin system.
    """
    basis = get_element_basis(1)
    ctx = get_context(mesh, basis, get_edge_basis(1), quad_order)
    w = ctx.vol.weights
    x, y = ctx.X_vol[..., 0], ctx.X_vol[..., 1]
    bx_v, by_v = eval_field(problem.b, x, y, "b", vector=True)
    c_v = eval_field(problem.c, x, y, "c")
    f_v = eval_field(problem.f, x, y, "f")
    g_e = neumann_data(problem, mesh, ctx)

    speed = np.hypot(bx_v, by_v).max(axis=1)  # per-element sup of |b|
    eps = problem.epsilon
    nv = mesh.n_vertices
    rows, cols, vals = [], [], []
    rhs = np.zeros(nv)
    taus = np.empty(mesh.n_elements)
    for t in range(mesh.n_elements):
        wq = w * mesh.det_jacobians[t]
        G = ctx.dN @ mesh.inv_jacobians_t[t].T          # (nq, 3, 2)
        bgrad = bx_v[t][:, None] * G[:, :, 0] + by_v[t][:, None] * G[:, :, 1]
        trial = bgrad if c_v is None else bgrad + c_v[t][:, None] * ctx.N
        tau = tau_scale * supg_tau(mesh.h_K[t], float(speed[t]), eps)
        taus[t] = tau
        a_loc = eps * np.einsum("q,qia,qja->ij", wq, G, G)
        a_loc += ctx.N.T @ (wq[:, None] * trial)
        a_loc += tau * (bgrad.T @ (wq[:, None] * trial))
        b_loc = ctx.N.T @ (wq * f_v[t]) + tau * (bgrad.T @ (wq * f_v[t]))
        if g_e is not None:
            for s in range(3):
                e = mesh.elem_edges[t, s]
                if mesh.edge_tags[e] != _NEUMANN:
                    continue
                o = 1 if mesh.edge_forward[t, s] else 0
                we = ctx.edge.weights * mesh.h_e[e]
                b_loc += ctx.N_tr[s, o].T @ (we * g_e[e])
        vid = mesh.triangles[t]
        rows.append(np.repeat(vid, 3))
        cols.append(np.tile(vid, 3))
        vals.append(a_loc.ravel())
        np.add.at(rhs, vid, b_loc)

    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(nv, nv)).tocsr()
    constrained = _dirichlet_vertices(mesh)
    free = np.setdiff1d(np.arange(nv), constrained)
    mat = mat[free][:, free].tocsr()
    return mat, rhs[free], free


def solve_supg(problem, mesh, quad_order=None, tau_scale=1.0, check=True):
    """Solve the stabilized P1 system; Dirichlet vertices are fixed to zero."""
    if check:
        check_problem(problem, mesh).require_ok()
    mat, rhs, free = assemble_supg(problem, mesh, quad_order=quad_order, tau_scale=tau_scale)
    nodal = np.zeros(mesh.n_vertices)
    if free.size:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            x = spla.spsolve(mat.tocsc(), rhs)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("stabilized system is singular (non-finite solution)")
        nodal[free] = x
    return SupgSolution(mesh=mesh, nodal=nodal,
                        info={"dofs_total": int(free.size), "method": "supg",
                              "tau_scale": float(tau_scale)})
