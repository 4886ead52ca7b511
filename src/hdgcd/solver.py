"""Static condensation onto the skeleton, sparse solve and local recovery.

The global system is never formed in the production path: each element's
interior block is eliminated locally,

    S = sum_K (A_tt - A_tu A_uu^{-1} A_ut),   g = -sum_K A_tu A_uu^{-1} b_u,

the condensed system S uhat = g is solved with one SuperLU factorization,
and interior unknowns are recovered from the same eliminations.  All element
work is batched over the stacked :class:`hdgcd.assembly.ElementSystems`.  The
uncondensed system assembled by :func:`hdgcd.assembly.assemble_monolithic`
serves as the reference the condensed path is verified against.  Every
global system (skeleton, uncondensed, stabilized) is solved and its
residual checked by the one :func:`sparse_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgcd.assembly import (ElementSystems, assemble_local_systems, assemble_monolithic,
                            check_problem, default_eta, default_quad_order, scatter_systems)
from hdgcd.fespace import build_dofmap

COND_LIMIT = 1e14
RESIDUAL_RTOL = 1e-10
RECOVERY_RTOL = 1e-11
# Every sparse system here (skeleton, uncondensed, stabilized) has a symmetric
# pattern with unsymmetric values, so SuperLU orders A + A^T by minimum degree
# and keeps a diagonal pivot unless it is below 0.1 of its column's maximum.
# Trap: with the default threshold 1.0 the off-diagonal pivots destroy that
# ordering (layer n=32, k=1: fill 35.6x, nine times slower than COLAMD).
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.1


class ElementSolvabilityError(RuntimeError):
    """An element-interior block is numerically singular."""


class SingularSystemError(RuntimeError):
    """A global sparse system could not be solved reliably."""


@dataclass
class CondensedSystem:
    """Skeleton system together with the element data needed for recovery.

    ``W`` (nt, nd, ntr + 1) holds A_uu^{-1} [A_ut | b_u] of every element.
    """

    S: sp.csr_matrix
    g: np.ndarray
    dofmap: object
    systems: ElementSystems
    W: np.ndarray


@dataclass
class HdgSolution:
    """Discrete solution: per-element coefficients and skeleton trace.

    ``u`` has shape (n_elements, ndof_elem) in the nodal element basis;
    ``uhat`` holds the active trace dofs (Dirichlet values are implicit
    zeros).  The mesh, degree and skeleton mode are the dof map's.
    ``info`` records sizes and solver diagnostics.
    """

    dofmap: object
    u: np.ndarray
    uhat: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def mesh(self):
        return self.dofmap.mesh

    @property
    def degree(self):
        return self.dofmap.degree

    def edge_traces(self):
        """Trace coefficients per mesh edge, (ne, k+1), zeros where constrained."""
        return self.dofmap.gather(self.uhat, self.dofmap.edge_dofs)


def condense(local_systems, dofmap):
    """Eliminate interior unknowns from every element of the stacked systems.

    One batched solve against [A_ut | b_u | I] gives W and A_uu^{-1}, whose
    1-norm condition estimate |A_uu|_1 |A_uu^{-1}|_1 is checked.  Raises
    :class:`ElementSolvabilityError` naming the first element whose
    interior block has a condition estimate beyond ``COND_LIMIT``.
    """
    sy = local_systems
    ntr, nd = sy.A_ut.shape[-1], sy.A_uu.shape[-1]
    eye = np.broadcast_to(np.eye(nd), sy.A_uu.shape)
    try:
        X = np.linalg.solve(sy.A_uu, np.concatenate([sy.A_ut, sy.b_u[..., None], eye], axis=-1))
        cond = (np.linalg.norm(sy.A_uu, 1, axis=(-2, -1))
                * np.linalg.norm(X[..., ntr + 1:], 1, axis=(-2, -1)))
    except np.linalg.LinAlgError:   # an exactly singular block: inf there
        cond = np.linalg.cond(sy.A_uu, 1)
    bad = ~(cond <= COND_LIMIT)
    if bad.any():
        t = int(np.argmax(bad))
        raise ElementSolvabilityError(f"element {t}: interior block condition estimate "
                                      f"{cond[t]:.3e} exceeds {COND_LIMIT:.1e}")
    W = X[..., :ntr + 1].copy()
    del X   # the inverse columns would otherwise stay alive through the scatter below
    s_loc = sy.A_tt - sy.A_tu @ W[..., :-1]
    g_loc = -(sy.A_tu @ W[..., -1:])[..., 0]
    s_mat, g = scatter_systems(s_loc, g_loc, dofmap.element_trace_dofs(), dofmap.n_trace_active)
    return CondensedSystem(S=s_mat, g=g, dofmap=dofmap, systems=sy, W=W)


def sparse_factor(mat, name):
    """SuperLU factorization of ``mat`` with the ordering and pivoting above;
    an exactly singular matrix raises :class:`SingularSystemError` naming
    the ``name`` system."""
    try:
        return spla.splu(mat.tocsc(), permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:   # "Factor is exactly singular"
        raise SingularSystemError(f"{name} system is singular ({exc})") from exc


def sparse_solve(mat, rhs, name):
    """Solve ``mat x = rhs`` through :func:`sparse_factor`, the one path of
    every global system, and verify the residual against RESIDUAL_RTOL *
    (|mat| |x| + |rhs|) in the max norm.  A singular matrix, a non-finite
    solution or a violated bound raises :class:`SingularSystemError` naming
    the ``name`` system; an empty system has the empty solution."""
    if not mat.shape[0]:
        return np.zeros(0)
    x = sparse_factor(mat, name).solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{name} system is singular (non-finite solution)")
    resid = float(np.abs(mat @ x - rhs).max())
    bound = RESIDUAL_RTOL * (float(np.abs(mat).sum(axis=1).max()) * float(np.abs(x).max())
                             + float(np.abs(rhs).max()))
    if resid > bound:
        raise SingularSystemError(f"{name} residual {resid:.3e} exceeds tolerance {bound:.3e}")
    return x


def solve_skeleton(system):
    """Solve the condensed system S uhat = g by :func:`sparse_solve` and
    return the trace vector."""
    return sparse_solve(system.S, system.g, "skeleton")


def recover_interior(traces, system):
    """Back-substitute the trace solution into every element.

    Each element touches only its own three edges, so recovery is local:
    u = A_uu^{-1} b_u - A_uu^{-1} A_ut uhat.  The worst relative residual
    of the interior equations is recorded in ``info["max_recovery_residual"]``;
    one above ``RECOVERY_RTOL`` raises :class:`SingularSystemError`.
    """
    dofmap = system.dofmap
    sy = system.systems
    traces = np.asarray(traces, dtype=float)
    uhat = dofmap.gather(traces, dofmap.element_trace_dofs())
    u = system.W[..., -1] - (system.W[..., :-1] @ uhat[..., None])[..., 0]
    rhs = sy.b_u - (sy.A_ut @ uhat[..., None])[..., 0]
    resid = np.abs((sy.A_uu @ u[..., None])[..., 0] - rhs).max(axis=1)
    worst = float((resid / (1.0 + np.abs(rhs).max(axis=1))).max())
    if not worst <= RECOVERY_RTOL:
        raise SingularSystemError(
            f"interior recovery residual {worst:.3e} exceeds {RECOVERY_RTOL:.1e}")
    return HdgSolution(dofmap=dofmap, u=u, uhat=traces, info={"max_recovery_residual": worst})


def _prepare(problem, mesh, degree, eta, skeleton_mode):
    """Shared preamble of the drivers: default penalty, well-posedness
    check and dof map; returns (eta, dofmap)."""
    if eta is None:
        eta = default_eta(degree)
    check_problem(problem, mesh).require_ok()
    return eta, build_dofmap(mesh, degree, skeleton_mode)


def _solution_info(dofmap, eta, quad_order, method):
    return {
        "dofs_skeleton": dofmap.n_trace_active,
        "dofs_total": dofmap.n_total,
        "eta": float(eta),
        "quad_order": default_quad_order(dofmap.degree) if quad_order is None else quad_order,
        "method": method,
    }


def solve_hdg(problem, mesh, degree=1, eta=None, skeleton_mode="dg", quad_order=None):
    """Full driver: validate, assemble, condense, solve, recover.

    Returns an :class:`HdgSolution` whose ``info`` dict records the skeleton
    and total dof counts, the penalty, quadrature order, method and recovery residual.
    """
    eta, dofmap = _prepare(problem, mesh, degree, eta, skeleton_mode)
    systems = assemble_local_systems(mesh, dofmap, problem, eta=eta, quad_order=quad_order)
    condensed = condense(systems, dofmap)
    traces = solve_skeleton(condensed)
    sol = recover_interior(traces, condensed)
    sol.info.update(_solution_info(dofmap, eta, quad_order, "condensed"))
    return sol


def solve_monolithic(problem, mesh, degree=1, quad_order=None):
    """Reference driver solving the uncondensed system (default penalty, dg traces) directly."""
    eta, dofmap = _prepare(problem, mesh, degree, None, "dg")
    mat, rhs = assemble_monolithic(mesh, dofmap, problem, eta=eta, quad_order=quad_order)
    x = sparse_solve(mat, rhs, "uncondensed")
    n_int = dofmap.n_interior
    u = x[:n_int].reshape(mesh.n_elements, dofmap.ndof_elem)
    sol = HdgSolution(dofmap=dofmap, u=u, uhat=x[n_int:])
    sol.info.update(_solution_info(dofmap, eta, quad_order, "monolithic"))
    return sol

