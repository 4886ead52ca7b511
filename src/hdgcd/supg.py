"""Streamline-upwind Petrov-Galerkin baseline on continuous P1 elements.

The stabilized form adds tau_K (b . grad u + c u - f, b . grad v)_K per
element to the plain Galerkin form; the -eps lap(u) part of the residual
vanishes for piecewise linears.  Dirichlet values are imposed strongly
(the constrained vertices are dropped from the system), Neumann data
enters naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hdgcd.assembly import (check_problem, get_context, load, neumann_data, pull_back,
                            scatter_systems, stiffness, table_product, transport)
from hdgcd.mesh import BoundaryTag
from hdgcd.solver import sparse_solve

# Switch points of the coth evaluation: the series below PE_SERIES, where
# coth Pe - 1/Pe cancels, and the asymptotic limit once coth is 1 to machine
# precision.  Four series terms hold 1e-13 relative up to Pe = 0.08, and
# the direct form holds it from there on.
PE_SERIES = 0.08
PE_LIMIT = 50.0
_DIRICHLET = int(BoundaryTag.DIRICHLET)


def supg_tau(h_K, b_norm, epsilon):
    """Stabilization parameter (h_K / (2 |b|)) (coth Pe - 1 / Pe), elementwise.

    Pe = |b| / (2 eps) is the local Peclet number; ``b_norm`` is the
    sup-norm of the velocity magnitude over the element.  A vanishing
    velocity gives tau = 0.  Scalar arguments give a float, arrays an array.
    """
    h, b = np.asarray(h_K, dtype=float), np.asarray(b_norm, dtype=float)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if np.any(b < 0.0):
        raise ValueError(f"b_norm must be non-negative, got {b_norm!r}")
    if not np.all(h > 0.0):
        raise ValueError(f"h_K must be positive, got {h_K!r}")
    with np.errstate(over="ignore"):   # Pe = inf at subnormal eps: the asymptotic branch
        pe = b / (2.0 * epsilon)
    factor = np.piecewise(pe, [pe < PE_SERIES, pe > PE_LIMIT],
                          [lambda p: p / 3.0 - p ** 3 / 45.0 + 2.0 * p ** 5 / 945.0 - p ** 7 / 4725.0,
                           lambda p: 1.0 - 1.0 / p,
                           lambda p: 1.0 / np.tanh(p) - 1.0 / p])
    scale = np.divide(h, 2.0 * b, out=np.zeros(np.broadcast(h, b).shape), where=b > 0.0)
    tau = scale * factor
    return float(tau) if tau.ndim == 0 else tau


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


def assemble_supg(problem, mesh, quad_order=None):
    """Assemble the stabilized system reduced to the free vertices.

    The Galerkin part uses the volume kernels of the HDG element systems;
    SUPG adds tau_K (b . grad phi_j + c phi_j - f, b . grad phi_i)_K with
    tau_K from :func:`supg_tau`.  Returns (A, rhs, free) where ``free``
    lists the unconstrained vertex indices.  A ``quad_order`` below 2, which
    cannot integrate the P1 mass, raises a ValueError, as it does for HDG.
    """
    ctx = get_context(mesh, 1, quad_order)
    b, c, f = ctx.fields(problem)   # the one field pass, shared with the HDG assembly
    # per-element sup of |b| at the quadrature points
    tau = supg_tau(mesh.h_K, np.hypot(*b).max(axis=1), problem.epsilon)
    # the load before the kernels, so its temporaries meet none of theirs
    w, g = ctx.volume_weights(mesh), neumann_data(problem, mesh, ctx)
    w_f = w * f
    rhs = load(ctx, w_f, g, None if g is None else ctx.traces(mesh))
    bx, by = pull_back(mesh, b)
    wx, wy = w * bx, w * by
    mats = stiffness(ctx, mesh, problem.epsilon) + transport(ctx, (wx, wy),
                                                             None if c is None else w * c)
    rhs += tau[:, None] * ((w_f * bx) @ ctx.dN[..., 0] + (w_f * by) @ ctx.dN[..., 1])
    coefs = np.concatenate([wx * bx, wx * by, wy * by] + ([] if c is None else [c * wx, c * wy]),
                           axis=1)
    mats += tau[:, None, None] * table_product(coefs, ctx.streamline_tables)

    constrained = np.zeros(mesh.n_vertices, dtype=bool)
    constrained[mesh.edges[mesh.edge_tags == _DIRICHLET]] = True
    free = np.flatnonzero(~constrained)
    gids = np.full(mesh.n_vertices, -1)
    gids[free] = np.arange(free.size)
    mat, vec = scatter_systems(mats, rhs, gids[mesh.triangles], free.size)
    return mat, vec, free


def solve_supg(problem, mesh, quad_order=None):
    """Solve the stabilized P1 system; Dirichlet vertices are fixed to zero.
    The solution's ``info`` records the well-posedness check's ``min_rho``
    and ``inflow_ok``, the dof count and the method."""
    report = check_problem(problem, mesh)
    report.require_ok()
    mat, rhs, free = assemble_supg(problem, mesh, quad_order=quad_order)
    nodal = np.zeros(mesh.n_vertices)
    nodal[free] = sparse_solve(mat, rhs, "stabilized")
    return SupgSolution(mesh=mesh, nodal=nodal,
                        info={"min_rho": report.min_rho, "inflow_ok": report.inflow_ok,
                              "dofs_total": int(free.size), "method": "supg"})
