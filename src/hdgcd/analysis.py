"""Error measures, mesh-dependent norms, conservation and overshoot checks.

Errors against a known exact solution integrate with an elevated
quadrature rule (exactness 12 by default).  The scheme's own norm acts on
a discrete pair (element field, skeleton trace); distances to an exact
solution in that norm go through the elementwise L2 projection of the
exact solution, see :func:`project_to_hdg`.

All measures accept an optional :class:`Region`; an element contributes
when its barycenter lies inside, and its edge terms follow the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from hdgcd.assembly import (bracket, default_eta, default_quad_order, eval_field,
                            get_context, neumann_data)
from hdgcd.fespace import (get_edge_basis, get_element_basis, project_all_edges,
                           project_all_elements, quad_triangle)
from hdgcd.solver import HdgSolution

ERROR_QUAD_ORDER = 12


@dataclass(frozen=True)
class Region:
    """Axis-agnostic measurement region; None predicate means everywhere."""

    name: str
    predicate: Optional[Callable] = None

    def element_mask(self, mesh):
        if self.predicate is None:
            return np.ones(mesh.n_elements, dtype=bool)
        bc = mesh.barycenters
        return np.asarray(self.predicate(bc[:, 0], bc[:, 1]), dtype=bool)


FULL_REGION = Region("omega")


def subsquare(side):
    """Region (0, side)^2, e.g. the layer-free measurement box."""
    return Region(f"omega_{side:g}", lambda x, y: (x < side) & (y < side))


@dataclass
class ErrorReport:
    """Scheme-norm components of a discrete pair, stored as squares.

    ``err_hdg**2 == epsilon * (h1 + h2 + jump) + conv + rho0 * l2**2``
    holds exactly by construction; the pieces are kept so callers can
    recombine or report them separately.
    """

    region: str
    epsilon: float
    rho0: float
    err_l2: float
    err_h1_broken: float
    err_jump: float
    err_hdg: float
    seminorm_h1_sq: float
    seminorm_h2_sq: float
    jump_sq: float
    conv_sq: float
    err_star: Optional[float] = None


def _region_mask(region, mesh):
    region = FULL_REGION if region is None else region
    return region.element_mask(mesh), region.name


def error_l2(solution, exact, region=None, quad_order=ERROR_QUAD_ORDER):
    """Broken L2 distance between a discrete field and an exact solution."""
    mesh = solution.mesh
    basis = get_element_basis(solution.degree)
    rule = quad_triangle(quad_order)
    vals = basis.values(rule.points)           # (nq, nd)
    uh = solution.u @ vals.T                   # (nt, nq)
    pts = mesh.physical_points(rule.points)
    ue = eval_field(exact, pts[..., 0], pts[..., 1], "exact")
    mask, _ = _region_mask(region, mesh)
    per_elem = ((uh - ue) ** 2 @ rule.weights) * mesh.det_jacobians
    return float(np.sqrt(per_elem[mask].sum()))


def error_h1_broken(solution, exact_grad, region=None, quad_order=ERROR_QUAD_ORDER):
    """Broken H1 seminorm distance against the exact gradient."""
    mesh = solution.mesh
    basis = get_element_basis(solution.degree)
    rule = quad_triangle(quad_order)
    dref = basis.gradients(rule.points)        # (nq, nd, 2)
    grads = np.einsum("ti,qib,tab->tqa", solution.u, dref, mesh.inv_jacobians_t)
    pts = mesh.physical_points(rule.points)
    gx, gy = eval_field(exact_grad, pts[..., 0], pts[..., 1], "exact_grad", vector=True)
    diff = (grads[..., 0] - gx) ** 2 + (grads[..., 1] - gy) ** 2
    mask, _ = _region_mask(region, mesh)
    per_elem = (diff @ rule.weights) * mesh.det_jacobians
    return float(np.sqrt(per_elem[mask].sum()))


def project_to_hdg(exact, dofmap, quad_order=ERROR_QUAD_ORDER):
    """Project an exact solution onto the discrete pair space.

    Element fields are elementwise L2 projections.  In the discontinuous
    skeleton mode the trace is the edgewise L2 projection; in the
    continuous mode it interpolates vertex values (an elementwise L2
    projection would couple globally).  Constrained dofs stay zero.
    """
    mesh = dofmap.mesh
    basis = get_element_basis(dofmap.degree)
    u = project_all_elements(exact, mesh, basis, quad_order=quad_order)
    uhat = np.zeros(dofmap.n_trace_active)
    if dofmap.skeleton_mode == "dg":
        free = np.flatnonzero(dofmap.edge_dofs[:, 0] >= 0)
        if free.size:
            uhat[dofmap.edge_dofs[free]] = project_all_edges(
                exact, mesh, get_edge_basis(dofmap.degree), free, quad_order=quad_order)
    else:
        active = np.nonzero(dofmap.vertex_dofs >= 0)[0]
        vx = mesh.vertices[active]
        uhat[dofmap.vertex_dofs[active]] = eval_field(exact, vx[:, 0], vx[:, 1], "exact")
    return HdgSolution(mesh=mesh, dofmap=dofmap, u=u, uhat=uhat,
                       info={"method": "projection"})


def solution_difference(a, b):
    """Discrete pair a - b on a shared dof map."""
    if a.dofmap is not b.dofmap and (a.dofmap.degree != b.dofmap.degree
                                     or a.dofmap.skeleton_mode != b.dofmap.skeleton_mode
                                     or a.mesh is not b.mesh):
        raise ValueError("solutions live on different discrete spaces")
    return HdgSolution(mesh=a.mesh, dofmap=a.dofmap, u=a.u - b.u,
                       uhat=a.uhat - b.uhat, info={"method": "difference"})


def hdg_norm(pair, problem, eta, region=None, quad_order=None, starred=False):
    """Scheme norm of a discrete pair, with its components.

    The diffusive part is epsilon times the broken H1 and scaled H2
    seminorms plus the penalty-weighted jump; the convective part sums
    |b.n|-weighted jumps over element boundaries and the rho0-weighted L2
    norm.  With ``starred=True`` the report also carries the augmented
    norm that adds the plain L2 and boundary-trace terms (a diagnostic).
    """
    mesh = pair.mesh
    dofmap = pair.dofmap
    degree = dofmap.degree
    if quad_order is None:
        quad_order = default_quad_order(degree)
    ctx = get_context(mesh, get_element_basis(degree), get_edge_basis(degree), quad_order)
    mask, region_name = _region_mask(region, mesh)

    w = ctx.vol.weights
    det = mesh.det_jacobians
    # volume quantities
    uh = pair.u @ ctx.N.T
    grads = np.einsum("ti,qib,tab->tqa", pair.u, ctx.dN, mesh.inv_jacobians_t)
    l2_sq_elem = (uh ** 2 @ w) * det
    h1_sq_elem = ((grads ** 2).sum(axis=-1) @ w) * det
    basis = ctx.basis
    if degree >= 2:
        d2 = basis.second_derivatives(ctx.vol.points)  # (nq, nd, 3) ref xx, xy, yy
        # physical second derivatives via H_phys = M H_ref M^T, M = J^{-T}
        m = mesh.inv_jacobians_t
        hxx = np.einsum("ti,qic->tqc", pair.u, d2)  # (nt, nq, 3)
        rxx, rxy, ryy = hxx[..., 0], hxx[..., 1], hxx[..., 2]
        pxx = (m[:, None, 0, 0] ** 2 * rxx + 2 * m[:, None, 0, 0] * m[:, None, 0, 1] * rxy
               + m[:, None, 0, 1] ** 2 * ryy)
        pyy = (m[:, None, 1, 0] ** 2 * rxx + 2 * m[:, None, 1, 0] * m[:, None, 1, 1] * rxy
               + m[:, None, 1, 1] ** 2 * ryy)
        pxy = (m[:, None, 0, 0] * m[:, None, 1, 0] * rxx
               + (m[:, None, 0, 0] * m[:, None, 1, 1] + m[:, None, 0, 1] * m[:, None, 1, 0]) * rxy
               + m[:, None, 0, 1] * m[:, None, 1, 1] * ryy)
        h2_dens = pxx ** 2 + pxy ** 2 + pyy ** 2
        h2_sq_elem = (h2_dens @ w) * det * mesh.h_K ** 2
    else:
        h2_sq_elem = np.zeros(mesh.n_elements)

    # edge quantities, slot by slot over the selected elements
    uhat_edges = pair.edge_traces()
    bx_e, by_e = ctx.edge_values(problem.b, "b", vector=True)
    jump_sq = conv_sq = trace_sq = 0.0
    for s in range(3):
        sl = ctx.slot(mesh, s)
        e = sl.edges
        u_vals = np.einsum("tqi,ti->tq", sl.values, pair.u)
        diff2 = (uhat_edges[e] @ ctx.E.T - u_vals) ** 2
        bn = sl.normal_velocity(bx_e, by_e)
        skel = mask & ~sl.neumann
        jump_sq += float(((eta / mesh.h_e[e]) * (sl.weights * diff2).sum(axis=1))[skel].sum())
        conv_sq += float((sl.weights * np.abs(bn) * diff2).sum(axis=1)[skel].sum())
        # the augmented norm integrates v over the whole element boundary
        trace_sq += float((sl.weights * u_vals ** 2).sum(axis=1)[mask].sum())

    h1 = float(h1_sq_elem[mask].sum())
    h2 = float(h2_sq_elem[mask].sum())
    l2 = float(l2_sq_elem[mask].sum())
    eps = problem.epsilon
    rho0 = problem.rho0
    hdg_sq = eps * (h1 + h2 + jump_sq) + conv_sq + rho0 * l2
    err_star = None
    if starred:
        err_star = float(np.sqrt(hdg_sq + l2 + trace_sq))
    return ErrorReport(region=region_name, epsilon=eps, rho0=rho0,
                       err_l2=float(np.sqrt(l2)),
                       err_h1_broken=float(np.sqrt(h1)),
                       err_jump=float(np.sqrt(jump_sq)),
                       err_hdg=float(np.sqrt(hdg_sq)),
                       seminorm_h1_sq=h1, seminorm_h2_sq=h2,
                       jump_sq=jump_sq, conv_sq=conv_sq, err_star=err_star)


def error_hdg(solution, exact, problem, eta, region=None,
              proj_quad_order=ERROR_QUAD_ORDER, quad_order=None):
    """Scheme-norm distance to the projected exact solution."""
    proj = project_to_hdg(exact, solution.dofmap, quad_order=proj_quad_order)
    diff = solution_difference(proj, solution)
    return hdg_norm(diff, problem, eta, region=region, quad_order=quad_order)


def conservation_residual(solution, problem, eta=None, quad_order=None):
    """Per-element imbalance of the discrete flux identity.

    For each element: volume transport plus reaction, minus the numerical
    flux through the non-Neumann boundary, minus the source, minus the
    Neumann data.  The numerical normal flux is
    eps * (dn(u) + eta / h_e * (uhat - u)) + [b.n]_- (uhat - u).
    """
    mesh = solution.mesh
    dofmap = solution.dofmap
    degree = dofmap.degree
    if eta is None:
        eta = solution.info.get("eta", default_eta(degree))
    if quad_order is None:
        quad_order = solution.info.get("quad_order", default_quad_order(degree))
    ctx = get_context(mesh, get_element_basis(degree), get_edge_basis(degree), quad_order)
    w = ctx.vol.weights
    det = mesh.det_jacobians

    bx_v, by_v = ctx.volume_values(problem.b, "b", vector=True)
    grads = np.einsum("ti,qib,tab->tqa", solution.u, ctx.dN, mesh.inv_jacobians_t)
    conv = bx_v * grads[..., 0] + by_v * grads[..., 1]
    if problem.c is not None:
        uh = solution.u @ ctx.N.T
        conv = conv + ctx.volume_values(problem.c, "c") * uh
    residual = ((conv - ctx.volume_values(problem.f, "f")) @ w) * det

    bx_e, by_e = ctx.edge_values(problem.b, "b", vector=True)
    g_e = neumann_data(problem, mesh, ctx)
    uhat_edges = solution.edge_traces()
    eps = problem.epsilon
    for s in range(3):
        sl = ctx.slot(mesh, s, normal_derivs=True)
        e = sl.edges
        h_e = mesh.h_e[e][:, None]
        diff = uhat_edges[e] @ ctx.E.T - np.einsum("tqi,ti->tq", sl.values, solution.u)
        dn = np.einsum("tqi,ti->tq", sl.normal_derivs, solution.u)
        _, bm = bracket(sl.normal_velocity(bx_e, by_e))
        flux = eps * (dn + (eta / h_e) * diff) + bm * diff
        flux = np.where(sl.neumann[:, None], 0.0 if g_e is None else g_e[e], flux)
        residual -= (sl.weights * flux).sum(axis=1)
    return residual


def convergence_table(errors, hs):
    """Observed orders log(e_i / e_{i+1}) / log(h_i / h_{i+1}).

    Entries where either error vanishes are reported as None.
    """
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must have equal length")
    rates = []
    for i in range(len(errors) - 1):
        if errors[i] <= 0.0 or errors[i + 1] <= 0.0:
            rates.append(None)
        else:
            rates.append(float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1])))
    return rates


def overshoot_metric(solution, exact_max, region=None, quad_order=ERROR_QUAD_ORDER):
    """Worst exceedance of the discrete field over the exact maximum.

    Samples element vertices plus the volume quadrature points; a
    non-positive value means no overshoot at the sampling set.
    """
    mesh = solution.mesh
    basis = get_element_basis(solution.degree)
    rule = quad_triangle(quad_order)
    ref = np.vstack([np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), rule.points])
    vals = basis.values(ref)
    uh = solution.u @ vals.T                   # (nt, npts)
    mask, _ = _region_mask(region, mesh)
    if not mask.any():
        raise ValueError("measurement region contains no elements")
    return float(uh[mask].max() - exact_max)
