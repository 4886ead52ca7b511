"""Error measures, mesh-dependent norms, conservation and overshoot checks.

Errors against a known exact solution integrate with the elevated
quadrature rule of exactness max(``ERROR_QUAD_ORDER``, 2k + 2).  The
scheme's own norm acts on a discrete pair (element field, skeleton trace);
distances to an exact solution in that norm go through the elementwise L2
projection of the exact solution, see :func:`project_to_hdg`.

The error measures and the scheme norm accept an optional region: a
predicate ``(x, y) -> bool`` tested at element barycenters, or None for
the whole domain.  An element contributes when its barycenter lies
inside, and its edge terms follow the element.  Fields are evaluated and
element integrals formed on the whole mesh; the region only selects which
of them are summed, so an exact field must be finite everywhere.
:func:`errors` gives the three distances of a case's solution from one
evaluation of the exact solution per point set and one of its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hdgcd.assembly import (TraceTables, check_penalty, default_quad_order, eval_field,
                            flux_weights, get_context, neumann_data, pull_back)
from hdgcd.solver import HdgSolution

# floor of the quadrature order of the error measures; from k = 6 on the
# default 2k + 2 is higher, and the P_k edge mass needs an order of 2k
ERROR_QUAD_ORDER = 12


def subsquare(side):
    """Predicate of the box (0, side)^2, e.g. the layer-free measurement region."""
    return lambda x, y: (x < side) & (y < side)


@dataclass
class ErrorReport:
    """Scheme-norm components of a discrete pair, stored as squares.

    ``err_hdg**2 == epsilon * (h1 + h2 + jump) + conv + rho0 * l2**2``,
    with epsilon and rho0 of the problem, holds exactly by construction;
    the pieces are kept, as squares, for callers to recombine or take roots of.
    """

    err_l2: float
    err_hdg: float
    seminorm_h1_sq: float
    seminorm_h2_sq: float
    jump_sq: float
    conv_sq: float


def _error_context(mesh, degree):
    """The context of the error measures, at order max(ERROR_QUAD_ORDER, 2k + 2)."""
    return get_context(mesh, degree, max(ERROR_QUAD_ORDER, default_quad_order(degree)))


def _elements(region, mesh):
    """Index of the elements whose barycenter satisfies ``region``: a slice,
    which keeps views, for the whole mesh (None), else their ascending
    indices.  Raises ValueError naming ``region`` when it does not give one
    bool per element."""
    if region is None:
        return slice(None)
    bc = mesh.barycenters
    mask = np.asarray(region(bc[:, 0], bc[:, 1]), dtype=bool)
    if mask.shape != (mesh.n_elements,):
        raise ValueError(f"region must give one bool per element barycenter, shape "
                         f"({mesh.n_elements},); got shape {mask.shape}")
    return np.flatnonzero(mask)


def _root(per_elem):
    """sqrt of the sum of per-element integrals."""
    return float(np.sqrt(per_elem.sum()))


def _l2_sq(ctx, solution, exact):
    """Integrals of (u_h - exact)^2 over each element, from the exact
    values at the volume points."""
    diff = (solution.u @ ctx.N.T - exact) ** 2
    return (diff * ctx.volume_weights(solution.mesh)).sum(axis=1)


def _h1_sq(ctx, solution, exact_grad):
    """Integrals of |grad u_h - exact_grad|^2 over each element.

    The field ``exact_grad`` is evaluated after the discrete gradients, whose
    evaluation peaks at twice their size, so the two peaks do not add."""
    grads = ctx.field_gradients(solution.mesh, solution.u)
    gx, gy = ctx.volume_values(exact_grad, "exact_grad", vector=True)
    diff = (grads[..., 0] - gx) ** 2 + (grads[..., 1] - gy) ** 2
    return (diff * ctx.volume_weights(solution.mesh)).sum(axis=1)


def error_l2(solution, exact, region=None):
    """Broken L2 distance between a discrete field and an exact solution."""
    mesh = solution.mesh
    ctx = _error_context(mesh, solution.degree)
    elems = _elements(region, mesh)
    return _root(_l2_sq(ctx, solution, ctx.volume_values(exact, "exact"))[elems])


def error_h1_broken(solution, exact_grad, region=None):
    """Broken H1 seminorm distance against the exact gradient."""
    mesh = solution.mesh
    ctx = _error_context(mesh, solution.degree)
    elems = _elements(region, mesh)   # checked before any field is evaluated
    return _root(_h1_sq(ctx, solution, exact_grad)[elems])


def _projection(exact, dofmap, ctx, exact_vol):
    """The pair projection of :func:`project_to_hdg`, from the values
    ``exact_vol`` of ``exact`` at the volume points: coefficients u (nt, nd)
    and active trace dofs."""
    u = _project(ctx.N, ctx.vol.weights, exact_vol)
    uhat = np.zeros(dofmap.n_trace_active)
    if dofmap.skeleton_mode == "dg":
        free = dofmap.free_edges
        if free.size:
            E = dofmap.trace_values(ctx.edge.points)
            uhat[dofmap.edge_dofs[free]] = _project(
                E, ctx.edge.weights, ctx.edge_values(exact, "exact", edges=free))
    else:
        active = dofmap.free_vertices
        vx = dofmap.mesh.vertices[active]
        uhat[dofmap.vertex_dofs[active]] = eval_field(exact, vx[:, 0], vx[:, 1], "exact")
    return u, uhat


def project_to_hdg(exact, dofmap):
    """Project an exact solution onto the discrete pair space.

    Element fields are elementwise L2 projections.  In the discontinuous
    skeleton mode the trace is the edgewise L2 projection; in the
    continuous mode it interpolates vertex values (an elementwise L2
    projection would couple globally).  Constrained dofs stay zero.
    """
    ctx = _error_context(dofmap.mesh, dofmap.degree)
    u, uhat = _projection(exact, dofmap, ctx, ctx.volume_values(exact, "exact"))
    return HdgSolution(dofmap=dofmap, u=u, uhat=uhat, info={"method": "projection"})


def _project(vals, weights, f):
    """L2 projection coefficients (n, dim) of values f (n, nq) on reference
    points with basis ``vals`` (nq, dim) and quadrature ``weights`` (nq,)."""
    w_vals = weights[:, None] * vals
    return np.linalg.solve(vals.T @ w_vals, (f @ w_vals).T).T


def _trace_gap(ctx, pair):
    """uhat - u of the discrete ``pair`` at the edge points of every element's
    slots, each in the element's direction (nt, 3nqe), as in the trace tables."""
    dofmap = pair.dofmap
    E = dofmap.slot_values(ctx.edge.points)
    uhat = dofmap.gather(pair.uhat, dofmap.element_trace_dofs()) @ E.T
    return uhat - pair.u @ ctx.N_tr.reshape(-1, pair.u.shape[1]).T


def _scheme_norm(pair, problem, eta, elems):
    """:class:`ErrorReport` of a discrete pair over the elements ``elems``."""
    mesh = pair.mesh
    ctx = get_context(mesh, pair.degree)

    # volume quantities
    w = ctx.volume_weights(mesh)
    l2_sq_elem = ((pair.u @ ctx.N.T) ** 2 * w).sum(axis=1)
    h1_sq_elem = ((ctx.field_gradients(mesh, pair.u) ** 2).sum(axis=-1) * w).sum(axis=1)
    # |alpha| = 2 derivatives: u_xx, u_xy (counted once) and u_yy; P1 has none
    h2_sq_elem = np.zeros(len(w))
    if pair.degree > 1:
        hess = ctx.field_hessians(mesh, pair.u)
        h2 = hess[..., 0, 0] ** 2 + hess[..., 0, 1] ** 2 + hess[..., 1, 1] ** 2
        h2_sq_elem = (h2 * w).sum(axis=1) * mesh.h_K ** 2

    # edge quantities: the gap on every slot, then the slots of those elements
    diff2 = _trace_gap(ctx, pair)[elems] ** 2
    tr = TraceTables._make(table[elems] for table in ctx.traces(mesh))
    bn = tr.normal_velocity(*ctx.edge_values(problem.b, "b", vector=True))
    skel = ~tr.neumann
    jump_sq = float(((eta / tr.h) * tr.weights * diff2)[skel].sum())
    conv_sq = float((tr.weights * np.abs(bn) * diff2)[skel].sum())

    h1 = float(h1_sq_elem[elems].sum())
    h2 = float(h2_sq_elem[elems].sum())
    l2 = float(l2_sq_elem[elems].sum())
    hdg_sq = problem.epsilon * (h1 + h2 + jump_sq) + conv_sq + problem.rho0 * l2
    return ErrorReport(err_l2=float(np.sqrt(l2)), err_hdg=float(np.sqrt(hdg_sq)),
                       seminorm_h1_sq=h1, seminorm_h2_sq=h2,
                       jump_sq=jump_sq, conv_sq=conv_sq)


def hdg_norm(pair, problem, eta, region=None):
    """Scheme norm of a discrete pair, with its components.

    The diffusive part is epsilon times the broken H1 and scaled H2
    seminorms plus the penalty-weighted jump; the convective part sums
    |b.n|-weighted jumps over element boundaries and the rho0-weighted L2
    norm.  Edge terms skip Neumann edges and follow the elements of
    ``region``.  A penalty ``eta`` that is not positive and finite raises
    a ValueError.
    """
    check_penalty(eta)
    return _scheme_norm(pair, problem, eta, _elements(region, pair.mesh))


def _distance(solution, projection, problem, eta, elems):
    """Scheme-norm distance over ``elems`` to a :func:`_projection`."""
    u, uhat = projection
    diff = HdgSolution(dofmap=solution.dofmap, u=u - solution.u, uhat=uhat - solution.uhat)
    return _scheme_norm(diff, problem, eta, elems)


def error_hdg(solution, exact, problem, eta, region=None):
    """Scheme-norm distance to the projected exact solution."""
    check_penalty(eta)
    mesh = solution.mesh
    ctx = _error_context(mesh, solution.degree)
    elems = _elements(region, mesh)
    projection = _projection(exact, solution.dofmap, ctx, ctx.volume_values(exact, "exact"))
    return _distance(solution, projection, problem, eta, elems)


def errors(solution, case, eta):
    """``(err_l2, err_h1, report)`` of a solution of ``case`` over
    ``case.region``: the values of :func:`error_l2`, :func:`error_h1_broken`
    and :func:`error_hdg` (an :class:`ErrorReport`) with penalty ``eta``.

    ``case.exact`` is evaluated once at the volume points, for the L2
    distance and the projection alike, and once at the edge points (at the
    vertices for continuous traces); ``case.exact_grad`` once at the volume
    points.  All of them on the whole mesh; ``case.region`` selects the
    element integrals that are summed.
    """
    check_penalty(eta)
    mesh = solution.mesh
    ctx = _error_context(mesh, solution.degree)
    elems = _elements(case.region, mesh)
    exact = ctx.volume_values(case.exact, "exact")
    err_l2 = _root(_l2_sq(ctx, solution, exact)[elems])
    projection = _projection(case.exact, solution.dofmap, ctx, exact)
    del exact   # freed before the H1 peak, which is the largest
    err_h1 = _root(_h1_sq(ctx, solution, case.exact_grad)[elems])
    return err_l2, err_h1, _distance(solution, projection, case.problem, eta, elems)


def conservation_residual(solution, problem):
    """Per-element imbalance of the discrete flux identity.

    For each element: volume transport plus reaction, minus the numerical
    flux through the non-Neumann boundary, minus the source, minus the
    Neumann data.  The numerical normal flux is the assembly's
    eps dn(u) + w_u (uhat - u), with the gap weight
    w_u = eps eta / h_e + [b.n]- of :func:`hdgcd.assembly.flux_weights`, the
    penalty and quadrature order the solve recorded in its info.  A
    ValueError names ``eta`` or ``quad_order`` when the info lacks it.
    """
    mesh, info = solution.mesh, solution.info
    for key in ("eta", "quad_order"):
        if key not in info:
            raise ValueError(f"conservation_residual needs the solve's {key!r} in solution.info")
    ctx = get_context(mesh, solution.degree, info["quad_order"])

    b, c, f = ctx.fields(problem)
    conv = np.einsum("atq,tqa->tq", pull_back(mesh, b), np.tensordot(solution.u, ctx.dN, (1, 1)))
    if c is not None:
        conv = conv + c * (solution.u @ ctx.N.T)
    residual = ((conv - f) * ctx.volume_weights(mesh)).sum(axis=1)

    tr = ctx.traces(mesh)
    diff = _trace_gap(ctx, solution)
    u, nt = solution.u, mesh.n_elements
    grad_ref = u @ np.swapaxes(ctx.dN_tr, -1, -2).reshape(-1, u.shape[1]).T
    dn = np.einsum("tsqb,tsb->tsq", grad_ref.reshape(nt, 3, -1, 2), tr.normals_ref).reshape(nt, -1)
    w_u = flux_weights(ctx, tr, problem, info["eta"])[1]
    flux = problem.epsilon * dn + w_u * diff
    g_e = neumann_data(problem, mesh, ctx)
    flux = np.where(tr.neumann, 0.0 if g_e is None else tr.gather(g_e), flux)
    return residual - (tr.weights * flux).sum(axis=1)


def convergence_table(errors, hs):
    """Observed orders log(e_i / e_{i+1}) / log(h_i / h_{i+1}).

    Entries where either error vanishes are reported as None.  Raises
    ValueError naming the index of a mesh size that is not positive and
    finite, or that equals its successor.
    """
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs):
        raise ValueError("errors and mesh sizes must have equal length")
    for i, h in enumerate(hs):
        if not 0.0 < h < np.inf:
            raise ValueError(f"mesh size {i} must be positive and finite, got {h!r}")
        if i and h == hs[i - 1]:
            raise ValueError(f"mesh sizes {i - 1} and {i} are equal ({h!r}); no rate between them")
    rates = []
    for i in range(len(errors) - 1):
        if errors[i] <= 0.0 or errors[i + 1] <= 0.0:
            rates.append(None)
        else:
            rates.append(float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1])))
    return rates


def overshoot_metric(solution, exact_max):
    """Worst exceedance of the discrete field over the exact maximum.

    Samples element vertices plus the volume quadrature points of the
    whole mesh; a non-positive value means no overshoot at the sampling set.
    """
    ctx = _error_context(solution.mesh, solution.degree)
    uh = solution.u @ np.vstack([ctx.N_vert, ctx.N]).T   # (nt, 3 + nq)
    return float(uh.max() - exact_max)
