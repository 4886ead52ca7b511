"""Manufactured convection-diffusion cases used by the studies and tests.

Each case bundles a :class:`~hdgcd.assembly.ProblemSpec` with the exact
solution, its gradient, the measurement region, the exact maximum (for
overshoot checks) and a quadrature floor for data with sharp gradients.
Sources are hard-coded analytically; :func:`verify_source_term`
cross-checks them against finite differences of the exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from hdgcd.analysis import subsquare
from hdgcd.assembly import ProblemSpec, eval_field
from hdgcd.mesh import ON_BOUNDARY_TOL, dirichlet_where

# verify_source_term: its seeded sample points, and the largest scaled
# residuals it accepts for the source and for the gradient
SOURCE_CHECK_POINTS = 1000
SOURCE_CHECK_SEED = 20240214
SOURCE_TOL = 1e-8
GRAD_TOL = 1e-7
# 4th-order central stencils on the shifts _FD_SHIFTS (times h)
_FD_SHIFTS = (2.0, 1.0, 0.0, -1.0, -2.0)
_FD_FIRST = (-1.0, 8.0, 0.0, -8.0, 1.0)
_FD_SECOND = (-1.0, 16.0, -30.0, 16.0, -1.0)


@dataclass(frozen=True)
class ManufacturedCase:
    """A problem with known exact solution and measurement metadata.

    ``reduced_exact`` marks cases whose ``exact`` solves the limiting
    first-order problem (epsilon = 0) rather than the full equation; for
    those the source check drops the diffusion term.  ``region`` is the
    measurement region, a predicate on element barycenters, or None for
    the whole domain.  ``quad_order`` is a floor, not an order: the CLI
    solves the case at max(quad_order, 2k + 2), and None means 2k + 2.
    """

    name: str
    problem: ProblemSpec
    exact: Callable
    exact_grad: Callable
    region: Optional[Callable]
    exact_max: float
    sample_box: Tuple[Tuple[float, float], Tuple[float, float]]
    quad_order: Optional[int] = None
    reduced_exact: bool = False


def case_smooth(epsilon):
    """u = sin(pi x) sin(pi y), b = (1, 1), c = 0, homogeneous Dirichlet."""
    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def exact_grad(x, y):
        return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))

    def f(x, y):
        sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
        return 2.0 * epsilon * np.pi ** 2 * sx * sy + np.pi * (cx * sy + sx * cy)

    problem = ProblemSpec(epsilon=epsilon, b=lambda x, y: (np.ones_like(x), np.ones_like(y)),
                          f=f)
    return ManufacturedCase(name="smooth", problem=problem, exact=exact,
                            exact_grad=exact_grad, region=None,
                            exact_max=1.0,
                            sample_box=((0.01, 0.99), (0.01, 0.99)))


def _layer_profile(t, eps, order):
    """1-D factor A(t) = sin(pi t / 2) (1 - exp((t - 1) / eps)) and its first
    ``order`` (0, 1 or 2) derivatives, (A, A', A'')[:order + 1], from one sin,
    exp and, for a derivative, cos; a derivative it does not return is not formed."""
    s = np.sin(0.5 * np.pi * t)
    e = np.exp((t - 1.0) / eps)
    out = [s * (1.0 - e)]
    if order >= 1:
        ds = 0.5 * np.pi * np.cos(0.5 * np.pi * t)
        out.append(ds * (1.0 - e) - s * e / eps)
    if order >= 2:
        d2s = -(0.5 * np.pi) ** 2 * s
        out.append(d2s * (1.0 - e) - 2.0 * ds * e / eps - s * e / eps ** 2)
    return tuple(out)


def _layer_max(eps):
    """Global maximum of the 1-D profile A: bisect [0, 1] on the sign of A'
    down to adjacent floats.  Exact, as A is strictly concave there: each
    term of A'' = s''(1 - e) - 2 s' e / eps - s e / eps^2 is <= 0 (s, s' >= 0,
    s'' <= 0, 0 < e <= 1), so A' falls from A'(0) > 0 to A'(1) < 0.  The
    sign is read from eps A' = eps s'(1 - e) - s e, which divides by nothing.
    """
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        s, e = np.sin(0.5 * np.pi * mid), np.exp((mid - 1.0) / eps)
        rising = eps * 0.5 * np.pi * np.cos(0.5 * np.pi * mid) * (1.0 - e) > s * e
        lo, hi = (mid, hi) if rising else (lo, mid)
    return float(max(_layer_profile(lo, eps, 0)[0], _layer_profile(hi, eps, 0)[0]))


def case_layer(epsilon):
    """Tensor-product solution with exponential layers along x = 1 and y = 1.

    u = sin(pi x / 2) sin(pi y / 2) (1 - e^{(x-1)/eps}) (1 - e^{(y-1)/eps}),
    b = (1, 1), c = 0, homogeneous Dirichlet everywhere.  Errors are
    measured on (0, 0.9)^2 where the solution is layer-free; the data
    quadrature is elevated because f varies on the eps scale.  The exact
    maximum is the square of the 1-D factor's, which is strictly concave on
    [0, 1]: :func:`_layer_max` bisects on the sign of A' once ProblemSpec
    has accepted epsilon.
    """
    def exact(x, y):
        return _layer_profile(x, epsilon, 0)[0] * _layer_profile(y, epsilon, 0)[0]

    def exact_grad(x, y):
        ax, dax = _layer_profile(x, epsilon, 1)
        ay, day = _layer_profile(y, epsilon, 1)
        return dax * ay, ax * day

    def f(x, y):
        ax, dax, d2ax = _layer_profile(x, epsilon, 2)
        ay, day, d2ay = _layer_profile(y, epsilon, 2)
        return -epsilon * (d2ax * ay + ax * d2ay) + dax * ay + ax * day

    problem = ProblemSpec(epsilon=epsilon, b=lambda x, y: (np.ones_like(x), np.ones_like(y)),
                          f=f)
    amax = _layer_max(epsilon)
    return ManufacturedCase(name="layer", problem=problem, exact=exact,
                            exact_grad=exact_grad, region=subsquare(0.9),
                            exact_max=amax * amax,
                            sample_box=((0.01, 0.89), (0.01, 0.89)),
                            quad_order=12)


def case_reduced_limit(epsilon):
    """Family approaching the first-order limit: u0 = x e^{-x}.

    b = (1, 0), c = 1, f = e^{-x}; u0 solves b . grad(u0) + c u0 = f with
    u0 = 0 on the inflow boundary x = 0.  Only the inflow is Dirichlet;
    the rest is Neumann with g_N = 0, so the epsilon-problem tends to the
    transport problem without closing a boundary layer in the measured
    distance.  rho = c - div(b)/2 = 1.
    """
    def exact(x, y):
        return x * np.exp(-x) * np.ones_like(y)

    def exact_grad(x, y):
        return (1.0 - x) * np.exp(-x) * np.ones_like(y), np.zeros_like(y)

    def f(x, y):
        return np.exp(-x) * np.ones_like(y)

    problem = ProblemSpec(epsilon=epsilon,
                          b=lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                          f=f, c=lambda x, y: np.ones_like(x),
                          boundary=dirichlet_where(lambda x, y: x < ON_BOUNDARY_TOL),
                          rho0=1.0)
    return ManufacturedCase(name="reduced_limit", problem=problem, exact=exact,
                            exact_grad=exact_grad, region=None,
                            exact_max=float(np.exp(-1.0)),
                            sample_box=((0.01, 0.99), (0.01, 0.99)),
                            reduced_exact=True)


CASES = {"smooth": case_smooth, "layer": case_layer, "reduced_limit": case_reduced_limit}
CASE_NAMES = tuple(CASES)


def get_case(name, epsilon):
    """Look up a case constructor by name."""
    if name not in CASES:
        raise ValueError(f"unknown case {name!r}; available: {', '.join(CASE_NAMES)}")
    return CASES[name](epsilon)


def _fd_step(eps):
    # Resolve the layer scale when it matters but keep the step large
    # enough that double-precision roundoff stays below the tolerance.
    return min(1e-3, max(2e-4, 0.02 * eps))


def _fd_derivatives(exact, x, y, h):
    """The exact solution at (x, y) and its first and second derivatives
    along x and along y by the stencils above, ``(u, (ux, uy), (uxx, uyy))``;
    each stencil point is evaluated once, the unshifted one for both axes."""
    def at(xs, ys):
        return eval_field(exact, xs, ys, "exact")

    def fd(samples, weights, order):
        return sum(w * v for v, w in zip(samples, weights) if w) / (12.0 * h ** order)

    center = at(x, y)
    along = ([at(x + s * h, y) if s else center for s in _FD_SHIFTS],
             [at(x, y + s * h) if s else center for s in _FD_SHIFTS])
    return center, [fd(a, _FD_FIRST, 1) for a in along], [fd(a, _FD_SECOND, 2) for a in along]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def verify_source_term(case):
    """Cross-check the hard-coded source against finite differences.

    At random sample points inside the case's sample box, the stated
    gradient is compared with a finite-difference gradient, and f is
    compared with -eps lap(u) + b . grad(u) + c u using a finite-difference
    laplacian (the diffusion term is dropped for reduced-limit cases).
    Residuals are scaled by 1 + |value|; the maximum scaled residual is
    returned, and a ValueError reports one above ``SOURCE_TOL`` (source)
    or ``GRAD_TOL`` (gradient), nan included; fields go through ``eval_field``,
    and the check's own arithmetic runs with floating-point warnings off.
    """
    rng = np.random.default_rng(SOURCE_CHECK_SEED)
    (xlo, xhi), (ylo, yhi) = case.sample_box
    x = rng.uniform(xlo, xhi, SOURCE_CHECK_POINTS)
    y = rng.uniform(ylo, yhi, SOURCE_CHECK_POINTS)
    problem = case.problem
    h = _fd_step(problem.epsilon)

    gx, gy = eval_field(case.exact_grad, x, y, "exact_grad", vector=True)
    center, (fx, fy), (uxx, uyy) = _fd_derivatives(case.exact, x, y, h)
    grad_resid = np.maximum(np.abs(gx - fx) / (1.0 + np.abs(gx)),
                            np.abs(gy - fy) / (1.0 + np.abs(gy)))
    worst_grad = float(grad_resid.max())
    if not worst_grad <= GRAD_TOL:
        i = int(np.argmax(grad_resid))
        raise ValueError(
            f"case {case.name}: gradient mismatch {worst_grad:.3e} at ({x[i]:.4f}, {y[i]:.4f})")

    bx, by = eval_field(problem.b, x, y, "b", vector=True)
    pde = bx * gx + by * gy
    if problem.c is not None:
        pde = pde + eval_field(problem.c, x, y, "c") * center
    if not case.reduced_exact:
        pde = pde - problem.epsilon * (uxx + uyy)
    fv = eval_field(problem.f, x, y, "f")
    resid = np.abs(fv - pde) / (1.0 + np.abs(fv))
    worst = float(resid.max())
    if not worst <= SOURCE_TOL:
        i = int(np.argmax(resid))
        raise ValueError(
            f"case {case.name}: source mismatch {worst:.3e} at ({x[i]:.4f}, {y[i]:.4f})")
    return max(worst, worst_grad)
