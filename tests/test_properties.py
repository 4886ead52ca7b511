"""Property-based checks on drawn meshes and values (Hypothesis, derandomized).

Each mesh example draws a square grid of n = 2..5 cells per side, moves
every interior vertex by up to 0.2 h, permutes the elements, relabels the
vertices and rotates each triangle's vertex order, so every element has its
own shape, numbering and slot orientation.  The dump writer's examples are
lists of any doubles, NaN, infinities and subnormals included.
``derandomize=True`` and no
example database keep the run deterministic; Hypothesis still caches the
constants it reads from local source files under ``.hypothesis/``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hdgcd.analysis import conservation_residual, error_l2  # noqa: E402
from hdgcd.assembly import ProblemSpec  # noqa: E402
from hdgcd.cli import _format_rows  # noqa: E402
from hdgcd.mesh import dirichlet_where  # noqa: E402
from hdgcd.solver import solve_hdg, solve_monolithic  # noqa: E402
from test_unstructured import bilinear_problem, relabelled_mesh  # noqa: E402

_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def drawn_meshes(draw, boundary):
    n = draw(st.integers(min_value=2, max_value=5))

    def jitter(k):
        r = draw(st.lists(_UNIT, min_size=k, max_size=k))
        theta = draw(st.lists(_UNIT, min_size=k, max_size=k))
        return 0.2 / n * np.array(r), 2.0 * np.pi * np.array(theta)

    def permute(size):
        return np.array(draw(st.permutations(range(size))))

    def rotate(nt):
        return np.array(draw(st.lists(st.integers(0, 2), min_size=nt, max_size=nt)))

    return relabelled_mesh(n, boundary, jitter, permute, rotate)


PROBLEM, _, F_SUP = bilinear_problem()


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(mesh=drawn_meshes(PROBLEM.boundary), degree=st.integers(min_value=1, max_value=3))
def test_condensed_matches_monolithic(mesh, degree):
    cond = solve_hdg(PROBLEM, mesh, degree=degree)
    mono = solve_monolithic(PROBLEM, mesh, degree=degree)
    gap = max(np.abs(cond.u - mono.u).max(), np.abs(cond.uhat - mono.uhat).max())
    assert gap <= 1e-10 * np.abs(mono.u).max()
    # and each element balances its fluxes, as on the seeded jittered mesh
    assert np.abs(conservation_residual(cond, PROBLEM)).max() <= 1e-12 * (1.0 + F_SUP)


def polynomial(terms):
    """u = sum c x^a y^b over the (c, a, b) ``terms``, with its gradient and
    Laplacian, as functions of the coordinate arrays."""
    def field(dx, dy):
        def value(x, y):
            total = np.zeros_like(x)
            for c, a, b in terms:
                # the falling factorials vanish where a derivative passes the power
                fac = np.prod(np.arange(a, a - dx, -1)) * np.prod(np.arange(b, b - dy, -1))
                total = total + c * fac * x ** max(a - dx, 0) * y ** max(b - dy, 0)
            return total
        return value

    return field(0, 0), field(1, 0), field(0, 1), (field(2, 0), field(0, 2))


OUTFLOW = dirichlet_where(lambda x, y: x < 1e-12)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(mesh=drawn_meshes(OUTFLOW), degree=st.integers(min_value=1, max_value=3),
       coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6))
def test_polynomial_of_the_degree_is_reproduced(mesh, degree, coeffs):
    # u = x q(x, y) with q in P_{k-1} vanishes on the Dirichlet side x = 0;
    # b = (1, 0) and eps = 1, so f = -lap(u) + u_x and g_N = du/dn on the
    # Neumann sides x = 1, y = 0 and y = 1.  The pair (u, u on the skeleton)
    # solves the scheme, so the solve must return it on every drawn mesh.
    q = [(tot - j, j) for tot in range(degree) for j in range(tot + 1)]
    u, ux, uy, (uxx, uyy) = polynomial([(c, a + 1, b) for c, (a, b) in zip(coeffs, q)])
    problem = ProblemSpec(
        epsilon=1.0, b=lambda x, y: (np.ones_like(x), np.zeros_like(y)),
        f=lambda x, y: -(uxx(x, y) + uyy(x, y)) + ux(x, y),
        g_N=lambda x, y: np.where(x > 1.0 - 1e-12, ux(x, y),
                                  np.where(y < 1e-12, -uy(x, y), uy(x, y))),
        boundary=OUTFLOW)
    assert error_l2(solve_hdg(problem, mesh, degree=degree), u) <= 1e-11


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       min_size=1, max_size=40))
def test_dump_writer_equals_percent_formatting(values):
    # the vectorized writer prints every double, also the ones it hands to
    # Python (near-ties, non-finite, three-digit exponents), as %.12e does
    x = np.array(values)
    assert _format_rows(x[:, None]) == "".join("%.12e\n" % v for v in values).encode()
