"""Property-based checks on drawn meshes (Hypothesis, derandomized).

Each example draws a square grid of n = 2..5 cells per side, moves every
interior vertex by up to 0.2 h, permutes the elements, relabels the
vertices and rotates each triangle's vertex order, so every element has its
own shape, numbering and slot orientation.  ``derandomize=True`` and no
example database keep the run deterministic; Hypothesis still caches the
constants it reads from local source files under ``.hypothesis/``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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


PROBLEM = bilinear_problem()[0]


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(mesh=drawn_meshes(PROBLEM.boundary), degree=st.integers(min_value=1, max_value=3))
def test_condensed_matches_monolithic(mesh, degree):
    cond = solve_hdg(PROBLEM, mesh, degree=degree)
    mono = solve_monolithic(PROBLEM, mesh, degree=degree)
    gap = max(np.abs(cond.u - mono.u).max(), np.abs(cond.uhat - mono.uhat).max())
    assert gap <= 1e-10 * np.abs(mono.u).max()
