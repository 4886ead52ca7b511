from dataclasses import replace

import numpy as np
import pytest

from hdgcd.analysis import _error_context
from hdgcd.problems import (CASE_NAMES, ManufacturedCase, _layer_max, _layer_profile,
                            case_layer, case_reduced_limit, case_smooth, get_case,
                            verify_source_term)
from test_unstructured import jittered_mesh

# maximum of the 1-D layer factor as the bounded Brent search that preceded
# the bisection found it (grid start, xatol 1e-14), recorded per epsilon
BRENT_LAYER_MAX = {
    10.0: 0.03476458308565101,
    1.0: 0.27823833072447407,
    1e-1: 0.8501569816607341,
    1e-2: 0.993299521459057,
    1e-3: 0.9998364997539858,
    1e-4: 0.9999969241649238,
    1e-5: 0.9999999499359926,
    1e-6: 0.9999999992565904,
    1e-7: 0.9999999999896363,
    1e-8: 0.9999999999998621,
    1e-9: 0.9999999999999982,
    1e-10: 1.0,
    1e-11: 1.0,
    1e-12: 1.0,
}


def test_smooth_case_fields():
    case = case_smooth(1e-3)
    assert case.exact(0.5, 0.5) == pytest.approx(1.0)
    assert case.exact(0.0, 0.7) == pytest.approx(0.0, abs=1e-15)
    gx, gy = case.exact_grad(0.5, 0.25)
    assert gx == pytest.approx(0.0, abs=1e-15)
    assert gy == pytest.approx(np.pi * np.sin(np.pi * 0.25), rel=1e-14)
    assert case.exact_max == 1.0
    assert case.problem.epsilon == 1e-3
    assert case.region is None


def test_smooth_source_verified_for_all_epsilons():
    for eps in (1.0, 1e-3, 1e-6):
        worst = verify_source_term(case_smooth(eps))
        assert worst < 1e-8


def test_layer_profile_values():
    case = case_layer(1e-6)
    # away from the layer the exponential underflows to exactly zero
    assert case.exact(0.5, 0.5) == pytest.approx(np.sin(np.pi / 4) ** 2, rel=1e-14)
    # on the outflow boundary the solution vanishes
    assert case.exact(1.0, 0.5) == 0.0
    assert case.exact(0.5, 1.0) == 0.0


def test_layer_exact_max_oracles():
    # frozen values; consistent with the boundary-layer asymptotics
    # max A ~ 1 - (pi eps s / 2)^2 / 2 - e^{-s}, s = log(4 / (pi^2 eps^2 s))
    assert case_layer(1e-3).exact_max == pytest.approx(0.9996730262403021, rel=1e-12)
    assert case_layer(1e-6).exact_max == pytest.approx(0.9999999985131809, rel=1e-12)


def test_layer_exact_max_dominates_grid():
    case = case_layer(1e-4)
    t = np.linspace(0.0, 1.0, 2001)
    xg, yg = np.meshgrid(t, t)
    vals = case.exact(xg, yg)
    assert vals.max() <= case.exact_max + 1e-15
    assert vals.max() > case.exact_max - 1e-4
    assert case.exact_max < 1.0


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
def test_layer_slope_is_the_profile_without_its_second_derivative(eps):
    # the exact solution's A and the gradient's (A, A') are the order-2
    # profile's first outputs bit for bit, also inside the layer, within
    # 50 eps of t = 1, and each is the one expression it always was
    rng = np.random.default_rng(29)
    t = np.concatenate([rng.uniform(0.0, 1.0, 2000), 1.0 - eps * rng.uniform(0.0, 50.0, 2000),
                        [0.0, 1.0]])
    t = t[t >= 0.0]
    s, e = np.sin(0.5 * np.pi * t), np.exp((t - 1.0) / eps)
    formulas = (s * (1.0 - e), 0.5 * np.pi * np.cos(0.5 * np.pi * t) * (1.0 - e) - s * e / eps)
    full = _layer_profile(t, eps, 2)
    assert len(full) == 3
    for order in (0, 1):
        got = _layer_profile(t, eps, order)
        assert len(got) == order + 1
        for a, b, c in zip(got, full, formulas):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
            assert np.array_equal(a.view(np.uint64), c.view(np.uint64))


@pytest.mark.parametrize("eps", BRENT_LAYER_MAX)
def test_layer_max_bisection(eps):
    # its premise: A'' <= 0 on [0, 1], sampled densely overall and in the layer
    t = np.concatenate([np.linspace(0.0, 1.0, 100001), 1.0 - eps * np.linspace(0.0, 80.0, 8001)])
    assert _layer_profile(t[t >= 0.0], eps, 2)[2].max() <= 0.0
    # at least the best A on the grid the Brent search started from, less 1 ulp
    grid = np.clip(np.concatenate([np.linspace(0.0, 1.0, 4001),
                                   1.0 - eps * np.linspace(0.0, 80.0, 4001)]), 0.0, 1.0)
    best = _layer_profile(grid, eps, 0)[0].max()
    amax = _layer_max(eps)
    assert amax >= best - np.spacing(best)
    assert amax == pytest.approx(BRENT_LAYER_MAX[eps], rel=1e-14, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_layer_case_builds_at_tiny_epsilon():
    # warnings are errors in this suite: no 0/0 or overflow on the way
    case = case_layer(1e-200)
    assert case.exact_max == pytest.approx(1.0, rel=1e-15)
    assert case.exact(0.5, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_layer_source_verified():
    for eps in (1e-3, 1e-6):
        assert verify_source_term(case_layer(eps)) < 1e-8


def test_layer_case_metadata():
    case = case_layer(1e-6)
    assert case.quad_order == 12
    assert case.region(0.89, 0.89) and not case.region(0.91, 0.5)


def test_reduced_limit_case():
    case = case_reduced_limit(1e-4)
    # u0 = x e^{-x} solves the transport equation: grad term + u0 = e^{-x}
    x = np.linspace(0.0, 1.0, 11)
    gx, _ = case.exact_grad(x, x)
    resid = gx + case.exact(x, x) - np.exp(-x)
    assert np.abs(resid).max() < 1e-14
    assert case.exact_max == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert case.reduced_exact
    assert verify_source_term(case) < 1e-8
    # only the inflow boundary is Dirichlet
    from hdgcd.mesh import BoundaryTag, build_uniform_triangulation
    mesh = build_uniform_triangulation(4, case.problem.boundary)
    for e in mesh.boundary_edges:
        x_mid = mesh.edge_midpoints[e, 0]
        expect = BoundaryTag.DIRICHLET if x_mid < 1e-12 else BoundaryTag.NEUMANN
        assert mesh.edge_tags[e] == int(expect)


def test_reduced_limit_boundary_rule_is_tight():
    # the bottom edge (0, 0)-(2e-4, 0) touches the inflow side x = 0, but its
    # midpoint lies 1e-4 off it: the edge is Neumann, not Dirichlet
    from hdgcd.mesh import BoundaryTag, Mesh
    vertices = np.array([[0.0, 0.0], [2e-4, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(vertices, np.array([[0, 1, 4], [1, 2, 3], [1, 3, 4]]),
                case_reduced_limit(1e-4).problem.boundary)
    tags = {tuple(int(v) for v in mesh.edges[e]): int(mesh.edge_tags[e])
            for e in mesh.boundary_edges}
    assert tags == {(0, 1): BoundaryTag.NEUMANN, (1, 2): BoundaryTag.NEUMANN,
                    (2, 3): BoundaryTag.NEUMANN, (3, 4): BoundaryTag.NEUMANN,
                    (0, 4): BoundaryTag.DIRICHLET}


def test_get_case_dispatch():
    assert get_case("smooth", 1.0).name == "smooth"
    assert get_case("layer", 1e-3).name == "layer"
    assert get_case("reduced_limit", 1e-2).name == "reduced_limit"
    with pytest.raises(ValueError):
        get_case("ramp", 1.0)
    with pytest.raises(ValueError):
        case_smooth(0.0)
    with pytest.raises(ValueError, match="^diffusion coefficient must be positive and finite"):
        case_smooth(np.inf)
    # every case hands epsilon to ProblemSpec first (the layer maximum would divide by it)
    for name in CASE_NAMES:
        with pytest.raises(ValueError, match="^diffusion coefficient must be positive and finite"):
            get_case(name, 0.0)


@pytest.mark.parametrize("make", [case_smooth, case_layer, case_reduced_limit])
def test_verify_source_term_evaluates_each_stencil_point_once(make):
    # the first- and second-derivative stencils share their samples of the
    # exact solution, and the reaction term reads the unshifted one: (x, y)
    # and four shifts per axis, where each check once took 18 evaluations
    case = make(1e-3)
    points = []

    def exact(x, y):
        points.append(np.column_stack([x, y]).tobytes())
        return case.exact(x, y)

    assert verify_source_term(replace(case, exact=exact)) == verify_source_term(case)
    assert len(points) == len(set(points)) == 9


def test_verify_source_term_catches_wrong_source():
    good = case_smooth(1e-3)
    bad_problem = type(good.problem)(
        epsilon=good.problem.epsilon, b=good.problem.b,
        f=lambda x, y: np.asarray(good.problem.f(x, y)) + 0.01,
        c=good.problem.c, g_N=good.problem.g_N,
        boundary=good.problem.boundary, rho0=good.problem.rho0)
    bad = ManufacturedCase(
        name="smooth", problem=bad_problem, exact=good.exact,
        exact_grad=good.exact_grad, exact_jet=good.exact_jet, region=good.region,
        exact_max=good.exact_max, sample_box=good.sample_box)
    with pytest.raises(ValueError) as err:
        verify_source_term(bad)
    assert "source mismatch" in str(err.value)


@pytest.mark.parametrize("name,field,message", [
    ("f", lambda x, y: np.full_like(x, np.nan), "field f has non-finite values"),
    ("exact", lambda x, y: np.full_like(x, np.nan), "field exact has non-finite values"),
    ("exact_grad", lambda x, y: (x[:10], y[:10]),
     r"field exact_grad does not evaluate to two components of point shape \(1000,\)"),
])
def test_verify_source_term_names_a_bad_field(name, field, message):
    # a NaN source or exact solution read nan and passed; a misshapen
    # gradient failed inside numpy's broadcasting
    case = case_smooth(1.0)
    if name == "f":
        case = replace(case, problem=replace(case.problem, f=field))
    else:
        case = replace(case, **{name: field})
    with pytest.raises(ValueError, match=f"^{message}"):
        verify_source_term(case)


def test_verify_source_term_catches_wrong_gradient():
    # off by 1e-4, far above GRAD_TOL; the source check would also see it
    # through b . grad(u), so the gradient check must be the one to fail
    good = case_smooth(1.0)

    def grad(x, y):
        gx, gy = good.exact_grad(x, y)
        return gx + 1e-4, gy + 1e-4

    with pytest.raises(ValueError, match="^case smooth: gradient mismatch"):
        verify_source_term(replace(good, exact_grad=grad))


JET_CASES = [("smooth", 1e-3), ("layer", 1e-6), ("layer", 1e-2), ("reduced_limit", 1e-3)]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name,eps", JET_CASES)
def test_exact_jet_equals_exact_and_exact_grad_bit_for_bit(name, eps):
    # errors reads the value and gradient from the jet alone; the single
    # measures read exact and exact_grad, and both must give one number
    assert {case for case, _ in JET_CASES} == set(CASE_NAMES)
    case = get_case(name, eps)
    mesh = jittered_mesh(5, case.problem.boundary)
    points = _error_context(mesh, 1).X_vol   # the order-12 volume points
    x, y = points[..., 0], points[..., 1]
    value, (gx, gy) = case.exact_jet(x, y)
    exact_gx, exact_gy = case.exact_grad(x, y)
    assert value.shape == gx.shape == gy.shape == x.shape
    assert (_bits(value) == _bits(case.exact(x, y))).all()
    assert (_bits(gx) == _bits(exact_gx)).all()
    assert (_bits(gy) == _bits(exact_gy)).all()
