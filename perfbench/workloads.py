"""Workload inputs, ops and correctness gates for the hdgcd benchmark.

Every op builds a fresh mesh, as the CLI does, so the per-mesh assembly
context cache starts cold for each op, as it does for users.  All calls go
through module attributes (``hdgcd.solver.solve_hdg``), so the traced run's
wrappers see the same calls the untraced run makes.

Workloads (the reasons are repeated in BENCHMARK.json):

* ``smooth_k1_n32``: smooth case, eps = 1e-3, k = 1, uniform 32x32 mesh;
  one op is mesh, ``solve_hdg``, three error norms and the conservation
  residual.  2048 elements, so the per-element loops of assembly,
  condensation, recovery and analysis carry the time.
* ``smooth_k3_jitter``: smooth case, k = 3, on a 32x32 mesh jittered and
  renumbered from the seed; one op is mesh and ``solve_hdg``, the checks are
  untimed.  10x10 interior blocks with 12 trace columns weight condensation
  and the skeleton solve; every element has its own geometry.
* ``layer_study``: ``hdgcd.cli.main`` running the layer study at
  eps = 1e-6 on meshes 8, 16, 32 with dumps to disk; the only workload
  that runs SUPG, the source check and the CLI writers.

The meshes are smaller than the studies' largest ones so that a run of a
few tens of seconds holds a dozen or more ops: op times on a shared host
vary by 10-20% from op to op, and only the median of many is steady.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import hdgcd.analysis
import hdgcd.cli
import hdgcd.mesh
import hdgcd.problems
import hdgcd.solver
import spans

JITTER = 0.2            # interior vertices move by at most JITTER * h
ORACLE_N = 6            # mesh size of the setup oracle
ORACLE_RTOL = 1e-10     # condensed vs monolithic, relative to max |u|

# Error norms of the smooth case (eps = 1e-3) on the uniform 32x32 mesh.
SMOOTH_K1_N32 = {"err_l2": 4.5626417808049247e-04, "err_h1": 9.406306169669587e-02,
                 "err_hdg": 5.719969672903266e-03}
SMOOTH_K3_N32 = {"err_l2": 8.674158291078045e-08, "err_h1": 3.431505228895193e-05,
                 "err_hdg": 5.116295522575452e-06}
# Reruns agree to round-off.  Renumbering does not: rotating a triangle's
# first vertex moves the points of the (collapsed, unsymmetric) assembly
# quadrature, which shifts err_l2 at k = 3 in its 7th digit; the absolute
# floor covers that.
ERR_RTOL = 1e-6
ERR_ATOL = 1e-12
# A jittered mesh changes the errors, so the seed-independent check against
# the uniform-mesh values is a band; the tight check is against the same
# jittered geometry in canonical numbering (see smooth_k3_jitter).
JITTER_BAND = (0.8, 1.6)
CONSERVATION_RTOL = 1e-12

LAYER_MESHES = "8,16,32"
LAYER_COLUMNS = ("n,h,dofs_total,dofs_skeleton,err_l2,err_h1,err_hdg,"
                 "rate_l2,rate_h1,overshoot_hdg,overshoot_supg").split(",")
# `hdgcd --study layer --epsilon 1e-6 --n 8,16,32` rows.
LAYER_REFERENCE = [
    "8,1.767766952966e-01,736,352,1.265527955120e-03,7.335639398539e-02,7.533523333448e-03,,,3.073019536766e-03,1.653353539048e-01",
    "16,8.838834764832e-02,3008,1472,3.329142794673e-04,3.790026756724e-02,2.812154695243e-03,1.926517,0.952715,5.467716032821e-04,1.912678138294e-01",
    "32,4.419417382416e-02,12160,6016,8.352525785070e-05,1.900788047831e-02,9.998599462050e-04,1.994866,0.995610,-3.109233987135e-04,1.976998216866e-01",
]
LAYER_RTOL = 1e-8
LAYER_OVERSHOOT_ATOL = 1e-10
HDG_OVERSHOOT_MAX = 0.05    # acceptance criterion 7


# ---------------------------------------------------------------- inputs

def uniform_arrays(n):
    """Vertices and triangles of the uniform n-by-n mesh (SW-NE diagonals)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    p00 = (j * (n + 1) + i).ravel()
    p10, p01, p11 = p00 + 1, p00 + n + 1, p00 + n + 2
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([p00, p10, p11])
    triangles[1::2] = np.column_stack([p00, p11, p01])
    return vertices, triangles


def jittered_arrays(n, seed):
    """Seeded jittered and renumbered n-by-n mesh.

    Returns ``(canonical, permuted)``: each a ``(vertices, triangles)`` pair
    of the same geometry.  Interior vertices move by at most JITTER * h in a
    uniformly random direction; boundary vertices stay, so boundary tags
    are unchanged.  The permuted copy renumbers vertices and elements and
    rotates each triangle's starting vertex (which keeps its orientation).
    """
    rng = np.random.default_rng(seed)
    vertices, triangles = uniform_arrays(n)
    h = 1.0 / n
    inner = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    k = int(inner.sum())
    r = JITTER * h * np.sqrt(rng.random(k))
    theta = 2.0 * np.pi * rng.random(k)
    vertices[inner] += np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    new_id = rng.permutation(vertices.shape[0])
    perm_vertices = np.empty_like(vertices)
    perm_vertices[new_id] = vertices
    perm_triangles = new_id[triangles][rng.permutation(triangles.shape[0])]
    shift = rng.integers(0, 3, perm_triangles.shape[0])
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    perm_triangles = np.take_along_axis(perm_triangles, cols, axis=1)
    return (vertices, triangles), (perm_vertices, perm_triangles)


def mesh_from_arrays(vertices, triangles, boundary):
    """The library mesh of generated arrays; a module attribute so the
    traced run can wrap it as the mesh layer."""
    return hdgcd.mesh.Mesh(vertices, triangles, boundary=boundary)


def orientation(vertices, triangles):
    """Twice the signed area of every triangle."""
    p = vertices[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


# ---------------------------------------------------------------- gates

def _sup_f(problem):
    xs = np.linspace(0.0, 1.0, 201)
    x, y = np.meshgrid(xs, xs)
    return float(np.abs(np.asarray(problem.f(x, y))).max())


def measure(sol, case):
    """Error norms and the worst element conservation defect of a solve."""
    a = hdgcd.analysis
    return {
        "err_l2": a.error_l2(sol, case.exact),
        "err_h1": a.error_h1_broken(sol, case.exact_grad),
        "err_hdg": a.error_hdg(sol, case.exact, case.problem, sol.info["eta"]).err_hdg,
        "conservation": float(np.abs(a.conservation_residual(sol, case.problem)).max()),
    }


def gate_errors(values, reference, conservation_tol, rtol=ERR_RTOL, atol=ERR_ATOL):
    """Failure messages for measured values against a reference (empty: pass)."""
    bad = []
    for key, ref in reference.items():
        val = values[key]
        if not abs(val - ref) <= atol + rtol * abs(ref):
            bad.append(f"{key}={val!r} differs from reference {ref!r}")
    if not values["conservation"] <= conservation_tol:
        bad.append(f"conservation defect {values['conservation']:.3e} > {conservation_tol:.1e}")
    return bad


def gate_band(values, reference, band=JITTER_BAND):
    lo, hi = band
    return [f"{key}={values[key]!r} outside [{lo}, {hi}] x {ref!r}"
            for key, ref in reference.items() if not lo * ref <= values[key] <= hi * ref]


def gate_layer_csv(text):
    """Failure messages for a layer-study CSV against LAYER_REFERENCE."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if len(rows) != len(LAYER_REFERENCE):
        return [f"expected {len(LAYER_REFERENCE)} rows, got {len(rows)}: {text!r}"]
    bad = []
    for got, want in zip(csv.reader(rows), csv.reader(LAYER_REFERENCE)):
        for col, g, w in zip(LAYER_COLUMNS, got, want):
            if col.startswith("overshoot"):
                ok = abs(float(g) - float(w)) <= LAYER_OVERSHOOT_ATOL
            elif col.startswith("rate") or col in ("h", "n", "dofs_total", "dofs_skeleton") or not w:
                ok = g == w
            else:
                ok = abs(float(g) - float(w)) <= LAYER_RTOL * abs(float(w))
            if not ok:
                bad.append(f"n={got[0]} {col}: {g} != reference {w}")
        if not float(got[-2]) <= HDG_OVERSHOOT_MAX:
            bad.append(f"n={got[0]}: HDG overshoot {got[-2]} > {HDG_OVERSHOOT_MAX}")
        if not float(got[-1]) > 0.0:
            bad.append(f"n={got[0]}: SUPG overshoot {got[-1]} is not positive")
    return bad


def oracle(case, degree, seed):
    """Setup oracle on a small seeded jittered mesh (empty list: pass).

    A same-seed rebuild must give identical arrays, and the condensed and
    monolithic solves must agree to ORACLE_RTOL.
    """
    first = jittered_arrays(ORACLE_N, seed)
    again = jittered_arrays(ORACLE_N, seed)
    bad = []
    if not all(np.array_equal(a, b) for pa, pb in zip(first, again) for a, b in zip(pa, pb)):
        bad.append("same-seed rebuild of the jittered mesh differs")
    vertices, triangles = first[1]
    mesh = hdgcd.mesh.Mesh(vertices, triangles, boundary=case.problem.boundary)
    cond = hdgcd.solver.solve_hdg(case.problem, mesh, degree=degree, quad_order=case.quad_order)
    mono = hdgcd.solver.solve_monolithic(case.problem, mesh, degree=degree,
                                         quad_order=case.quad_order)
    scale = max(float(np.abs(mono.u).max()), float(np.abs(mono.uhat).max(initial=0.0)))
    gap = max(float(np.abs(cond.u - mono.u).max()),
              float(np.abs(cond.uhat - mono.uhat).max(initial=0.0)))
    if not gap <= ORACLE_RTOL * scale:
        bad.append(f"condensed vs monolithic gap {gap:.3e} > {ORACLE_RTOL:.0e} x {scale:.3e}")
    return bad


# ---------------------------------------------------------------- workloads

@dataclass
class OpResult:
    dofs: int                       # HDG plus SUPG dofs solved in the op
    failures: list                  # correctness gate messages, empty when correct
    counts: dict = field(default_factory=dict)


class Workload:
    """One benchmark workload: seeded inputs, a timed op and its gate.

    ``op()`` is the timed part and returns an opaque value; ``check(value)``
    runs untimed and returns an :class:`OpResult`.  ``close()`` removes
    anything the workload wrote.
    """

    name = ""
    degree = 1

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def setup_failures(self):
        return oracle(self.case, self.degree, self.seed)

    def cold_op(self):
        """The untimed first op that set-up includes."""
        return self.check(self.op())

    def close(self):
        pass


class SmoothK1(Workload):
    name = "smooth_k1_n32"
    n = 32
    degree = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.case = hdgcd.problems.case_smooth(1e-3)
        self.cons_tol = CONSERVATION_RTOL * (1.0 + _sup_f(self.case.problem))

    def op(self):
        mesh = hdgcd.mesh.build_uniform_triangulation(self.n, self.case.problem.boundary)
        sol = hdgcd.solver.solve_hdg(self.case.problem, mesh, degree=self.degree,
                                     quad_order=self.case.quad_order)
        return sol.info["dofs_total"], measure(sol, self.case)

    def check(self, value):
        dofs, values = value
        return OpResult(dofs, gate_errors(values, SMOOTH_K1_N32, self.cons_tol))


class SmoothK3Jitter(Workload):
    name = "smooth_k3_jitter"
    n = 32
    degree = 3
    band_reference = SMOOTH_K3_N32

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.case = hdgcd.problems.case_smooth(1e-3)
        self.cons_tol = CONSERVATION_RTOL * (1.0 + _sup_f(self.case.problem))
        self.canonical, self.permuted = jittered_arrays(self.n, seed)
        self.reference = None

    def _solve(self, arrays):
        mesh = mesh_from_arrays(*arrays, self.case.problem.boundary)
        return hdgcd.solver.solve_hdg(self.case.problem, mesh, degree=self.degree,
                                      quad_order=self.case.quad_order)

    def cold_op(self):
        # The cold op solves the same geometry in canonical numbering; its
        # errors are the reference every renumbered op must reproduce.
        sol = self._solve(self.canonical)
        values = measure(sol, self.case)
        failures = gate_band(values, self.band_reference) + gate_errors(values, {}, self.cons_tol)
        self.reference = {k: values[k] for k in SMOOTH_K3_N32}
        return OpResult(sol.info["dofs_total"], failures)

    def op(self):
        return self._solve(self.permuted)

    def check(self, sol):
        values = measure(sol, self.case)
        return OpResult(sol.info["dofs_total"],
                        gate_errors(values, self.reference, self.cons_tol))


class LayerStudy(Workload):
    name = "layer_study"
    degree = 1

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.case = hdgcd.problems.case_layer(1e-6)
        self.outdir = tempfile.mkdtemp(prefix="layer-", dir=scratch)
        self.out = os.path.join(self.outdir, "layer.csv")
        self.dofs = None

    def op(self):
        return hdgcd.cli.main(["--study", "layer", "--epsilon", "1e-6",
                               "--n", LAYER_MESHES, "--out", self.out])

    def cold_op(self):
        # Count the dofs of every HDG and SUPG solve once; the study is
        # deterministic, so timed ops reuse the count.
        def count(sol, args, kwargs):
            return {"dofs": int(sol.info["dofs_total"])}

        tracer = spans.Tracer()
        with spans.install(tracer, [("hdg", hdgcd.cli, "solve_hdg", count),
                                    ("supg", hdgcd.cli, "solve_supg", count)]):
            value = self.op()
        self.dofs = sum(s.counts["dofs"] for s in tracer.spans)
        return self.check(value)

    def check(self, rc):
        if rc != 0:
            return OpResult(self.dofs, [f"hdgcd.cli.main returned {rc}"])
        with open(self.out) as fh:
            text = fh.read()
        written = sum(os.path.getsize(os.path.join(self.outdir, f))
                      for f in os.listdir(self.outdir))
        return OpResult(self.dofs, gate_layer_csv(text), {"cli.bytes_written": written})

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SmoothK1, SmoothK3Jitter, LayerStudy)}
