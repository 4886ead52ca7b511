"""Fast checks of the benchmark's own generators, gates and tracer.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

Everything runs on meshes of at most 8x8 cells, apart from the timed
workloads.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_hdgcd()

import numpy as np  # noqa: E402

import hdgcd.mesh  # noqa: E402
import hdgcd.problems  # noqa: E402
import hdgcd.solver  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _rows(vertices, triangles):
    """Each triangle as the sorted tuple of its vertex coordinates."""
    pts = np.round(vertices[triangles], 15)
    return sorted(tuple(sorted(map(tuple, tri))) for tri in pts)


class JitteredMeshTest(unittest.TestCase):

    def test_positively_oriented(self):
        for seed in range(5):
            for n in (2, 5, 8):
                for vertices, triangles in workloads.jittered_arrays(n, seed):
                    self.assertTrue((workloads.orientation(vertices, triangles) > 0).all())
                    hdgcd.mesh.Mesh(vertices, triangles)   # re-checks orientation

    def test_jitter_bounded_and_boundary_fixed(self):
        n = 8
        base, _ = workloads.uniform_arrays(n)
        (vertices, _), _ = workloads.jittered_arrays(n, 3)
        shift = np.hypot(*(vertices - base).T)
        self.assertLessEqual(shift.max(), workloads.JITTER / n + 1e-15)
        on_boundary = ((base == 0.0) | (base == 1.0)).any(axis=1)
        self.assertTrue((shift[on_boundary] == 0.0).all())
        self.assertTrue((shift[~on_boundary] > 0.0).all())

    def test_permutation_is_a_bijection(self):
        (cv, ct), (pv, pt) = workloads.jittered_arrays(6, 7)
        self.assertEqual(sorted(map(tuple, cv)), sorted(map(tuple, pv)))
        self.assertEqual(sorted(set(pt.ravel())), list(range(len(pv))))
        self.assertEqual(sorted(np.bincount(pt.ravel())), sorted(np.bincount(ct.ravel())))
        self.assertEqual(_rows(cv, ct), _rows(pv, pt))
        self.assertFalse(np.array_equal(ct, pt))

    def test_same_seed_same_arrays(self):
        a = workloads.jittered_arrays(5, 11)
        b = workloads.jittered_arrays(5, 11)
        c = workloads.jittered_arrays(5, 12)
        for pa, pb, pc in zip(a, b, c):
            for x, y, z in zip(pa, pb, pc):
                self.assertTrue(np.array_equal(x, y))
            self.assertFalse(np.array_equal(pa[0], pc[0]))

    def test_uniform_arrays_match_library_mesh(self):
        vertices, triangles = workloads.uniform_arrays(5)
        mesh = hdgcd.mesh.build_uniform_triangulation(5)
        self.assertTrue(np.array_equal(vertices, mesh.vertices))
        self.assertTrue(np.array_equal(triangles, mesh.triangles))


class GateTest(unittest.TestCase):

    def setUp(self):
        self.case = hdgcd.problems.case_smooth(1e-3)
        (_, _), arrays = workloads.jittered_arrays(4, 5)
        mesh = hdgcd.mesh.Mesh(*arrays, boundary=self.case.problem.boundary)
        self.sol = hdgcd.solver.solve_hdg(self.case.problem, mesh, degree=2)
        self.tol = 1e-12 * 10.0

    def test_gate_passes_the_solution(self):
        values = workloads.measure(self.sol, self.case)
        self.assertEqual(workloads.gate_errors(values, dict(values), self.tol), [])

    def test_gate_fails_a_perturbed_solution(self):
        values = workloads.measure(self.sol, self.case)
        reference = {k: values[k] for k in ("err_l2", "err_h1", "err_hdg")}
        self.sol.u[3, 1] += 1e-3
        bad = workloads.gate_errors(workloads.measure(self.sol, self.case), reference, self.tol)
        self.assertTrue(any("conservation" in b for b in bad), bad)
        self.assertTrue(any("err_l2" in b for b in bad), bad)

    def test_band(self):
        ref = {"err_l2": 1.0}
        self.assertEqual(workloads.gate_band({"err_l2": 1.2}, ref), [])
        self.assertEqual(len(workloads.gate_band({"err_l2": 3.0}, ref)), 1)

    def test_layer_csv_gate(self):
        head = "# hdgcd layer v1\n# config\n"
        good = head + "\n".join(workloads.LAYER_REFERENCE) + "\n"
        self.assertEqual(workloads.gate_layer_csv(good), [])
        rows = list(workloads.LAYER_REFERENCE)
        rows[1] = rows[1].replace("3.329142794673e-04", "3.329242794673e-04")
        self.assertEqual(len(workloads.gate_layer_csv(head + "\n".join(rows))), 1)
        self.assertTrue(workloads.gate_layer_csv(head + "\n".join(rows[:2])))
        over = list(workloads.LAYER_REFERENCE)
        over[0] = over[0].replace("3.073019536766e-03", "6.0e-02")
        self.assertTrue(any("HDG overshoot" in b for b in workloads.gate_layer_csv(head + "\n".join(over))))

    def test_oracle_passes(self):
        self.assertEqual(workloads.oracle(self.case, 2, 9), [])


class TinyJitter(workloads.SmoothK3Jitter):
    n = 4
    degree = 2
    band_reference = {}


class TracerTest(unittest.TestCase):

    def test_self_times_sum_within_op(self):
        w = TinyJitter(1, None)
        self.assertEqual(w.cold_op().failures, [])
        tracer = spans.Tracer()
        fails = []
        # On so coarse a mesh renumbering moves the errors by more than the
        # gate allows (see workloads.ERR_ATOL), so only the trace is checked.
        dt, res = run.run_op(w, fails, lambda: run.traced_op(tracer, 1))
        self.assertIsNotNone(dt)
        times, counts = spans.per_op_totals(tracer.spans, 1)
        op = [s for s in tracer.spans if s.name == "op"]
        self.assertEqual(len(op), 1)
        self.assertLessEqual(sum(times.values()), op[0].duration * (1 + 1e-9))
        self.assertTrue(all(t >= 0.0 for t in spans.self_times(tracer.spans)))
        self.assertGreaterEqual(op[0].duration, dt)
        for name in ("mesh.build", "fespace.dofmap", "assembly.local", "solver.condense",
                     "solver.skeleton_solve", "solver.recover"):
            self.assertIn(name, times)
        self.assertEqual(counts["assembly.elements"], 32)
        self.assertEqual(counts["solver.blocks"], 32)

    def test_self_time_subtracts_children(self):
        s = [spans.Span("op", 0.0, 10.0, None, 1),
             spans.Span("a", 1.0, 4.0, 0, 1),
             spans.Span("b", 3.0, 6.0, 0, 1),
             spans.Span("c", 2.0, 3.0, 1, 1)]
        self.assertEqual(spans.self_times(s), [5.0, 2.0, 3.0, 1.0])

    def test_install_restores(self):
        before = [(h[a] if isinstance(h, dict) else getattr(h, a))
                  for _, h, a, _ in layers.targets()]
        with spans.install(spans.Tracer()):
            self.assertIsNot(hdgcd.solver.condense, hdgcd.solver.condense.__wrapped__)
        after = [(h[a] if isinstance(h, dict) else getattr(h, a))
                 for _, h, a, _ in layers.targets()]
        self.assertEqual(len(before), len(after))
        self.assertTrue(all(x is y for x, y in zip(before, after)))

    def test_benchmark_json_lists_the_metrics_and_workloads(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual([{k: m[k] for k in ("name", "unit", "better")} for m in layers.LAYER_METRICS],
                         spec["per_layer"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_layer_metric_has_a_source(self):
        names = {t[0] for t in layers.targets()} | {"op"}
        for m in layers.LAYER_METRICS:
            kind, _, key = m["source"].partition(":")
            if kind == "span":
                self.assertIn(key, names, m["name"])


if __name__ == "__main__":
    unittest.main()
