"""Smoke test of the stage-timing script that performance claims cite: its
pipeline runs every stage once on a small case, reads the peak RSS after
each, gets the right answers and leaves no dump file behind; its runs
combine into quartiles and per-run seconds, and a second column's stages
are resolved only when nine of ten pairs of runs and the first column's
spread agree.  The pipeline assembles at the CLI's quadrature order."""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np

import hdgcd
import hdgcd.cli
from hdgcd.problems import case_layer, case_smooth

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_stages.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_times_every_stage_once(tmp_path, monkeypatch):
    made, mkdtemp = [], tempfile.mkdtemp

    def recorded_mkdtemp(*args, **kwargs):
        made.append(Path(mkdtemp(*args, **kwargs)))
        return str(made[-1])

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "mkdtemp", recorded_mkdtemp)
    bench = load_script()
    times, rss = {stage: [] for stage in bench.STAGES}, {stage: [] for stage in bench.STAGES}
    condensed, mesh, errors = bench.pipeline(case_smooth(1e-3), 4, 1, times, rss)
    assert "errors" in bench.STAGES
    assert all(len(t) == 1 and t[0] >= 0.0 for t in times.values()), times
    # ru_maxrss never falls, so the per-stage peaks rise in stage order
    peaks = [rss[stage][0] for stage in bench.STAGES]
    assert peaks == sorted(peaks) and peaks[0] > 0.0, rss
    assert mesh.n_elements == 32 and condensed.g.size == 2 * 40
    assert set(errors) == {"err_l2", "err_h1", "err_hdg", "conservation_max"}
    assert all(np.isfinite(v) for v in errors.values()), errors
    assert errors["conservation_max"] <= 1e-12
    # the dump stage wrote into one temporary directory and removed it
    assert [d.parent for d in made] == [tmp_path] and not any(tmp_path.iterdir())


def test_pipeline_assembles_at_the_cli_quadrature_order(monkeypatch):
    # the layer case's order 12 is a floor under 2k + 2 = 14 at k = 6
    orders = []

    def recorded(func, read):
        def call(*args, **kwargs):
            orders.append(read(args, kwargs))
            return func(*args, **kwargs)
        return call

    monkeypatch.setattr(hdgcd, "assemble_local_systems", recorded(
        hdgcd.assemble_local_systems, lambda args, kwargs: kwargs["quad_order"]))
    monkeypatch.setattr(hdgcd.analysis, "errors", recorded(
        hdgcd.analysis.errors, lambda args, kwargs: args[0].info["quad_order"]))
    bench = load_script()
    times, rss = {stage: [] for stage in bench.STAGES}, {stage: [] for stage in bench.STAGES}
    case = case_layer(1e-6)
    bench.pipeline(case, 2, 6, times, rss)
    assert orders == [hdgcd.cli._quad_order(case, 6)] * 2 == [14] * 2


def test_runs_combine_into_quartiles_per_stage_and_total():
    bench = load_script()
    runs = [{"case": {}, "elements": 1, "skeleton_dofs": 1, "nnz_S": 1, "fill": 1.0,
             "errors": {}, "import_s": 0.5, "import_rss_mb": 60.0,
             "stages_s": dict.fromkeys(bench.STAGES, t),
             "stage_rss_mb": dict.fromkeys(bench.STAGES, mb), "peak_rss_mb": mb}
            for t, mb in ((1.0, 80.0), (2.0, 90.0), (4.0, 85.0), (3.0, 70.0), (5.0, 75.0))]
    record = bench.combine(runs)
    # quantiles of 1..5 by the exclusive method: positions 1.5 and 4.5
    assert record["stages_s"] == dict.fromkeys(bench.STAGES, {"q1": 1.5, "median": 3.0, "q3": 4.5})
    n = len(bench.STAGES)
    assert record["total_s"] == {"q1": 1.5 * n, "median": 3.0 * n, "q3": 4.5 * n}
    assert record["stage_rss_mb"]["errors"] == [80.0, 90.0, 85.0, 70.0, 75.0]
    assert record["peak_rss_mb"] == 90.0 and record["import_s"] == 0.5


def _column(bench, stage_runs):
    """A one-case column combined from ten runs; ``stage_runs[s]`` holds the
    seconds of stage s in run order."""
    runs = [{"case": {}, "elements": 1, "skeleton_dofs": 1, "nnz_S": 1, "fill": 1.0,
             "errors": {}, "import_s": 0.5, "import_rss_mb": 60.0,
             "stages_s": {s: stage_runs[s][i] for s in bench.STAGES},
             "stage_rss_mb": dict.fromkeys(bench.STAGES, 80.0), "peak_rss_mb": 80.0}
            for i in range(10)]
    return {"cases": {"c": bench.combine(runs)}}


def test_stages_are_resolved_by_pairs_and_the_first_spread():
    bench = load_script()
    assert bench.REPEAT == 10
    base = np.arange(10.0, 20.0)   # q1 11.75, median 14.5, q3 17.25
    first = _column(bench, dict.fromkeys(bench.STAGES, base))
    assert first["cases"]["c"]["runs_s"]["mesh"] == list(base)
    assert first["cases"]["c"]["runs_s"]["total_s"] == list(9 * base)
    mesh, prepare, assemble, condense, solve, recover, errors, conservation, dump = bench.STAGES
    second = _column(bench, {
        mesh: base - 6.0,                                       # faster in every pair
        prepare: base + 6.0,                                    # slower in every pair
        assemble: base - 5.5,                                   # medians differ by the IQR
        condense: np.append(base[:9] - 6.0, 20.0),              # faster in 9 pairs of 10
        solve: np.append(base[:8] - 6.0, [20.0, 21.0]),         # faster in 8 pairs of 10
        recover: np.append(base[:8] - 6.0, base[8:]),           # 8 faster, 2 ties
        errors: np.append(base[:9] - 6.0, base[9]),             # 9 faster, 1 tie
        conservation: base - 1.0,                               # every pair, inside the IQR
        dump: base})
    assert bench.resolved(first, second) == {
        "c": {"faster": [mesh, condense, errors], "slower": [prepare]}}
    # the first column's spread and run order decide, read from either side
    assert bench.resolved(second, first) == {
        "c": {"faster": [prepare], "slower": [mesh, condense, errors]}}
    # the total resolves once every stage moves: 9 x 6 s beyond its IQR of 49.5 s
    shifted = _column(bench, dict.fromkeys(bench.STAGES, base - 6.0))
    assert bench.resolved(first, shifted) == {
        "c": {"faster": [*bench.STAGES, "total_s"], "slower": []}}
