"""Smoke test of the stage-timing script that performance claims cite: its
pipeline runs every stage once on a small case, reads the peak RSS after
each, gets the right answers and leaves no dump file behind; its runs
combine into quartiles, and a second column's medians are flagged when
they lie inside the first column's spread."""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np

from hdgcd.problems import case_smooth

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
    assert mesh.n_elements == 32 and condensed.n_trace == 2 * 40
    assert set(errors) == {"err_l2", "err_h1", "err_hdg", "conservation_max"}
    assert all(np.isfinite(v) for v in errors.values()), errors
    assert errors["conservation_max"] <= 1e-12
    # the dump stage wrote into one temporary directory and removed it
    assert [d.parent for d in made] == [tmp_path] and not any(tmp_path.iterdir())


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


def _column(bench, spreads, total):
    """A one-case column whose stages have the (q1, median, q3) ``spreads``."""
    keys = ("q1", "median", "q3")
    return {"cases": {"c": {"stages_s": {s: dict(zip(keys, spreads[s])) for s in bench.STAGES},
                            "total_s": dict(zip(keys, total))}}}


def test_second_column_medians_inside_the_first_spread_are_flagged():
    bench = load_script()
    first = _column(bench, dict.fromkeys(bench.STAGES, (1.0, 2.0, 3.0)), (9.0, 18.0, 27.0))
    medians = dict(zip(bench.STAGES, (0.5, 1.0, 2.5, 3.0, 3.5, 1.0, 3.0, 9.0, 0.99)))
    second = _column(bench, {s: (m - 0.5, m, m + 0.5) for s, m in medians.items()},
                     (20.0, 27.5, 30.0))
    # the quartiles themselves count as inside; just outside them does not
    assert bench.inside_spread(first, second) == {
        "c": ["prepare", "assemble", "condense", "recover", "errors"]}
    second["cases"]["c"]["total_s"]["median"] = 27.0
    assert bench.inside_spread(first, second)["c"][-1] == "total_s"
    # the first column's spread decides, not the second's
    assert bench.inside_spread(second, first) == {"c": ["assemble"]}
