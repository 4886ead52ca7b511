"""Smoke test of the stage-timing script that performance claims cite: its
pipeline runs every stage once on a small case, reads the peak RSS after
each, gets the right answers and leaves no dump file behind."""

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
    assert all(np.isfinite(v) for v in errors.values()), errors
    assert errors["conservation_max"] <= 1e-12
    # the dump stage wrote into one temporary directory and removed it
    assert [d.parent for d in made] == [tmp_path] and not any(tmp_path.iterdir())


def test_runs_combine_per_stage_and_total_leaves_out_errors():
    bench = load_script()
    stages = dict.fromkeys(bench.STAGES, 1.0)
    runs = [{"case": {}, "elements": 1, "skeleton_dofs": 1, "nnz_S": 1, "fill": 1.0,
             "errors": {}, "import_s": 0.5, "import_rss_mb": 60.0, "stages_s": dict(stages),
             "stage_rss_mb": dict.fromkeys(bench.STAGES, mb), "peak_rss_mb": mb}
            for mb in (80.0, 90.0)]
    record = bench.combine(runs)
    assert record["total_s"] == len(bench.STAGES) - 1
    assert record["stage_rss_mb"]["errors"] == [80.0, 90.0] and record["peak_rss_mb"] == 90.0
    # a checkout without analysis.errors records no such stage
    for run in runs:
        del run["stages_s"]["errors"], run["stage_rss_mb"]["errors"]
    record = bench.combine(runs)
    assert "errors" not in record["stages_s"] and record["total_s"] == len(bench.STAGES) - 1
