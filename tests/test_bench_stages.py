"""Smoke test of the stage-timing script that performance claims cite: its
pipeline runs every stage once on a small case, gets the right answers and
leaves no dump file behind."""

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
    times = {stage: [] for stage in bench.STAGES}
    condensed, mesh, errors = bench.pipeline(case_smooth(1e-3), 4, 1, times)
    assert all(len(t) == 1 and t[0] >= 0.0 for t in times.values()), times
    assert mesh.n_elements == 32 and condensed.n_trace == 2 * 40
    assert all(np.isfinite(v) for v in errors.values()), errors
    assert errors["conservation_max"] <= 1e-12
    # the dump stage wrote into one temporary directory and removed it
    assert [d.parent for d in made] == [tmp_path] and not any(tmp_path.iterdir())
