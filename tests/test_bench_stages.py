"""Smoke test of the stage-timing script that performance claims cite: its
pipeline runs every stage once on a small case and gets the right answers."""

import importlib.util
from pathlib import Path

import numpy as np

from hdgcd.problems import case_smooth

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_stages.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_times_every_stage_once():
    bench = load_script()
    times = {stage: [] for stage in bench.STAGES}
    condensed, mesh, errors = bench.pipeline(case_smooth(1e-3), 4, 1, times)
    assert all(len(t) == 1 and t[0] >= 0.0 for t in times.values()), times
    assert mesh.n_elements == 32 and condensed.n_trace == 2 * 40
    assert all(np.isfinite(v) for v in errors.values()), errors
    assert errors["conservation_max"] <= 1e-12
