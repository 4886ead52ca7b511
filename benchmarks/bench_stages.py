"""Stage timings of the HDG pipeline on five fixed cases, written as JSON.

Usage (from the repository root)::

    OMP_NUM_THREADS=1 python benchmarks/bench_stages.py --out BENCH.json [LABEL=CHECKOUT ...]

Each ``LABEL=CHECKOUT`` names a source checkout, a directory holding
``src/hdgcd``; with none given, this checkout is measured under the label
``current``.  Naming two checkouts (``parent=../old change=.``) puts both
columns side by side in one file, and then ``resolved`` lists, per case,
the stages (and ``total_s``) where the second column is faster, or
slower, in at least nine tenths of the pairs of runs (ties count for
neither side) and the medians differ by more than the first column's
q3 - q1; every other stage is unresolved.  With REPEAT = 10 pairs, pure
noise moves a given stage one way in 11 of 1024 cases.

Every run of a case is a fresh interpreter, so imports, caches and the peak
RSS belong to that run alone.  It first times ``import hdgcd`` with all it
pulls in (``import_s``) and reads the peak RSS right after it
(``import_rss_mb``).  Then it runs the pipeline once untimed on a 4x4 mesh,
then once timed on a freshly built mesh, as the CLI does.  Each case is run
REPEAT times per checkout, the checkouts alternating run by run so that a
drift in the host's speed reaches both columns alike; ``import_s`` is the
median of those runs, and each stage and ``total_s`` (the sum of the
stages) are recorded as the ``q1``, ``median`` and ``q3`` of them, and
per run in run order (``runs_s``), so that run i of one column pairs with
run i of the other.  The stages are the library's own
functions, each timed with ``time.perf_counter``: ``mesh``
(``build_uniform_triangulation``), ``prepare`` (``solver._prepare``, the
drivers' preamble: default penalty, ``check_problem`` and ``build_dofmap``),
``assemble``, ``condense``, ``solve`` (``solve_skeleton``,
nearly all of it the SuperLU factorization), ``recover``, ``errors``
(``analysis.errors``: the L2, broken H1 and scheme-norm distances over the
case's region; it also builds the order-12 error context),
``conservation`` and ``dump`` (``dump_field_grid`` and ``dump_trace`` of
the solution into a temporary directory, removed afterwards), with the
case assembled at the CLI's quadrature order (``hdgcd.cli._quad_order``).
A case also records its element, skeleton-dof and nnz(S) counts, the fill
``(nnz(L) + nnz(U)) / nnz(S)`` of one extra untimed factorization, the
largest ``import_rss_mb`` and peak RSS of its runs (the latter taken before
that factorization), the peak RSS after each stage of each run
(``stage_rss_mb``, a list per stage in run order, so a run whose peak is
high shows the stage that raised it), and the error values, so two columns
can be checked for the same answers.  The peak RSS hides a cut in live
temporaries (the allocator keeps freed heap), so each run also repeats the
pipeline once, untimed, under ``tracemalloc`` and records each stage's
traced peak above its start in MiB (``stage_traced_peak_mib``, a list per
stage in run order).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPEAT = 10
WARMUP_N = 4
# name: (problem, epsilon, mesh subdivisions, degree)
CASES = {
    "smooth_1e-3_n64_k1": ("smooth", 1e-3, 64, 1),
    "smooth_1e-3_n64_k2": ("smooth", 1e-3, 64, 2),
    "smooth_1e-3_n128_k1": ("smooth", 1e-3, 128, 1),
    "layer_1e-6_n80_k1": ("layer", 1e-6, 80, 1),
    "smooth_1e-3_n32_k3": ("smooth", 1e-3, 32, 3),
}
STAGES = ("mesh", "prepare", "assemble", "condense", "solve", "recover",
          "errors", "conservation", "dump")
ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values):
    """``{"q1", "median", "q3"}`` of ``values`` (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def pipeline(case, n, degree, times, rss, traced=None):
    """One mesh-to-conservation run; appends each stage's seconds to
    ``times`` and the peak RSS after it to ``rss``, and returns the
    condensed system, the mesh and the errors.  Given ``traced``, it appends
    there each stage's tracemalloc peak above its start, in MiB, and must
    run under ``tracemalloc``."""
    # imported here, in the worker: the driving process may measure any checkout
    import hdgcd
    import hdgcd.cli
    from hdgcd import solver

    def timed(stage, func, *args, **kwargs):
        if traced is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        out = func(*args, **kwargs)
        times[stage].append(time.perf_counter() - start)
        rss[stage].append(peak_rss_mb())
        if traced is not None:
            traced[stage].append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
        return out

    def dump(sol):
        with tempfile.TemporaryDirectory() as tmp:
            hdgcd.cli.dump_field_grid(sol, os.path.join(tmp, "uh.npy"))
            hdgcd.cli.dump_trace(sol, os.path.join(tmp, "uhat.npy"))

    problem = case.problem
    quad_order = hdgcd.cli._quad_order(case, degree)
    mesh = timed("mesh", hdgcd.build_uniform_triangulation, n, problem.boundary)
    eta, dofmap = timed("prepare", solver._prepare, problem, mesh, degree, None, "dg")
    systems = timed("assemble", hdgcd.assemble_local_systems, mesh, dofmap, problem,
                    eta=eta, quad_order=quad_order)
    condensed = timed("condense", solver.condense, systems, dofmap)
    traces = timed("solve", solver.solve_skeleton, condensed)
    sol = timed("recover", solver.recover_interior, traces, condensed)
    sol.info.update(eta=eta, quad_order=quad_order)
    err_l2, err_h1, report = timed("errors", hdgcd.analysis.errors, sol, case, eta)
    errors = {"err_l2": err_l2, "err_h1": err_h1, "err_hdg": report.err_hdg}
    residual = timed("conservation", hdgcd.conservation_residual, sol, problem)
    errors["conservation_max"] = float(abs(residual).max())
    timed("dump", dump, sol)
    return condensed, mesh, errors


def run_case(name):
    """One timed run of a case in this interpreter; returns its JSON record."""
    start = time.perf_counter()
    import hdgcd
    import_s = time.perf_counter() - start
    import_rss_mb = peak_rss_mb()
    import numpy as np
    import scipy
    from hdgcd import solver

    problem_name, epsilon, n, degree = CASES[name]
    case = hdgcd.get_case(problem_name, epsilon)
    pipeline(case, WARMUP_N, degree, {s: [] for s in STAGES}, {s: [] for s in STAGES})
    times, rss = {s: [] for s in STAGES}, {s: [] for s in STAGES}
    condensed, mesh, errors = pipeline(case, n, degree, times, rss)
    peak = peak_rss_mb()
    lu = solver.sparse_factor(condensed.S, "skeleton")
    traced = {s: [] for s in STAGES}
    tracemalloc.start()
    pipeline(case, n, degree, {s: [] for s in STAGES}, {s: [] for s in STAGES}, traced)
    tracemalloc.stop()
    return {
        "case": {"problem": problem_name, "epsilon": epsilon, "n": n, "degree": degree},
        "elements": mesh.n_elements,
        "skeleton_dofs": condensed.g.size,
        "nnz_S": int(condensed.S.nnz),
        "fill": (lu.L.nnz + lu.U.nnz) / condensed.S.nnz,
        "import_s": import_s,
        "import_rss_mb": round(import_rss_mb, 1),
        "stages_s": {s: t[0] for s, t in times.items()},
        "stage_rss_mb": {s: round(r[0], 1) for s, r in rss.items()},
        "peak_rss_mb": round(peak, 1),
        "stage_traced_peak_mib": {s: round(p[0], 2) for s, p in traced.items()},
        "errors": errors,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "hdgcd_src": str(Path(hdgcd.__file__).resolve().parent.parent),
    }


def describe(checkout):
    """``git describe --always --dirty`` of a checkout, or None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(label, checkout, name):
    """Run one case of one checkout in a child interpreter."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--worker", name], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{label} {name} failed:\n{out.stderr}")
    record = json.loads(out.stdout)
    if record.pop("hdgcd_src") != str(src):
        raise SystemExit(f"{label} {name}: hdgcd was not imported from {src}")
    print(f"{label:>10} {name:<22} import {record['import_s']:.3f} s  "
          f"total {sum(record['stages_s'].values()):.3f} s  "
          f"peak {record['peak_rss_mb']} MB", file=sys.stderr)
    return record


def combine(runs):
    """One case's record from its runs: the import median, the stage and
    total quartiles, the stage and total seconds of every run, the largest
    RSS peaks, the per-stage RSS and traced peaks of every run; the counts
    and errors must agree between runs."""
    fixed = ("case", "elements", "skeleton_dofs", "nnz_S", "fill", "errors")
    if any(run[key] != runs[0][key] for run in runs for key in fixed):
        raise SystemExit(f"runs of {runs[0]['case']} disagree on {fixed}")
    record = {key: runs[0][key] for key in fixed}
    record["import_s"] = statistics.median(run["import_s"] for run in runs)
    record["import_rss_mb"] = max(run["import_rss_mb"] for run in runs)
    record["stages_s"] = {s: quartiles([run["stages_s"][s] for run in runs]) for s in STAGES}
    totals = [sum(run["stages_s"].values()) for run in runs]
    record["total_s"] = quartiles(totals)
    record["runs_s"] = {s: [run["stages_s"][s] for run in runs] for s in STAGES}
    record["runs_s"]["total_s"] = totals
    record["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    for key in ("stage_rss_mb", "stage_traced_peak_mib"):
        record[key] = {s: [run[key][s] for run in runs] for s in STAGES}
    return record


def resolved(first, second):
    """Per case, ``{"faster": [...], "slower": [...]}``: the stages and
    ``total_s`` where the column ``second`` is faster (slower) than the
    column ``first`` in at least nine tenths of the pairs of runs, a tie
    counting for neither, and its median differs from the first's by more
    than the first column's q3 - q1."""
    out = {}
    for name, base in first["cases"].items():
        other = second["cases"][name]
        out[name] = moved = {"faster": [], "slower": []}
        for s in (*STAGES, "total_s"):
            b, o = (rec["total_s"] if s == "total_s" else rec["stages_s"][s] for rec in (base, other))
            if abs(o["median"] - b["median"]) <= b["q3"] - b["q1"]:
                continue
            pairs = list(zip(base["runs_s"][s], other["runs_s"][s]))
            for side, wins in (("faster", sum(y < x for x, y in pairs)),
                               ("slower", sum(y > x for x, y in pairs))):
                if 10 * wins >= 9 * len(pairs):
                    moved[side].append(s)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=CHECKOUT")
    parser.add_argument("--out", help="JSON output path (default: stdout)")
    parser.add_argument("--worker", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(run_case(args.worker), sys.stdout)
        return 0

    columns = {}
    for spec in args.checkouts or [f"current={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "src" / "hdgcd").is_dir():
            parser.error(f"{spec!r} is not LABEL=CHECKOUT with CHECKOUT/src/hdgcd")
        columns[label] = Path(path)
    results = {label: {"commit": describe(path), "cases": {}} for label, path in columns.items()}
    order = list(columns.items())
    for name in CASES:
        runs = {label: [] for label in columns}
        for _ in range(REPEAT):
            for label, path in order:
                record = measure(label, path, name)
                results[label]["versions"] = record.pop("versions")
                runs[label].append(record)
            order.reverse()
        for label in columns:
            results[label]["cases"][name] = combine(runs[label])

    report = {
        "benchmark": "benchmarks/bench_stages.py",
        "method": {"repeat": REPEAT, "statistic": "q1, median, q3 (import_s: median)",
                   "warmup_n": WARMUP_N,
                   "clock": "time.perf_counter",
                   "process": "one interpreter per run, checkouts alternating"},
        "host": {"cpu_count": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "threads": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}},
        "columns": results,
    }
    if len(results) == 2:
        report["resolved"] = resolved(*results.values())
        for name, moved in report["resolved"].items():
            print(f"{name:<22} faster: {', '.join(moved['faster']) or '-'}; "
                  f"slower: {', '.join(moved['slower']) or '-'}", file=sys.stderr)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
