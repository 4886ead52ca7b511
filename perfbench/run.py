"""hdgcd benchmark: end-to-end solve metrics and a traced run per layer.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload smooth_k1_n32 --seed 1 --seconds 30 --trace 0

``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics:

* ``setup_s``: process start to the first timed op (imports, inputs, the
  setup oracle and one untimed cold op), the median of this process and
  SETUP_PROBES fresh ones;
* ``op_ref``: median over ops of one op's wall time divided by the wall time
  of a fixed reference kernel (ReferenceKernel) timed just before and after
  it, i.e. the op's time in units of work that does not depend on hdgcd;
* ``dofs_per_ref``: HDG plus SUPG dofs solved per reference-kernel time;
* ``peak_rss_mb``: peak resident memory of this process;
* ``ok_ratio``: share of ops that passed the correctness gate.

The raw ``op_s`` (median op wall time), ``dofs_per_s`` and ``fail_ratio``
are printed in the summary line and the report; they are not compared,
because on a shared host they drift with the machine's speed.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of ``layers.LAYER_METRICS`` (medians over traced ops, raw
seconds) with the tracing overhead.

Every op is checked; the gate lives in ``workloads.py``.  The last stdout
line is the result object; the line before it is a report with the
environment, every sample and the layer map.  The same report, and in a
traced run every span, is written under ``.perfbench_out/``.  Workloads run
one per process, single-threaded Python, and BLAS thread settings above the
CPU count are refused.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
MIN_OPS = 3
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def check_threads():
    """Refuse BLAS/OpenMP thread counts above the usable CPU count."""
    limit = nproc()
    for var in THREAD_VARS:
        val = os.environ.get(var)
        if val is None or not val.strip():
            continue
        try:
            count = int(val.split(",")[0])
        except ValueError:
            raise BenchError(f"{var}={val!r} is not a thread count") from None
        if count > limit:
            raise BenchError(f"{var}={count} exceeds the {limit} usable CPUs")


def import_hdgcd():
    src = ROOT / "src"
    if not (src / "hdgcd" / "__init__.py").is_file():
        raise BenchError(f"no hdgcd sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import hdgcd
    if Path(hdgcd.__file__).resolve().parent != (src / "hdgcd").resolve():
        raise BenchError(f"imported hdgcd from {hdgcd.__file__}, not from {src}")
    return hdgcd


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine(), "commit": git_commit(), "seed": seed}


def setup(args):
    """Inputs, oracle and the cold op; returns (workload, failures)."""
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"available: {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    failures = list(w.setup_failures())
    failures += w.cold_op().failures
    return w, failures


def run_probe(args):
    """One fresh process's set-up time, measured the same way as ours."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_op(w, failures_log, around=contextlib.nullcontext):
    """Time one op inside ``around()`` and gate it outside.

    Returns (seconds or None, OpResult or None).
    """
    try:
        with around():
            t = time.perf_counter()
            value = w.op()
            dt = time.perf_counter() - t
    except Exception:  # an op that raises counts as failed; keep measuring
        failures_log.append(traceback.format_exc(limit=3))
        return None, None
    res = w.check(value)
    failures_log.extend(res.failures)
    return dt, res


@contextlib.contextmanager
def traced_op(tracer, op_id):
    """Layer wrappers installed and an "op" span open, tagged ``op_id``."""
    import spans
    tracer.op_id = op_id
    try:
        with spans.install(tracer), tracer.span("op"):
            yield
    finally:
        tracer.op_id = None


class ReferenceKernel:
    """A fixed computation, independent of hdgcd, timed around every op.

    On a shared host (measured on a 2-core container) the speed can drift
    by up to 1.5x over minutes as other tenants load the machine, so runs a
    few minutes apart see different speeds.  An op's wall time divided by
    the kernel's wall time measured just before and after it cancels that
    drift.  The mix follows the op's: small dense solves, dict inserts in
    the interpreter and a pass over a few megabytes of array.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.mats = rng.random((300, 10, 10)) + 10.0 * np.eye(10)
        self.rhs = rng.random((300, 10, 4))
        self.big = rng.random(400_000)

    def __call__(self, reps=18):
        np = self.np
        t = time.perf_counter()
        acc = 0.0
        for _ in range(reps):
            for a, b in zip(self.mats, self.rhs):
                acc += float(np.linalg.solve(a, b)[0, 0])
            d = {}
            for i in range(30_000):
                d[(i, i + 1) if i & 1 else (i + 1, i)] = i
            acc += float(np.sort(self.big) @ self.big)
        return time.perf_counter() - t


def measure(w, seconds, tracer=None, reference=None):
    """Run ops until the next round would pass ``seconds``.

    Without a tracer every op is plain; with one, plain and traced ops
    alternate.  At least MIN_OPS rounds run.  Ops that raise are counted as
    failed and not timed; ops that fail the gate are counted and timed.
    With a ``reference`` kernel, it runs before the first op and after every
    op, and ``rel`` holds each plain op's time over the mean of the kernel
    times on either side of it.
    """
    import spans
    kinds = ("plain", "traced") if tracer else ("plain",)
    s = {"plain": [], "traced": [], "rel": [], "ref": [], "dofs": [], "per_op": [],
         "fails": [], "attempted": 0, "failed": 0}
    start = time.perf_counter()
    if reference:
        s["ref"].append(reference())
    rounds = 0
    while True:
        for kind in kinds:
            s["attempted"] += 1
            op_id = s["attempted"]
            around = (lambda: traced_op(tracer, op_id)) if kind == "traced" else contextlib.nullcontext
            dt, res = run_op(w, s["fails"], around)
            if reference:
                s["ref"].append(reference())
            if dt is None or res.failures:
                s["failed"] += 1
            if dt is None:
                continue
            s[kind].append(dt)
            if reference:
                s["rel"].append(dt / (0.5 * (s["ref"][-2] + s["ref"][-1])))
            if kind == "plain":
                s["dofs"].append(res.dofs)
            else:
                times, counts = spans.per_op_totals(tracer.spans, op_id)
                counts.update(res.counts)
                s["per_op"].append((times, counts))
        rounds += 1
        elapsed = time.perf_counter() - start
        typical = elapsed / rounds
        if elapsed >= seconds or (rounds >= MIN_OPS and elapsed + typical > seconds):
            return s


def layer_values(per_op, plain, traced):
    import layers
    out = {}
    for m in layers.LAYER_METRICS:
        kind, _, key = m["source"].partition(":")
        if kind == "span":
            vals = [times.get(key, 0.0) for times, _ in per_op]
        elif kind == "count":
            vals = [counts.get(key, 0) for _, counts in per_op]
        elif kind == "ratio":
            num, den = key.split("/")
            vals = [counts.get(num, 0) / times[den] / 1e9 if times.get(den) else 0.0
                    for times, counts in per_op]
        elif key == "op_s":
            vals = traced
        else:  # overhead_s
            vals = [statistics.median(traced) - statistics.median(plain)]
        value = statistics.median(vals) if vals else 0.0
        out[m["name"]] = {"value": int(value) if m["unit"] == "count" else float(value),
                          "unit": m["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        check_threads()
        import_hdgcd()
        w, setup_failures = setup(args)
        own_setup = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup, "failures": setup_failures}))
            w.close()
            return 0
        try:
            report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(args.seed)}
            if args.trace:
                result, extra = traced_run(args, w)
            else:
                result, extra = plain_run(args, w, own_setup)
        finally:
            w.close()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["correct"] = result["correct"] and not setup_failures
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"spans-{name}.json").write_text(json.dumps(extra.pop("spans")))
    report.update(extra, setup_failures=setup_failures)
    (OUT / f"result-{name}.json").write_text(json.dumps(report, indent=1))
    for failure in setup_failures + report.get("failures", []):
        print(f"gate: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}))
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(out))
    return 0


def plain_run(args, w, own_setup):
    setups = [own_setup]
    probe_failures = []
    for _ in range(SETUP_PROBES):
        probe = run_probe(args)
        setups.append(probe["setup_s"])
        probe_failures += probe["failures"]
    s = measure(w, args.seconds, reference=ReferenceKernel())
    times, rel, attempted, failed = s["plain"], s["rel"], s["attempted"], s["failed"]
    if not times:
        raise BenchError("every op raised: " + "; ".join(s["fails"][:3]))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ref": {"value": statistics.median(rel), "unit": "ref"},
        "dofs_per_ref": {"value": sum(s["dofs"]) / sum(rel), "unit": "1/ref"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    op_s = statistics.median(times)
    dofs_per_s = sum(s["dofs"]) / sum(times)
    ref_s = statistics.median(s["ref"])
    print(f"{args.workload}: setup_s={metrics['setup_s']['value']:.4f} op_s={op_s:.4f} "
          f"dofs_per_s={dofs_per_s:.1f} peak_rss_mb={peak_mb:.1f} "
          f"fail_ratio={failed / attempted:.4f} ({attempted} ops); "
          f"reference kernel {ref_s:.4f} s: op_ref={metrics['op_ref']['value']:.4f} "
          f"dofs_per_ref={metrics['dofs_per_ref']['value']:.1f}")
    extra = {"setup_samples": setups, "op_samples": times, "ref_samples": s["ref"],
             "op_ref_samples": rel, "dofs": s["dofs"], "op_s": op_s, "dofs_per_s": dofs_per_s,
             "failures": probe_failures + s["fails"], "fail_ratio": failed / attempted}
    return ({"correct": failed == 0 and not probe_failures, "attempted": attempted,
             "failed": failed, "metrics": metrics}, extra)


def traced_run(args, w):
    import layers
    import spans
    tracer = spans.Tracer()
    s = measure(w, args.seconds, tracer)
    if not s["per_op"] or not s["plain"]:
        raise BenchError("every op raised: " + "; ".join(s["fails"][:3]))
    metrics = layer_values(s["per_op"], s["plain"], s["traced"])
    for name, m in metrics.items():
        print(f"{args.workload}: {name}={m['value']} {m['unit']}")
    extra = {"plain_op_samples": s["plain"], "traced_op_samples": s["traced"],
             "per_op": [{"self_s": t, "counts": c} for t, c in s["per_op"]],
             "layer_map": layers.LAYER_METRICS, "failures": s["fails"],
             "fail_ratio": s["failed"] / s["attempted"], "spans": tracer.to_json()}
    return ({"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
             "metrics": metrics}, extra)


if __name__ == "__main__":
    sys.exit(main())
