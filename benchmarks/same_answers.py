"""Same answers: one fixed list of CLI runs on two checkouts, every output compared.

Usage (from the repository root)::

    python benchmarks/same_answers.py PARENT CHANGE [--out REPORT.json]

PARENT and CHANGE are checkouts, directories holding ``src/hdgcd``.  Each
run of ``RUNS`` is made once per checkout in a fresh interpreter,
``python -m hdgcd.cli ARGS --out run.csv`` with ``PYTHONPATH`` set to the
checkout's ``src``, inside an empty directory of its own, so the CSV and
the ``.npy`` field dumps land under the same names on both sides; the
run's stdout, stderr and exit code are kept beside them as files.

The JSON report (``--out``, or stdout) lists per run which files are
SHA-256-identical on both sides; a file on one side only differs.  For a
differing CSV it says whether its ``#`` lines agree and gives, for every
column that moved, the largest absolute change and the largest change
relative to the larger of the two cells (a cell that is no number on
either side reads inf; a different row count is one "(rows)" entry of inf,
and no cell is compared).  For a differing dump
it gives the largest absolute change over all entries, and that change
over the parent dump's largest |value|.  A short table goes to stderr.

The script imports nothing from ``src/`` itself, since it runs two
checkouts; each run imports its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The eleven runs every "same answers" check has used since the verified
# sparse solve, plus the highest degree at its round-off floor and the
# layer study at its default sizes (n = 10, 20, 40, 80), where the field
# values held between solves are largest.
RUNS = (
    "--study layer --epsilon 1e-6 --n 8,16,32",
    "--study layer --epsilon 1e-6",
    "--epsilon 1e-3 --n 4,8,16",
    "--degree 3 --n 4,8",
    "--method supg --n 4,8,16",
    "--study reduced_limit --n 16",
    "--study skeleton_compare --epsilon 1e-6 --n 10",
    "--problem layer --epsilon 1e-4 --degree 2 --n 4,8",
    "--problem reduced_limit --epsilon 1e-4 --degree 2 --n 4,8,16",
    "--skeleton cg --epsilon 1e-2 --n 4,8,16",
    "--problem reduced_limit --method supg --epsilon 1e-6 --n 1,2,4,8,16",
    "--n 2,4 --eta 1e300",
    "--degree 10 --n 1,2,4",
)
STREAMS = ("stdout.txt", "stderr.txt", "exit_code.txt")


def run_cli(checkout, args, where):
    """Run the CLI of ``checkout`` with ``args`` (one string) and ``--out
    run.csv`` in the new directory ``where``; stdout, stderr and the exit
    code are written there as files."""
    where.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str((Path(checkout) / "src").resolve()))
    out = subprocess.run([sys.executable, "-m", "hdgcd.cli", *args.split(), "--out", "run.csv"],
                         cwd=where, env=env, capture_output=True, text=True)
    for name, text in zip(STREAMS, (out.stdout, out.stderr, f"{out.returncode}\n")):
        (where / name).write_text(text)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a, b):
    """``{"comments_identical", "columns"}`` of two CSV texts: ``columns``
    maps each moved column to its largest absolute and relative change."""
    lines = [text.splitlines() for text in (a, b)]
    comments = [[line for line in side if line.startswith("#")] for side in lines]
    rows = [[line.split(",") for line in side if not line.startswith("#")] for side in lines]
    header = comments[0][0].split(": ", 1)[1].split(",") if comments[0] else []
    moved = {}
    if len(rows[0]) != len(rows[1]):   # rows no longer pair up; compare no cell
        moved["(rows)"] = {"abs": math.inf, "rel": math.inf}
        rows = [[], []]
    for row_a, row_b in zip(*rows):
        for i in range(max(len(row_a), len(row_b))):
            x, y = (row[i] if i < len(row) else "" for row in (row_a, row_b))
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if u is None or v is None:
                change, rel = math.inf, math.inf
            else:
                change = abs(u - v)
                rel = change / max(abs(u), abs(v))
            column = header[i] if i < len(header) else f"column {i}"
            seen = moved.setdefault(column, {"abs": 0.0, "rel": 0.0})
            seen["abs"], seen["rel"] = max(seen["abs"], change), max(seen["rel"], rel)
    return {"comments_identical": comments[0] == comments[1], "columns": moved}


def compare_dump(a, b):
    """``{"abs", "rel"}``: the largest absolute change between two dump
    arrays, and that change over ``a``'s largest |value| (last column)."""
    if a.shape != b.shape:
        return {"abs": math.inf, "rel": math.inf}
    change = float(np.abs(a - b).max(initial=0.0))
    scale = float(np.abs(a[:, -1]).max(initial=0.0))
    return {"abs": change, "rel": change / scale if scale else (math.inf if change else 0.0)}


def compare_run(dir_a, dir_b):
    """One run's record: the identical files, and the differing ones with
    their changes."""
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    record = {"identical": [], "differing": {}}
    for name in names:
        a, b = dir_a / name, dir_b / name
        if a.exists() and b.exists() and _sha256(a) == _sha256(b):
            record["identical"].append(name)
        elif not (a.exists() and b.exists()):
            record["differing"][name] = {"only_in": "parent" if a.exists() else "change"}
        elif name.endswith(".csv"):
            record["differing"][name] = compare_csv(a.read_text(), b.read_text())
        elif name.endswith(".npy"):
            record["differing"][name] = compare_dump(np.load(a), np.load(b))
        else:
            record["differing"][name] = {}
    return record


def compare(parent, change, runs, workdir):
    """Make every run of ``runs`` on both checkouts under ``workdir`` and
    return ``{args: run record}``."""
    report = {}
    for i, args in enumerate(runs):
        dirs = [Path(workdir) / label / f"run{i:02d}" for label in ("parent", "change")]
        for checkout, where in zip((parent, change), dirs):
            run_cli(checkout, args, where)
        report[args] = compare_run(*dirs)
    return report


def table(report):
    """Short text table of a report: one line per run, then one per
    differing file."""
    lines = []
    for args, record in report.items():
        n_diff = len(record["differing"])
        lines.append(f"{args:<64} {len(record['identical'])} identical, {n_diff} differing")
        for name, diff in record["differing"].items():
            if "columns" in diff:
                moved = ", ".join(f"{col} {d['rel']:.1e} (abs {d['abs']:.1e})"
                                  for col, d in diff["columns"].items())
                comments = "" if diff["comments_identical"] else "# lines differ; "
                lines.append(f"    {name}: {comments}{moved or 'no cell moved'}")
            elif "rel" in diff:
                lines.append(f"    {name}: {diff['rel']:.1e} of max |value| (abs {diff['abs']:.1e})")
            elif "only_in" in diff:
                lines.append(f"    {name}: only in {diff['only_in']}")
            else:
                lines.append(f"    {name}: bytes differ")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT")
    parser.add_argument("change", type=Path, metavar="CHANGE")
    parser.add_argument("--out", help="JSON report path (default: stdout)")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "hdgcd").is_dir():
            parser.error(f"{checkout} holds no src/hdgcd")
    with tempfile.TemporaryDirectory() as workdir:
        report = compare(args.parent, args.change, RUNS, workdir)
    print(table(report), file=sys.stderr)
    text = json.dumps({"parent": str(args.parent), "change": str(args.change), "runs": report},
                      indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
