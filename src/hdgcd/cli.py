"""Batch experiment driver: studies, CSV tables and field dumps.

Each study emits a CSV whose column schema is versioned in a leading
``#`` comment; reruns with the same configuration are byte-identical.
All studies share one row loop, :func:`run_study`; a study supplies only
its columns, default mesh sizes, the settings it fixes and a row function
(:data:`STUDIES`). Solver failures do not abort a study: the affected row
is replaced by a ``# error:`` comment in sweep order and the remaining rows
still run. With ``--out``, a row's field dumps go next to the CSV as
``.npy`` files (NumPy NEP 1), each one float64 (n, 3) array of
(x, y, value) rows; read them with ``np.load``.

Configuration comes from command-line flags, optionally seeded from a
``key=value`` text file (flags override the file). An unknown file key,
and a flag that the study fixes to another value, are errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional, Tuple

import numpy as np

from hdgcd.analysis import (convergence_table, error_hdg, error_l2,
                            error_h1_broken, errors, overshoot_metric)
from hdgcd.assembly import check_penalty, default_eta, default_quad_order
from hdgcd.fespace import check_skeleton_mode, get_element_basis
from hdgcd.mesh import _locate_points, build_uniform_triangulation
from hdgcd.problems import CASE_NAMES, get_case, verify_source_term
from hdgcd.solver import ElementSolvabilityError, SingularSystemError, solve_hdg
from hdgcd.supg import solve_supg

REDUCED_EPSILONS = (1.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# field dumps: a GRID_RESOLUTION^2 grid of the element field, and the
# trace at TRACE_SAMPLES (edge parameters) on every skeleton edge
GRID_RESOLUTION = 101
TRACE_SAMPLES = (0.0, 0.5, 1.0)
_DEFAULTS = {"problem": "smooth", "method": "hdg", "degree": 1, "epsilon": 1.0,
             "skeleton": "dg"}


class StudyError(RuntimeError):
    """A study-level assertion failed (not a per-row solver error)."""


@dataclass(frozen=True)
class RunConfig:
    """Study configuration; ``None`` fields take their defaults in :meth:`validate`."""

    study: str = "convergence"
    problem: Optional[str] = None
    method: Optional[str] = None
    degree: Optional[int] = None
    epsilon: Optional[float] = None
    mesh_sizes: Optional[Tuple[int, ...]] = None
    eta: Optional[float] = None
    skeleton: Optional[str] = None
    out: Optional[str] = None

    def validate(self):
        """A copy with every default filled in: the study's fixed settings,
        its mesh sizes, the global defaults and the penalty 10 k^2. Raises
        ValueError naming the flag at fault, or the library's own message for
        a bad problem, epsilon, degree, skeleton mode or penalty."""
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; available: {', '.join(STUDIES)}")
        study = STUDIES[self.study]
        defaults = dict(_DEFAULTS, mesh_sizes=study.mesh_sizes, **study.fixes)
        config = replace(self, **{name: value for name, value in defaults.items()
                                  if getattr(self, name) is None})
        fixed_by = [(f"the {self.study} study", study.fixes)]
        if config.method == "supg":   # the P1 baseline has no penalty and no trace space
            fixed_by.append(("--method supg",
                             {"degree": 1, "eta": default_eta(1), "skeleton": "dg"}))
        for label, fixes in fixed_by:
            for name, fixed in fixes.items():
                given = getattr(self, name)
                if given is not None and given != fixed:
                    raise ValueError(f"--{name} {given} does not apply to {label}, "
                                     f"which fixes it to {fixed}")
        get_case(config.problem, config.epsilon)
        if config.method not in ("hdg", "supg"):
            raise ValueError(f"unknown method {config.method!r}")
        get_element_basis(config.degree)
        check_skeleton_mode(config.skeleton, config.degree)
        sizes = config.mesh_sizes
        if not sizes or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"--n {_joined(sizes)} must list strictly increasing positive mesh sizes")
        if study.sweeps_epsilon and len(config.mesh_sizes) != 1:
            raise ValueError(f"--n {_joined(config.mesh_sizes)} does not apply to the "
                             f"{self.study} study, which sweeps epsilon on one mesh size")
        if config.eta is None:
            return replace(config, eta=default_eta(config.degree))
        check_penalty(config.eta)
        return config


def _joined(values):
    return ",".join(str(v) for v in values)


def _cell(column, value):
    """One CSV cell: blank for None, counts and names as they are, rates
    %.6f, other numbers %.12e."""
    if value is None:
        return ""
    if column in ("n", "mode", "dofs_total", "dofs_skeleton"):
        return str(value)
    return f"{value:.6f}" if column.startswith("rate") else f"{value:.12e}"


def _config_comment(config):
    return ("# config: study={study} problem={problem} method={method} degree={degree} "
            "epsilon={eps:.6e} eta={eta:.6e} skeleton={skel} n={n}").format(
                study=config.study, problem=config.problem, method=config.method,
                degree=config.degree, eps=config.epsilon, eta=config.eta,
                skel=config.skeleton, n=_joined(config.mesh_sizes))


def _write_samples(path, pts, vals):
    """The points ``pts`` (n, 2) and values ``vals`` (n,) as one float64
    (n, 3) array of (x, y, value) rows in ``.npy`` format, written to
    exactly ``path`` (``np.save`` would append ``.npy`` to a bare name)."""
    with open(path, "wb") as fh:
        np.save(fh, np.column_stack([pts, vals]))


class GridSampler:
    """The dump grid, x fastest, located in one mesh on first use, and the element
    basis tabulated there once per degree: a row's field dumps share one."""

    def __init__(self, mesh):
        self.mesh, self._tables = mesh, {}

    @cached_property
    def _located(self):
        xs = np.linspace(0.0, 1.0, GRID_RESOLUTION)
        pts = np.column_stack([np.tile(xs, xs.size), np.repeat(xs, xs.size)])
        return (pts, *_locate_points(self.mesh, pts))

    def sample(self, solution):
        """The grid points and the field there of ``solution``, which must live on this mesh."""
        pts, elems, ref = self._located
        if solution.degree not in self._tables:
            self._tables[solution.degree] = get_element_basis(solution.degree).values(ref)
        return pts, (solution.u[elems] * self._tables[solution.degree]).sum(axis=1)


def dump_field_grid(solution, path, grid=None):
    """Sample the element field on the regular grid, x fastest, as (x, y, value) rows;
    ``grid``, a :class:`GridSampler` of the solution's mesh, shares its location."""
    _write_samples(path, *(grid or GridSampler(solution.mesh)).sample(solution))


def dump_trace(solution, path):
    """Sample the skeleton trace edge by edge at TRACE_SAMPLES, as (x, y, value) rows."""
    skel = solution.dofmap.skeleton_edges
    ts = np.asarray(TRACE_SAMPLES)
    pts = solution.mesh.edge_points(ts, skel).reshape(-1, 2)
    vals = solution.edge_traces()[skel] @ solution.dofmap.edge_basis.values(ts).T
    _write_samples(path, pts, vals.ravel())


_ROW_ERRORS = (ElementSolvabilityError, SingularSystemError, ValueError)


def _quad_order(case, degree):
    """The case's quadrature order as a floor under the default 2k + 2."""
    return None if case.quad_order is None else max(case.quad_order, default_quad_order(degree))


def _solve_hdg(config, case, mesh):
    return solve_hdg(case.problem, mesh, degree=config.degree, eta=config.eta,
                     skeleton_mode=config.skeleton, quad_order=_quad_order(case, config.degree))


def _hdg_cells(config, case, mesh):
    """An HDG solve and the cells the convergence and layer tables share,
    the errors over the case's region from one :func:`errors` call."""
    sol = _solve_hdg(config, case, mesh)
    err_l2, err_h1, report = errors(sol, case, config.eta)
    return sol, {"dofs_total": sol.info["dofs_total"], "dofs_skeleton": sol.info["dofs_skeleton"],
                 "err_l2": err_l2, "err_h1": err_h1, "err_hdg": report.err_hdg}


# A row function maps (config, case, mesh) to the row's cells by column
# name and its dumps, (file tag, writer, solution) triples written only
# with --out.

def _convergence_row(config, case, mesh):
    if config.method == "supg":
        sol = solve_supg(case.problem, mesh, quad_order=_quad_order(case, 1))
        return {"dofs_total": sol.info["dofs_total"],
                "err_l2": error_l2(sol, case.exact, region=case.region),
                "err_h1": error_h1_broken(sol, case.exact_grad, region=case.region)}, ()
    return _hdg_cells(config, case, mesh)[1], ()


def _layer_row(config, case, mesh):
    """Errors in the layer-free box and the overshoots of the hybrid
    solver and of the stabilized baseline."""
    sol, cells = _hdg_cells(config, case, mesh)
    cells["overshoot_hdg"] = overshoot_metric(sol, case.exact_max)
    supg_sol = solve_supg(case.problem, mesh, quad_order=_quad_order(case, 1))
    cells["overshoot_supg"] = overshoot_metric(supg_sol, case.exact_max)
    dump_grid = partial(dump_field_grid, grid=GridSampler(mesh))
    return cells, (("uh_hdg", dump_grid, sol), ("uhat_hdg", dump_trace, sol),
                   ("uh_supg", dump_grid, supg_sol))


def _reduced_limit_row(config, case, mesh):
    """Distance to the transport limit u0 at one epsilon."""
    sol = _solve_hdg(config, case, mesh)
    err_l2 = error_l2(sol, case.exact)
    rep = error_hdg(sol, case.exact, case.problem, config.eta)
    return {"err_l2": err_l2, "err_jump": float(np.sqrt(rep.jump_sq)),
            "err_conv": float(np.sqrt(rep.conv_sq)), "err_hdg": rep.err_hdg}, ()


def _skeleton_row(config, case, mesh):
    """The layer problem with a discontinuous or a continuous trace space."""
    sol = _solve_hdg(config, case, mesh)
    cells = {"dofs_total": sol.info["dofs_total"], "dofs_skeleton": sol.info["dofs_skeleton"],
             "err_l2": error_l2(sol, case.exact, region=case.region),
             "overshoot": overshoot_metric(sol, case.exact_max)}
    return cells, ((f"uhat_{config.skeleton}", dump_trace, sol),)


def _last_two_ratio(rows):
    """Closing comment with the ratio of the last two L2 distances, and the
    failure when it is above 2 (in either direction)."""
    dists = [row["err_l2"] for row in rows[-2:]]
    if len(dists) < 2 or min(dists) <= 0.0:
        return [], None
    ratio = max(dists) / min(dists)
    failure = None
    if ratio > 2.0:
        failure = ("distance to the reduced solution is not bounded: "
                   f"last-two ratio {ratio:.3f} > 2")
    return [f"# last_two_ratio_l2={ratio:.6f}"], failure


@dataclass(frozen=True)
class Study:
    """What one study adds to the shared row loop of :func:`run_study`."""

    columns: str                  # the CSV columns, comma-separated
    mesh_sizes: Tuple[int, ...]   # the default --n
    row: Callable                 # see the row functions above
    fixes: dict = field(default_factory=dict)   # RunConfig fields the study sets
    modes: Tuple[str, ...] = ()   # skeleton modes solved per mesh; () runs --skeleton
    sweeps_epsilon: bool = False  # rows sweep REDUCED_EPSILONS on one mesh size
    close: Optional[Callable] = None  # rows -> (closing comments, failure or None)


STUDIES = {
    "convergence": Study(
        "n,h,dofs_total,dofs_skeleton,err_l2,err_h1,err_hdg,rate_l2,rate_h1",
        (8, 16, 32, 64), _convergence_row),
    "layer": Study(
        "n,h,dofs_total,dofs_skeleton,err_l2,err_h1,err_hdg,rate_l2,rate_h1,"
        "overshoot_hdg,overshoot_supg",
        (10, 20, 40, 80), _layer_row, fixes={"problem": "layer", "method": "hdg"}),
    "reduced_limit": Study(
        "epsilon,n,h,err_l2,err_jump,err_conv,err_hdg",
        (16,), _reduced_limit_row,
        fixes={"problem": "reduced_limit", "method": "hdg", "epsilon": 1.0},
        sweeps_epsilon=True, close=_last_two_ratio),
    "skeleton_compare": Study(
        "mode,n,h,dofs_total,dofs_skeleton,err_l2,overshoot",
        (10,), _skeleton_row,
        fixes={"problem": "layer", "method": "hdg", "degree": 1, "skeleton": "dg"},
        modes=("dg", "cg")),
}


def _sweep(config, study):
    """(error label, point cells, row config, case, mesh) of each row in
    sweep order; a study with its own ``modes`` gets one row config per
    skeleton mode.

    The source check and the mesh build run here, outside the rows' error
    handling, so a wrong source term or mesh aborts the study."""
    epsilons = REDUCED_EPSILONS if study.sweeps_epsilon else (config.epsilon,)
    for eps in epsilons:
        case = get_case(config.problem, eps)
        verify_source_term(case)
        for n in config.mesh_sizes:
            mesh = build_uniform_triangulation(n, case.problem.boundary)
            point = {"epsilon": eps, "n": n, "h": float(mesh.h_K.max())}
            for mode in study.modes or (config.skeleton,):
                label = f"epsilon={eps:.6e}" if study.sweeps_epsilon else f"n={n}"
                if study.modes:
                    label += f" mode={mode}"
                row_config = replace(config, skeleton=mode) if study.modes else config
                yield label, dict(point, mode=mode), row_config, case, mesh


def _rates(prev, row):
    """Observed L2 and H1 orders against the previous row, None without one."""
    if prev is None:
        return None, None
    h = [prev["h"], row["h"]]
    return (convergence_table([prev["err_l2"], row["err_l2"]], h)[0],
            convergence_table([prev["err_h1"], row["err_h1"]], h)[0])


def _write_dumps(config, n, dumps):
    """Write a row's dumps next to ``config.out``; a function, so that its
    loop variables, which hold the row's solutions, end with it."""
    for tag, write, sol in dumps:
        write(sol, f"{config.out.removesuffix('.csv')}_{tag}_n{n}.npy")


def run_study(config):
    """Run ``config.study`` row by row; returns the CSV text, also written
    to ``config.out`` with the study's dumps next to it.

    A row whose solve fails becomes a ``# error: <label>: <message>``
    comment in sweep order, and the rates restart after it. A failed
    closing check (reduced_limit) raises :class:`StudyError` once the
    table is written.
    """
    config = config.validate()
    study = STUDIES[config.study]
    columns = study.columns.split(",")
    lines = [f"# hdgcd {config.study} v1: {study.columns}", _config_comment(config)]
    rows, prev = [], None
    for label, point, row_config, case, mesh in _sweep(config, study):
        try:
            cells, dumps = study.row(row_config, case, mesh)
        except _ROW_ERRORS as exc:
            lines.append(f"# error: {label}: {exc}")
            prev = None
            continue
        cells = dict(point, **cells)
        if "rate_l2" in columns:
            cells["rate_l2"], cells["rate_h1"] = _rates(prev, cells)
        lines.append(",".join(_cell(column, cells.get(column)) for column in columns))
        rows.append(cells)
        prev = cells
        if config.out:
            _write_dumps(config, point["n"], dumps)
        del dumps   # the row's solutions do not live through the next row's solves
    comments, failure = study.close(rows) if study.close else ([], None)
    text = "\n".join(lines + comments) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    if failure:
        raise StudyError(failure)
    return text


_RUNNERS = dict.fromkeys(STUDIES, run_study)


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _parse_mesh_sizes(text):
    """Comma-separated integers; an empty item (",,10", "") is an error."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse mesh sizes from {text!r}") from None


# config-file key and long flag -> (RunConfig field, parser, help); flags
# and file values are both parsed here, so a bad value fails the same way
_KEYS = {
    "study": ("study", str, f"which study to run: {', '.join(STUDIES)} (default: convergence)"),
    "problem": ("problem", str, f"problem name ({', '.join(CASE_NAMES)})"),
    "method": ("method", str, "hdg or supg"),
    "degree": ("degree", int, "polynomial degree k"),
    "epsilon": ("epsilon", float, "diffusion coefficient"),
    "n": ("mesh_sizes", _parse_mesh_sizes, "comma-separated mesh subdivision counts, e.g. 8,16,32"),
    "eta": ("eta", float, "penalty parameter (default 10 k^2)"),
    "skeleton": ("skeleton", str, "trace space: dg or cg"),
    "out": ("out", str, "CSV output path (default: stdout)"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdgcd",
        description="Hybridized DG convection-diffusion studies (CSV output).")
    for key, (_, _, help_text) in _KEYS.items():
        parser.add_argument(f"--{key}", default=None, help=help_text)
    parser.add_argument("--config", default=None, help="key=value config file; flags override")
    return parser


def _build_config(args):
    """RunConfig from the config file's values overridden by the flags;
    :meth:`RunConfig.validate` fills in the defaults."""
    values = _parse_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in _KEYS if getattr(args, key) is not None)
    fields = {}
    for key, value in values.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}; available: {', '.join(_KEYS)}")
        name, parse, _ = _KEYS[key]
        try:
            fields[name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None
    return RunConfig(**fields).validate()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        text = _RUNNERS[config.study](config)
    except (ValueError, StudyError, OSError,
            ElementSolvabilityError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; lower --n or --degree", file=sys.stderr)
        return 1
    if not config.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
