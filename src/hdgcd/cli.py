"""Batch experiment driver: studies, CSV tables and plot-ready field dumps.

Each study emits a CSV whose column schema is versioned in a leading
``#`` comment; reruns with the same configuration are byte-identical.
Solver failures do not abort a study: the affected row is replaced by a
``# error:`` comment and the remaining rows still run.

Configuration comes from command-line flags, optionally seeded from a
``key=value`` text file (flags override the file).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from hdgcd.analysis import (convergence_table, error_hdg, error_l2,
                            error_h1_broken, overshoot_metric)
from hdgcd.assembly import default_eta
from hdgcd.fespace import get_edge_basis, get_element_basis
from hdgcd.mesh import build_uniform_triangulation
from hdgcd.problems import CASE_NAMES, case_reduced_limit, get_case, verify_source_term
from hdgcd.solver import ElementSolvabilityError, SingularSystemError, solve_hdg
from hdgcd.supg import solve_supg

STUDIES = ("convergence", "layer", "reduced_limit", "skeleton_compare")
DEFAULT_MESH_SIZES = {
    "convergence": (8, 16, 32, 64),
    "layer": (10, 20, 40, 80),
    "reduced_limit": (16,),
    "skeleton_compare": (10,),
}
REDUCED_EPSILONS = (1.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
GRID_RESOLUTION = 101


class StudyError(RuntimeError):
    """A study-level assertion failed (not a per-row solver error)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated study configuration."""

    study: str = "convergence"
    problem: str = "smooth"
    method: str = "hdg"
    degree: int = 1
    epsilon: float = 1.0
    mesh_sizes: Tuple[int, ...] = (8, 16, 32, 64)
    eta: Optional[float] = None
    skeleton: str = "dg"
    out: Optional[str] = None

    def validate(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; available: {', '.join(STUDIES)}")
        if self.problem not in CASE_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}; available: {', '.join(CASE_NAMES)}")
        if self.method not in ("hdg", "supg"):
            raise ValueError(f"unknown method {self.method!r}")
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ValueError(f"degree must be a positive integer, got {self.degree!r}")
        if self.method == "supg" and self.degree != 1:
            raise ValueError("the supg baseline is piecewise linear; use --degree 1")
        if self.skeleton not in ("dg", "cg"):
            raise ValueError(f"unknown skeleton mode {self.skeleton!r}")
        if self.skeleton == "cg" and self.degree != 1:
            raise ValueError("continuous skeleton mode requires --degree 1")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not self.mesh_sizes or any(n < 1 for n in self.mesh_sizes):
            raise ValueError("mesh sizes must be positive integers")
        if self.eta is not None and not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        return self


def _fmt(value):
    if value is None or value == "":
        return ""
    return f"{value:.12e}"


def _fmt_rate(value):
    if value is None:
        return ""
    return f"{value:.6f}"


def _config_comment(config, eta):
    n_list = ",".join(str(n) for n in config.mesh_sizes)
    return ("# config: study={study} problem={problem} method={method} degree={degree} "
            "epsilon={eps:.6e} eta={eta:.6e} skeleton={skel} n={n}").format(
                study=config.study, problem=config.problem, method=config.method,
                degree=config.degree, eps=config.epsilon, eta=eta,
                skel=config.skeleton, n=n_list)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _grid_points(resolution):
    xs = np.linspace(0.0, 1.0, resolution)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack([xg.ravel(), yg.ravel()])


def _locate_points(mesh, pts):
    """Element index and reference coordinates of each sample point."""
    n = mesh.generator_n
    if n is not None:
        x = np.clip(pts[:, 0], 0.0, 1.0)
        y = np.clip(pts[:, 1], 0.0, 1.0)
        i = np.minimum((x * n).astype(int), n - 1)
        j = np.minimum((y * n).astype(int), n - 1)
        xl = x * n - i
        yl = y * n - j
        lower = yl <= xl
        elems = 2 * (j * n + i) + np.where(lower, 0, 1)
        ref = np.empty_like(pts)
        ref[lower, 0] = xl[lower] - yl[lower]
        ref[lower, 1] = yl[lower]
        ref[~lower, 0] = xl[~lower]
        ref[~lower, 1] = yl[~lower] - xl[~lower]
        return elems, ref
    # generic fallback: barycentric test against every element, blockwise
    elems = np.full(pts.shape[0], -1, dtype=np.int64)
    ref = np.zeros_like(pts)
    v0 = mesh.vertices[mesh.triangles[:, 0]]
    inv_t = np.ascontiguousarray(mesh.inv_jacobians_t.transpose(0, 2, 1))
    for start in range(0, pts.shape[0], 512):
        chunk = pts[start:start + 512]
        loc = np.einsum("tab,ptb->pta", inv_t, chunk[:, None, :] - v0[None, :, :])
        ok = ((loc[..., 0] >= -1e-12) & (loc[..., 1] >= -1e-12)
              & (loc.sum(axis=-1) <= 1.0 + 1e-12))
        hit = ok.argmax(axis=1)
        found = ok[np.arange(chunk.shape[0]), hit]
        idx = np.arange(start, start + chunk.shape[0])
        elems[idx[found]] = hit[found]
        ref[idx[found]] = loc[np.arange(chunk.shape[0])[found], hit[found]]
    if np.any(elems < 0):
        raise ValueError("sample point outside the mesh")
    return elems, ref


def dump_field_grid(solution, path, resolution=GRID_RESOLUTION):
    """Sample the element field on a regular grid, written as 'x y value'."""
    pts = _grid_points(resolution)
    elems, ref = _locate_points(solution.mesh, pts)
    basis = get_element_basis(solution.degree)
    vals = (solution.u[elems] * basis.values(ref)).sum(axis=1)
    lines = [f"{p[0]:.12e} {p[1]:.12e} {v:.12e}" for p, v in zip(pts, vals)]
    _write_text(path, "\n".join(lines) + "\n")


def dump_trace(solution, path, samples=(0.0, 0.5, 1.0)):
    """Sample the skeleton trace per edge, written as 'x y value'."""
    skel = solution.dofmap.skeleton_edges
    ts = np.asarray(samples)
    pts = solution.mesh.edge_points(ts, skel).reshape(-1, 2)
    vals = (solution.edge_traces()[skel] @ get_edge_basis(solution.degree).values(ts).T).ravel()
    lines = [f"{p[0]:.12e} {p[1]:.12e} {v:.12e}" for p, v in zip(pts, vals)]
    _write_text(path, "\n".join(lines) + "\n")


def _out_stem(out):
    stem = out
    if stem.endswith(".csv"):
        stem = stem[:-4]
    return stem


def _solve_row(config, case, mesh, eta):
    """One (method, mesh) solve with the errors shared by the studies."""
    region = case.region
    if config.method == "supg":
        sol = solve_supg(case.problem, mesh, quad_order=case.quad_order)
        err_hdg_val = None
        dofs_skel = ""
    else:
        sol = solve_hdg(case.problem, mesh, degree=config.degree, eta=eta,
                        skeleton_mode=config.skeleton, quad_order=case.quad_order)
        err_hdg_val = error_hdg(sol, case.exact, case.problem, eta, region=region).err_hdg
        dofs_skel = sol.info["dofs_skeleton"]
    e_l2 = error_l2(sol, case.exact, region=region)
    e_h1 = error_h1_broken(sol, case.exact_grad, region=region)
    return sol, e_l2, e_h1, err_hdg_val, dofs_skel


_ROW_ERRORS = (ElementSolvabilityError, SingularSystemError, ValueError)


def _open_table(config, study, columns):
    """Validate ``config`` and resolve its penalty (default 10 k^2); returns
    (eta, lines) with the CSV's schema and config comment lines."""
    config.validate()
    eta = config.eta if config.eta is not None else default_eta(config.degree)
    return eta, [f"# hdgcd {study} v1: {columns}", _config_comment(config, eta)]


def _rates(prev, h, e_l2, e_h1):
    """Observed L2 and H1 orders against the previous row's (h, e_l2, e_h1),
    None without a previous row."""
    if prev is None:
        return None, None
    h0, l2_0, h1_0 = prev
    return (convergence_table([l2_0, e_l2], [h0, h])[0],
            convergence_table([h1_0, e_h1], [h0, h])[0])


def run_convergence_study(config):
    """Mesh refinement sweep on one problem; returns the CSV text."""
    eta, lines = _open_table(config, "convergence",
                             "n,h,dofs_total,dofs_skeleton,err_l2,err_h1,err_hdg,rate_l2,rate_h1")
    case = get_case(config.problem, config.epsilon)
    verify_source_term(case)
    results = []
    for n in config.mesh_sizes:
        mesh = build_uniform_triangulation(n, case.problem.boundary)
        try:
            sol, e_l2, e_h1, e_hdg, dofs_skel = _solve_row(config, case, mesh, eta)
        except _ROW_ERRORS as exc:
            lines.append(f"# error: n={n}: {exc}")
            results.append(None)
            continue
        results.append((n, float(mesh.h_K.max()), sol.info["dofs_total"],
                        dofs_skel, e_l2, e_h1, e_hdg))
    prev = None
    for res in results:
        if res is None:
            prev = None
            continue
        n, h, dofs_total, dofs_skel, e_l2, e_h1, e_hdg = res
        rate_l2, rate_h1 = _rates(prev, h, e_l2, e_h1)
        lines.append(",".join([
            str(n), _fmt(h), str(dofs_total), str(dofs_skel),
            _fmt(e_l2), _fmt(e_h1), _fmt(e_hdg) if e_hdg is not None else "",
            _fmt_rate(rate_l2), _fmt_rate(rate_h1)]))
        prev = (h, e_l2, e_h1)
    text = "\n".join(lines) + "\n"
    if config.out:
        _write_text(config.out, text)
    return text


def run_layer_study(config):
    """Boundary-layer benchmark: errors in the layer-free box, overshoots
    for both the hybrid solver and the stabilized baseline, field dumps."""
    config = replace(config, problem="layer")
    eta, lines = _open_table(config, "layer", "n,h,dofs_total,dofs_skeleton,err_l2,err_h1,"
                             "err_hdg,rate_l2,rate_h1,overshoot_hdg,overshoot_supg")
    case = get_case("layer", config.epsilon)
    verify_source_term(case)
    prev = None
    for n in config.mesh_sizes:
        mesh = build_uniform_triangulation(n, case.problem.boundary)
        h = float(mesh.h_K.max())
        try:
            sol = solve_hdg(case.problem, mesh, degree=config.degree, eta=eta,
                            skeleton_mode=config.skeleton, quad_order=case.quad_order)
            e_l2 = error_l2(sol, case.exact, region=case.region)
            e_h1 = error_h1_broken(sol, case.exact_grad, region=case.region)
            e_hdg = error_hdg(sol, case.exact, case.problem, eta, region=case.region).err_hdg
            over_hdg = overshoot_metric(sol, case.exact_max)
            supg_sol = solve_supg(case.problem, mesh, quad_order=case.quad_order)
            over_supg = overshoot_metric(supg_sol, case.exact_max)
        except _ROW_ERRORS as exc:
            lines.append(f"# error: n={n}: {exc}")
            prev = None
            continue
        rate_l2, rate_h1 = _rates(prev, h, e_l2, e_h1)
        lines.append(",".join([
            str(n), _fmt(h), str(sol.info["dofs_total"]), str(sol.info["dofs_skeleton"]),
            _fmt(e_l2), _fmt(e_h1), _fmt(e_hdg),
            _fmt_rate(rate_l2), _fmt_rate(rate_h1),
            _fmt(over_hdg), _fmt(over_supg)]))
        prev = (h, e_l2, e_h1)
        if config.out:
            stem = _out_stem(config.out)
            dump_field_grid(sol, f"{stem}_uh_hdg_n{n}.dat")
            dump_trace(sol, f"{stem}_uhat_hdg_n{n}.dat")
            dump_field_grid(supg_sol, f"{stem}_uh_supg_n{n}.dat")
    text = "\n".join(lines) + "\n"
    if config.out:
        _write_text(config.out, text)
    return text


def run_reduced_limit_study(config, epsilons=REDUCED_EPSILONS):
    """Distance to the transport limit u0 as epsilon decreases at fixed n.

    The final comment records the ratio of the last two L2 distances; a
    ratio above 2 (in either direction) raises :class:`StudyError`.
    """
    config = replace(config, problem="reduced_limit")
    eta, lines = _open_table(config, "reduced_limit", "epsilon,n,h,err_l2,err_jump,err_conv,err_hdg")
    n = config.mesh_sizes[0]
    dists = []
    for eps in epsilons:
        case = case_reduced_limit(eps)
        verify_source_term(case)
        mesh = build_uniform_triangulation(n, case.problem.boundary)
        h = float(mesh.h_K.max())
        try:
            sol = solve_hdg(case.problem, mesh, degree=config.degree, eta=eta,
                            skeleton_mode=config.skeleton, quad_order=case.quad_order)
        except _ROW_ERRORS as exc:
            lines.append(f"# error: epsilon={eps:.6e}: {exc}")
            continue
        e_l2 = error_l2(sol, case.exact)
        rep = error_hdg(sol, case.exact, case.problem, eta)
        dists.append(e_l2)
        lines.append(",".join([
            _fmt(eps), str(n), _fmt(h), _fmt(e_l2),
            _fmt(rep.err_jump), _fmt(float(np.sqrt(rep.conv_sq))), _fmt(rep.err_hdg)]))
    ratio = None
    if len(dists) >= 2 and min(dists[-2:]) > 0.0:
        ratio = max(dists[-2:]) / min(dists[-2:])
        lines.append(f"# last_two_ratio_l2={ratio:.6f}")
    text = "\n".join(lines) + "\n"
    if config.out:
        _write_text(config.out, text)
    if ratio is not None and ratio > 2.0:
        raise StudyError(
            f"distance to the reduced solution is not bounded: last-two ratio {ratio:.3f} > 2")
    return text


def run_skeleton_mode_comparison(config):
    """Layer problem with discontinuous vs continuous skeleton spaces."""
    config = replace(config, degree=1, problem="layer")
    eta, lines = _open_table(config, "skeleton_compare",
                             "mode,n,h,dofs_total,dofs_skeleton,err_l2,overshoot")
    case = get_case("layer", config.epsilon)
    verify_source_term(case)
    for n in config.mesh_sizes:
        mesh = build_uniform_triangulation(n, case.problem.boundary)
        h = float(mesh.h_K.max())
        for mode in ("dg", "cg"):
            try:
                sol = solve_hdg(case.problem, mesh, degree=1, eta=eta,
                                skeleton_mode=mode, quad_order=case.quad_order)
            except _ROW_ERRORS as exc:
                lines.append(f"# error: n={n} mode={mode}: {exc}")
                continue
            e_l2 = error_l2(sol, case.exact, region=case.region)
            over = overshoot_metric(sol, case.exact_max)
            lines.append(",".join([
                mode, str(n), _fmt(h), str(sol.info["dofs_total"]),
                str(sol.info["dofs_skeleton"]), _fmt(e_l2), _fmt(over)]))
            if config.out:
                stem = _out_stem(config.out)
                dump_trace(sol, f"{stem}_uhat_{mode}_n{n}.dat")
    text = "\n".join(lines) + "\n"
    if config.out:
        _write_text(config.out, text)
    return text


_RUNNERS = {
    "convergence": run_convergence_study,
    "layer": run_layer_study,
    "reduced_limit": run_reduced_limit_study,
    "skeleton_compare": run_skeleton_mode_comparison,
}


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
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"could not parse mesh sizes from {text!r}") from None
    if not sizes:
        raise ValueError("empty mesh size list")
    return sizes


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdgcd",
        description="Hybridized DG convection-diffusion studies (CSV output).")
    parser.add_argument("--study", choices=STUDIES, default=None,
                        help="which study to run (default: convergence)")
    parser.add_argument("--problem", default=None,
                        help=f"problem name ({', '.join(CASE_NAMES)})")
    parser.add_argument("--method", default=None, help="hdg or supg")
    parser.add_argument("--degree", type=int, default=None, help="polynomial degree k")
    parser.add_argument("--epsilon", type=float, default=None, help="diffusion coefficient")
    parser.add_argument("--n", default=None,
                        help="comma-separated mesh subdivision counts, e.g. 8,16,32")
    parser.add_argument("--eta", type=float, default=None,
                        help="penalty parameter (default 10 k^2)")
    parser.add_argument("--skeleton", default=None, help="trace space: dg or cg")
    parser.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    parser.add_argument("--config", default=None, help="key=value config file; flags override")
    return parser


def _build_config(args):
    values = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    for key in ("study", "problem", "method", "degree", "epsilon", "n", "eta",
                "skeleton", "out"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    study = str(values.get("study", "convergence"))
    mesh_sizes = values.get("n")
    if mesh_sizes is None:
        mesh_sizes = DEFAULT_MESH_SIZES.get(study, (8, 16, 32, 64))
    elif isinstance(mesh_sizes, str):
        mesh_sizes = _parse_mesh_sizes(mesh_sizes)
    eta = values.get("eta")
    if isinstance(eta, str):
        eta = float(eta)
    return RunConfig(
        study=study,
        problem=str(values.get("problem", "smooth")),
        method=str(values.get("method", "hdg")),
        degree=int(values.get("degree", 1)),
        epsilon=float(values.get("epsilon", 1.0)),
        mesh_sizes=tuple(mesh_sizes),
        eta=eta,
        skeleton=str(values.get("skeleton", "dg")),
        out=values.get("out"),
    ).validate()


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
    if not config.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
