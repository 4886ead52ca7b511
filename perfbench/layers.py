"""The hdgcd layers the traced run measures, and what each should move.

``LAYER_METRICS`` is the map later changes cite: every per-layer metric
names the span or count it is read from, the end-to-end metric and
workloads it should move (``moves``), and the workloads on which it should
leave that metric unchanged (``holds``).  ``targets()`` lists the module
attributes the tracer wraps; each is the name the caller looks up, so
``hdgcd.solver.condense`` is what ``solve_hdg`` calls and
``hdgcd.cli.solve_supg`` is what the layer study calls.
"""

from __future__ import annotations

import numpy as np

K1 = "smooth_k1_n32"
K3 = "smooth_k3_jitter"
LAYER = "layer_study"


def _m(name, unit, better, source, moves, holds=()):
    return {"name": name, "unit": unit, "better": better, "source": source,
            "moves": [list(p) for p in moves], "holds": [list(p) for p in holds]}


def _op(*workloads):
    return [("op_ref", w) for w in workloads]


LAYER_METRICS = [
    _m("mesh.build_s", "s", "lower", "span:mesh.build", _op(LAYER), _op(K1, K3)),
    _m("fespace.dofmap_s", "s", "lower", "span:fespace.dofmap", _op(LAYER), _op(K1, K3)),
    _m("assembly.check_s", "s", "lower", "span:assembly.check",
       _op(K1, LAYER) + [("dofs_per_ref", K1), ("dofs_per_ref", LAYER)]),
    _m("assembly.local_s", "s", "lower", "span:assembly.local",
       _op(K1, LAYER) + [("dofs_per_ref", K1), ("dofs_per_ref", LAYER)]),
    _m("assembly.elements", "count", "lower", "count:assembly.elements",
       _op(K1, LAYER) + [("dofs_per_ref", K1), ("dofs_per_ref", LAYER)]),
    _m("solver.condense_s", "s", "lower", "span:solver.condense", _op(K3)),
    _m("solver.blocks", "count", "lower", "count:solver.blocks", _op(K3)),
    _m("solver.S_nnz", "count", "lower", "count:solver.S_nnz", _op(K3)),
    _m("solver.condense_flops", "count", "lower", "count:solver.condense_flops", _op(K3)),
    _m("solver.condense_gflops", "GFLOP/s", "higher",
       "ratio:solver.condense_flops/solver.condense", _op(K3)),
    _m("solver.skeleton_solve_s", "s", "lower", "span:solver.skeleton_solve",
       _op(K3), _op(LAYER)),
    _m("solver.skeleton_dofs", "count", "lower", "count:solver.skeleton_dofs",
       _op(K3), _op(LAYER)),
    _m("solver.recover_s", "s", "lower", "span:solver.recover", _op(K1)),
    _m("analysis.error_l2_s", "s", "lower", "span:analysis.error_l2", _op(K1, LAYER), _op(K3)),
    _m("analysis.error_h1_s", "s", "lower", "span:analysis.error_h1", _op(K1, LAYER), _op(K3)),
    _m("analysis.error_hdg_s", "s", "lower", "span:analysis.error_hdg", _op(K1, LAYER), _op(K3)),
    _m("analysis.conservation_s", "s", "lower", "span:analysis.conservation", _op(K1), _op(K3)),
    _m("analysis.overshoot_s", "s", "lower", "span:analysis.overshoot", _op(LAYER), _op(K3)),
    _m("supg.solve_s", "s", "lower", "span:supg.solve", _op(LAYER), _op(K1, K3)),
    _m("supg.dofs", "count", "lower", "count:supg.dofs", _op(LAYER), _op(K1, K3)),
    _m("problems.verify_source_s", "s", "lower", "span:problems.verify_source",
       _op(LAYER), _op(K1, K3)),
    _m("cli.study_self_s", "s", "lower", "span:cli.study", _op(LAYER), _op(K1, K3)),
    _m("cli.dump_s", "s", "lower", "span:cli.dump", _op(LAYER), _op(K1, K3)),
    _m("cli.bytes_written", "count", "lower", "count:cli.bytes_written", _op(LAYER), _op(K1, K3)),
    # Not layers: the cost of tracing and the op time no layer span covers.
    _m("trace.op_s", "s", "lower", "trace:op_s", []),
    _m("trace.overhead_s", "s", "lower", "trace:overhead_s", []),
    _m("trace.unattributed_s", "s", "lower", "span:op", []),
]


def _dofmap(args, kwargs):
    from hdgcd.fespace import DofMap
    return next(a for a in (*args, *kwargs.values()) if isinstance(a, DofMap))


def _assembly_counts(result, args, kwargs):
    return {"assembly.elements": _dofmap(args, kwargs).mesh.n_elements}


def _condense_counts(system, args, kwargs):
    # Per block, with n interior and m active trace unknowns: values-only
    # SVD for the condition estimate (8/3 n^3), LU (2/3 n^3), the solve
    # against the coupling and load columns (2 n^2 (m + 1)) and the Schur
    # update of S and g (2 m^2 n + 2 m n).  Sizes come from the dof map.
    dofmap = _dofmap(args, kwargs)
    n = dofmap.ndof_elem
    m = (dofmap.edge_dofs[dofmap.mesh.elem_edges] >= 0).reshape(dofmap.mesh.n_elements, -1).sum(axis=1)
    per_block = (8 * n ** 3) // 3 + (2 * n ** 3) // 3 + 2 * n * n * (m + 1) + 2 * m * m * n + 2 * m * n
    return {"solver.blocks": int(m.size), "solver.S_nnz": int(system.S.nnz),
            "solver.condense_flops": int(per_block.sum())}


def targets():
    """(span name, holder, attribute, counter) for every wrapped call site."""
    import hdgcd.analysis
    import hdgcd.cli
    import hdgcd.mesh
    import hdgcd.problems
    import hdgcd.solver
    import hdgcd.supg
    import workloads

    a, c, me, p, s, sg = (hdgcd.analysis, hdgcd.cli, hdgcd.mesh, hdgcd.problems,
                          hdgcd.solver, hdgcd.supg)
    return [
        ("mesh.build", workloads, "mesh_from_arrays", None),
        ("mesh.build", me, "build_uniform_triangulation", None),
        ("mesh.build", c, "build_uniform_triangulation", None),
        ("fespace.dofmap", s, "build_dofmap", None),
        ("assembly.check", s, "check_problem", None),
        ("assembly.check", sg, "check_problem", None),
        ("assembly.local", s, "assemble_local_systems", _assembly_counts),
        ("solver.condense", s, "condense", _condense_counts),
        ("solver.skeleton_solve", s, "solve_skeleton",
         lambda r, args, kw: {"solver.skeleton_dofs": int(np.size(r))}),
        ("solver.recover", s, "recover_interior", None),
        ("analysis.error_l2", a, "error_l2", None),
        ("analysis.error_l2", c, "error_l2", None),
        ("analysis.error_h1", a, "error_h1_broken", None),
        ("analysis.error_h1", c, "error_h1_broken", None),
        ("analysis.error_hdg", a, "error_hdg", None),
        ("analysis.error_hdg", c, "error_hdg", None),
        ("analysis.conservation", a, "conservation_residual", None),
        ("analysis.overshoot", a, "overshoot_metric", None),
        ("analysis.overshoot", c, "overshoot_metric", None),
        ("supg.solve", sg, "solve_supg", lambda r, args, kw: {"supg.dofs": int(r.info["dofs_total"])}),
        ("supg.solve", c, "solve_supg", lambda r, args, kw: {"supg.dofs": int(r.info["dofs_total"])}),
        ("problems.verify_source", p, "verify_source_term", None),
        ("problems.verify_source", c, "verify_source_term", None),
        ("cli.study", c._RUNNERS, "layer", None),
        ("cli.dump", c, "dump_field_grid", None),
        ("cli.dump", c, "dump_trace", None),
    ]
