"""Each rule has one home in the source: a static (ast) pass over src/hdgcd.

* The trace basis belongs to the dof map: only ``fespace.py`` (and the
  package's re-export) names ``get_edge_basis`` or ``EdgeBasis``, only it
  calls ``edge_basis.values`` (everything else reads the one symmetric
  table ``DofMap.trace_values``), and ``AssemblyContext`` keeps no trace table.
* User fields reach numbers only through ``assembly.eval_field``: no other
  function calls ``.b``, ``.c``, ``.f``, ``.exact`` or ``.exact_grad``, or a
  callable named ``velocity`` or ``func``.
* The dof map owns its index conventions: ``np.append`` (the -1 slot that
  reads 0) and any comparison on ``edge_dofs``, ``vertex_dofs`` or
  ``element_trace_dofs()`` appear only in ``fespace.py``.
* ``mesh.py`` owns the uniform mesh's numbering: only it reads
  ``generator_n``.  Only ``AssemblyContext`` reads its edge points ``X_edge``.
* Orientation reaches two index maps only: nothing outside ``mesh.py``
  reads ``edge_forward``, only ``DofMap.element_trace_dofs`` and
  ``AssemblyContext.traces`` read ``Mesh.slot_index``, and the
  ``TraceTables`` the latter builds hold no per-element basis axis, so
  their shapes do not depend on the degree.
* A study row reads one config: every ``Study.row`` takes exactly
  ``(config, case, mesh)``.
* The error measures have one evaluation domain, the whole mesh: the
  context's volume helpers take no element index, and ``analysis.py``
  tests no index for being a slice.
* A problem's volume fields are evaluated in one place: ``problem.b``,
  ``.c`` and ``.f`` reach ``volume_values`` only in ``AssemblyContext.fields``.
* The assemblers form the coefficient arrays: ``transport`` and ``load``
  take them and name none of ``volume_weights``, ``pull_back`` or
  ``traces``.
* Every global system is solved and verified in one place: only
  ``sparse_solve`` names ``RESIDUAL_RTOL`` or calls ``sparse_factor``.
* Condensation eliminates through one inverse per block: ``condense``
  calls ``np.linalg.inv`` and never ``np.linalg.solve``.
* Element systems exist only as stacks: nothing but ``ElementSystems.zeros``
  constructs an ``ElementSystems``, so no per-element view can return.

Two guards run code instead.  A layer study keeps nothing past its rows:
``hdgcd.cli``'s module globals keep their names and objects, each study
mesh holds only the assembly contexts the solves and norms use, and a
row's one grid sampler, which locates the dump grid once, dies with the
row.  The volume kernels read the context's per-point product tables,
which only a kernel builds: ``transport`` returns one stacked matrix
array, and the context has no ``streamline`` derivatives.
"""

import ast
import functools
import inspect
import weakref
from pathlib import Path

import numpy as np

import hdgcd.cli
from hdgcd.analysis import error_l2, project_to_hdg
from hdgcd.assembly import AssemblyContext, get_context, pull_back, transport
from hdgcd.cli import STUDIES, RunConfig, run_study
from hdgcd.fespace import build_dofmap
from hdgcd.mesh import build_uniform_triangulation
from hdgcd.problems import case_smooth

SRC = Path(__file__).resolve().parent.parent / "src" / "hdgcd"
TRACE_NAMES = {"get_edge_basis", "EdgeBasis"}
TRACE_ATTRS = {"edge_basis", "E", "E_slots"}
FIELD_ATTRS = {"b", "c", "f", "exact", "exact_grad"}
FIELD_PARAMS = {"velocity", "func"}
DOF_TABLES = {"edge_dofs", "vertex_dofs", "element_trace_dofs"}


@functools.cache
def modules():
    """The parsed modules of ``src/hdgcd`` by file name, parsed once per session;
    no test may mutate a tree."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert {"assembly.py", "fespace.py"} <= set(trees)
    return trees


def names(node):
    """Every identifier ``node`` mentions: names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub.lineno
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub.lineno
        elif isinstance(sub, ast.alias):
            yield sub.name, sub.lineno


def raw_field_calls(node):
    """(line, callee) of the field calls in ``node``, skipping eval_field's body."""
    if isinstance(node, ast.FunctionDef) and node.name == "eval_field":
        return
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Attribute) and callee.attr in FIELD_ATTRS:
            yield node.lineno, f".{callee.attr}("
        elif isinstance(callee, ast.Name) and callee.id in FIELD_PARAMS:
            yield node.lineno, f"{callee.id}("
    for child in ast.iter_child_nodes(node):
        yield from raw_field_calls(child)


def test_the_edge_basis_is_named_only_in_fespace():
    found = [f"{name}:{line} {ident}" for name, tree in modules().items()
             if name not in ("fespace.py", "__init__.py")
             for ident, line in names(tree) if ident in TRACE_NAMES]
    assert found == []


def test_only_the_dof_map_tabulates_the_edge_basis():
    trees = modules()
    calls = {name: [sub.lineno for sub in ast.walk(tree)
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "values" and isinstance(sub.func.value, ast.Attribute)
                    and sub.func.value.attr == "edge_basis"]
             for name, tree in trees.items()}
    assert {name: lines for name, lines in calls.items() if lines and name != "fespace.py"} == {}
    # the guard does see trace_values' own call
    assert calls["fespace.py"]


def test_assembly_context_keeps_no_trace_table():
    tree = modules()["assembly.py"]
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "AssemblyContext")
    stored = [f"{sub.lineno} self.{sub.attr}" for sub in ast.walk(cls)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
              and sub.attr in TRACE_ATTRS]
    assert stored == []


def test_fields_are_called_only_in_eval_field():
    trees = modules()
    found = [f"{name}:{line} {call}" for name, tree in trees.items()
             for line, call in raw_field_calls(tree)]
    assert found == []
    # the guard does see the one call it exempts
    eval_field = next(node for node in trees["assembly.py"].body
                      if isinstance(node, ast.FunctionDef) and node.name == "eval_field")
    body = ast.Module(body=eval_field.body, type_ignores=[])
    assert [call for _, call in raw_field_calls(body)] == ["func("]


def dof_conventions(tree):
    """(line, what) of each ``np.append`` call and each comparison that
    mentions a dof table of ``DOF_TABLES``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            yield node.lineno, "np.append"
        elif isinstance(node, ast.Compare):
            for ident in sorted({ident for ident, _ in names(node)} & DOF_TABLES):
                yield node.lineno, f"comparison on {ident}"


def attribute_reads(tree, attr):
    return [sub.lineno for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)
            and sub.attr == attr and isinstance(sub.ctx, ast.Load)]


def test_dof_index_conventions_stay_in_fespace():
    trees = modules()
    found = [f"{name}:{line} {what}" for name, tree in trees.items() if name != "fespace.py"
             for line, what in dof_conventions(tree)]
    assert found == []
    # the guard does see the dof map's own gather
    assert "np.append" in {what for _, what in dof_conventions(trees["fespace.py"])}


def test_generator_n_is_read_only_in_mesh():
    trees = modules()
    found = [f"{name}:{line}" for name, tree in trees.items() if name != "mesh.py"
             for line in attribute_reads(tree, "generator_n")]
    assert found == []
    assert attribute_reads(trees["mesh.py"], "generator_n")


def test_edge_points_are_read_only_in_the_context():
    trees = modules()
    cls = next(node for node in trees["assembly.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "AssemblyContext")
    inside = set(attribute_reads(cls, "X_edge"))
    found = [f"{name}:{line}" for name, tree in trees.items()
             for line in attribute_reads(tree, "X_edge")
             if not (name == "assembly.py" and line in inside)]
    assert found == [] and inside


def method(tree, cls_name, name):
    """The definition of method ``name`` of class ``cls_name`` in ``tree``."""
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    return next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_orientation_is_read_only_where_the_trace_tables_are_built():
    trees = modules()
    assert [f"{name}:{line}" for name, tree in trees.items() if name != "mesh.py"
            for line in attribute_reads(tree, "edge_forward")] == []
    homes = {"assembly.py": method(trees["assembly.py"], "AssemblyContext", "traces"),
             "fespace.py": method(trees["fespace.py"], "DofMap", "element_trace_dofs")}
    inside = {name: set(attribute_reads(home, "slot_index")) for name, home in homes.items()}
    found = [f"{name}:{line}" for name, tree in trees.items()
             for line in attribute_reads(tree, "slot_index") if line not in inside.get(name, ())]
    assert found == [] and all(inside.values())
    # no field carries a basis axis: degrees 1 and 4 build equal shapes
    mesh = build_uniform_triangulation(3)
    shapes = [[np.shape(field) for field in get_context(mesh, k, 8).traces(mesh)] for k in (1, 4)]
    assert shapes[0] == shapes[1]


def test_every_row_takes_config_case_and_mesh():
    params = {name: list(inspect.signature(study.row).parameters)
              for name, study in STUDIES.items()}
    assert params == dict.fromkeys(STUDIES, ["config", "case", "mesh"])


def slice_tests(tree):
    """Lines of the ``isinstance(..., slice)`` calls in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and "slice" in {ident for ident, _ in names(node.args[1])}]


def test_error_measures_evaluate_on_the_whole_mesh():
    assert slice_tests(modules()["analysis.py"]) == []
    assert slice_tests(ast.parse("isinstance(rows, (slice, list))")) == [1]
    params = {name: list(inspect.signature(getattr(AssemblyContext, name)).parameters)
              for name in ("volume_values", "volume_weights")}
    assert params == {"volume_values": ["self", "func", "name", "vector"],
                      "volume_weights": ["self", "mesh"]}


def volume_field_calls(tree):
    """(line, field) of each ``volume_values`` call in ``tree`` whose field is
    a ``.b``, ``.c`` or ``.f`` attribute."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "volume_values" and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr in {"b", "c", "f"}):
            yield node.lineno, node.args[0].attr


def test_problem_fields_reach_volume_values_only_in_the_field_pass():
    trees = modules()
    cls = next(node for node in trees["assembly.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "AssemblyContext")
    method = next(node for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "fields")
    inside = set(volume_field_calls(method))
    found = [f"{name}:{line} .{attr}" for name, tree in trees.items()
             for line, attr in volume_field_calls(tree)
             if not (name == "assembly.py" and (line, attr) in inside)]
    assert found == []
    # the guard does see the field pass's own calls
    assert sorted(attr for _, attr in inside) == ["b", "c", "f"]


def test_kernels_take_the_arrays_their_assembler_formed():
    formers = {"volume_weights", "pull_back", "traces"}
    functions = {node.name: node for node in modules()["assembly.py"].body
                 if isinstance(node, ast.FunctionDef)}
    found = {name: sorted({ident for ident, _ in names(functions[name])} & formers)
             for name in ("transport", "load")}
    assert found == {"transport": [], "load": []}
    # the guard does see the assembler's own calls
    assert {ident for ident, _ in names(functions["assemble_local_systems"])} >= formers


def solve_checks(tree):
    """(line, what) of each read or import of ``RESIDUAL_RTOL`` and each
    call of ``sparse_factor`` in ``tree``; the constant's definition is
    no read."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id == "RESIDUAL_RTOL")
                or (isinstance(node, ast.Attribute) and node.attr == "RESIDUAL_RTOL")
                or (isinstance(node, ast.alias) and node.name == "RESIDUAL_RTOL")):
            yield node.lineno, "RESIDUAL_RTOL"
        elif isinstance(node, ast.Call) and "sparse_factor" in {i for i, _ in names(node.func)}:
            yield node.lineno, "sparse_factor("


def test_only_sparse_solve_solves_and_checks_a_global_system():
    trees = modules()
    solve = next(node for node in trees["solver.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "sparse_solve")
    inside = set(solve_checks(solve))
    found = [f"{name}:{line} {what}" for name, tree in trees.items()
             for line, what in solve_checks(tree)
             if not (name == "solver.py" and (line, what) in inside)]
    assert found == []
    # the guard does see the solver's own factor call and bound
    assert {what for _, what in inside} == {"RESIDUAL_RTOL", "sparse_factor("}


def linalg_calls(tree):
    """Names of the ``np.linalg`` functions ``tree`` calls."""
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
            and isinstance(node.func.value.value, ast.Name) and node.func.value.value.id == "np"}


def test_condensation_eliminates_through_one_inverse():
    condense = next(node for node in modules()["solver.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "condense")
    calls = linalg_calls(condense)
    assert "inv" in calls and "solve" not in calls, calls
    # the guard does see a batched solve
    assert linalg_calls(ast.parse("X = np.linalg.solve(A, B)")) == {"solve"}


def element_systems_builds(tree):
    """(line, enclosing class and function path) of each call in ``tree`` that
    constructs an ``ElementSystems``: by name, or as ``cls(...)`` or
    ``type(...)(...)`` inside that class."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            f = node.func
            named = (isinstance(f, ast.Name) and f.id == "ElementSystems"
                     or isinstance(f, ast.Attribute) and f.attr == "ElementSystems")
            own = (isinstance(f, ast.Name) and f.id == "cls"
                   or isinstance(f, ast.Call) and isinstance(f.func, ast.Name)
                   and f.func.id == "type")
            if named or own and where.startswith("ElementSystems."):
                found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_element_systems_exist_only_as_stacks():
    builds = {name: element_systems_builds(tree) for name, tree in modules().items()}
    found = [f"{name}:{line} {where}" for name, calls in builds.items()
             for line, where in calls if where != "ElementSystems.zeros"]
    assert found == []
    # the guard does see zeros' own call and a per-element view
    assert [where for _, where in builds["assembly.py"]] == ["ElementSystems.zeros"]
    view = ("class ElementSystems:\n"
            "    def element(self, t):\n"
            "        return ElementSystems(**{k: a[t] for k, a in vars(self).items()})\n")
    assert element_systems_builds(ast.parse(view)) == [(3, "ElementSystems.element")]


def test_a_layer_study_keeps_no_cache(tmp_path, monkeypatch):
    meshes, solutions, samplers, located = [], [], [], []
    build, locate = hdgcd.cli.build_uniform_triangulation, hdgcd.cli._locate_points

    def recording_build(*args, **kwargs):
        # no solution or grid sampler of the previous rows is alive when
        # the next row's mesh is built
        assert [ref() for ref in solutions + samplers] == [None] * len(solutions + samplers)
        meshes.append(build(*args, **kwargs))
        return meshes[-1]

    class RecordedSampler(hdgcd.cli.GridSampler):
        def __init__(self, mesh):
            super().__init__(mesh)
            samplers.append(weakref.ref(self))

    def counted_locate(mesh, pts):
        located.append(len(meshes))
        return locate(mesh, pts)

    def weakly_recorded(solve):
        def call(*args, **kwargs):
            sol = solve(*args, **kwargs)
            solutions.append(weakref.ref(sol))
            return sol
        return call

    def state():
        return {name: (id(value), len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(hdgcd.cli).items()}

    monkeypatch.setattr(hdgcd.cli, "build_uniform_triangulation", recording_build)
    for name in ("solve_hdg", "solve_supg"):
        monkeypatch.setattr(hdgcd.cli, name, weakly_recorded(getattr(hdgcd.cli, name)))
    monkeypatch.setattr(hdgcd.cli, "GridSampler", RecordedSampler)
    monkeypatch.setattr(hdgcd.cli, "_locate_points", counted_locate)
    before = state()
    run_study(RunConfig(study="layer", epsilon=1e-6, mesh_sizes=(4, 6, 8),
                        out=str(tmp_path / "layer.csv")))
    assert state() == before
    assert len(meshes) == 3 and len(solutions) == 6
    # one sampler per row, which locates the grid once for the row's two
    # grid dumps and is gone once the study returns
    assert len(samplers) == 3 and [ref() for ref in samplers] == [None] * 3
    assert located == [1, 2, 3]
    # the case's order-12 context, and the scheme norm's at the default 2k + 2
    assert [set(mesh.contexts) for mesh in meshes] == [{(1, 4), (1, 12)}] * 3


def test_volume_kernels_build_the_reference_tables_on_first_use():
    assert not hasattr(AssemblyContext, "streamline")
    tables = ("transport_tables", "streamline_tables")
    # an error-only context never builds them, even at k = 8
    case = case_smooth(1.0)
    mesh = build_uniform_triangulation(2)
    assert error_l2(project_to_hdg(case.exact, build_dofmap(mesh, 8)), case.exact) < 1e-6
    assert mesh.contexts and all(name not in vars(ctx) for ctx in mesh.contexts.values()
                                 for name in tables)
    ctx = get_context(mesh, 2)
    b = ctx.volume_values(lambda x, y: (1.0 + 0 * x, y), "b", vector=True)
    mat = transport(ctx, ctx.volume_weights(mesh) * pull_back(mesh, b), None)
    assert isinstance(mat, np.ndarray) and mat.shape == (mesh.n_elements, 6, 6)
    assert "transport_tables" in vars(ctx) and "streamline_tables" not in vars(ctx)
