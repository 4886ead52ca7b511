"""Each rule has one home in the source: a static (ast) pass over src/hdgcd.

* The trace basis belongs to the dof map: only ``fespace.py`` (and the
  package's re-export) names ``get_edge_basis`` or ``EdgeBasis``, and
  ``AssemblyContext`` keeps no trace table.
* User fields reach numbers only through ``assembly.eval_field``: no other
  function calls ``.b``, ``.c``, ``.f``, ``.exact`` or ``.exact_grad``, or a
  callable named ``velocity`` or ``func``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hdgcd"
TRACE_NAMES = {"get_edge_basis", "EdgeBasis"}
TRACE_ATTRS = {"edge_basis", "E", "E_slots"}
FIELD_ATTRS = {"b", "c", "f", "exact", "exact_grad"}
FIELD_PARAMS = {"velocity", "func"}


def modules():
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
