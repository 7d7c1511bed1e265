"""The library holds the paper's objects and what the CLI needs.

A top-level function or class in ``src/gpdescent`` stays only if some code
in ``src`` uses it outside its own body, if ``gpdescent`` exports it, or if
``ALLOWED`` names it with a reason.  Code that only the tests call belongs
in ``tests/``, and a thin wrapper is better replaced by a call to what it
wraps.  The scan reads the source with ``ast``: docstrings and doctests are
not uses, and neither is an import that nothing reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpdescent"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

PAPER_OBJECT = "one of the paper's objects or bijections"
STATISTIC = "a statistic the paper defines; ribbon and parking statistics cross-check"
PERFBENCH = "bound by the benchmark harness in perfbench/ (tests/test_perfbench.py)"

# (module, name) -> why it stays with no use in src and no export
ALLOWED = {
    ("core", "is_shuffle"): PAPER_OBJECT,
    ("core", "is_reverse_shuffle"): PAPER_OBJECT,
    ("descent", "descent_key"): PAPER_OBJECT + ": the descent order of the leading terms",
    ("descent", "descent_composition_witness"): PAPER_OBJECT,
    ("parking", "perm_to_pf0"): PAPER_OBJECT,
    ("parking", "pf0_to_perm"): PAPER_OBJECT,
    ("parking", "area"): STATISTIC,
    ("parking", "dinv_pairs"): STATISTIC,
    ("parking", "doff"): STATISTIC,
    ("ribbon", "ribbon_to_parking"): PAPER_OBJECT,
    ("ribbon", "area"): STATISTIC,
    ("ribbon", "reading_word"): STATISTIC,
    ("ribbon", "height_vector"): PERFBENCH,
    ("ribbon", "algorithm_sequence"): PERFBENCH,
    ("ribbon", "algorithm_tableau"): PERFBENCH,
    ("tanisaki", "parabolic_basis_elements"): PAPER_OBJECT + ": the parabolic basis",
    ("tanisaki", "phi_map"): PAPER_OBJECT + ": the splitting map",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body if isinstance(node, DEFINITION)}


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """Package names bound by the module's relative imports (the package
    uses no other kind): local name -> (module, name) for
    ``from .m import x``, and local name -> module for ``from . import m``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module:
                names[local] = (node.module, alias.name)
            else:
                modules[local] = alias.name
    return names, modules


def _bound_inside(statement: ast.AST) -> set[str]:
    """The names a top-level statement binds for itself: the parameters and
    assignment targets anywhere inside it (a local ``area`` is not a use of
    the module's ``area``)."""
    if not isinstance(statement, DEFINITION):
        return set()
    bound = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
    return bound


def _uses(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """Every (module, name) that some code in the package reads outside the
    body of that very definition."""
    used = set()
    for name, tree in modules.items():
        local = _definitions(tree)
        imported, aliases = _imports(tree)
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            owner = (name, getattr(statement, "name", None))
            shadowed = _bound_inside(statement)
            for node in ast.walk(statement):
                target = None
                if isinstance(node, ast.Name):
                    if node.id in shadowed:
                        continue
                    if node.id in local:
                        target = (name, node.id)
                    else:
                        target = imported.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in aliases:
                        target = (aliases[node.value.id], node.attr)
                if target is not None and target != owner:
                    used.add(target)
    return used


def _surface() -> tuple[set, set]:
    """Every top-level (module, name) defined in the package, and those that
    are used in ``src`` or exported."""
    modules = _modules()
    exported = set(_imports(modules.pop("__init__"))[0].values())
    defined = {(name, d) for name, tree in modules.items() for d in _definitions(tree)}
    return defined, _uses(modules) | exported


def test_every_definition_in_src_has_a_reason_to_be_there():
    defined, justified = _surface()
    assert sorted(defined - justified - set(ALLOWED)) == []


def test_every_allowed_name_exists_and_needs_its_exception():
    defined, justified = _surface()
    assert sorted(set(ALLOWED) - (defined - justified)) == []
