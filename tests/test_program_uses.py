"""Every public top-level function and class in ``src/ebitnet``, and every public
method of those classes, is used by the program.

The test parses each module of ``src/ebitnet`` and lists its top-level functions
and classes whose names do not start with an underscore, and the methods (and
properties) of those classes whose names do not.  A definition counts as used
when code in ``src/``, ``scripts/`` or ``perfbench/`` refers to it outside the
definition itself:

* in its own module, by its bare name;
* elsewhere, as ``module.name``, or through ``from ... module import name``;
* anywhere, as a string that is exactly its name (perfbench spans functions by
  module and name, and the trace codec keys its field types by name);
* for a method, anywhere as an attribute of that name, ``anything.name``, since
  the type of what it is called on is not known without running the code.

Code that only tests call belongs in ``tests/oracles.py``.  ``ALLOWED`` names each
definition that stays in ``src/`` without a program caller, with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebitnet"
PROGRAM = ("src", "scripts", "perfbench")

_FIGURE = ("one closed form of the paper read from bounds.bound_report as Fractions, with its refusals; "
           "the table writes the report's numerators, and the tests and oracles check this figure")
ALLOWED = {
    "protocols.superdense_send": "the paper's dense-coding protocol, and the only producer of Relocate "
                                 "events; the tests run it and audit its traces",
    "bounds.distillation_caps": _FIGURE,
    "bounds.lower_bounds": _FIGURE,
    "bounds.half_transfer_bounds": _FIGURE,
    "bounds.integer_one_shot_bounds": _FIGURE,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public(nodes, kinds) -> list:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions() -> list[str]:
    """``module.name`` for each public top-level function and class, and
    ``module.Class.name`` for each public method of a public class."""
    keys = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public(_parse(path).body, (*FUNCTIONS, ast.ClassDef)):
            keys.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                keys += [f"{path.stem}.{node.name}.{method.name}" for method in _public(node.body, FUNCTIONS)]
    return keys


def _references(node: ast.AST, module: str | None) -> set[str]:
    """The ``module.name`` keys that ``node`` refers to, ``*.name`` for a string
    that is an identifier and ``*.*.name`` for any attribute read; ``module`` is
    the stem of its file when that file is a module of the package, and None
    otherwise."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and module is not None:
            out.add(f"{module}.{sub.id}")
        elif isinstance(sub, ast.Attribute):
            out.add(f"*.*.{sub.attr}")
            if isinstance(sub.value, ast.Name):
                out.add(f"{sub.value.id}.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            source = sub.module.rsplit(".", 1)[-1]
            out.update(f"{source}.{alias.name}" for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(f"*.{sub.value}")
    return out


def unreferenced_definitions() -> list[str]:
    used = set()
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            if any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                continue  # scratch copies, such as perfbench's work directories
            module = path.stem if path.parent == PACKAGE else None
            for node in _parse(path).body:
                # a definition does not use itself, nor a method its own name: a class is
                # walked part by part
                parts = ([*node.decorator_list, *node.bases, *node.keywords, *node.body]
                         if isinstance(node, ast.ClassDef) else [node])
                refs = set()
                for part in parts:
                    found = _references(part, module)
                    if isinstance(part, FUNCTIONS) and part is not node:
                        found.discard(f"*.*.{part.name}")
                    refs |= found
                if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and module:
                    refs.discard(f"{module}.{node.name}")
                used |= refs
    return [key for key in _definitions() if not _is_used(key, used)]


def _is_used(key: str, used: set[str]) -> bool:
    """Whether ``module.name`` or ``module.Class.name`` is among the references ``used``."""
    name = key.rsplit(".", 1)[1]
    method = key.count(".") == 2
    return key in used or f"*.{name}" in used or (method and f"*.*.{name}" in used)


def test_every_public_definition_has_a_program_caller():
    unused = [key for key in unreferenced_definitions() if key not in ALLOWED]
    assert not unused, ("public definitions in src/ebitnet that nothing in src/, scripts/ or perfbench/ "
                        f"refers to (move them to tests/oracles.py, or list them in ALLOWED): {unused}")


def test_the_allow_list_names_only_definitions_without_a_program_caller():
    unreferenced = unreferenced_definitions()
    assert [key for key in ALLOWED if key not in unreferenced] == []
