"""The package holds what its command line, the paper's closed forms and
their oracles, and the benchmark use, and nothing that serves only the
tests: every module-level function and class of src/eak is referenced
somewhere else in src/eak, and so is every method and property of its
classes but the dunder methods, and every name a module imports is used
in it.

Read from the source with ast: a reference is a Name, an Attribute or an
imported name, never a docstring.  A method is referenced by its name
alone, whatever the class.  A re-export in eak/__init__.py is not a use,
and the references inside a definition do not count for itself.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eak"

# Names perfbench/ calls and nothing in src/eak needs, with why each stays:
# the benchmark runs its own files against the package, so a name it calls
# stays until the benchmark stops calling it
BENCHMARK_CONTRACT = {
    "one_sided_B1": "the closed-form checker builds its expected B1 terms from it",
    "coeff_e_d2": "the ehrhart-oracle checker compares the interpolated t^1 term with it",
    "recovered_a_d1": "the closed-form checker ties a_d1 to e_d1 with it",
    "appendixA_cross_check": "the concrete checker reads each defect through it",
}
BENCHMARK_FILES = ("perfbench/workloads.py", "perfbench/reference.py")
# Methods that code outside the package calls, with why each stays
CALLED_FROM_OUTSIDE = {
    "cli._Parser.error": "argparse calls it to report a parse error",
}
METHOD = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITION = (*METHOD, ast.ClassDef)


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> set[str]:
    """Every name node refers to: Names, Attribute names and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _definitions(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, DEFINITION)]


def _methods(tree: ast.Module):
    """(class, method) for each method and property of each module-level
    class but the dunder methods."""
    return [(cls, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for item in cls.body if isinstance(item, METHOD)
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _owned_references(modules: dict[str, ast.Module]) -> dict[tuple[str, str | None], set[str]]:
    """(module, owner) -> the names referred to there.  The owner is the
    name of a module-level definition, Class.method inside a method, and
    None for the module's other statements."""
    refs: dict[tuple[str, str | None], set[str]] = defaultdict(set)
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                refs[module, node.name if isinstance(node, METHOD) else None] |= _references(node)
                continue
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                refs[module, node.name] |= _references(part)
            for item in node.body:
                owner = f"{node.name}.{item.name}" if isinstance(item, METHOD) else node.name
                refs[module, owner] |= _references(item)
    return refs


def _referenced(refs, module: str, qualname: str, name: str) -> bool:
    """Whether name is referred to outside the definition qualname of
    module, the methods of a class being inside it."""
    return any(name in names for (m, owner), names in refs.items()
               if not (m == module and owner is not None
                       and (owner == qualname or owner.startswith(qualname + "."))))


def unreferenced_definitions() -> list[str]:
    """module.name of each module-level function or class of src/eak that
    nothing else in src/eak refers to."""
    modules = _modules()
    refs = _owned_references(modules)
    return [f"{module}.{node.name}" for module, tree in modules.items()
            for node in _definitions(tree) if not _referenced(refs, module, node.name, node.name)]


def unreferenced_methods() -> list[str]:
    """module.Class.method of each method or property of src/eak, dunder
    methods aside, whose name nothing else in src/eak refers to."""
    modules = _modules()
    refs = _owned_references(modules)
    return [f"{module}.{cls.name}.{item.name}" for module, tree in modules.items()
            for cls, item in _methods(tree)
            if not _referenced(refs, module, f"{cls.name}.{item.name}", item.name)]


def test_every_definition_is_used_by_the_package_or_the_benchmark():
    unused = [name for name in unreferenced_definitions()
              if name.split(".")[1] not in BENCHMARK_CONTRACT]
    assert unused == [], "only the tests use these; move them to tests/"
    benchmark = set().union(*(_references(ast.parse((ROOT / f).read_text()))
                              for f in BENCHMARK_FILES))
    assert sorted(BENCHMARK_CONTRACT.keys() - benchmark) == []


def test_every_method_is_used_by_the_package():
    unused = unreferenced_methods()
    assert sorted(set(unused) - CALLED_FROM_OUTSIDE.keys()) == [], \
        "only the tests use these; move them to tests/"
    # an exemption goes once the package itself calls the method
    assert sorted(CALLED_FROM_OUTSIDE.keys() - set(unused)) == []


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{module}: {name}" for name in bound if name not in loaded]
    assert unused == []
