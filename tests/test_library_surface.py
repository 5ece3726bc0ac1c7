"""Every public name of the library is something a command, a script or the
benchmark runs.

A public function, class or method of `src/catenv` must be referenced from
`src`, `scripts` or `bench`, as the syntax tree reads them. A method counts
where it is loaded as an attribute or named by a string that is its whole
name (as `bench/layers.py` names what it wraps); a function or class also
where it is loaded as a name or imported. A local, a parameter or an
attribute store of the same name is no reference. Re-exports in
`catenv/__init__.py` do not count, and neither do the tests: a reference
formula only tests compare against belongs in `tests/oracles.py`. The
allowlist holds the groupoid-embedding block of `univgroup.py` and its
targets, kept for the report entries and functors planned for them, and the
fixture builders.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "catenv"

ALLOWED = {
    "univgroup.py": {"CategoryFunctor", "Cocycle", "rho_tilde", "kernel_subgroupoid",
                     "cocycle_identity_holds", "idempotent_pure_check",
                     "partial_action_iso_check", "enveloping_groupoid"},
    "gpd.py": {"FreeAbelianTarget"},
}
ALLOWED_MODULES = {"fixtures.py"}


def public_definitions(path):
    """(qualified name, name) of the module's public functions and classes
    and of their classes' public methods."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def references(paths):
    """(names, attributes): how often each identifier is loaded as a name or
    imported, and how often loaded as an attribute. A string literal that is
    one whole identifier counts as both."""
    names, attributes = Counter(), Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id] += 1
            elif isinstance(node, ast.alias):
                names[node.name] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names[node.value] += 1
                attributes[node.value] += 1
    return names, attributes


def unreferenced(root):
    library = root / "src" / "catenv"
    sources = [p for d in ("src", "scripts", "bench") for p in sorted((root / d).rglob("*.py"))
               if p != library / "__init__.py"]
    definitions = [(path.name, qualified, name)
                   for path in sorted(library.glob("*.py")) if path.name not in ALLOWED_MODULES
                   for qualified, name in public_definitions(path)]
    names, attributes = references(sources)
    return [f"{module}:{qualified}" for module, qualified, name in definitions
            if not attributes[name] and ("." in qualified or not names[name])
            and qualified.split(".")[0] not in ALLOWED.get(module, ())]


def test_every_public_name_is_run_by_the_program():
    assert unreferenced(ROOT) == []


def test_only_loads_imports_and_strings_count(tmp_path):
    """A method counts only where it is loaded as an attribute or named in a
    string; a function or class also where it is loaded as a name or
    imported. A local or an attribute store of the same name does not count."""
    library = tmp_path / "src" / "catenv"
    library.mkdir(parents=True)
    (library / "mod.py").write_text(
        "class Box:\n"
        "    def opened(self): pass\n"
        "    def closed(self): pass\n"
        "    def named(self): pass\n\n\n"
        "def called(): pass\n\n\n"
        "def imported(): pass\n\n\n"
        "def shadowed(): pass\n", encoding="utf-8")
    (library / "use.py").write_text(
        "from .mod import imported\n"
        "Box().opened()\n"
        "called()\n"
        "getattr(Box, 'named')\n"
        "shadowed = 1\n"
        "closed = Box()\n"
        "closed.closed = 2\n", encoding="utf-8")
    for d in ("scripts", "bench"):
        (tmp_path / d).mkdir()
    assert unreferenced(tmp_path) == ["mod.py:Box.closed", "mod.py:shadowed"]
