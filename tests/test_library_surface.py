"""Every public name of the library is something a command, a script or the
benchmark runs.

A public function, class or method of `src/catenv` must be referenced from
`src`, `scripts` or `bench`, by name or as an attribute name given in a
string (as `bench/layers.py` names what it wraps). Re-exports in
`catenv/__init__.py` do not count, and neither do the tests: a reference
formula only tests compare against belongs in `tests/oracles.py`. The
allowlist holds the groupoid-embedding block of `univgroup.py` and its
targets, kept for the report entries and functors planned for them, and the
fixture builders.
"""

import ast
import io
import re
import tokenize
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


def name_counts(paths):
    """How often each identifier occurs as a name, or as a whole string literal."""
    counts = Counter()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
            elif tok.type == tokenize.STRING and re.fullmatch(r"[rbuRBU]?(['\"])\w+\1",
                                                             tok.string):
                counts[tok.string[tok.string.index(tok.string[-1]) + 1:-1]] += 1
    return counts


def unreferenced(root):
    library = root / "src" / "catenv"
    sources = [p for d in ("src", "scripts", "bench") for p in sorted((root / d).rglob("*.py"))
               if p != library / "__init__.py"]
    definitions = [(path.name, qualified, name)
                   for path in sorted(library.glob("*.py")) if path.name not in ALLOWED_MODULES
                   for qualified, name in public_definitions(path)]
    defined = Counter(name for _, _, name in definitions)
    counts = name_counts(sources)
    return [f"{module}:{qualified}" for module, qualified, name in definitions
            if counts[name] <= defined[name]
            and qualified.split(".")[0] not in ALLOWED.get(module, ())]


def test_every_public_name_is_run_by_the_program():
    assert unreferenced(ROOT) == []
