"""Surface lint: every public name in the package has a caller outside tests.

Public top-level functions and classes of ``src/stochmatch`` (except
``__init__.py``), and the public methods of public classes, must be
referenced from the package itself, ``scripts/`` or ``bench/``.  A
reference counts only when it is live: references made inside a
definition that is itself unreferenced do not count, which is resolved
to a fixpoint.  The bench tracer binds its wrappers by dotted strings
(``"hyperwalk.BMatchingLca.run"``), so the string constants of
``bench/tracer.py`` count as references too.  Matching is by name, not
by type, so the lint can miss dead code; it never flags live code.

The package also holds no ``assert`` statement: ``python -O`` strips
them, so a check the package relies on raises an exception instead.
And it defines a fixed set of exception types: every work limit raises
``graph.ResourceGuard``, so callers catch one type for all of them.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stochmatch"

EXCEPTIONS = {
    "analysis.MissingTableEntry",
    "cli.UsageError",
    "graph.GraphFormatError",
    "graph.ResourceGuard",
    "lca.NaturalityViolation",
}

# name -> why it stays without a caller outside the tests
ALLOWED = {
    "sweep_ledger": (
        "one sweep under exactly the context it is given: test_lca pins that "
        "context by rank, compares it with run_lca under the same context and "
        "bounds its PRF derivations by g.n, which gather_ledger's extra "
        "ctx.child('sweep', t) would break"
    ),
}


def _refs(*nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _definitions():
    """(qualified name, name, owner or None, references made inside) for
    every top-level definition and method, plus the references made by
    module-level code outside any definition."""
    defs, free = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                free |= _refs(node)
                continue
            qual = f"{mod}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if _is_def(m)]
                rest = [m for m in node.body if not _is_def(m)]
                defs.append((qual, node.name, None, _refs(*node.bases, *node.decorator_list, *rest)))
                defs.extend((f"{qual}.{m.name}", m.name, qual, _refs(m)) for m in methods)
            else:
                defs.append((qual, node.name, None, _refs(node)))
    return defs, free


def _outside_refs() -> set:
    out = set()
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _refs(tree)
        if path.name == "tracer.py":
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out.update(sub.value.split("."))
    return out


def unreferenced() -> list:
    defs, live = _definitions()
    live |= _outside_refs()
    alive = set()
    grew = True
    while grew:
        grew = False
        for qual, name, owner, refs in defs:
            if qual in alive:
                continue
            if owner is None:
                ok = name in live
            else:
                dunder = name.startswith("__") and name.endswith("__")
                ok = owner in alive and (dunder or name in live)
            if ok:
                alive.add(qual)
                live |= refs
                grew = True
    public = {q for q, *_ in defs if not any(p.startswith("_") for p in q.split(".")[1:])}
    return sorted(q for q in public if q not in alive)


def test_every_public_name_has_a_caller():
    dead = [q for q in unreferenced() if q.rsplit(".", 1)[-1] not in ALLOWED]
    assert dead == [], f"public names with no caller in src/, scripts/ or bench/: {dead}"


def test_allowlist_entries_are_still_uncalled():
    dead = {q.rsplit(".", 1)[-1] for q in unreferenced()}
    assert set(ALLOWED) <= dead, f"allowlisted names that gained a caller: {set(ALLOWED) - dead}"


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/stochmatch: {found}"


def _exception_classes() -> set:
    """Classes of the package that derive from a builtin exception,
    directly or through another such class, by base name."""
    bases = {
        f"{path.stem}.{node.name}": {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    names = {k for k, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    found = set()
    while new := {q for q, b in bases.items() if b & names} - found:
        found |= new
        names |= {q.rsplit(".", 1)[1] for q in new}
    return found


def test_exception_types_are_fixed():
    assert _exception_classes() == EXCEPTIONS
