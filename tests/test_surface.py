"""Surface lint: every public name in the package has a caller outside tests.

Public top-level functions and classes of ``src/stochmatch`` (except
``__init__.py``), and the public methods of public classes, must be
referenced from the package itself or ``bench/``.  A reference counts
only when it is live: references made inside a definition that is
itself unreferenced do not count, which is resolved to a fixpoint.  The
bench tracer binds its wrappers by dotted strings
(``"hyperwalk.BMatchingLca.run"``), so the dotted string constants of
``bench/tracer.py`` count as references too; an undotted one such as
``"vertex"`` names no wrapper target.  Matching is by name, not by type,
so the lint can miss dead code; it flags live code only where a
NamedTuple's field is read through an unpacking alone, under another
name (see below).

``__init__.py`` re-exports only allowlisted names: every module of the
package is imported by its dotted path, so a package-level binding is a
second front end that something must read.

Every parameter of a top-level function or method of the package is
read in its body, ``self`` and ``cls`` aside.  A nested function is
exempt: its caller fixes its signature.

The same holds for settings: every defaulted parameter of a public
function, public method or ``__init__``, and every defaulted field of a
public NamedTuple, must be passed, by keyword or by position, in some
call in the package or ``bench/``.  Calls are matched by callee name (a
class's name for its ``__init__`` and its fields), and an
``x._replace(name=...)`` keyword sets the field ``name``.  A value that
only tests set is a module constant instead.  And the reverse: every
such default must be left out by some call in the package or
``bench/``, which passes neither its name nor its position (a
``_replace`` leaves out nothing).  A value that every caller outside
the tests passes is required, so a test writes it too, and no default
picks a path that only tests take.

Both ways round: every field of a public record must be read in the
package or ``bench/``, again by name.  A record is a NamedTuple, whose
fields are its annotated names, or a class with ``__slots__``, whose
fields are its public slot names.  A read is a loaded attribute, a
slot of a tuple unpacking that has a NamedTuple's arity and binds each
field it names to the field's own name (``walks, gates, _ = rec`` reads
``Recursion.walks`` and ``gates``; ``_`` skips a slot), or an
``_asdict()`` of the elements of a field whose annotation names the
record (``ClaimReport.checks: tuple[ClaimCheck, ...]``).  No module
constant used as a parameter default repeats a literal of
``cli.DEFAULTS``, so the command line's values have one copy.

The package also holds no ``assert`` statement: ``python -O`` strips
them, so a check the package relies on raises an exception instead.
And it defines a fixed set of exception types: every work limit raises
``graph.ResourceGuard``, so callers catch one type for all of them.

Each range check of ``cli.ExperimentConfig`` is the package's one copy:
no ``raise`` in another package module carries one of its messages,
read with each f-string replacement field matching any text.

The frozen references of ``tests/oracles.py`` check the package, so none
derives from a package class, directly or through another class: a
reference that inherits the code it checks compares that code with
itself.  Nor does a top-level class or function there load a
``_``-prefixed attribute name that a package class defines (a method, a
class attribute or an attribute it stores), unless the reference or an
oracles class it derives from defines that name too: a reference that
reads the package's private state moves when that state does.  Each
exception is allowlisted with its reason.
"""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stochmatch"

EXCEPTIONS = {
    "cli.UsageError",
    "graph.GraphFormatError",
    "graph.ResourceGuard",
    "lca.NaturalityViolation",
}

# name -> why it stays without a caller outside the tests
ALLOWED = {}

# name bound in __init__.py -> why the package namespace binds it
ALLOWED_REEXPORTS = {
    "sample_realization": "bench/test_bench.py checks that the tracer rebinds it "
    "in the package namespace too",
}

# "module.callable.parameter" -> why its body does not read it
ALLOWED_UNREAD = {
    "analysis.build_f.H": "bench/test_bench.py passes it by position, so "
    "dropping it would shift that call's arguments",
}

# "module.callable.parameter" -> why only tests set it
ALLOWED_PARAMETERS = {}

# "module.callable.parameter" -> why only tests leave it out
ALLOWED_DEFAULTS = {}

# oracles class -> why it still derives from a package class
ALLOWED_SUBCLASSES = dict.fromkeys(
    (
        "BMatchingLcaV0",
        "BMatchingLcaV1",
        "LcaOracleV0",
        "LcaOracleV1",
        "MatcherV1",
        "_EngineV0",
        "_EngineV1",
    ),
    "item 11(a): not yet self-contained",
)

# "oracles definition.private name" -> why that reference still reads it
ALLOWED_PRIVATE_READS = dict.fromkeys(
    (
        "LcaOracleV0._probed",
        "LcaOracleV0._touched",
        "LcaOracleV1._near",
        "LcaOracleV1._probed",
        "LcaOracleV1._touched",
        "MatcherV1._lca",
        "MatcherV1._mark_path",
        "_EngineV0._mis",
        "_EngineV0._ranks",
        "_EngineV1._records",
        "_EngineV1._valid",
    ),
    "item 11(a): not yet self-contained",
)

# "module.Record.field" -> why it stays with no reader outside the tests
ALLOWED_FIELDS = {
    "mis.TmisOutcome.member": "the tmis LCA's answer; criterion 6 compares it with "
    "the greedy MIS through oracles.tmis_set",
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
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _refs(tree)
        if path.name == "tracer.py":
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and "." in sub.value:
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
    assert dead == [], f"public names with no caller in src/ or bench/: {dead}"


def test_allowlist_entries_are_still_uncalled():
    dead = {q.rsplit(".", 1)[-1] for q in unreferenced()}
    assert set(ALLOWED) <= dead, f"allowlisted names that gained a caller: {set(ALLOWED) - dead}"


def reexports() -> list:
    """The names that ``__init__.py`` binds at its top level, dunders aside."""
    out = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif _is_def(node):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(n for n in out if not (n.startswith("__") and n.endswith("__")))


def test_package_namespace_binds_only_allowlisted_names():
    found = reexports()
    missing = [n for n in found if n not in ALLOWED_REEXPORTS]
    assert missing == [], f"names __init__.py binds that no caller reads through the package: {missing}"
    stale = set(ALLOWED_REEXPORTS) - set(found)
    assert not stale, f"allowlisted re-exports that __init__.py no longer binds: {stale}"


def unread_parameters() -> list:
    """Qualified names of the parameters of top-level functions and
    methods that their bodies never load; ``self`` and ``cls`` aside."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(f"{path.stem}.{node.name}", node, False)]
            elif isinstance(node, ast.ClassDef):
                fns = [
                    (f"{path.stem}.{node.name}.{item.name}", item, not any(
                        getattr(d, "id", None) == "staticmethod" for d in item.decorator_list
                    ))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
            else:
                continue
            for qual, fn, bound in fns:
                args = fn.args
                params = (args.posonlyargs + args.args)[1 if bound else 0 :] + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                read = {
                    n.id
                    for stmt in fn.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                out += [f"{qual}.{a.arg}" for a in params if a.arg not in read]
    return sorted(out)


def test_every_parameter_is_read():
    unread = unread_parameters()
    missing = [q for q in unread if q not in ALLOWED_UNREAD]
    assert missing == [], f"parameters that their function never reads: {missing}"
    stale = set(ALLOWED_UNREAD) - set(unread)
    assert not stale, f"allowlisted parameters that are now read: {stale}"


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _settings():
    """(qualified name, callee name, position or None, is a field) for
    every defaulted parameter and field the lint covers; the position
    excludes ``self`` and ``cls``, and a keyword-only parameter has none."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                out += _parameters(f"{mod}.{node.name}", node.name, node, bound=False)
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    callee = node.name if item.name == "__init__" else item.name
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    out += _parameters(f"{mod}.{node.name}.{item.name}", callee, item, bound=not static)
            if _is_record(node):
                # a slotted record's defaults are its __init__'s, covered above
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                out += [
                    (f"{mod}.{node.name}.{f.target.id}", node.name, pos, True)
                    for pos, f in enumerate(fields)
                    if f.value is not None
                ]
    return out


def _parameters(qual: str, callee: str, fn: ast.FunctionDef, bound: bool) -> list:
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    out = [(f"{qual}.{a.arg}", callee, pos, False) for pos, a in enumerate(positional) if pos >= first]
    out += [
        (f"{qual}.{a.arg}", callee, None, False)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None
    ]
    return out


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)


def _slots(node: ast.ClassDef):
    """The names a class body assigns to ``__slots__``, or None."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in item.targets):
            return [c.value for c in ast.walk(item.value) if isinstance(c, ast.Constant)]
    return None


def _is_record(node: ast.ClassDef) -> bool:
    """A NamedTuple, by base name, or a class with ``__slots__``."""
    return _is_named_tuple(node) or _slots(node) is not None


def _calls() -> tuple:
    """callee name -> [(positional count, keywords)] over every call in
    the package and ``bench/``, and the keywords of ``_replace`` calls.
    A starred argument counts as every position and a ``**`` argument as
    every keyword (``None``)."""
    calls, replaced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            count = float("inf") if starred else len(call.args)
            keywords = {k.arg for k in call.keywords}
            calls.setdefault(_callee(call), []).append((count, keywords))
            if _callee(call) == "_replace":
                replaced |= keywords
    return calls, replaced


def unset_parameters() -> list:
    """Qualified names of the covered settings that no call passes."""
    calls, replaced = _calls()

    def is_set(name: str, callee: str, pos, field: bool) -> bool:
        if field and (name in replaced or None in replaced):
            return True
        return any(
            name in kws or None in kws or (pos is not None and count > pos)
            for count, kws in calls.get(callee, ())
        )

    return sorted(
        q for q, callee, pos, field in _settings() if not is_set(q.rsplit(".", 1)[1], callee, pos, field)
    )


def test_every_optional_parameter_is_set():
    unset = unset_parameters()
    missing = [q for q in unset if q not in ALLOWED_PARAMETERS]
    assert missing == [], f"settings that no call in src/ or bench/ passes: {missing}"
    stale = set(ALLOWED_PARAMETERS) - set(unset)
    assert not stale, f"allowlisted settings that gained a caller: {stale}"


def defaults_always_passed() -> list:
    """Qualified names of the covered settings that every call passes."""
    calls, _ = _calls()

    def is_left_out(name: str, callee: str, pos) -> bool:
        return any(
            name not in kws and None not in kws and (pos is None or count <= pos)
            for count, kws in calls.get(callee, ())
        )

    return sorted(
        q for q, callee, pos, _ in _settings() if not is_left_out(q.rsplit(".", 1)[1], callee, pos)
    )


def test_every_default_is_left_out():
    passed = defaults_always_passed()
    missing = [q for q in passed if q not in ALLOWED_DEFAULTS]
    assert missing == [], f"defaults that every call in src/ or bench/ passes: {missing}"
    stale = set(ALLOWED_DEFAULTS) - set(passed)
    assert not stale, f"allowlisted defaults that some call now leaves out: {stale}"


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


def _records() -> dict:
    """qualified name -> (field names, annotations by field, is a
    NamedTuple) for every public record.  A slotted record's fields are
    its public slot names, annotated by its ``__init__`` parameters."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or not _is_record(node):
                continue
            if _is_named_tuple(node):
                annotated = [(f.target.id, f.annotation) for f in node.body if isinstance(f, ast.AnnAssign)]
            else:
                init = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                params = {a.arg: a.annotation for f in init for a in f.args.args + f.args.kwonlyargs}
                annotated = [(n, params.get(n)) for n in _slots(node) if not n.startswith("_")]
            out[f"{path.stem}.{node.name}"] = (
                [name for name, _ in annotated],
                {name: _refs(a) if a is not None else set() for name, a in annotated},
                _is_named_tuple(node),
            )
    return out


def _serialized_attr(call: ast.Call, parents: dict):
    """The attribute an ``_asdict()`` call serializes: its receiver's, or
    the one a comprehension iterates to bind its receiver."""
    arg = getattr(call.func, "value", None)
    if isinstance(arg, ast.Attribute):
        return arg.attr
    node = call
    while isinstance(arg, ast.Name) and node in parents:
        node = parents[node]
        for gen in getattr(node, "generators", ()):
            if getattr(gen.target, "id", None) == arg.id and isinstance(gen.iter, ast.Attribute):
                return gen.iter.attr
    return None


def _reads() -> tuple:
    """Attribute names read anywhere in the package and ``bench/``; the
    names every tuple unpacking binds, slot by slot, with None for a slot
    that binds no plain name; and the attributes serialized whole by
    ``_asdict()``."""
    attrs, unpackings, serialized = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Store):
                if not any(isinstance(e, ast.Starred) for e in node.elts):
                    names = (getattr(e, "id", "_") for e in node.elts)
                    unpackings.add(tuple(None if n == "_" else n for n in names))
            elif isinstance(node, ast.Call) and _callee(node) == "_asdict":
                attr = _serialized_attr(node, parents)
                assert attr is not None, f"{path.name}:{node.lineno}: _asdict of a value the lint cannot name"
                serialized.add(attr)
    return attrs, unpackings, serialized


def unread_fields() -> list:
    """Qualified names of the record fields that nothing in the package
    or ``bench/`` reads."""
    records = _records()
    attrs, unpackings, serialized = _reads()
    # records an _asdict writes whole: those named in a serialized field's annotation
    whole = {
        q
        for fields, annotations, _ in records.values()
        for f in fields
        if f in serialized
        for q in records
        if q.rsplit(".", 1)[1] in annotations[f]
    }

    def unpacked(fields: list) -> set:
        # the fields named by the unpackings that match the record by name
        return {
            name
            for names in unpackings
            if len(names) == len(fields) and all(n in (None, f) for n, f in zip(names, fields))
            for name in names
            if name is not None
        }

    return sorted(
        f"{q}.{f}"
        for q, (fields, _, named) in records.items()
        if q not in whole
        for f in set(fields) - attrs - (unpacked(fields) if named else set())
    )


def test_every_field_is_read():
    unread = unread_fields()
    missing = [q for q in unread if q not in ALLOWED_FIELDS]
    assert missing == [], f"record fields that nothing in src/ or bench/ reads: {missing}"
    stale = set(ALLOWED_FIELDS) - set(unread)
    assert not stale, f"allowlisted fields that gained a reader: {stale}"


def repeated_cli_defaults() -> list:
    """Module constants used as a parameter default whose value is also
    a literal of ``cli.DEFAULTS``."""
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    table = next(
        node.value
        for node in cli.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "DEFAULTS"
    )
    literals = {
        (type(v.value), v.value)
        for v in table.values
        if isinstance(v, ast.Constant) and v.value is not None
    }
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {
            node.targets[0].id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
        }
        defaults = {
            d.id
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for d in fn.args.defaults + fn.args.kw_defaults
            if isinstance(d, ast.Name)
        }
        out += [
            f"{path.stem}.{name}"
            for name in sorted(defaults & set(constants))
            if (type(constants[name]), constants[name]) in literals
        ]
    return out


def test_no_default_repeats_a_cli_default():
    # the command line's value is the one copy; a library default that
    # repeats it drifts from it silently
    assert repeated_cli_defaults() == []


def _raise_messages(node) -> list:
    """(message, line) of each raise under ``node`` whose exception takes
    a string first: a constant as written, an f-string with each
    replacement field written ``{}``."""
    out = []
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call) and sub.exc.args):
            continue
        msg = sub.exc.args[0]
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            out.append((msg.value, sub.lineno))
        elif isinstance(msg, ast.JoinedStr):
            parts = [v.value if isinstance(v, ast.Constant) else "{}" for v in msg.values]
            out.append(("".join(parts), sub.lineno))
    return out


def config_check_copies() -> list:
    """Raises in package modules other than ``cli.py`` whose message is
    one of ``cli.ExperimentConfig``'s, a replacement field there matching
    any text."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    patterns = [
        re.compile(".+".join(re.escape(part) for part in msg.split("{}")))
        for msg, _ in _raise_messages(config)
    ]
    assert any(p.fullmatch("eps must lie in (0, 1)") for p in patterns)
    return [
        f"{path.name}:{line}: {msg}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for msg, line in _raise_messages(ast.parse(path.read_text()))
        if any(p.fullmatch(msg) for p in patterns)
    ]


def test_config_checks_have_no_package_copy():
    # a knob's range is checked once, where it enters: a second copy in
    # the package refuses the flag only on the commands that reach it
    assert config_check_copies() == []


def oracle_subclasses() -> list:
    """Classes defined in ``tests/oracles.py`` with a ``stochmatch`` class
    among their ancestors."""
    import oracles

    return sorted(
        name
        for name, cls in vars(oracles).items()
        if isinstance(cls, type)
        and cls.__module__ == oracles.__name__
        and any(base.__module__.split(".")[0] == "stochmatch" for base in cls.__mro__[1:])
    )


def test_frozen_references_derive_from_no_package_class():
    found = oracle_subclasses()
    missing = [name for name in found if name not in ALLOWED_SUBCLASSES]
    assert missing == [], f"oracles classes deriving from a stochmatch class: {missing}"
    stale = set(ALLOWED_SUBCLASSES) - set(found)
    assert not stale, f"allowlisted oracles classes that no longer derive from one: {stale}"


def _private_names(*nodes) -> set:
    """The ``_``-prefixed, non-dunder attribute names the classes among
    ``nodes`` and their nested nodes define: their methods and class
    attributes, and every attribute stored within them."""
    out = set()
    for cls in (c for node in nodes for c in ast.walk(node) if isinstance(c, ast.ClassDef)):
        for item in cls.body:
            if _is_def(item):
                out.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                out |= {t.id for t in targets if isinstance(t, ast.Name)}
        out |= {
            sub.attr
            for sub in ast.walk(cls)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        }
    return {n for n in out if n.startswith("_") and not n.endswith("__")}


def private_reads() -> list:
    """``definition.name`` for each private attribute name of the package
    that a top-level definition of ``tests/oracles.py`` loads, and that
    neither it nor an oracles class it derives from defines."""
    package = _private_names(*(ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))))
    body = ast.parse((ROOT / "tests" / "oracles.py").read_text()).body
    defs = {node.name: node for node in body if _is_def(node)}

    def own(node) -> set:
        bases = {getattr(b, "id", None) for b in getattr(node, "bases", ())} & set(defs)
        return _private_names(node).union(*(own(defs[b]) for b in bases))

    out = []
    for name, node in defs.items():
        loads = {
            sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        }
        out += [f"{name}.{attr}" for attr in (loads & package) - own(node)]
    return sorted(out)


def test_frozen_references_read_no_private_state():
    found = private_reads()
    missing = [q for q in found if q not in ALLOWED_PRIVATE_READS]
    assert missing == [], f"oracles definitions reading private package attributes: {missing}"
    stale = set(ALLOWED_PRIVATE_READS) - set(found)
    assert not stale, f"allowlisted private reads that no longer happen: {stale}"
