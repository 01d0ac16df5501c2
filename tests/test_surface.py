"""The public surface: no module-level name, method or parameter default
exists only for its own tests."""

import ast
from pathlib import Path

import crowdcast

SRC = Path(crowdcast.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
TOOLS = SRC.parents[1] / "tools"

# The gradient checker the test suites share.
KEPT_FOR_TESTS = {"gradcheck"}
# Kept on purpose: the gradient checker's probe options, which the test
# suites set; the ``dtype`` of ``Tensor``, the exported constructor, which
# every program call passes and most test calls leave out; and the dense
# mask view that the attention oracles read.
KEPT_DEFAULTS = {"gradcheck", "Tensor"}
KEPT_METHODS = {"AttentionMask.values"}


def references(node):
    """Names that ``node`` reads, as a bare name, an attribute, an import or
    a string (``getattr``-style lookups such as the benchmark's tracer)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def test_every_public_name_has_a_caller():
    """Each public module-level function and class in ``src/crowdcast`` is
    referenced in ``src/`` or ``perfbench/`` outside its own definition."""
    files = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    top_level = []  # (file, top-level statement, the names it reads)
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            top_level.append((path, stmt, references(stmt)))
    public = [(path, stmt) for path, stmt, _ in top_level
              if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")]
    assert len(public) > 50  # the parse found the package
    uncalled = sorted(
        f"{path.stem}.{stmt.name}" for path, stmt in public
        if stmt.name not in KEPT_FOR_TESTS
        and not any(stmt.name in names for _, other, names in top_level if other is not stmt)
    )
    assert uncalled == []


def caller_sources():
    """The parsed modules of ``src/crowdcast``, ``perfbench/`` and ``tools/``."""
    files = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


def public_functions(trees):
    """(qualified name, the name a call uses, definition, is a method) for
    each public function and method in ``src/crowdcast``; a class's
    ``__init__`` is called by the class name."""
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                yield f"{path.stem}.{stmt.name}", stmt.name, stmt, False
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                        called = stmt.name if fn.name == "__init__" else fn.name
                        yield f"{path.stem}.{stmt.name}.{fn.name}", called, fn, True


def sets_parameter(call, index, name):
    """Whether ``call`` passes the parameter ``name`` (at position ``index``,
    or keyword-only if None), by keyword, by position or by a splat."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def defaulted_parameters():
    """(qualified parameter, the program calls by its function's name, its
    index or None if keyword-only, its name) for each parameter with a
    default of a public function or method in ``src/crowdcast`` outside
    ``KEPT_DEFAULTS``.  Calls are matched by name, so a call of another
    function of the same name (``np.stack``, ``_Builder.ffn``) counts."""
    trees = caller_sources()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    for qualified, called, fn, method in public_functions(trees):
        if called in KEPT_DEFAULTS:
            continue
        positional = (fn.args.posonlyargs + fn.args.args)[1 if method else 0:]
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        for index, name in defaulted:
            yield f"{qualified}({name}=)", calls.get(called, []), index, name


def test_every_parameter_default_is_overridden_by_a_caller():
    """A parameter with a default that no caller in ``src/``, ``perfbench/``
    or ``tools/`` sets is an option that exists only for the tests."""
    unset = [param for param, calls, index, name in defaulted_parameters()
             if not any(sets_parameter(call, index, name) for call in calls)]
    assert unset == []


def test_every_parameter_default_is_omitted_by_a_caller():
    """A parameter with a default that every caller in ``src/``,
    ``perfbench/`` and ``tools/`` sets is required in all but name: an
    option needs two callers that want different values."""
    always_set = [param for param, calls, index, name in defaulted_parameters()
                  if calls and all(sets_parameter(call, index, name) for call in calls)]
    assert always_set == []


def test_every_public_method_has_a_caller():
    """Each public method (or property) of a public class in ``src/crowdcast``
    is read as an attribute, or named in a string, in ``src/``,
    ``perfbench/`` or ``tools/`` outside its own definition."""
    trees = caller_sources()
    uncalled = []
    for qualified, _, fn, method in public_functions(trees):
        if not method or fn.name == "__init__" or qualified.split(".", 1)[1] in KEPT_METHODS:
            continue
        own = {id(node) for node in ast.walk(fn)}
        if not any(id(node) not in own and fn.name in (getattr(node, "attr", None), getattr(node, "value", None))
                   for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, (ast.Attribute, ast.Constant))):
            uncalled.append(qualified)
    assert uncalled == []
