"""The public surface: no module-level name exists only for its own tests."""

import ast
from pathlib import Path

import crowdcast

SRC = Path(crowdcast.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# ROADMAP's "Kept on purpose" names (the acceptance algebra and the oracles
# use them) and the gradient checker the test suites share.
KEPT_FOR_TESTS = {"transition_matrix", "hypergraph_laplacian", "partition_cost", "gradcheck"}


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
