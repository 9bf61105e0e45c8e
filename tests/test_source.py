"""Source-level guards on the package itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qsticker"
PERFBENCH = ROOT / "perfbench"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may be one
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)


def test_imports_only_at_module_level():
    # a function-local import hides a dependency and a binding the tracer
    # in perfbench patches; none is needed to break an import cycle
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports inside function bodies: " + ", ".join(found)


# perfbench/tests asserts that its tracer patches these module bindings
UNUSED_IMPORT_ALLOWED = {("codes.py", "solve_left"), ("glue.py", "solve_left"),
                         ("branching.py", "solve_left")}


def test_no_unused_imports_in_package():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(imported.items(), key=lambda kv: kv[1])
                   if name not in used and (path.name, name) not in UNUSED_IMPORT_ALLOWED]
    assert not unused, "imported names never used: " + ", ".join(unused)


def test_unchecked_constructor_stays_inside_gf2():
    # Gf2Matrix._of skips the column-range check, so only rows gf2 built
    # itself may reach it; every other module goes through Gf2Matrix(...)
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "gf2.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "_of"]
    assert not calls, "Gf2Matrix._of used outside gf2.py: " + ", ".join(calls)


def test_transpose_cache_stays_inside_gf2():
    # Gf2Matrix._t is read back as the transpose unchecked, so only gf2,
    # which builds it, may read or write it
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py")) if path.name != "gf2.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Attribute) and node.attr == "_t")
            or (isinstance(node, ast.Constant) and node.value == "_t")]
    assert not uses, "Gf2Matrix._t used outside gf2.py: " + ", ".join(uses)


def test_every_definition_is_read_in_the_package():
    # a routine only the tests call belongs in the tests; a re-export from
    # __init__ is an import, not a read, and a name perfbench names (the
    # tracer's targets are strings) counts as read
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    perfbench = {word for path in sorted(PERFBENCH.glob("*.py"))
                 for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    unread = []
    for name, tree in trees.items():
        for d in tree.body:
            if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and d.name not in perfbench):
                own = {id(node) for node in ast.walk(d)}
                if all(n.id != d.name or id(n) in own for n in reads):
                    unread.append(f"{name}:{d.lineno} {d.name}")
    assert not unread, "definitions nothing in the package reads: " + ", ".join(unread)
