"""Source-level guards on the package itself."""

import ast
import os
import re
import subprocess
import sys
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


def test_no_module_imports_numpy():
    # the dense oracle runs on lists of complex, so qsticker has no
    # third-party runtime dependency; numpy is for tests and perfbench
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "numpy" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "numpy")]
    assert not found, "numpy imported in the package: " + ", ".join(found)


def test_cli_import_loads_no_numpy():
    # catches an import through any module the CLI reaches, not only src/
    probe = "import sys, qsticker.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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


def _top_level_statements():
    """(module:name, node) for every top-level statement in the package;
    a statement that defines nothing is named <module>."""
    return [(f"{path.stem}:{getattr(d, 'name', '<module>')}", d)
            for path in sorted(SRC.glob("*.py"))
            for d in ast.parse(path.read_text(encoding="utf-8")).body]


def _called_names(node):
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def test_pastes_are_called_only_by_deform():
    # deform is the one place that pairs a sticker kind with its glue
    callers = {name for name, node in _top_level_statements()
               if _called_names(node) & {"paste_measurement", "paste_branch"}}
    assert callers == {"stickers:deform"}


def test_one_function_checks_sigma_against_hx():
    # every routine that needs Σ rows in ker H_X calls the one check
    holders = [name for name, node in _top_level_statements()
               if any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and "is not in ker hx" in n.value for n in ast.walk(node))]
    assert len(holders) == 1, holders
    check = holders[0].split(":")[1]
    users = {name: node for name, node in _top_level_statements()
             if name in {"glue:split_logicals", "glue:naked_glue",
                         "codes:redundancy_number",
                         "branching:estimate_qubit_cost"}}
    assert len(users) == 4, sorted(users)
    missing = [name for name, node in users.items()
               if check not in _called_names(node)]
    assert not missing, f"{check} is not called by: {', '.join(missing)}"


def test_set_bit_walks_stay_inside_gf2():
    # gf2.set_bits is the one walk over the set bits of a packed row
    # outside the elimination kernels, which keep theirs inline
    found = [f"{path.name}:{no}"
             for path in sorted(SRC.glob("*.py")) if path.name != "gf2.py"
             for no, line in enumerate(path.read_text(encoding="utf-8")
                                       .splitlines(), start=1)
             if re.search(r"&\s*-\s*[\w(]", line)]
    assert not found, "hand-written set-bit walks: " + ", ".join(found)


def test_naked_glue_and_its_price_share_one_neighbour_rule():
    # the bfb price counts r_G exactly only while it takes the checks
    # around a support by the rule the naked glue does
    users = {name: node for name, node in _top_level_statements()
             if name in {"tanner:induced_subgraph", "branching:_glue_shape"}}
    assert len(users) == 2, sorted(users)
    missing = [name for name, node in users.items()
               if "adjacent_checks" not in _called_names(node)]
    assert not missing, "adjacent_checks is not called by: " + ", ".join(missing)
