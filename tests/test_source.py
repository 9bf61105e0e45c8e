"""Source-level guards on the package itself."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from qsticker.glue import LogicalSplit

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


# one verify and one paste whose blocks fail a commutation check, which
# the block proof hands to the full products to refuse with their message
OPTIMIZE_PROBE = """
import sys, tempfile
from dataclasses import replace
from pathlib import Path
from qsticker.cli import main
from qsticker.codes import SubsystemCode
from qsticker.gf2 import Gf2Matrix
from qsticker.io import desk_code
from qsticker.sampling import SigmaSampler
from qsticker.stickers import deform

with tempfile.TemporaryDirectory() as out:
    rc = main(["verify", "--code", "desk", "--q", "3", "--out", out])
    print("exit", rc, (Path(out) / "verify.json").read_text())

pasted = SubsystemCode._pasted.__func__

def s_bit_dropped(cls, memory, split, glue, d_r, kind, name):
    first, *rest = glue.s.bits
    s = Gf2Matrix([first & first - 1, *rest], glue.s.cols)
    return pasted(cls, memory, split, replace(glue, s=s), d_r, kind, name)

SubsystemCode._pasted = classmethod(s_bit_dropped)
c = desk_code(7)
sigma = SigmaSampler(c, l_max=2, thickness=2, max_q=2, seed=5).sample(2, 0)
try:
    deform(c, sigma, "measurement", 2)
except ValueError as exc:
    print("refused:", exc)
print("optimize", sys.flags.optimize)
"""


def test_python_O_changes_no_output():
    # `python -O` drops assert statements and sets __debug__ false; every
    # verdict and message must come out the same without them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", OPTIMIZE_PROBE], env=env,
                       check=True, capture_output=True, text=True).stdout
        for flags in ([], ["-O"]))
    assert "\nexit 0 {" in plain and '"ok": true' in plain
    assert "refused: checks and logicals do not commute: row " in plain
    assert plain.endswith("optimize 0\n") and optimized.endswith("optimize 1\n")
    assert optimized[:-2] == plain[:-2]


# perfbench/tests asserts that its tracer patches these module bindings
UNUSED_IMPORT_ALLOWED = {("stickers.py", "solve_left"), ("glue.py", "solve_left"),
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


def test_trusted_constructors_stay_inside_pauli_and_tableau():
    # PauliOp._trusted skips the range check and StabilizerState._trusted
    # every validity check, so they are called only where the result is a
    # product, sign or padding of operators and states already checked
    outside = [f"{path.name}:{node.lineno}"
               for path in sorted(SRC.glob("*.py"))
               if path.name not in ("pauli.py", "tableau.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "_trusted"]
    assert not outside, "trusted constructors used outside: " + ", ".join(outside)
    assert _callers("_trusted") == {"pauli:PauliOp.mul", "pauli:PauliOp.negate",
                                    "tableau:plan_initial_state",
                                    "tableau:memory_factor"}


def test_transpose_cache_stays_inside_gf2():
    # Gf2Matrix._t is read back as the transpose unchecked, so only gf2,
    # which builds it, may read or write it
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py")) if path.name != "gf2.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Attribute) and node.attr == "_t")
            or (isinstance(node, ast.Constant) and node.value == "_t")]
    assert not uses, "Gf2Matrix._t used outside gf2.py: " + ", ".join(uses)


def _is_object_write(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("__setattr__", "__delattr__")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object")


def _writable_names(method):
    """The first argument (`self`), and in a classmethod every name bound
    to `object.__new__(cls)`: the object the constructor itself made."""
    first = method.args.args[0].arg
    if not any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in method.decorator_list):
        return {first}
    return {first} | {
        target.id for node in ast.walk(method)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "__new__"
        and isinstance(node.value.func.value, ast.Name)
        and node.value.func.value.id == "object"
        and len(node.value.args) == 1 and isinstance(node.value.args[0], ast.Name)
        and node.value.args[0].id == first
        for target in node.targets if isinstance(target, ast.Name)}


def test_frozen_objects_are_written_only_by_their_own_methods():
    # a frozen object holds facts about itself, so outside gf2.py, which
    # fills matrices field by field, every object.__setattr__ and
    # object.__delattr__ writes `self` inside a method of its own class,
    # or the object a classmethod of that class made by object.__new__(cls)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gf2.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {id(node)
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for method in cls.body
               if isinstance(method, ast.FunctionDef) and method.args.args
               for node in ast.walk(method)
               if _is_object_write(node) and node.args
               and isinstance(node.args[0], ast.Name)
               and node.args[0].id in _writable_names(method)}
        found += [f"{path.name}:{line}" for line in sorted(
            node.lineno for node in ast.walk(tree)
            if _is_object_write(node) and id(node) not in own)]
    assert not found, "frozen objects written from outside: " + ", ".join(found)


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


def test_only_the_paste_requests_a_block_proof():
    # a block proof takes the memory block's commutation from the memory,
    # so the one caller of the paste constructor is the paste that joins
    # that memory to its sticker
    callers = {caller for caller, node in _top_level_statements()
               if "_pasted" in _called_names(node)}
    assert callers == {"stickers:_paste"}


def _callers(name):
    """module:function, or module:Class.method, of every definition in
    the package that calls `name`."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = [top] if not isinstance(top, ast.ClassDef) else [
                d for d in top.body if isinstance(d, ast.FunctionDef)]
            callers |= {f"{path.stem}:{getattr(top, 'name', '<module>')}"
                        + ("" if d is top else f".{d.name}")
                        for d in defs if name in _called_names(d)}
    return callers


def test_solve_left_callers_are_pinned():
    # a solve is read only where its coefficients are the output: γ of a
    # measurement paste, the product of generators a determined
    # measurement equals, and an inverse; a span test goes through a
    # `RowReducer`, which records no coefficients
    assert _callers("solve_left") == {"codes:SubsystemCode._pasted",
                                      "tableau:StabilizerState.measure",
                                      "gf2:inverse"}


def test_gauss_jordan_callers_are_pinned():
    # Gauss–Jordan runs only where coefficient bits ride along; `rref`,
    # and with it `rank`, `row_basis` and `kernel_basis`, back-reduces the
    # lowest-pivot echelon instead
    assert _callers("_eliminate") == {"gf2:solve_left", "gf2:standard_form",
                                      "gf2:subspace_intersect"}


def test_logical_pairings_are_checked_where_they_are_built():
    # J_X J_Z^T = E is multiplied out where a split is built, where a code
    # is proven by its full products, and by `validate_code`; a paste
    # reads it off its split, which holds no flag beside its four blocks
    assert _callers("pairing_witness") == {"glue:LogicalSplit.__post_init__",
                                           "codes:SubsystemCode._prove",
                                           "codes:validate_code"}
    assert [f.name for f in fields(LogicalSplit)] == ["jza", "jzc", "jxa", "jxc"]


def test_only_codes_stores_a_proof():
    # `proven` is true only where one of the constructors in codes.py ran
    # its proof, so nothing else calls the method that stores one
    callers = {name for name, node in _top_level_statements()
               if "_settle" in _called_names(node)}
    assert callers and {name.split(":")[0] for name in callers} == {"codes"}


def test_kernels_come_from_kernel_complement():
    # `kernel_complement` with an empty span is the one kernel builder in
    # the package; `contained_logical_count` keeps `kernel_basis` because
    # the benchmark's tracer test pins the spans that call makes
    callers = {name for name, node in _top_level_statements()
               if "kernel_basis" in _called_names(node)}
    assert callers == {"codes:contained_logical_count"}


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
