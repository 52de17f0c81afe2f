"""Every import in `src/` and `tests/` is read somewhere in its own module,
every function and class `src/` defines is read somewhere in `src/` or
exported, the third-party modules `src/` imports are its declared
dependencies, the test oracles in `tests/helpers.py` take only the
state records from `qsdiag`, and no tolerance is written in `src/` outside
`qsdiag.core`'s table of bounds.

An AST scan stands in for a linter.  A name bound by `from m import x` or
`import m as x` counts as read when the module loads the name anywhere; a
dotted `import a.b` counts when some attribute chain starts with `a.b`.
`__future__` imports bind nothing, and the `qsdiag/__init__.py` facade
binds names only to re-export them, so neither is scanned.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import qsdiag

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qsdiag"
FACADE = SRC / "__init__.py"
PYPROJECT = ROOT / "pyproject.toml"
MODULES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
                 if path != FACADE)


def _dotted(node):
    """`a.b.c` for an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def unused_imports(source: str) -> list:
    """(line, bound name) for every import the module never reads."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            chain = _dotted(node)
            if chain:
                read.update(".".join(chain.split(".")[:i + 1])
                            for i in range(chain.count(".") + 1))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unread_import():
    source = "import os\nimport a.b\nfrom c import d, e as f\nimport g.h\nprint(d, g.h.i)\n"
    assert unused_imports(source) == [(1, "os"), (2, "a.b"), (3, "f")]


def unread_definitions(sources: dict) -> list:
    """(module, name) for every module-level function and class that no module in
    `sources` (module name -> source text) reads by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def test_every_definition_in_src_is_read_or_exported():
    """Dead code fails here: a function or class of `src/qsdiag` that `src/` never reads
    must be a public name of the facade.  `cli.main` looks up the `cmd_*` handlers by
    name, and Python itself calls the facade's `__getattr__` and `__dir__`."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    unread = [(module, name) for module, name in unread_definitions(sources)
              if name not in qsdiag._HOME]
    exempt = [(module, name) for module, name in unread
              if (module, name[:4]) == ("cli", "cmd_")
              or (module, name) in {("__init__", "__getattr__"), ("__init__", "__dir__")}]
    assert unread == exempt


def test_scan_flags_an_unread_definition():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b": "import a\nx = a.C\ndef h(g=1):\n    pass\n"}
    assert unread_definitions(sources) == [("a", "f"), ("b", "h")]


def tolerance_literals(sources: dict) -> list:
    """(module, line, value) for every float literal with 0 < |value| <= 1e-6 in `sources`
    (module name -> source text), except the value of a module-level assignment in `core`
    whose line directly follows a comment: its reason."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        lines = source.splitlines()
        bounds = {id(node.value) for node in tree.body
                  if module == "core" and isinstance(node, ast.Assign)
                  and lines[node.lineno - 2].lstrip().startswith("#")}
        found += [(module, node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) <= 1e-6 and id(node) not in bounds]
    return sorted(found)


def test_src_writes_tolerances_only_in_the_bounds_of_core():
    """Every tolerance `src/qsdiag` compares a defect or a magnitude against is one named,
    commented constant of `qsdiag.core`; other modules import the names."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert tolerance_literals(sources) == []


def test_scan_flags_a_tolerance_literal():
    sources = {"core": "# why\nA = 1e-12\nB = 1e-9\ndef f(x=1e-10):\n    return x < 2e-7\n",
               "kraus": "x = 1e-8\ny = 1e-5 + 0.5\nz = -1e-6\nw = max(t, 1e-300)\n"}
    assert tolerance_literals(sources) == [
        ("core", 3, 1e-9), ("core", 4, 1e-10), ("core", 5, 2e-7),
        ("kraus", 1, 1e-8), ("kraus", 3, 1e-6), ("kraus", 4, 1e-300)]


def imported_top_levels(source: str) -> set:
    """Top-level names of every absolute import, function-local ones included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_declared_third_party_modules():
    tomllib = pytest.importorskip("tomllib")
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]}
    imported = set().union(*(imported_top_levels(path.read_text(encoding="utf-8"))
                             for path in (ROOT / "src").rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "qsdiag"}
    assert third_party == declared


def test_import_scan_sees_function_local_and_dotted_imports():
    source = "import a.b\nfrom c.d import e\nfrom . import f\ndef g():\n    import h\n"
    assert imported_top_levels(source) == {"a", "c", "h"}


def test_oracles_import_only_the_state_records_from_qsdiag():
    """`tests/helpers.py` builds random states with `DensityMatrix` and `PureState` and
    takes nothing else from `qsdiag`, so no oracle there can call the code it checks."""
    taken = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "helpers.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names if alias.name.startswith("qsdiag"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsdiag"):
            taken.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert taken == {"qsdiag.DensityMatrix", "qsdiag.PureState"}


def test_diagram_module_imports_nothing_from_dataclasses():
    """`qsdiag.diagram`'s records are slotted classes: each dataclass would be generated
    again, with its methods compiled, in every process that imports the module."""
    source = (ROOT / "src" / "qsdiag" / "diagram.py").read_text(encoding="utf-8")
    assert "dataclasses" not in imported_top_levels(source)
