"""The library keeps only what runs: every top-level name in a ``sinkflow``
module, and every method of its classes, is reached from the library
itself or shown in the README.

A name counts as reached when some module reads it (a name or attribute
load) or imports it; the package ``__init__`` re-exports do not count.
Dunder methods are called by Python itself and are not checked.
Otherwise the README must show it in code: a backticked span or a fenced
block.  ``closed_form`` is exempt: it is the oracle module, whose exact
flows the tests read by design.  Code that only tests reach belongs in
``tests/reference.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "sinkflow"
EXEMPT = {"closed_form"}


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level def, class and assignment targets of a module, and the
    methods of its classes as ``Class.method``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def reached_names(tree: ast.Module, reexport: bool) -> set[str]:
    """Names a module reads or imports (imports skipped for a re-export module)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexport:
            out.update(alias.name for alias in node.names)
    return out


def readme_code_words() -> set[str]:
    text = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```.*?```", text, re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + spans)))


def unreached(package: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reached = set().union(*(reached_names(tree, path.name == "__init__.py")
                            for path, tree in trees.items()))
    known = reached | readme_code_words()
    return [f"{path.stem}.{name}" for path, tree in trees.items() if path.stem not in EXEMPT
            for name in defined_names(tree) if name.split(".")[-1] not in known]


def test_every_library_name_is_reached_or_shown():
    assert unreached(PACKAGE) == []


def test_a_name_only_the_package_init_imports_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .solver import orphan\n")
    (tmp_path / "solver.py").write_text("def used():\n    pass\n\n\n"
                                        "def orphan():\n    used()\n")
    assert unreached(tmp_path) == ["solver.orphan"]


def test_a_method_nothing_reads_is_flagged(tmp_path):
    (tmp_path / "solver.py").write_text(
        "class Solver:\n"
        "    def __init__(self):\n        self.run()\n\n"
        "    def run(self):\n        pass\n\n"
        "    @classmethod\n    def orphan(cls):\n        return cls()\n\n\n"
        "Solver()\n")
    assert unreached(tmp_path) == ["solver.Solver.orphan"]
