"""Source hygiene: no unused imports under ``src/``.

A stdlib AST scan.  An imported name counts as used when the module
reads it anywhere, lists it in ``__all__``, or names it inside a string
annotation (``out: "Future"``, ``Optional["Span"]``).  Package
``__init__.py`` files are skipped: their imports are the re-exports.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _annotation_names(node: ast.AST, used: Set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            _annotation_names(parsed, used)


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for every imported name the module never uses."""
    tree = ast.parse(source)
    imported: List[Tuple[int, str]] = []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append(
                    (node.lineno, alias.asname or alias.name.split(".")[0])
                )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    used.add(item.value)
        for annotation in (
            getattr(node, "annotation", None),
            getattr(node, "returns", None),
        ):
            if annotation is not None:
                _annotation_names(annotation, used)
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_unused_and_honours_exemptions():
    source = (
        "import os\n"
        "import json\n"
        "from typing import Optional, Dict\n"
        "from collections import OrderedDict\n"
        "from concurrent.futures import Future\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: Optional['Future']) -> None:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Dict")]


def test_no_unused_imports_under_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            offenders.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert offenders == []
