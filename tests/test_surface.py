"""Every public function, class and method in src/nanolab is reached by the
library itself or by the benchmark's own calls into it, bench/workloads.py.

A name counts as reached when it occurs as an identifier (an ast.Name or the
attribute of an ast.Attribute) anywhere in src/nanolab or bench/workloads.py.
A string does not count, so neither does a trace target of bench/layers.py,
and nor does an entry of nanolab.__all__: an export that no module uses is
reached only from outside the library.  Dunder methods and overrides of a base-class
method are exempt; properties and cached properties count as methods.  A
name that also occurs as some other identifier escapes the check, so it
guards against regrowth without proving every name is needed.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nanolab"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _unreached() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reached = set()
    for tree in [*trees.values(), ast.parse(WORKLOADS.read_text())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    missing = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in reached:
                missing.append(f"{mod}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"nanolab.{mod}"), node.name)
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in reached
                    and not any(hasattr(base, item.name) for base in cls.__mro__[1:])
                ):
                    missing.append(f"{mod}.{node.name}.{item.name}")
    return missing


def test_every_public_name_is_reached():
    assert _unreached() == []
