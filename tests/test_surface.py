"""Every public function, class and method in src/nanolab is reached by the
library itself, by a bench/layers.py target or by nanolab.__all__.

A name counts as reached when it occurs as an identifier (an ast.Name or the
attribute of an ast.Attribute) anywhere in src/nanolab.  Methods of exported
classes, dunder methods and overrides of a base-class method are exempt;
properties and cached properties count as methods.  A name that also occurs
as some other identifier escapes the check, so it guards against regrowth
without proving every name is needed.
"""

import ast
import importlib
from pathlib import Path

import nanolab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nanolab"
LAYERS = ROOT / "bench" / "layers.py"


def _layer_targets() -> set:
    """The "module.function" keys of the LAYERS table, read without importing it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return {key.value for key in node.value.keys}
    raise AssertionError(f"no LAYERS table in {LAYERS}")


def _unreached() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    reached = used | set(nanolab.__all__) | _layer_targets()
    missing = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and not {node.name, f"{mod}.{node.name}"} & reached:
                missing.append(f"{mod}.{node.name}")
            if not isinstance(node, ast.ClassDef) or node.name in nanolab.__all__:
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
