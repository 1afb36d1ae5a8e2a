"""No dead surface: every public function, class and method in src/nanolab is
reached by the library itself or by the benchmark's own calls into it,
bench/workloads.py, every dataclass field is read there as an attribute,
every error class of nanolab.errors is raised or warned
with in src/nanolab, no module warns, every command-line option reaches
an output, and the library runs on numpy alone: scipy is the tests' oracle.

A name counts as reached when it occurs as an identifier (an ast.Name or the
attribute of an ast.Attribute) anywhere in src/nanolab or bench/workloads.py.
A string does not count, so neither does a trace target of bench/layers.py,
and nor does an entry of nanolab.__all__: an export that no module uses is
reached only from outside the library.  Dunder methods and overrides of a base-class
method are exempt; properties and cached properties count as methods.  A
name that also occurs as some other identifier escapes the check, so it
guards against regrowth without proving every name is needed.
"""

import argparse
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from nanolab import cli

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


def _is_dataclass(node) -> bool:
    return any(_identifier(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    # a field that no obj.field load in src/nanolab or bench/workloads.py
    # reads is carried for the tests alone; as with _unreached, a field whose
    # name is also read as some other attribute escapes the check
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.attr
        for tree in [*trees.values(), ast.parse(WORKLOADS.read_text())]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{mod}.{node.name}.{item.target.id}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in read
    ]
    assert unread == []


def _identifier(node):
    """The name an ast.Name or ast.Attribute ends in, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_every_error_class_is_raised_or_warned():
    # as for functions above: an error class that no raise X(...) in
    # src/nanolab builds, or a warning class no warnings.warn issues, is dead
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                used.add(_identifier(node.exc.func))
            elif isinstance(node, ast.Call) and _identifier(node.func) == "warn":
                categories = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
                used.update(_identifier(c) for c in categories)
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert [name for name in defined if name not in used and name != "NanolabError"] == []


def test_no_module_warns():
    # a condition a command should report is a field of its report; a
    # warnings.warn line reaches only stderr, with the checkout's path in it
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _identifier(node.func) == "warn"
    ]
    assert calls == []


# Options that only choose where an output goes, and those that print and exit.
_NO_WITNESS = {"-h", "--version", "-o", "--out-csv", "--dump-counterexample"}


def _cli_options() -> list:
    """(command, option) of every option of cli.build_parser() but _NO_WITNESS,
    the command empty for the top-level parser's own options."""
    parser = cli.build_parser()
    commands = {"": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    return sorted(
        (name, max(action.option_strings, key=len))
        for name, command in commands.items()
        for action in command._actions
        if action.option_strings and not _NO_WITNESS.intersection(action.option_strings)
    )


def test_every_cli_option_reaches_an_output(tmp_path, capsys):
    # each option has a witness run on top of its command's base run: a
    # "changes" witness exits 0 and writes other bytes than the base run, a
    # "refuses" witness (labels and search bounds only) exits 1, so an option
    # the command reads but nothing depends on fails here
    tube, other = str(tmp_path / "a.pxyz"), str(tmp_path / "b.pxyz")
    base = {
        "generate": ["generate", "--ell", "8", "--m", "2", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1"],
        "energy": ["energy", "--in", tube, "--ell", "8", "--m", "2"],
        "cells": ["cells", "--in", tube, "--ell", "8", "--m", "2"],
        "reduced": ["reduced", "--ell", "12", "--mu-grid", "2.97:3.0:3"],
        "stability": ["stability", "--ell", "8", "--m", "2", "--mu-offset", "0.01", "--count", "10"],
        # with the stiff preset, m = 8 has no fracture crossing below mu = 3.1
        "fracture": ["fracture", "--ell", "12", "--m-list", "128,256"],
        "verify-cell": ["verify-cell", "--ell", "16"],
        "verify-all": ["verify-all"],
    }
    witnesses = {
        ("generate", "--ell"): ("changes", "6"),
        ("generate", "--m"): ("changes", "1"),
        ("generate", "--mu"): ("changes", "3.0"),
        ("generate", "--lambda1"): ("changes", "0.99"),
        ("generate", "--lambda2"): ("changes", "0.99"),
        ("energy", "--in"): ("changes", other),
        ("energy", "--ell"): ("refuses", "6"),
        ("energy", "--m"): ("refuses", "1"),
        ("energy", "--pots"): ("changes", "stiff"),
        ("cells", "--in"): ("changes", other),
        ("cells", "--ell"): ("refuses", "6"),
        ("cells", "--m"): ("refuses", "1"),
        ("reduced", "--ell"): ("changes", "8"),
        ("reduced", "--m"): ("changes", "2"),
        ("reduced", "--mu-grid"): ("changes", "2.97:3.0:2"),
        ("reduced", "--pots"): ("changes", "stiff"),
        ("stability", "--ell"): ("changes", "12"),
        ("stability", "--m"): ("changes", "3"),
        ("stability", "--mu-offset"): ("changes", "0.02"),
        ("stability", "--eta"): ("changes", "2e-3"),
        ("stability", "--count"): ("changes", "11"),
        ("stability", "--seed"): ("changes", "1"),
        ("stability", "--mode"): ("changes", "gaussian-clipped"),
        ("stability", "--pots"): ("changes", "stiff"),
        ("fracture", "--ell"): ("changes", "16"),
        ("fracture", "--m-list"): ("changes", "128,512"),
        # 0.2 writes the bytes 0.12 writes: the window bounds the search
        ("fracture", "--window"): ("refuses", "0.01"),
        ("fracture", "--pots"): ("changes", "stiff"),
        ("verify-cell", "--ell"): ("changes", "32"),
        ("verify-cell", "--r"): ("changes", "0.8"),
        ("verify-cell", "--pots"): ("changes", "stiff"),
        ("verify-all", "--quick"): ("changes", None),
        ("verify-all", "--seed"): ("changes", "1"),
    }

    def outcome(argv):
        """(exit code, (stdout, -o bytes or None)) of main(argv -o out)."""
        out = tmp_path / "out"
        out.unlink(missing_ok=True)
        code = cli.main([*argv, "-o", str(out)])
        return code, (capsys.readouterr().out, out.read_bytes() if out.exists() else None)

    def reaches(command, option):
        kind, value = witnesses.get((command, option), (None, None))
        if kind is None:
            return False
        code, written = outcome([*base[command], option] + ([value] if value else []))
        return code == 1 if kind == "refuses" else code == 0 and written != first[command][1]

    assert cli.main([*base["generate"], "-o", tube]) == 0
    assert cli.main([*base["generate"], "--mu", "3.0", "-o", other]) == 0
    options = _cli_options()
    assert set(witnesses) <= set(options), "a witness names an option the parser lacks"
    first = {command: outcome(argv) for command, argv in base.items()}
    assert [command for command, (code, _) in first.items() if code != 0] == []
    assert [(command, option) for command, option in options if not reaches(command, option)] == []


def test_verify_all_imports_no_scipy():
    # a fresh interpreter that runs the quick battery has imported numpy
    # and nanolab, and no scipy module
    code = (
        "import sys\n"
        "from nanolab import cli\n"
        "assert cli.main(['verify-all', '--quick']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[]"
