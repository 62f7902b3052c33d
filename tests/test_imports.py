"""Each module imports on its own, whichever module a program imports first."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mtnorm

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(mtnorm.__path__, prefix="mtnorm.")
)


def test_every_module_listed():
    assert {"mtnorm.labels", "mtnorm.reader", "mtnorm.legality", "mtnorm.neural.model"} <= set(
        MODULES
    )


@pytest.mark.parametrize("module", MODULES)
def test_imports_alone(module):
    src = str(Path(mtnorm.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def package_names_used(package: str) -> set[str]:
    """Names that modules under ``src/`` and ``perfbench/`` take from ``package``.

    Counts ``from <package> import name`` (relative forms resolved) and
    ``alias.name`` where ``from <parent> import <package leaf>`` bound ``alias``.
    """
    repo = Path(__file__).resolve().parent.parent
    parent, _, leaf = package.rpartition(".")
    used = set()
    for path in [*(repo / "src").rglob("*.py"), *(repo / "perfbench").glob("*.py")]:
        # the package a relative import starts from; perfbench/ has none
        here = path.relative_to(repo / "src").parts[:-1] if repo / "src" in path.parents else ()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else ()
                module = ".".join([*base, *filter(None, [node.module])])
                for alias in node.names:
                    if module == package:
                        used.add(alias.name)
                    elif module == parent and alias.name == leaf:
                        aliases.add(alias.asname or leaf)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    used.add(node.attr)
    return used


def test_json_parsed_only_in_the_input_layer():
    # every other module reads its files through corpus.read_json, read_jsonl or read_text
    package = Path(mtnorm.__file__).parent
    parsers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = (
                isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names
            )
            if called or imported:
                parsers.add(path.relative_to(package).as_posix())
    assert parsers - {"corpus.py", "neural/checkpoint.py"} == set()


def test_neural_exports_have_callers():
    # the package re-exports what the program calls, plus its error classes;
    # tests import everything else from its submodule
    import mtnorm.neural as neural

    exported = {
        name for name in neural.__all__
        if not (isinstance(obj := getattr(neural, name), type) and issubclass(obj, Exception))
    }
    assert exported - package_names_used("mtnorm.neural") == set()
