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


def broad_except_owners(node, owner=None):
    """The enclosing function's name, once per bare ``except`` or ``except
    Exception`` (alone or in a tuple; ``BaseException`` too) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from broad_except_owners(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler):
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            if any(
                c is None or isinstance(c, ast.Name) and c.id in ("Exception", "BaseException")
                for c in caught
            ):
                yield owner
        yield from broad_except_owners(child, owner)


def test_broad_excepts_only_at_fault_boundaries():
    # a fault is caught broadly only where it must not spread: a CLI run, an
    # ablation grid entry, a checkpoint file, and one span's reading
    package = Path(mtnorm.__file__).parent
    found = sorted(
        (path.relative_to(package).as_posix(), owner)
        for path in package.rglob("*.py")
        for owner in broad_except_owners(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [
        ("cli.py", "main"),
        ("evaluate.py", "run_ablation"),
        ("neural/checkpoint.py", "load_params"),
        ("pipeline.py", "_read"),
    ]


def test_neural_exports_have_callers():
    # the package re-exports what the program calls, plus its error classes;
    # tests import everything else from its submodule
    import mtnorm.neural as neural

    exported = {
        name for name in neural.__all__
        if not (isinstance(obj := getattr(neural, name), type) and issubclass(obj, Exception))
    }
    assert exported - package_names_used("mtnorm.neural") == set()


def module_imports(tree: ast.Module):
    """(bound name, line) per module-level import, ``__future__`` left out."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_module_imports():
    # an import is read somewhere in its module, or re-exported through __all__
    package = Path(mtnorm.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        unused += [
            f"{path.relative_to(package).as_posix()}:{line}: {name}"
            for name, line in module_imports(tree)
            if name not in read | exported
        ]
    assert unused == []
