"""Each module imports on its own, whichever module a program imports first."""

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
