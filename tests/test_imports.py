"""Every module of the package imports on its own, in a fresh interpreter,
so none relies on another module having been imported first."""

import subprocess
import sys
from pathlib import Path

import pytest

import mrcontrast

PACKAGE = Path(mrcontrast.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"cli", "labels", "optim", "records"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import mrcontrast.{module}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
