"""Public-API consistency: every exported name exists and is importable."""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    """Every ``repro`` module that declares ``__all__``, package first."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


MODULES = _modules_with_all()


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name} listed in __all__ but missing"


@pytest.mark.parametrize("module", MODULES)
def test_all_is_sorted(module):
    """Keep the export lists tidy (reviewable diffs)."""
    mod = importlib.import_module(module)
    assert list(mod.__all__) == sorted(mod.__all__), module


def test_walk_covers_every_subpackage():
    """The walk reaches the packages a hand-written list once missed."""
    for package in ("repro.cache", "repro.faults.events", "repro.tenants", "repro.tenants.sweep"):
        assert package in MODULES


def test_top_level_quickstart_symbols():
    """The README quickstart must keep working."""
    import repro

    for name in ("Experiment", "ServerConfig", "run_experiment", "units"):
        assert hasattr(repro, name)
    from repro.core import ddio, idio  # noqa: F401


def test_version():
    import repro

    assert repro.__version__


def test_cli_module_importable():
    from repro.cli import main  # noqa: F401


def test_api_import_does_not_load_numpy():
    """The simulator is pure Python: importing the facade must not pay
    numpy's import cost."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, repro.api; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
