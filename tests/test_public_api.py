"""Public-API consistency: every exported name exists and is importable."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.faults",
    "repro.sim",
    "repro.mem",
    "repro.net",
    "repro.pcie",
    "repro.nic",
    "repro.cpu",
    "repro.core",
    "repro.harness",
    "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} has no __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} listed in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    """Keep the export lists tidy (reviewable diffs)."""
    mod = importlib.import_module(package)
    assert list(mod.__all__) == sorted(mod.__all__), package


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
