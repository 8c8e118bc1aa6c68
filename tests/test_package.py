"""Package surface: lazily loaded public names."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlab

# the modules whose __all__ make up the package's names, in lookup order
MODULES = [importlib.import_module(f"robustlab.{m}") for m in (
    "config", "errors", "bds", "geometry2d", "qstates", "free_sets", "engines", "audit")]


def test_every_exported_name_resolves():
    for name in robustlab.__all__:
        value = getattr(robustlab, name)
        # the name is its owning module's own object, not a copy; the owner is
        # the first module that declares it, which covers values with no
        # __module__ of their own (PAULI is a tuple)
        owner = next(m for m in MODULES if name in m.__all__)
        assert getattr(owner, name) is value
        assert name in dir(robustlab)
    assert robustlab.__version__ == "0.1.0"


def test_names_are_the_union_of_the_module_names():
    union = {name for m in MODULES for name in m.__all__}
    assert sorted(robustlab.__all__) == sorted(union)
    # 79 names, plus three that their modules declared but the package did not export
    assert len(union) == 82
    assert {"PAULI", "bell_state_vectors", "random_quantum_classical"} <= union
    # operator_core and cli stay outside the package's names
    assert "as_complex_matrix" not in union and "main" not in union


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        robustlab.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule():
    env = dict(os.environ)
    src = str(Path(robustlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, robustlab\n"
        "print(sorted(m for m in sys.modules if m.startswith(('robustlab', 'numpy'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30.0, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['robustlab']"


def test_numpy_free_names_load_no_numpy():
    env = dict(os.environ)
    src = str(Path(robustlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, robustlab\n"
        "from robustlab import cli, geometry2d\n"
        "for name in ('PlanarScene', 'BellDiagonalParams', 'discord_levelset_grid',\n"
        "             'TOLS', 'ValidationError'):\n"
        "    getattr(robustlab, name)\n"
        "# submodule names and private names are not looked up\n"
        "assert not hasattr(robustlab, 'audit') and not hasattr(robustlab, '_hidden')\n"
        "print(sorted(m for m in sys.modules if m.startswith(('robustlab', 'numpy'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30.0, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["robustlab", "robustlab.bds", "robustlab.cli",
                                       "robustlab.config", "robustlab.errors",
                                       "robustlab.geometry2d"])


def test_lookup_without_numpy_is_an_attribute_error():
    # the search for an unknown name reached a numpy module and raised
    # ModuleNotFoundError, so hasattr() raised instead of returning False
    env = dict(os.environ)
    src = str(Path(robustlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import robustlab\n"
        "assert not hasattr(robustlab, 'typo')\n"
        "try:\n"
        "    robustlab.DensityMatrix\n"
        "except AttributeError as exc:\n"
        "    assert 'numpy' in str(exc) and isinstance(exc.__cause__, ImportError), exc\n"
        "else:\n"
        "    raise AssertionError('DensityMatrix resolved without numpy')\n"
        "print(robustlab.PlanarScene.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30.0, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "PlanarScene"
