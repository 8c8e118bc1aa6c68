"""Package surface: lazily loaded public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlab


def test_every_exported_name_resolves():
    for name in robustlab.__all__:
        value = getattr(robustlab, name)
        # the name is the owning submodule's own object, not a copy
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(robustlab)
    assert robustlab.__version__ == "0.1.0"


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
