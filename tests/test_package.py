"""The package namespace: names come from their modules, not from a facade."""

import json
import os
import subprocess
import sys
import types

import moyalbench

SRC = os.path.dirname(os.path.dirname(moyalbench.__file__))


def test_import_loads_only_the_backend():
    code = (
        "import json, sys, moyalbench; print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('moyalbench', 'mpmath'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["moyalbench", "moyalbench.backend"]


def test_submodule_import_gives_the_module():
    import moyalbench.laguerre as m

    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "moyalbench.laguerre"
    assert callable(m.laguerre)
    assert moyalbench.BACKEND == "fraction"
