"""The lazy ``monadica`` namespace: every public name resolves to the object
its submodule defines, and a bare import loads only the error types."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import monadica


@pytest.mark.parametrize("name", monadica.__all__)
def test_each_public_name_is_its_submodules_object(name):
    module = importlib.import_module(f"monadica.{monadica._EXPORTS[name]}")
    assert getattr(monadica, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(monadica.__all__) <= set(dir(monadica))


@pytest.mark.parametrize("name", ["no_such_name", "derivative_at"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(monadica, name)
    assert not hasattr(monadica, name)


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from monadica import *", scope)
    assert set(scope) - {"__builtins__"} == set(monadica.__all__)
    assert scope["taylor_expand"] is monadica.calculus.taylor_expand


def test_bare_import_loads_only_the_errors_then_submodules_on_access():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys\n"
        "import monadica\n"
        "def ours(): return sorted(m for m in sys.modules if m.startswith('monadica'))\n"
        "bare = ours()\n"
        "sets = monadica.sets\n"
        "print(json.dumps([bare, ours(), sets is sys.modules['monadica.sets']]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    bare, after, same = json.loads(proc.stdout.splitlines()[-1])
    assert bare == ["monadica", "monadica.errors"]
    assert "monadica.sets" in after and "monadica.calculus" not in after
    assert same
