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


def run_python(code: str) -> str:
    """Run code in a fresh interpreter on this checkout's src/; its stdout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_only_the_errors_then_submodules_on_access():
    code = (
        "import json, sys\n"
        "import monadica\n"
        "def ours(): return sorted(m for m in sys.modules if m.startswith('monadica'))\n"
        "bare = ours()\n"
        "sets = monadica.sets\n"
        "print(json.dumps([bare, ours(), sets is sys.modules['monadica.sets']]))\n"
    )
    bare, after, same = json.loads(run_python(code).splitlines()[-1])
    assert bare == ["monadica", "monadica.errors"]
    assert "monadica.sets" in after and "monadica.calculus" not in after
    assert same


# Per CLI verb: a command line and the library modules it loads besides the
# ones every verb loads (cli, core, errors).
_VERB_LOADS = {
    "eval": (["eval", "exp(x) / x", "--at", '{"shadow":0.5,"d":{"h":1}}'], {"expr"}),
    "diff": (["diff", "sin(x)", "--at", '{"shadow":0.5,"d":{}}', "--order", "2"], {"expr"}),
    "taylor": (["taylor", "--center=0.1", "--order", "2", "--at", '{"shadow":0.5,"d":{}}',
                "--domain", "0", "10", "--", "log(x)"], {"expr", "calculus"}),
    "sets": (["sets", "union", '{"points":[1]}', '{"points":[2]}'], {"sets"}),
    "seq": (["seq", "print", '{"shadow":1,"d":{"h":1}}', "--terms", "3"], {"seq"}),
}


@pytest.mark.parametrize("verb", sorted(_VERB_LOADS))
def test_each_verb_loads_exactly_its_modules(verb):
    argv, extra = _VERB_LOADS[verb]
    code = (
        "import contextlib, io, json, sys\n"
        "from monadica.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('monadica.'))))\n"
    )
    loaded = set(json.loads(run_python(code)))
    assert loaded == {f"monadica.{m}" for m in {"cli", "core", "errors"} | extra}


def test_calculus_does_not_load_the_set_algebra():
    code = (
        "import math, sys\n"
        "from monadica.calculus import NaturalExtension\n"
        "from monadica.expr import parse\n"
        "for text, lo, hi in [('log(x)', 0, math.inf), ('1/x', 0, 1), ('pow(1.5, x)', 0, math.inf)]:\n"
        "    NaturalExtension.on_interval(parse(text), lo, hi)\n"
        "print('monadica.sets' in sys.modules)\n"
    )
    assert run_python(code).split() == ["False"]
