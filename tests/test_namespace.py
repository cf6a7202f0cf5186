"""The lazy ``monadica`` namespace: every public name resolves to the object
its submodule defines, and a bare import loads only the error types."""

import importlib
import json

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


def test_bare_import_loads_only_the_errors_then_submodules_on_access(run_python):
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


# Per CLI verb (the command lines are ``conftest.VERB_ARGV``): the library
# modules it loads besides the ones every verb loads (cli, core, errors); so no
# verb loads verify or a layer it does not use.
_VERB_LAYERS = {
    "eval": {"expr"},
    "diff": {"expr"},
    "taylor": {"expr", "calculus"},
    "sets": {"sets"},
    "seq": {"seq"},
}


def test_each_verb_loads_exactly_its_modules(cli_verb, verb_run):
    code, loaded = verb_run
    assert code == 0, code
    assert "numpy" not in loaded
    assert "dataclasses" not in loaded
    ours = {m for m in loaded if m.startswith("monadica.")}
    assert ours == {f"monadica.{m}" for m in {"cli", "core", "errors"} | _VERB_LAYERS[cli_verb]}


def test_calculus_does_not_load_the_set_algebra(run_python):
    code = (
        "import math, sys\n"
        "from monadica.calculus import NaturalExtension\n"
        "from monadica.expr import parse\n"
        "for text, lo, hi in [('log(x)', 0, math.inf), ('1/x', 0, 1), ('pow(1.5, x)', 0, math.inf)]:\n"
        "    NaturalExtension.on_interval(parse(text), lo, hi)\n"
        "print('monadica.sets' in sys.modules)\n"
    )
    assert run_python(code).split() == ["False"]
