"""Checks on the library's source and imports, run by the tier-1 suite."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monadica"


def test_test_oracles_are_not_runtime_dependencies(run_python):
    # sympy and hypothesis are installed for the tests; no library module may
    # load them, nor dataclasses, whose imports (inspect, ast, dis) slow every
    # verb. A fresh interpreter, since pytest itself loads hypothesis
    code = (
        "import importlib, pkgutil, sys\n"
        "import monadica\n"
        "for module in pkgutil.iter_modules(monadica.__path__):\n"
        "    importlib.import_module(f'monadica.{module.name}')\n"
        "assert 'monadica.cli' in sys.modules and 'monadica.verify' in sys.modules\n"
        "loaded = {'sympy', 'mpmath', 'hypothesis', 'numpy'} & set(sys.modules)\n"
        "assert not loaded, f'library imports test-only packages: {sorted(loaded)}'\n"
        "assert 'dataclasses' not in sys.modules, 'library imports dataclasses'\n"
    )
    run_python(code)


def _int_tests(node, scope):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _int_tests(child, f"{scope}.{child.name}")
        elif isinstance(child, ast.Compare):
            if re.search(r"\btype\(.+\) is not int\b", ast.unparse(child)):
                yield scope
        else:
            yield from _int_tests(child, scope)


def test_one_integer_gate():
    # orders, degrees, indices and counts are checked by core._count alone;
    # core._real is the number gate, which takes an int as a number, and
    # GeneralizedReal.__pow__ tests the type only to return NotImplemented
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_int_tests(ast.parse(path.read_text()), path.stem))
    allowed = {"core._count", "core._real", "core.GeneralizedReal.__pow__"}
    assert found == allowed, f"int tested outside core._count: {sorted(found - allowed)}"


def test_one_level_search():
    # a derivative meets a level (the mean value point, the Taylor witness)
    # by the one scan in calculus._first_root; the image's zero search
    # collects every crossing, not the first
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_crossings"
                for c in ast.walk(fn)
            ):
                found.add(f"{path.stem}.{fn.name}")
    allowed = {"calculus._first_root", "calculus._deriv_zeros"}
    assert found == allowed, f"_crossings called outside the one search: {sorted(found - allowed)}"


def test_each_derivative_rule_stated_once():
    # the (value, slope) pair arithmetic in expr states every rule, and
    # differentiate runs it over trees; Expr.deriv calls differentiate,
    # InverseExpr is the one lifted node with a derivative of its own, and
    # NaturalExtension.deriv is the property that reads its derivative tree
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "deriv" for f in node.body
            ):
                found.add(f"{path.stem}.{node.name}")
    allowed = {"expr.Expr", "calculus.InverseExpr", "calculus.NaturalExtension"}
    assert found == allowed, f"deriv defined outside the pair rules: {sorted(found - allowed)}"
