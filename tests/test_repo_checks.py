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


def _scopes(node, scope, hit):
    """The qualified name of each function or class (or the module) whose
    own code holds a node that ``hit`` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scopes(child, f"{scope}.{child.name}", hit)
        else:
            if hit(child):
                yield scope
            yield from _scopes(child, scope, hit)


def _int_test(node):
    return isinstance(node, ast.Compare) and bool(
        re.search(r"\btype\(.+\) is not int\b", ast.unparse(node))
    )


def test_one_integer_gate():
    # orders, degrees, indices and counts are checked by core._count alone;
    # core._real is the number gate, which takes an int as a number, and
    # GeneralizedReal.__pow__ tests the type only to return NotImplemented
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_scopes(ast.parse(path.read_text()), path.stem, _int_test))
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


def _tree_walk(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "_Tree().walk"


def test_one_derivative_sequence():
    # every derivative order is one (tree, slope) walk of the order before
    # it, run by the one growth loop in expr._Orders; differentiate and
    # NaturalExtension read their orders from it, so a repeat ends the walks
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_scopes(ast.parse(path.read_text()), path.stem, _tree_walk))
    allowed = {"expr._Orders.__getitem__"}
    assert found == allowed, f"derivative orders grown outside expr._Orders: {sorted(found - allowed)}"


def test_each_derivative_rule_stated_once():
    # the (value, slope) pair arithmetic in expr states every rule, and
    # differentiate runs it over trees; Expr.deriv calls differentiate,
    # InverseExpr is the one lifted node with a tangent of its own, and
    # NaturalExtension.deriv is the property that reads its derivative tree
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name in ("deriv", "tangent") for f in node.body
            ):
                found.add(f"{path.stem}.{node.name}")
    allowed = {"expr.Expr", "calculus.InverseExpr", "calculus.NaturalExtension"}
    assert found == allowed, f"deriv defined outside the pair rules: {sorted(found - allowed)}"


def _classes():
    """Each class of the library by name: its module-qualified name, the
    names of its bases and its body."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None) for b in node.bases}
                classes[node.name] = (f"{path.stem}.{node.name}", bases, node.body)
    return classes


def _node_classes(classes):
    """The names of Expr and of every class derived from it."""
    nodes = {"Expr"}
    while more := {name for name, (_, bases, _) in classes.items() if bases & nodes} - nodes:
        nodes |= more
    return nodes


def test_trees_print_through_their_rules():
    # Expr.__str__ runs the node rules through the text arithmetic, and the
    # lifted InverseExpr, whose function is opaque, states its own text; a
    # walk binds x once, so no node rebinds it as a Compose node did
    classes = _classes()
    found = {
        classes[name][0]
        for name in _node_classes(classes) - {"Expr"}
        if any(isinstance(f, ast.FunctionDef) and f.name == "__str__" for f in classes[name][2])
    }
    assert found == {"calculus.InverseExpr"}, f"node classes with their own printer: {sorted(found)}"
    assert "Compose" not in classes


def test_nodes_are_built_only_by_the_interning_constructor():
    # core.Record gives every node class one constructor, which interns it,
    # and identity as its equality and hash; a node class that defined its
    # own would build nodes around the table, or compare them by value
    classes = _classes()
    nodes = _node_classes(classes)
    assert {"Const", "Add", "InverseExpr"} <= nodes
    found = set()
    for name in nodes:
        qualname, _, body = classes[name]
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                defined = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                defined = {getattr(t, "id", None) for t in stmt.targets}
            else:
                continue
            found.update(f"{qualname}.{d}" for d in defined & {"__eq__", "__hash__", "__init__", "__new__"})
    allowed = set()
    assert found == allowed, f"node classes with their own constructor or equality: {sorted(found - allowed)}"


def test_one_weak_table_and_no_parse_cache():
    # core._INTERNED is the one table of live values, parsed text included: a
    # WeakValueDictionary or a weak reference made elsewhere would be a
    # second one, and a cache decorator on an expr function a strong one
    weak, cached = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                weak.update(f"{path.stem}.{a.name}" for a in node.names if a.name in ("weakref", "_weakref"))
            elif isinstance(node, ast.ImportFrom) and node.module in ("weakref", "_weakref"):
                weak.update(f"{path.stem}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "weakref":
                weak.add(f"{path.stem}.{node.attr}")
            elif isinstance(node, ast.FunctionDef) and path.stem == "expr":
                for d in node.decorator_list:
                    name = d.func if isinstance(d, ast.Call) else d
                    if (name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)) in (
                        "cache", "lru_cache", "cached_property"
                    ):
                        cached.add(f"expr.{node.name}")
    assert weak == {"core.weakref", "core.ref", "core._remove_dead_weakref"}, f"weak tables beside core's: {sorted(weak)}"
    assert cached == set(), f"cached functions in expr: {sorted(cached)}"


def _scoped(node, scope):
    """(qualified name of the enclosing function or class, node) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield inner, child
        yield from _scoped(child, inner)


def _library_nodes():
    for path in sorted(SRC.glob("*.py")):
        yield from _scoped(ast.parse(path.read_text()), path.stem)


def test_one_walk():
    # every arithmetic runs Arithmetic.walk, one loop over a root's plan; a
    # rule is handed its operands' values and walks nothing, and no memo
    # walk beside it keys values by node
    walks, walking_rules = set(), set()
    for scope, node in _library_nodes():
        if isinstance(node, ast.FunctionDef) and node.name == "walk":
            walks.add(scope)
        elif isinstance(node, ast.Attribute) and node.attr == "walk" and scope.endswith(".rule"):
            walking_rules.add(scope)
    assert walks == {"expr.Arithmetic.walk"}, f"walks beside the plan walk: {sorted(walks)}"
    assert walking_rules == set(), f"rules that walk their operands: {sorted(walking_rules)}"
    assert "_Memo" not in _classes()


def test_recursion_is_caught_only_where_the_code_recurses():
    # parse is a recursive-descent parser and repr expands fields
    # recursively; every walk runs a plan, so nothing else can overflow the stack
    found = set()
    for scope, node in _library_nodes():
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(n, "id", None) == "RecursionError" for n in names):
                found.add(scope)
    assert found == {"expr.parse", "expr.Expr.__repr__"}, f"RecursionError caught in: {sorted(found)}"
