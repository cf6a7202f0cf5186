"""Shared by the test modules: a fresh interpreter on this checkout's src/,
one run of each CLI verb in it, which the CLI and namespace tests both read,
and the benchmark's generator with one build of its higher-order input."""

import functools
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest


def _run_python(code: str) -> str:
    """Run code in a fresh interpreter on this checkout's src/; its stdout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def run_python():
    return _run_python


# Per CLI verb: a command line that succeeds.
VERB_ARGV = {
    "eval": ["eval", "exp(x) / x", "--at", '{"shadow":0.5,"d":{"h":1}}'],
    "diff": ["diff", "sin(x)", "--at", '{"shadow":0.5,"d":{}}', "--order", "2"],
    "taylor": ["taylor", "--center=0.1", "--order", "2", "--at", '{"shadow":0.5,"d":{}}',
               "--domain", "0", "10", "--", "log(x)"],
    "sets": ["sets", "union", '{"points":[1]}', '{"points":[2]}'],
    "seq": ["seq", "print", '{"shadow":1,"d":{"h":1}}', "--terms", "3"],
}


@functools.cache
def _run_verb(verb: str) -> tuple[int, frozenset]:
    """Run one verb through ``cli.main`` in a fresh interpreter, once per
    session: its exit code and the names in ``sys.modules`` afterwards."""
    code = (
        "import contextlib, io, json, sys\n"
        "from monadica.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({VERB_ARGV[verb]!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    exit_code, modules = json.loads(_run_python(code))
    return exit_code, frozenset(modules)


def pytest_generate_tests(metafunc):
    # A test that uses ``cli_verb`` (or ``verb_run``) runs once per verb.
    if "cli_verb" in metafunc.fixturenames:
        metafunc.parametrize("cli_verb", sorted(VERB_ARGV))


@pytest.fixture
def verb_run(cli_verb):
    """(exit code, loaded module names) of the shared run of ``cli_verb``."""
    return _run_verb(cli_verb)


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's seeded input generator, perfbench/gen.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def higher_order_input(bench_gen):
    """The benchmark's higher-order input at seed 1 with 130 ops, built once
    (about 3 s): 88 functions, and 40 of the ops are mean-value ops."""
    return bench_gen.higher_order(random.Random(1), 130)
