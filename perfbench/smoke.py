"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, at a tiny op count per workload, that
  * run.py prints exactly the metric names and units BENCHMARK.json lists,
    for --trace 0 and --trace 1, with every op correct;
  * run.py fails, printing no result, where the library source is absent;
  * the oracle passes every real result and flags every perturbed one;
  * the parser builds trees of exactly the node counts the generator
    records.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TINY = {"first-order": 4, "higher-order": 24, "set-algebra": 28, "cli-cold": 5}


def run(workload: str, trace: int, ops: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--ops", str(ops)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def check_metric_names(bench: dict) -> None:
    for workload, ops in TINY.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, trace, ops)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            last = json.loads(proc.stdout.splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, (workload, proc.stderr)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in last["metrics"].items():
                assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], (name, m)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_fails_without_source() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = run("first-order", 0, 2, cwd=tmp)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    print("ok   fails without the library source")


def perturb(value):
    """Shift every number, flip every boolean; leave structure alone."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1e-2 * (1.0 + abs(value))
    if value is None:
        return 0.5
    if isinstance(value, list):
        return [perturb(v) for v in value]
    if isinstance(value, dict):
        return {k: v if k in ("lo_closed", "hi_closed") else perturb(v) for k, v in value.items()}
    return value


def perturb_result(workload: str, result):
    if workload == "first-order":
        return [[json.dumps(perturb(json.loads(s))) for s in row] for row in result]
    if workload == "cli-cold":
        return dict(result, out=json.dumps(perturb(json.loads(result["out"]))))
    return json.dumps(perturb(json.loads(result)))


def check_oracle() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import gen
    import measure
    import oracle
    import workloads
    from monadica.expr import iter_nodes, parse

    for workload, n in TINY.items():
        inputs = gen.make_inputs(workload, 7, n)
        for t in inputs["trees"]:
            assert sum(1 for _ in iter_nodes(parse(gen.render(t)))) == gen.count(t), gen.render(t)
        do_op = workloads.SETUP[workload](dict(inputs["spec"], src=str(SRC)), measure.NullTracer)
        ops = inputs["ops"]
        results = [do_op(op, measure.NullTracer) for op in ops]
        verdicts = oracle.check_all(workload, inputs["trees"], ops, results, [None] * len(ops))
        assert verdicts == [None] * len(ops), [v for v in verdicts if v]
        changed = [(op, r, perturb_result(workload, r)) for op, r in zip(ops, results)]
        changed = [(op, p) for op, r, p in changed if p != r]
        assert changed, workload
        verdicts = oracle.check_all(
            workload, inputs["trees"], [op for op, _ in changed], [p for _, p in changed], [None] * len(changed)
        )
        missed = [op for (op, _), v in zip(changed, verdicts) if v is None]
        assert not missed, (workload, missed[:2])
        print(f"ok   oracle flags all {len(changed)} perturbed {workload} results")
    bad = {"code": 0, "out": "NaN\n"}
    cli = gen.make_inputs("cli-cold", 7, 1)
    assert oracle.check_all("cli-cold", cli["trees"], cli["ops"], [bad], [None]) != [None]
    assert oracle.check_all("cli-cold", cli["trees"], cli["ops"], [{"code": 1, "out": "{}"}], [None]) != [None]
    print("ok   oracle rejects non-standard JSON and failed commands")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_fails_without_source()
    check_metric_names(bench)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
