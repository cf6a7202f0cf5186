"""monadica benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload first-order --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One caller runs a fixed number of ops in a closed loop (the count is set by
--seconds, never by the clock), with at most one child process at a time.

--trace 0 reports the end-to-end metrics: set-up time (import and prebuilt
objects in a fresh process),
ops per second, median and tail op latency (all host-adjusted, see
measure.py), and peak memory.  --trace 1 runs half the ops untraced and
then the same half traced, and reports per-layer self times and counts,
the raw wall-clock figures, layer coverage and tracing overhead.

Every op is checked by an independent oracle (oracle.py) after the timed
phases.  The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
earlier lines record the run's input properties and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import measure
import oracle
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Ops per second of --seconds: a run on the tuning host takes about
#: --seconds of op time.  The op count, not the clock, ends a run.
OPS_PER_SECOND = {"first-order": 200, "higher-order": 140, "set-algebra": 200, "cli-cold": 4}
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Interpreter-start and import probes per traced run.
IMPORT_PROBES = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- child processes -----------------------------------------------------------------------


def timed_child(argv, env):
    """Wall time of one child process to its exit, raw and host-adjusted by
    wall-clock kernel runs just before and after.
    Returns (raw_s, adjusted_s, stderr)."""
    host = measure.HostRef(time.perf_counter)
    before = host.measure()
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    raw = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return raw, raw * host.factor(before, host.measure()), proc.stderr


def time_setup(workload, spec, env):
    """Set-up in fresh processes: import plus prebuilt objects, timed and
    host-adjusted inside each child (see probe.py)."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(SRC)]
    text = json.dumps(spec) + "\n"
    runs = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(argv, input=text, capture_output=True, text=True, env=env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        if i:  # the first run writes bytecode caches and is not counted
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return [r["wall_s"] for r in runs], [r["adjusted_s"] for r in runs]


def import_probes(env):
    """Interpreter start, CLI import, and the seq module's import time."""
    py = sys.executable
    interp = statistics.median(timed_child([py, "-c", "pass"], env)[1] for _ in range(IMPORT_PROBES))
    full = statistics.median(timed_child([py, "-c", "import monadica.cli"], env)[1] for _ in range(IMPORT_PROBES))
    seq_us = []
    for _ in range(IMPORT_PROBES):
        err = timed_child([py, "-X", "importtime", "-c", "import monadica.cli"], env)[2]
        m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*monadica\.seq$", err, re.M)
        seq_us.append(int(m.group(1)) if m else 0)
    return {"interp_s": interp, "import_s": max(0.0, full - interp), "seq_import_s": statistics.median(seq_us) * 1e-6}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- metrics ----------------------------------------------------------------------------------


def layer_metrics(workload, ops, tr, setup_tr, untraced, traced, base, probes, host, setup_wall):
    def span(name):
        return tr.self_s.get(name, 0.0) + setup_tr.self_s.get(name, 0.0), tr.calls.get(name, 0) + setup_tr.calls.get(name, 0)

    def per_call(name, scale):
        s, c = span(name)
        return s / c * scale if c else 0.0

    def per_count(name, counter, scale):
        k = tr.counts.get(counter, 0)
        return span(name)[0] / k * scale if k else 0.0

    m = {
        "core.decode_us": (per_call("core.decode", 1e6), "us"),
        "core.encode_us": (per_call("core.encode", 1e6), "us"),
        "core.ring_op_us": (per_count("core.ring", "core.ring_ops", 1e6), "us"),
        "core.ring_ops": (tr.counts.get("core.ring_ops", 0), "count"),
        "core.dpart_len": (
            tr.counts.get("core.dpart", 0) / tr.counts["core.dpart_values"] if tr.counts.get("core.dpart_values") else 0.0,
            "count",
        ),
        "expr.parse_us_per_node": (per_count("expr.parse", "expr.nodes", 1e6), "us"),
        "expr.nodes": (tr.counts.get("expr.nodes", 0), "count"),
        "calculus.gen_eval_us_per_node": (per_count("calculus.gen_eval", "calculus.gen_eval_nodes", 1e6), "us"),
        "calculus.eval_at_us": (per_call("calculus.eval_at", 1e6), "us"),
        "calculus.on_interval_ms": (per_call("calculus.on_interval", 1e3), "ms"),
        "calculus.mean_value_ms": (per_call("calculus.mean_value", 1e3), "ms"),
        "calculus.image_set_ms": (per_call("calculus.image_set", 1e3), "ms"),
        "calculus.inverse_ms": (per_call("calculus.inverse", 1e3), "ms"),
        "sets.decode_us_per_interval": (per_count("sets.decode", "sets.intervals_in", 1e6), "us"),
        "sets.encode_us_per_interval": (per_count("sets.encode", "sets.intervals_out", 1e6), "us"),
        "sets.intervals_in": (tr.counts.get("sets.intervals_in", 0), "count"),
        "sets.intervals_out": (tr.counts.get("sets.intervals_out", 0), "count"),
        "seq.prefix_us": (per_call("seq.prefix", 1e6), "us"),
        "seq.import_ms": (probes["seq_import_s"] * 1e3, "ms"),
        "cli.interp_start_ms": (probes["interp_s"] * 1e3, "ms"),
        "cli.import_ms": (probes["import_s"] * 1e3, "ms"),
    }
    for k in (2, 3, 4):
        m[f"calculus.deriv_higher_ms.k{k}"] = (per_call(f"calculus.deriv_higher.k{k}", 1e3), "ms")
    for o in (1, 2, 3):
        m[f"calculus.taylor_ms.o{o}"] = (per_call(f"calculus.taylor.o{o}", 1e3), "ms")
    for b in ("small", "large"):
        for name in ("union", "intersect", "difference", "topology"):
            m[f"sets.{name}_ms.{b}"] = (per_call(f"sets.{name}.{b}", 1e3), "ms")
        m[f"sets.query_us.{b}"] = (per_call(f"sets.query.{b}", 1e6), "us")
    n = len(ops)
    for verb in gen.CLI_VERBS:
        times = [t for op, t in zip(ops, untraced.adjusted) if op.get("verb") == verb]
        m[f"cli.verb_ms.{verb}"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")

    wall = measure.summary(untraced.raw)
    m["host.ref_ms"] = (statistics.median(host.samples) * 1e3, "ms")
    m["wall.setup_s"] = (statistics.median(setup_wall), "s")
    m["wall.ops_per_s"] = (wall["ops_per_s"], "1/s")
    m["wall.op_p50_ms"] = (wall["op_p50_ms"], "ms")
    m["wall.op_tail_ms"] = (wall["op_tail_ms"], "ms")

    layers = tr.layer_self_s()
    if workload == "cli-cold":
        # A command is interpreter start + import + the verb's library calls,
        # which the traced phase replays in-process.  Start and import come
        # from probes timed apart from the commands, so host drift between
        # the two can put coverage a little above 100%.
        layers["cli"] += (probes["interp_s"] + probes["import_s"]) * n
        op_time = sum(untraced.adjusted)
    else:
        op_time = sum(traced.adjusted)
    m["trace.coverage_pct"] = (100.0 * sum(layers.values()) / op_time, "%")
    m["trace.overhead_pct"] = (100.0 * (sum(traced.adjusted) / sum(base) - 1.0), "%")
    for layer in ("core", "expr", "calculus", "sets", "seq", "cli"):
        m[f"self_ms.{layer}"] = (layers.get(layer, 0.0) / n * 1e3, "ms")
    return m


# -- main ------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="override the op count (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "monadica" / "__init__.py").is_file():
        return fail(f"library source not found at {SRC}; run from a checkout of the repository")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    w = args.workload
    if w == "cli-cold":
        # The measured work runs in child processes: keep them on the CPU
        # the reference kernel times.  In-process workloads stay free to
        # move off a CPU that something else is using.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    n_ops = args.ops or round(OPS_PER_SECOND[w] * args.seconds)
    if args.trace:
        n_ops = max(2, n_ops // 2)
    inputs = gen.make_inputs(w, args.seed, n_ops)
    ops = inputs["ops"]
    spec = dict(inputs["spec"], src=str(SRC))
    print(json.dumps({"workload": w, "seed": args.seed, "ops": n_ops, "trace": args.trace, "inputs": inputs["props"]}))

    env = workloads.cli_env(str(SRC))
    host = measure.HostRef(time.perf_counter if w == "cli-cold" else time.process_time)
    setup_wall, setup_adj = time_setup(w, spec, env)

    setup_tr = measure.Tracer() if args.trace else measure.NullTracer
    before = host.measure()
    do_op = workloads.SETUP[w](spec, setup_tr)
    setup_tr.flush(setup_tr.take_window(), host.factor(before, host.measure()))

    untraced = measure.run_ops(ops, do_op, host, measure.NullTracer)
    phases = [untraced]
    if args.trace:
        tr = measure.Tracer()
        if w == "cli-cold":
            replay, cpu_host = workloads.replay_cli(), measure.HostRef()
            base = measure.run_ops(ops, replay, cpu_host, measure.NullTracer).adjusted
            traced = measure.run_ops(ops, replay, cpu_host, tr)
        else:
            base = untraced.adjusted
            traced = measure.run_ops(ops, do_op, host, tr)
            phases.append(traced)
        probes = import_probes(env)
    else:
        rss = peak_rss_mb(w)

    verdicts = []
    for phase in phases:
        verdicts += oracle.check_all(w, inputs["trees"], ops, phase.results, phase.errors)
    failures = [v for v in verdicts if v is not None]
    for reason in failures[:5]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)

    times = untraced.adjusted
    stats = measure.summary(times)
    p50_rank, tail_rank = len(times) // 2, measure.tail_rank(len(times))
    print(json.dumps({
        "diagnostics": {
            "tail_rank": f"{tail_rank + 1} of {len(times)} (p{100.0 * (tail_rank + 1) / len(times):.2f})",
            "p50_cliff": measure.cliff(times, p50_rank),
            "tail_cliff": measure.cliff(times, tail_rank),
            "wall": measure.summary(untraced.raw),
            "host_ref_ms": statistics.median(host.samples) * 1e3,
            "kernel_runs": len(host.samples),
        }
    }))

    if args.trace:
        values = layer_metrics(w, ops, tr, setup_tr, untraced, traced, base, probes, host, setup_wall)
    else:
        values = {
            "setup_s": (statistics.median(setup_adj), "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_tail_ms": (stats["op_tail_ms"], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    print(json.dumps({
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
