"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload set-algebra --seeds 901 902 903 --out BENCH_10.json

Each checkout runs its own ``perfbench/run.py`` on its own ``src/``, one run at
a time, each for ``SECONDS`` seconds.  Pair i runs the parent first when i is
even and the change first when it is odd.  For every end-to-end metric of
``BENCHMARK.json`` the output holds the per-run values of both sides in seed
order, their medians and quartiles, and the change's wins (pairs where it is better; ties count for neither).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Run length of every run, the same on both sides.
SECONDS = 15


def checkout_id(root: Path) -> dict:
    """HEAD sha, whether the tree differs from it, and a hash of ``src/``."""

    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def run_once(root: Path, workload: str, seed: int, ops: int | None) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "quartiles": [q1, q3]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--ops", type=int, default=None, help="op count passed to run.py (smoke tests)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "python": platform.python_version(),
        "parent": checkout_id(parent),
        "change": checkout_id(change),
        "seeds": args.seeds,
        "seconds": SECONDS,
        "ops": args.ops,
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(parent if side == "parent" else change, workload,
                                  seed, args.ops)
                runs[side].append(result)
                value = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: ops_per_s {value:.1f}", file=sys.stderr)
        metrics = {}
        for name, direction in better.items():
            old = [r["metrics"][name]["value"] for r in runs["parent"]]
            new = [r["metrics"][name]["value"] for r in runs["change"]]
            sign = 1 if direction == "higher" else -1
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "better": direction,
                "parent": summarize(old),
                "change": summarize(new),
                "wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
                "pairs": len(old),
            }
        doc["workloads"][workload] = {
            "failed_ops": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            "metrics": metrics,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
