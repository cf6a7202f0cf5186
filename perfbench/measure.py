"""Host-speed reference, the timed op loop, and span tracing.

The host this runs on drifts in speed from minute to minute, so raw wall
times of identical runs spread by a third.  A fixed pure-Python reference
kernel, which uses no library code, runs between windows of about 75 ms of
ops.  Each window's times are scaled by the kernel's nominal time over its
measured time, the mean of the two kernel runs bracketing the window.  Raw
wall times are kept beside the adjusted ones so the adjustment stays visible.

Other tenants also preempt the runner for milliseconds at a time, dozens of
times a run, which puts noise, not work, into the tail.  In-process ops are
therefore timed on the process CPU-time clock, which stops while the
process is off the CPU.  Ops that run in child processes use wall time.
The kernel is timed on the same clock as the ops it adjusts.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import defaultdict

#: Time of one reference_kernel() call on the host the benchmark was tuned
#: on.  Adjusted times are in that host's seconds.  Never change it: every
#: recorded baseline depends on it.
NOMINAL_REF_S = 0.0007
_REF_REPS = 1000
WINDOW_S = 0.075


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def reference_kernel() -> float:
    """Fixed interpreter work: dict updates, float math, small allocations
    and calls, roughly the mix of the library's own inner loops."""
    acc = 0.0
    table: dict[str, float] = {}
    for i in range(_REF_REPS):
        key = "g%d" % (i & 15)
        table[key] = table.get(key, 0.0) * 0.5 + math.sin(i * 1e-3)
        cell = _Cell((i, key, acc))
        acc += len(cell.v) * 1e-9 + abs(table[key])
    return acc


class HostRef:
    """Reference kernel timings taken during one run, on the given clock."""

    def __init__(self, clock=time.process_time) -> None:
        self.clock = clock
        self.samples: list[float] = []

    def measure(self) -> float:
        """Best of three kernel runs, so an interrupt inside one is dropped."""
        best = math.inf
        for _ in range(3):
            t0 = self.clock()
            reference_kernel()
            best = min(best, self.clock() - t0)
        self.samples.append(best)
        return best

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale from this host's seconds to nominal seconds, for work done
        between two kernel runs."""
        return NOMINAL_REF_S / ((before + after) / 2.0)


# -- tracing -------------------------------------------------------------------------


class NullTracer:
    """Untraced mode: calls go straight through, counts are dropped."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def add(name, k):
        pass

    @staticmethod
    def take_window():
        return {}

    @staticmethod
    def flush(window, factor):
        pass


class Tracer:
    """One span per call the benchmark makes into a library module.

    Spans are named ``<layer>.<what>``; they never nest, because each wraps
    a single call into the library, so a span's self time is its duration.
    Times are on the process CPU-time clock, like the ops they sit in, and
    are host-adjusted with their window.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._window: dict[str, int] = defaultdict(int)

    def call(self, name, fn, *args):
        t0 = time.process_time_ns()
        try:
            return fn(*args)
        finally:
            self._window[name] += time.process_time_ns() - t0
            self.calls[name] += 1

    def add(self, name, k) -> None:
        self.counts[name] += k

    def take_window(self) -> dict[str, int]:
        window, self._window = self._window, defaultdict(int)
        return window

    def flush(self, window: dict[str, int], factor: float) -> None:
        for name, ns in window.items():
            self.self_s[name] += ns * 1e-9 * factor

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out


# -- the timed loop ---------------------------------------------------------------------


class Phase:
    """Per-op times of one pass over the op list: adjusted (on the host's
    clock, see HostRef) and raw wall time."""

    def __init__(self) -> None:
        self.adjusted: list[float] = []
        self.raw: list[float] = []
        self.results: list = []
        self.errors: list[str | None] = []


def run_ops(ops, do_op, host: HostRef, tracer) -> Phase:
    """Closed loop, one caller: each op starts when the previous returns.

    An op that raises is recorded as failed and the loop goes on.
    """
    gc.collect()
    phase = Phase()
    first_kernel = len(host.samples)
    host.measure()
    windows: list[tuple[list[float], dict]] = []
    pending: list[float] = []
    acc = 0.0
    last = len(ops) - 1
    clock = host.clock
    for i, op in enumerate(ops):
        error = None
        t0, c0 = time.perf_counter(), clock()
        try:
            result = do_op(op, tracer)
        except Exception as exc:  # an op failure is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - c0
        phase.raw.append(time.perf_counter() - t0)
        pending.append(dt)
        phase.results.append(result)
        phase.errors.append(error)
        acc += dt
        if acc >= WINDOW_S or i == last:
            host.measure()
            windows.append((pending, tracer.take_window()))
            pending, acc = [], 0.0
    kernels = host.samples[first_kernel:]
    for w, (times, spans) in enumerate(windows):
        f = host.factor(kernels[w], kernels[w + 1])
        phase.adjusted.extend(d * f for d in times)
        tracer.flush(spans, f)
    return phase


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least
    ten samples beyond it."""
    return max(0, n - 11)


def summary(times: list[float]) -> dict[str, float]:
    ordered = sorted(times)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_rank(len(ordered))] * 1e3,
    }


def cliff(times: list[float], rank: int) -> float:
    """Cost jump around a rank: time one percent of the ops above it over
    one percent below it.  Near 1 when the rank sits inside a smooth part
    of the distribution; large when it falls between two op kinds."""
    ordered = sorted(times)
    step = max(1, len(ordered) // 100)
    lo = ordered[max(0, rank - step)]
    hi = ordered[min(len(ordered) - 1, rank + step)]
    return hi / lo if lo > 0 else math.inf
