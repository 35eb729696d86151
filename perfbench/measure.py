"""Timing loop, end-to-end metrics and the traced run."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import stats
from layers import WRAPS, layer_metrics
from probe import probe_primitives
from tracing import Tracer, installed, originals, self_times
from workloads import CheckFailed

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
MAX_SPANS = 120_000  # memory cap: the traced phase stops at the next cycle boundary


@dataclass
class Measurement:
    # One list per cycle of (operation kind, seconds, completed) per operation.
    cycles: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    state: dict = field(default_factory=dict)

    def minima(self, kind=None) -> list:
        """Each operation of the cycle at its fastest completed replay.

        Every replay does the same work from the same state, so the time a
        replay adds over the fastest one was taken by other load on the
        machine, not by the program. An operation that never completed
        fails the run rather than dropping out of the timings."""
        out = []
        for index, (op_kind, _, _) in enumerate(self.cycles[0] if self.cycles else ()):
            times = [cycle[index][1] for cycle in self.cycles if cycle[index][2]]
            if not times:
                raise CheckFailed(f"operation {index} ({op_kind}) failed in every replay")
            if kind in (None, op_kind):
                out.append(min(times))
        return out

    @property
    def ops_per_s(self) -> float:
        """Operations per second of a cycle run with every operation at its
        fastest completed replay: the reciprocal of the mean operation time,
        so slow operations weigh in at their full cost."""
        minima = self.minima()
        return len(minima) / sum(minima)

    @property
    def mean_ops_per_s(self) -> float:
        """Operations completed per second of timed wall time, over every
        replay; it follows the machine's load, so it is only printed."""
        times = [seconds for cycle in self.cycles for _, seconds, _ in cycle]
        completed = sum(done for cycle in self.cycles for _, _, done in cycle)
        return completed / sum(times)


def measure(wl, seconds: float, tracer=None) -> Measurement:
    """Replay the workload's cycle, each time from its starting state,
    until ``seconds`` of operation time have passed; only whole cycles."""
    m = Measurement()
    timed = 0.0
    ops = wl.cycle()
    while timed < seconds and (tracer is None or len(tracer.spans) < MAX_SPANS):
        wl.reset()
        digest = hashlib.sha256()
        cycle = []
        for op in ops:
            prepared = wl.prepare(op)
            m.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.run(prepared)
                else:
                    with tracer.op(op[0]):
                        result = wl.run(prepared)
            except Exception as exc:  # an operation that raises is a failed operation
                cycle.append((op[0], time.perf_counter() - start, False))
                if not m.failed:
                    traceback.print_exc(file=sys.stderr)
                m.failed += 1
                digest.update(f"error:{type(exc).__name__}\n".encode())
                continue
            cycle.append((op[0], time.perf_counter() - start, True))
            digest.update(wl.check(op, result).encode() + b"\n")
        m.cycles.append(cycle)
        timed += sum(seconds for _, seconds, _ in cycle)
        if not m.digest:
            m.digest = digest.hexdigest()
            m.state = wl.state()
        elif digest.hexdigest() != m.digest:
            raise CheckFailed("a replayed cycle gave different results")
    return m


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(wl, seconds: float) -> tuple[Measurement, dict]:
    setup_times = []
    for _ in range(wl.setup_repeats):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    m = measure(wl, seconds)
    minima = m.minima()
    rule = stats.tail_percentile(len(minima))
    print(f"# replays={len(m.cycles)} operations_per_cycle={len(minima)} tail=p{wl.tail_pct} "
          f"beyond_tail={stats.samples_beyond(len(minima), wl.tail_pct)} "
          f"ten_beyond_rule={f'p{rule}' if rule else 'none'} digest={m.digest[:16]} "
          f"mean_ops_per_s={m.mean_ops_per_s:.4f}")
    for kind in dict.fromkeys(kind for kind, _, _ in m.cycles[0]):
        kind_minima = m.minima(kind)
        print(f"# {kind}: n={len(kind_minima)} p50_ms={1e3 * statistics.median(kind_minima):.4f}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (m.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(minima), "ms"),
        "op_tail_ms": (1e3 * stats.percentile(minima, wl.tail_pct), "ms"),
        "state_bytes": (m.state["state_bytes"], "bytes"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return m, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def check_self_times(spans, selfs) -> None:
    """The self times inside every span add up to its duration."""
    subtree = list(selfs)
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index].parent
        if parent is not None:
            subtree[parent] += subtree[index]
    for span, total in zip(spans, subtree):
        if abs(total - (span.end - span.start)) > 1e-9:
            raise CheckFailed(f"self times of {span.name} do not add up to its duration")


def run_traced(wl, seconds: float, label: str) -> tuple[Measurement, dict]:
    wl.setup()
    plain = measure(wl, seconds / 2)
    before = originals(WRAPS)
    tracer = Tracer()
    with installed(tracer, WRAPS):
        traced = measure(wl, seconds / 2, tracer)
    if originals(WRAPS) != before:
        raise CheckFailed("a wrapper was left in place after the traced run")
    if traced.digest != plain.digest:
        raise CheckFailed("tracing changed the results")
    selfs = self_times(tracer.spans)
    check_self_times(tracer.spans, selfs)
    overhead = 100 * (plain.ops_per_s / traced.ops_per_s - 1)
    metrics = layer_metrics(tracer.spans, selfs, probe_primitives(), traced.state, overhead,
                            len(traced.cycles))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{label}.jsonl", "w", encoding="utf-8") as fh:
        for span, own in zip(tracer.spans, selfs):
            fh.write(json.dumps({**span.as_dict(), "self": own}) + "\n")
    print(f"# traced_ops={tracer.ops} spans={len(tracer.spans)} "
          f"untraced_ops_per_s={plain.ops_per_s:.4f} traced_ops_per_s={traced.ops_per_s:.4f}")
    return traced, metrics
