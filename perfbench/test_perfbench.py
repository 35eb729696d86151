"""Tests for the benchmark's own code: workload determinism, span
arithmetic, the tail rule, wrapper removal and counter attribution."""

import pytest

import layers
import measure
import stats
import tracing
import workloads
from sshaf.errors import SshafError
from sshaf.primitives import CostMeter


class SmallMht(workloads.LocalMhtLongHistory):
    HISTORY = (3, 5, 7, 9)
    VISITS_PER_USER = 2


class SmallCli(workloads.CliHousehold):
    USAGE_ROWS = 40


SMALL = [SmallMht, workloads.MixedDhsDors, SmallCli, workloads.PaperReport]


def first_cycle(cls, seed, tmp_path):
    wl = cls(seed, tmp_path / f"{cls.__name__}-{seed}")
    wl.setup()
    m = measure.measure(wl, 1e-9)
    assert len(m.cycles) == 1 and m.failed == 0
    return wl.cycle(), m.digest, m.state


# --- workload generators ------------------------------------------------------------

@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_workload_is_deterministic_in_the_seed(cls, tmp_path):
    ops, digest, state = first_cycle(cls, 7, tmp_path / "a")
    again = first_cycle(cls, 7, tmp_path / "b")
    assert again == (ops, digest, state)
    other_ops, _, _ = first_cycle(cls, 8, tmp_path / "c")
    assert other_ops != ops


def test_replayed_cycles_agree(tmp_path):
    wl = SmallMht(3, tmp_path / "mht")
    wl.setup()
    m = measure.measure(wl, 0.05)
    assert len(m.cycles) > 1 and m.failed == 0
    assert all(len(cycle) == len(wl.cycle()) for cycle in m.cycles)


def test_each_operation_is_taken_at_its_fastest_completed_replay():
    m = measure.Measurement(cycles=[
        [("login", 3.0, True), ("access", 0.5, True), ("access", 9.0, True)],
        [("login", 2.0, True), ("access", 0.1, False), ("access", 8.0, True)],
        [("login", 4.0, True), ("access", 0.7, True), ("access", 1.0, False)],
    ])
    assert m.minima() == [2.0, 0.5, 8.0]
    assert m.minima("access") == [0.5, 8.0]


def test_throughput_takes_each_operation_at_its_fastest_replay():
    m = measure.Measurement(cycles=[
        [("login", 3.0, True), ("access", 1.0, True)],
        [("login", 2.0, True), ("access", 0.5, False)],
    ])
    assert m.ops_per_s == 2 / 3.0
    assert m.mean_ops_per_s == 3 / 6.5


def test_mixed_workload_rekeys_every_64_rounds(tmp_path):
    wl = workloads.MixedDhsDors(5, tmp_path / "mixed")
    wl.setup()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, layers.WRAPS):
        measure.measure(wl, 1e-9, tracer)
    rounds = len(wl.cycle())
    provisions = [s for s in tracer.spans if s.name == "dors_auth.dors_provision"]
    assert len(provisions) * wl.SIGNATURES == rounds


# --- spans ------------------------------------------------------------------------------

def span(name, start, end, parent=None):
    s = tracing.Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_with_nested_children():
    spans = [
        span("gateway.login", 0.0, 10.0),
        span("merkle_auth.a", 1.0, 6.0, parent=0),
        span("context_engine.b", 2.0, 4.0, parent=1),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.0]


def test_self_time_with_adjacent_children():
    spans = [
        span("gateway.login", 0.0, 10.0),
        span("merkle_auth.a", 1.0, 4.0, parent=0),
        span("merkle_auth.b", 4.0, 7.0, parent=0),
        span("merkle_auth.c", 7.0, 10.0, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [1.0, 3.0, 3.0, 3.0]
    measure.check_self_times(spans, selfs)


def test_self_time_check_rejects_a_child_outside_its_parent():
    spans = [span("gateway.login", 0.0, 2.0), span("merkle_auth.a", 1.0, 3.0, parent=0)]
    with pytest.raises(workloads.CheckFailed):
        measure.check_self_times(spans, tracing.self_times(spans))


def test_meter_deltas_go_to_the_innermost_span():
    meter = CostMeter()
    tracer = tracing.Tracer(meter=meter)
    with tracer.op("visit"):
        meter.hash_count += 1  # charged to the root span
        outer = tracer.begin("gateway.login")
        meter.hash_count += 2
        inner = tracer.begin("merkle_auth.mht_auth_challenge")
        meter.hash_count += 3
        meter.mac_count += 1
        tracer.finish(inner)
        meter.hash_count += 4
        tracer.finish(outer)
    root, login, challenge = tracer.spans
    assert (root.hashes, login.hashes, challenge.hashes) == (1, 6, 3)
    assert (root.macs, login.macs, challenge.macs) == (0, 0, 1)


def test_counts_from_result_replace_meter_deltas():
    meter = CostMeter()
    tracer = tracing.Tracer(meter=meter)

    def resets_meter():
        meter.reset()
        meter.hash_count += 5
        return 42, 7

    with tracer.op("report"):
        meter.hash_count += 100
        tracer.call("scenarios.run_scenario", resets_meter, (), {}, lambda r: r)
        meter.hash_count += 1
    root, scenario = tracer.spans
    assert (scenario.hashes, scenario.macs) == (42, 7)
    assert root.hashes == 101


def test_no_spans_outside_an_operation():
    tracer = tracing.Tracer()
    assert tracer.call("gateway.login", lambda: 3, (), {}) == 3
    assert tracer.spans == []


def test_errors_are_marked_and_counted_where_they_leave_a_layer():
    tracer = tracing.Tracer()

    def fails():
        raise SshafError("no")

    def calls_fails():
        return tracer.call("dors_auth.dors_respond", fails, (), {})

    with tracer.op("visit"):
        with pytest.raises(SshafError):
            tracer.call("dors_auth.dors_handshake", calls_fails, (), {})
    assert [s.error for s in tracer.spans] == [False, True, True]
    assert layers._errors_by_layer(tracer.spans) == {"dors_auth": 1}


# --- wrappers -----------------------------------------------------------------------------

def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    before = tracing.originals(layers.WRAPS)
    wl = SmallMht(1, tmp_path / "mht")
    wl.setup()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, layers.WRAPS):
        during = tracing.originals(layers.WRAPS)
        m = measure.measure(wl, 1e-9, tracer)
    assert tracing.originals(layers.WRAPS) == before
    assert all(during[key] is not before[key] for key in before)
    assert tracer.ops == m.attempted and m.failed == 0
    measure.check_self_times(tracer.spans, tracing.self_times(tracer.spans))


def test_wrappers_are_removed_when_the_run_raises():
    before = tracing.originals(layers.WRAPS)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), layers.WRAPS):
            raise RuntimeError("boom")
    assert tracing.originals(layers.WRAPS) == before


def test_traced_and_untraced_cycles_give_the_same_results(tmp_path):
    wl = SmallMht(2, tmp_path / "mht")
    wl.setup()
    plain = measure.measure(wl, 1e-9)
    with tracing.installed(tracing.Tracer(), layers.WRAPS) as tracer:
        traced = measure.measure(wl, 1e-9, tracer)
    assert traced.digest == plain.digest


# --- the tail rule -------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99), (1024, 99), (999, 95), (200, 95), (199, 90), (100, 90), (99, None),
     (18, None)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(reversed(values), 100) == 100
    assert stats.percentile([5.0], 99) == 5.0


def test_every_per_layer_metric_is_reported_once(tmp_path):
    wl = SmallMht(4, tmp_path / "mht")
    wl.setup()
    with tracing.installed(tracing.Tracer(), layers.WRAPS) as tracer:
        m = measure.measure(wl, 1e-9, tracer)
    probe = {name: 1.0 for name in layers.PROBE_METRICS}
    metrics = layers.layer_metrics(tracer.spans, tracing.self_times(tracer.spans), probe, m.state,
                                   0.0, len(m.cycles))
    names = [name for name, _ in layers.PER_LAYER]
    assert list(metrics) == names and len(set(names)) == len(names)
    assert metrics["merkle_auth.self_ms"]["value"] > 0
    assert metrics["trace.ops"]["value"] == m.attempted


# --- the evaluation's own checks -----------------------------------------------------------

def checked_report(tmp_path, op, mutate):
    """Run one paper_report operation, let ``mutate`` spoil its result,
    and check it."""
    wl = workloads.PaperReport(1, tmp_path)
    wl.setup()
    op = (op[0], bytes(32), *op[1:])
    result = wl.run(op)
    return wl.check(op, mutate(result) or result)


def keep(result):
    return None


def over_bound(report):
    report.rate = report.bound + 0.001


def succeeded(outcome):
    outcome.succeeded = True


def dropped(table):
    table[0]["local_report"].outcome = "aborted:drop"


@pytest.mark.parametrize("op", [("cost_row", "1", 0), ("attack", "impersonate", "dors"), ("forgery",)])
def test_a_right_evaluation_result_passes_the_check(tmp_path, op):
    assert checked_report(tmp_path, op, keep)


@pytest.mark.parametrize("op, mutate", [
    (("forgery",), over_bound),
    (("attack", "impersonate", "dors"), succeeded),
    (("attack", "replay", "mht"), succeeded),
    (("cost_row", "2", 1), dropped),
    (("cost_row", "1", 0), lambda table: table.append(table[0])),
])
def test_a_wrong_evaluation_result_fails_the_check(tmp_path, op, mutate):
    with pytest.raises(workloads.CheckFailed):
        checked_report(tmp_path, op, mutate)


class OneFailingOperation(workloads.Workload):
    name = "one_failing_operation"

    def _setup(self):
        self._cycle = [("op", 0), ("op", 1), ("op", 2)]

    def reset(self):
        pass

    def run(self, op):
        if op[1] == 1:
            raise RuntimeError("boom")
        return op[1]

    def check(self, op, result):
        return str(result)

    def state(self):
        return {}


def test_an_operation_that_never_completes_fails_the_run(tmp_path):
    wl = OneFailingOperation(1, tmp_path)
    wl.setup()
    m = measure.measure(wl, 1e-9)
    assert (m.attempted, m.failed) == (3, 1)
    with pytest.raises(workloads.CheckFailed):
        m.minima()
