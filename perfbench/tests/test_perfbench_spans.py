"""The trace wrappers: restoration, nesting and self time."""

import importlib
import math

import pytest
import spans
import workloads
from test_perfbench_smoke import TINY


def _current(points):
    out = []
    for path, attr, _ in points:
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        owner = getattr(owner, class_name) if class_name else owner
        out.append(vars(owner)[attr])
    return out


def test_installed_replaces_every_point_and_restores_the_originals():
    before = _current(spans.POINTS)
    with spans.installed(spans.Tracer()):
        during = _current(spans.POINTS)
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _current(spans.POINTS)))


def test_originals_are_restored_when_the_traced_code_raises():
    before = _current(spans.POINTS)
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _current(spans.POINTS)))


def test_self_time_subtracts_direct_children_only():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                ["d", 5.0, 6.0, 0]]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
    overall, within = spans.totals(recorded)
    assert overall["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert within == {}


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    run = workloads.Run("diffusion", 3, 0.0, TINY, str(tmp_path_factory.mktemp("work")),
                        log=lambda line: None)
    run.set_up()
    run.measure(trace=True)
    return run


def test_child_spans_nest_inside_their_parent(traced_run):
    recorded = traced_run.tracer.spans
    assert len(recorded) > 100
    for name, start, end, parent in recorded:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = recorded[parent]
            assert p_start <= start and end <= p_end, name


def test_every_self_time_is_non_negative(traced_run):
    selfs = spans.self_times(traced_run.tracer.spans)
    assert min(selfs) >= 0.0
    overall, _ = spans.totals(traced_run.tracer.spans)
    assert all(row["self_s"] >= 0.0 for row in overall.values())


def test_traced_counts_match_the_protocol(traced_run):
    layer = traced_run.per_layer()
    e = TINY.epochs
    train_rows = int(TINY.n_per_condition * 0.8) * 8      # 80% of each of 8 conditions
    batches = math.ceil(train_rows / 50)
    assert layer["network.adamw.steps"]["value"] == e * batches
    assert layer["objectives.loss.calls"]["value"] == e * batches
    assert layer["network.forward.b50.calls"]["value"] >= 4 * e * (batches - 1)
    assert layer["network.save_checkpoint.calls"]["value"] == e
    assert layer["data.split.calls"]["value"] == 3
    steps = sum(TINY.diffusion_steps)
    calls_per_round = TINY.latency_warmup + TINY.latency_timed + 1           # + output check
    assert layer["samplers.ancestral.steps"]["value"] == (
        2 * e * TINY.eval.diffusion_steps                                   # val + test
        + steps                                                             # sweep evaluate
        + steps * TINY.latency_rounds * calls_per_round)                    # latency
