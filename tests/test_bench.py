"""Latency measurement, surrogate pipeline, and Pareto sweeps."""

import csv
import io
import time

import numpy as np
import pytest

from priorbench.bench import (DIFFUSION_STEP_RANGE, FLOW_STEP_RANGE,
                              PARETO_CSV_HEADER, LatencyProtocol, ParetoPoint,
                              SurrogatePipeline, default_step_range,
                              make_sampler_invocation, measure_latency,
                              pareto_sweep, per_step_cost, write_pareto_csv)
from priorbench.data import generate_dataset, make_task
from priorbench.errors import ConfigError, ProtocolError
from priorbench.evaluation import EvalSettings
from priorbench.metrics import EmbeddingSpace, MetricBundle
from priorbench.network import PriorNetwork
from priorbench.objectives import build_scaled_linear_schedule
from priorbench.rng import SeededRng


def _point(objective, steps, latency_ms, fid=1.0):
    bundle = MetricBundle(fid=fid, r1=0.5, r2=0.6, r3=0.7,
                          matching_score=3.25, diversity=1.0, multimodality=1.0)
    return ParetoPoint(objective=objective, steps=steps,
                       latency_ms=latency_ms, metrics=bundle)


def test_measure_latency_sleep_stub():
    res = measure_latency(lambda: time.sleep(0.010),
                          LatencyProtocol(warmup=1, timed=5))
    assert 8.0 < res.mean_ms < 14.0
    assert len(res.per_iteration_ms) == 5


def test_measure_latency_excludes_warmup():
    calls = {"n": 0}

    def uneven():
        calls["n"] += 1
        if calls["n"] <= 3:
            time.sleep(0.030)  # cold calls, must not be timed
        else:
            time.sleep(0.002)

    res = measure_latency(uneven, LatencyProtocol(warmup=3, timed=6))
    assert calls["n"] == 9
    assert res.mean_ms < 10.0


def test_measure_latency_single_iteration_mean():
    res = measure_latency(lambda: time.sleep(0.001),
                          LatencyProtocol(warmup=0, timed=1))
    assert res.mean_ms == res.per_iteration_ms[0]


def test_latency_protocol_validation():
    with pytest.raises(ConfigError):
        LatencyProtocol(warmup=-1).validate()
    with pytest.raises(ConfigError):
        LatencyProtocol(timed=0).validate()
    with pytest.raises(ConfigError):
        LatencyProtocol(batch_size=0).validate()
    with pytest.raises(ConfigError):
        LatencyProtocol(mode="sideways").validate()
    LatencyProtocol().validate()


def test_per_step_cost_hand_examples():
    cost = per_step_cost([_point("flow", 2, 20.0), _point("flow", 4, 40.0)])
    assert cost["flow"] == pytest.approx(10.0)

    flat = [_point("diffusion", s, 7.5) for s in (4, 8, 12)]
    assert per_step_cost(flat)["diffusion"] == pytest.approx(0.0, abs=1e-9)


def test_per_step_cost_recovers_synthetic_slope():
    rng = np.random.default_rng(11)
    steps = np.arange(2, 16)
    lat = 3.0 + 1.25 * steps + rng.normal(0.0, 0.01, steps.size)
    pts = [_point("flow", int(s), float(l)) for s, l in zip(steps, lat)]
    assert per_step_cost(pts)["flow"] == pytest.approx(1.25, rel=0.05)


def test_per_step_cost_groups_by_objective():
    pts = [_point("flow", 2, 4.0), _point("flow", 6, 8.0),
           _point("diffusion", 2, 10.0), _point("diffusion", 6, 30.0)]
    cost = per_step_cost(pts)
    assert cost["flow"] == pytest.approx(1.0)
    assert cost["diffusion"] == pytest.approx(5.0)


def test_per_step_cost_needs_two_points():
    with pytest.raises(ProtocolError):
        per_step_cost([_point("flow", 2, 20.0)])


def test_default_step_ranges():
    assert default_step_range("flow") == tuple(range(2, 16))
    assert default_step_range("diffusion") == tuple(range(4, 16))
    assert len(FLOW_STEP_RANGE) == 14
    assert len(DIFFUSION_STEP_RANGE) == 12
    with pytest.raises(ConfigError):
        default_step_range("vae")


def test_pareto_point_csv_row():
    row = _point("flow", 2, 1.5, fid=0.25).as_csv_row()
    assert row == "flow,2,1.5,0.25,0.5,0.6,0.7,3.25"
    assert len(row.split(",")) == len(PARETO_CSV_HEADER.split(","))


def test_surrogate_pipeline_shapes_and_determinism():
    cond_table = np.eye(3)
    pipe_a = SurrogatePipeline(d_latent=4, d_cond=3)
    pipe_b = SurrogatePipeline(d_latent=4, d_cond=3)
    labels = np.array([0, 1, 2, 0])
    conds = pipe_a.encode(labels, cond_table)
    np.testing.assert_array_equal(conds, cond_table[labels])

    z = np.ones((4, 4))
    out_a = pipe_a.decode(z)
    out_b = pipe_b.decode(z)
    assert out_a.shape == (4, 64)
    np.testing.assert_array_equal(out_a, out_b)
    assert np.all(np.isfinite(out_a))


@pytest.fixture(scope="module")
def bench_ctx():
    specs = make_task(3, 3, seed=41)
    space = EmbeddingSpace.for_task(specs)
    ds = generate_dataset(specs, 40, seed=42)
    net = PriorNetwork.initialized(3, 3, SeededRng(43), hidden=12, d_time=8)
    schedule = build_scaled_linear_schedule(60, 1e-3, 2e-2)
    return specs, space, ds, net, schedule


def test_make_sampler_invocation_runs(bench_ctx):
    specs, space, ds, net, schedule = bench_ctx
    labels = np.resize(np.arange(len(specs)), 8)
    pipe = SurrogatePipeline(d_latent=net.d_latent,
                             d_cond=space.cond_embeds.shape[1])
    for objective in ("flow", "diffusion"):
        for pipeline in (None, pipe):
            fn = make_sampler_invocation(net, objective, 3, labels, space,
                                         SeededRng(7), schedule=schedule,
                                         pipeline=pipeline)
            fn()  # must run without error and be repeatable
            fn()
    with pytest.raises(ConfigError):
        make_sampler_invocation(net, "diffusion", 3, labels, space,
                                SeededRng(7), schedule=None)
    with pytest.raises(ConfigError):
        make_sampler_invocation(net, "diffusionx", 3, labels, space,
                                SeededRng(7), schedule=schedule)


def test_end_to_end_latency_dominates_prior_only(bench_ctx):
    specs, space, ds, net, schedule = bench_ctx
    labels = np.resize(np.arange(len(specs)), 16)
    proto = LatencyProtocol(warmup=2, timed=8)
    pipe = SurrogatePipeline(d_latent=net.d_latent,
                             d_cond=space.cond_embeds.shape[1])
    invocations = {name: make_sampler_invocation(net, "flow", 6, labels, space,
                                                 SeededRng(7), schedule=schedule,
                                                 pipeline=pipeline)
                   for name, pipeline in (("prior_only", None), ("end_to_end", pipe))}
    # alternate the two modes round by round, so a change in machine speed
    # during the test reaches both equally, and compare pooled medians
    samples = {name: [] for name in invocations}
    for _ in range(5):
        for name, fn in invocations.items():
            samples[name].extend(measure_latency(fn, proto).per_iteration_ms)
    medians = {name: float(np.median(ms)) for name, ms in samples.items()}
    assert medians["end_to_end"] > medians["prior_only"]


def test_pareto_sweep_row_counts_and_csv(bench_ctx, tmp_path):
    specs, space, ds, net, schedule = bench_ctx
    settings = EvalSettings(n_generate=48, diffusion_steps=5, flow_steps=4,
                            diversity_pairs=30, multimodality_reps=3)
    test_x, test_y = ds.split("test")
    out_csv = tmp_path / "pareto.csv"
    points = pareto_sweep(net, "flow", (2, 3, 4), space,
                          test_x, test_y, SeededRng(44),
                          protocol=LatencyProtocol(batch_size=8, warmup=1, timed=2),
                          schedule=schedule, settings=settings,
                          csv_path=str(out_csv))
    assert [p.steps for p in points] == [2, 3, 4]
    assert all(p.objective == "flow" for p in points)
    assert all(p.latency_ms > 0.0 for p in points)
    assert all(np.isfinite(p.metrics.fid) for p in points)

    text = out_csv.read_text()
    lines = text.splitlines()
    assert lines[0] == PARETO_CSV_HEADER
    assert len(lines) == 4
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [int(r["steps"]) for r in rows] == [2, 3, 4]
    assert {r["objective"] for r in rows} == {"flow"}


def test_pareto_sweep_end_to_end_mode(bench_ctx):
    specs, space, ds, net, schedule = bench_ctx
    settings = EvalSettings(n_generate=48, diffusion_steps=5, flow_steps=4,
                            diversity_pairs=30, multimodality_reps=3)
    test_x, test_y = ds.split("test")
    proto = LatencyProtocol(batch_size=8, warmup=1, timed=2, mode="end_to_end")
    points = pareto_sweep(net, "diffusion", (4, 6), space, test_x,
                          test_y, SeededRng(45), protocol=proto,
                          schedule=schedule, settings=settings)
    assert [p.steps for p in points] == [4, 6]
    assert all(p.latency_ms > 0.0 for p in points)


def test_pareto_sweep_rejects_bad_steps(bench_ctx):
    specs, space, ds, net, schedule = bench_ctx
    test_x, test_y = ds.split("test")
    with pytest.raises(ConfigError):
        pareto_sweep(net, "diffusion", (), space, test_x, test_y,
                     SeededRng(46), schedule=schedule)
    with pytest.raises(ConfigError):
        pareto_sweep(net, "diffusion", (30, 61), space, test_x,
                     test_y, SeededRng(46), schedule=schedule)  # 61 > T


def test_write_pareto_csv_round_trip(tmp_path):
    pts = [_point("flow", 2, 1.5, fid=0.25), _point("diffusion", 4, 2.5, fid=0.5)]
    path = tmp_path / "p.csv"
    write_pareto_csv(str(path), pts)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    assert rows[0]["objective"] == "flow"
    assert float(rows[1]["latency_ms"]) == 2.5
    assert float(rows[0]["mm_dist"]) == 3.25
