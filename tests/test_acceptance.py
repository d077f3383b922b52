"""Release gate: one test per shipped guarantee, at pinned tolerances.

The expensive fixture trains both objectives for 200 epochs at three shared
seeds on the default task; the training-behavior tests all read from it.
Everything else runs against closed forms or small synthetic inputs.
"""

import csv
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from priorbench.bench import (LatencyProtocol, ParetoPoint,
                              make_sampler_invocation, measure_latency,
                              per_step_cost)
from priorbench.cli import cli_dispatch
from priorbench.data import (DEFAULT_CONDITIONS, DEFAULT_DIM,
                             DEFAULT_TASK_SEED, generate_dataset, make_task)
from priorbench.evaluation import evaluate
from priorbench.linalg import GaussianStats
from priorbench.metrics import (EmbeddingSpace, MetricBundle, ema_smooth, fid,
                                frechet_gaussian, r_precision)
from priorbench.network import PriorNetwork, load_checkpoint
from priorbench.objectives import (build_scaled_linear_schedule,
                                   diffusion_loss, flow_loss,
                                   flow_make_sample)
from priorbench.rng import SeededRng
from priorbench.samplers import (euler_integrate, make_strided_timesteps,
                                 rk4_integrate)
from priorbench.training import TrainConfig, train

MATCHED_SEEDS = (101, 202, 303)
N_PER_CONDITION = 1000
RUN_BUDGET_SECONDS = 30 * 60


def _default_task():
    specs = make_task(DEFAULT_CONDITIONS, DEFAULT_DIM, DEFAULT_TASK_SEED)
    return specs, EmbeddingSpace.for_task(specs)


@pytest.fixture(scope="session")
def matched_runs(tmp_path_factory):
    """Both objectives, 200 epochs each, at three shared seeds."""
    specs, space = _default_task()
    root = tmp_path_factory.mktemp("matched-runs")
    runs = {}
    for seed in MATCHED_SEEDS:
        for objective in ("flow", "diffusion"):
            config = TrainConfig(objective=objective, seed=seed)
            dataset = generate_dataset(specs, N_PER_CONDITION, seed)
            run_dir = root / f"{objective}-{seed}"
            t0 = time.perf_counter()
            record = train(specs, dataset, config, str(run_dir), space=space)
            runs[(objective, seed)] = SimpleNamespace(
                record=record, config=config, run_dir=str(run_dir),
                wall_seconds=time.perf_counter() - t0)
    return SimpleNamespace(specs=specs, space=space, runs=runs)


def _peak_eval(entry, specs, space, seed, **setting_overrides):
    """Score the run's peak checkpoint on a fresh test split."""
    record = entry.record
    net, _ = load_checkpoint(record.checkpoint_paths[record.peak_epoch - 1])
    settings = replace(entry.config.eval, **setting_overrides)
    schedule = build_scaled_linear_schedule(entry.config.schedule_steps,
                                            entry.config.beta_start,
                                            entry.config.beta_end)
    test_x, test_labels = generate_dataset(specs, N_PER_CONDITION, seed).split("test")
    key = tuple(sorted(setting_overrides.items()))
    return evaluate(net, record.objective, space, test_x, test_labels,
                    SeededRng(seed).derive("peak-eval", record.objective, repr(key)),
                    settings=settings, schedule=schedule)


class _EpsOracle:
    """Inverts the forward noising; drives the diffusion loss to its floor."""

    def __init__(self, x0, schedule):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.schedule = schedule

    def forward_cached(self, x_t, t, conds):
        k = np.rint(np.asarray(t) * self.schedule.steps).astype(np.int64)
        abar = np.asarray(self.schedule.alpha_bar_at(k))[:, None]
        eps = (x_t - np.sqrt(abar) * self.x0) / np.sqrt(1.0 - abar)
        return eps, {}

    def backward(self, cache, dout):
        return np.zeros(0)


class _VelocityOracle:
    """Recovers x0 - x1 from the interpolated point; the flow loss floor."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=np.float64)

    def forward_cached(self, x_t, t, conds):
        t = np.asarray(t)[:, None]
        x1 = (x_t - t * self.x0) / (1.0 - t)
        return self.x0 - x1, {}

    def backward(self, cache, dout):
        return np.zeros(0)


class _FieldStub:
    """Closed-form velocity field with the sampler-facing network surface."""

    def __init__(self, fn, d_latent):
        self.fn = fn
        self.d_latent = d_latent

    def forward(self, x, t, conds, work=None):
        return self.fn(np.asarray(x), np.asarray(t))


def _grid_values(rng, shape):
    # dyadic-grid data keeps single-step integration arithmetic exact
    return rng.integers(int(np.prod(shape)), -2048, 2047).reshape(shape) / 1024.0


def test_a01_loss_gradients_match_finite_differences():
    t_start = time.perf_counter()
    data_rng = SeededRng(90)
    x0 = data_rng.standard_normal(12, 3)
    conds = data_rng.standard_normal(12, 3)
    schedule = build_scaled_linear_schedule(40, 1e-3, 2e-2)
    h = 1e-5
    for kind in ("diffusion", "flow"):
        net = PriorNetwork.initialized(3, 3, SeededRng(91), hidden=8, d_time=4)
        assert net.param_count <= 1000
        if kind == "diffusion":
            run = lambda: diffusion_loss(x0, conds, net, schedule, SeededRng(92))
        else:
            run = lambda: flow_loss(x0, conds, net, SeededRng(92))
        analytic = net.views(run().grad)
        worst = 0.0
        for name in sorted(net.params):
            flat = net.params[name].reshape(-1)
            grad = analytic[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = run().value
                flat[i] = keep - h
                down = run().value
                flat[i] = keep
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-4, f"{kind}: max relative gradient error {worst:.3e}"
    assert time.perf_counter() - t_start < 10.0


def test_a02_losses_vanish_on_oracle_predictors():
    x0 = SeededRng(93).standard_normal(16, 4)
    conds = SeededRng(94).standard_normal(16, 4)
    schedule = build_scaled_linear_schedule(200, 1e-3, 2e-2)
    d_report = diffusion_loss(x0, conds, _EpsOracle(x0, schedule), schedule,
                              SeededRng(95))
    assert d_report.value < 1e-12, f"diffusion floor {d_report.value:.3e}"
    f_report = flow_loss(x0, conds, _VelocityOracle(x0), SeededRng(96))
    assert f_report.value < 1e-12, f"flow floor {f_report.value:.3e}"


def test_a03_flow_interpolation_algebra_holds_at_scale():
    n, d = 10_000, 6
    x0 = SeededRng(97).standard_normal(n, d)
    sample = flow_make_sample(x0, SeededRng(98))
    assert sample.t.shape == (n,)
    assert np.all((sample.t > 0.0) & (sample.t < 1.0))
    assert np.array_equal(sample.v_true, sample.x0 - sample.x1)
    direct = (1.0 - sample.t)[:, None] * sample.x1 + sample.t[:, None] * sample.x0
    assert np.array_equal(sample.x_t, direct)
    rearranged = sample.x1 + sample.t[:, None] * (sample.x0 - sample.x1)
    assert np.max(np.abs(sample.x_t - rearranged)) < 1e-14


def test_a04_single_step_integration_exactness():
    rng = SeededRng(99)
    x0 = _grid_values(rng, (64, 5))
    x1 = _grid_values(rng, (64, 5))
    conds = np.zeros((64, 5))
    target = x0 - x1
    constant = _FieldStub(lambda x, t: np.broadcast_to(target, x.shape).copy(), 5)
    assert np.array_equal(euler_integrate(constant, 1, conds, x1), x0)
    assert np.array_equal(rk4_integrate(constant, 1, conds, x1), x0)

    a = rng.standard_normal(64, 5)
    b = rng.standard_normal(64, 5)
    linear = _FieldStub(lambda x, t: a + t[:, None] * b, 5)
    exact = x1 + a + 0.5 * b
    rk4 = rk4_integrate(linear, 1, conds, x1)
    assert np.max(np.abs(rk4 - exact)) < 1e-12
    euler = euler_integrate(linear, 1, conds, x1)
    assert np.max(np.abs((exact - euler) - 0.5 * b)) < 1e-12


def test_a05_stride_rule_1000_over_100():
    steps = make_strided_timesteps(1000, 100)
    assert steps.count == 100
    assert steps.indices[0] == 1000
    assert np.all(np.diff(steps.indices) == -10)


def test_a06_unit_gaussian_fid_values():
    a = GaussianStats(mean=np.zeros(1), covariance=np.eye(1))
    b = GaussianStats(mean=np.ones(1), covariance=np.eye(1))
    assert abs(frechet_gaussian(a, b) - 1.0) < 1e-6
    samples = SeededRng(100).standard_normal(400, 4)
    assert fid(samples, samples) < 1e-8


def test_a07_retrieval_oracle_and_noise_baselines():
    pool = SeededRng(5).standard_normal(40, 6)
    labels = SeededRng(6).integers(5000, 0, 39)
    r1, r2, r3 = r_precision(pool[labels], labels, pool, SeededRng(7))
    assert (r1, r2, r3) == (1.0, 1.0, 1.0)

    rng = SeededRng(0xACCE77)
    cond = rng.standard_normal(1024, 6)
    gen = rng.standard_normal(10_000, 6)
    noise_labels = rng.integers(10_000, 0, 1023)
    r1, r2, r3 = r_precision(gen, noise_labels, cond, rng.derive("draws"))
    for got, want in ((r1, 1 / 32), (r2, 2 / 32), (r3, 3 / 32)):
        assert abs(got - want) <= 0.02, f"noise baseline {got:.4f} vs {want:.4f}"


@pytest.mark.slow
def test_a08_both_objectives_recover_distribution_under_budget(matched_runs):
    for (objective, seed), entry in matched_runs.runs.items():
        assert entry.record.epochs_completed == 200
        assert entry.wall_seconds <= RUN_BUDGET_SECONDS, (
            f"{objective}-{seed} took {entry.wall_seconds:.0f}s")
        overrides = {}
        if objective == "diffusion":
            overrides["diffusion_steps"] = entry.config.schedule_steps
        bundle = _peak_eval(entry, matched_runs.specs, matched_runs.space,
                            seed, **overrides)
        assert bundle.fid < 0.5, (
            f"{objective}-{seed}: peak test FID {bundle.fid:.4f} at full-step "
            f"sampling")


def _epoch_reaching_band(record) -> int:
    """First epoch whose smoothed validation FID is within 1.1x of the final one."""
    curve = ema_smooth([m.fid for m in record.val_metrics], span=5)
    return int(np.argmax(curve <= 1.1 * curve[-1])) + 1


@pytest.mark.slow
def test_a09_flow_reaches_its_plateau_earlier(matched_runs):
    wins = 0
    for seed in MATCHED_SEEDS:
        flow_epoch = _epoch_reaching_band(matched_runs.runs[("flow", seed)].record)
        diff_epoch = _epoch_reaching_band(matched_runs.runs[("diffusion", seed)].record)
        if flow_epoch < diff_epoch:
            wins += 1
    assert wins * 2 > len(MATCHED_SEEDS), (
        f"flow converged earlier in only {wins} of {len(MATCHED_SEEDS)} pairs")


@pytest.mark.slow
def test_a10_flow_degrades_less_at_few_steps(matched_runs):
    within_band = 0
    flow_degrades_less = 0
    for seed in MATCHED_SEEDS:
        deg = {}
        for objective in ("flow", "diffusion"):
            entry = matched_runs.runs[(objective, seed)]
            key = "flow_steps" if objective == "flow" else "diffusion_steps"
            fid4 = _peak_eval(entry, matched_runs.specs, matched_runs.space,
                              seed, **{key: 4}).fid
            fid15 = _peak_eval(entry, matched_runs.specs, matched_runs.space,
                               seed, **{key: 15}).fid
            deg[objective] = (fid4 - fid15) / fid15
            if objective == "flow" and fid4 <= 1.2 * fid15:
                within_band += 1
        if deg["diffusion"] > deg["flow"]:
            flow_degrades_less += 1
    majority = len(MATCHED_SEEDS) // 2 + 1
    assert within_band >= majority, (
        f"flow stayed within 20% of its 15-step FID in only {within_band} seeds")
    assert flow_degrades_less >= majority, (
        f"diffusion degraded more in only {flow_degrades_less} seeds")


def test_a11_diffusion_step_cost_at_least_eulers():
    specs, space = _default_task()
    net = PriorNetwork.initialized(DEFAULT_DIM, DEFAULT_DIM, SeededRng(4242))
    schedule = build_scaled_linear_schedule()
    labels = np.resize(np.arange(DEFAULT_CONDITIONS), 32)
    protocol = LatencyProtocol()
    slopes = {}
    for objective in ("diffusion", "flow"):
        points = []
        for s in range(4, 16):  # matched step counts for both samplers
            invoke = make_sampler_invocation(net, objective, s, labels, space,
                                             SeededRng(1).derive("slope", s),
                                             schedule=schedule)
            res = measure_latency(invoke, protocol)
            points.append(ParetoPoint(objective=objective, steps=s,
                                      latency_ms=res.mean_ms,
                                      metrics=MetricBundle(0, 0, 0, 0, 0, 0, 0)))
        slopes[objective] = per_step_cost(points)[objective]
    assert slopes["diffusion"] >= slopes["flow"], (
        f"diffusion {slopes['diffusion']:.4f} ms/step vs "
        f"flow {slopes['flow']:.4f} ms/step")


def test_a12_ema_matches_independent_recursion():
    rng = SeededRng(0xE3A)
    alpha = 2.0 / 6.0
    for _ in range(100):
        n = int(rng.integers(1, 1, 60)[0])
        series = rng.standard_normal(n)
        expect = [float(series[0])]
        for v in series[1:]:
            expect.append(alpha * float(v) + (1.0 - alpha) * expect[-1])
        assert np.array_equal(ema_smooth(series, span=5), np.array(expect))


@pytest.mark.slow
def test_a13_identical_runs_write_identical_epoch_logs(matched_runs, tmp_path):
    entry = matched_runs.runs[("flow", 101)]
    dataset = generate_dataset(matched_runs.specs, N_PER_CONDITION, 101)
    rerun_dir = tmp_path / "rerun"
    train(matched_runs.specs, dataset, TrainConfig(objective="flow", seed=101),
          str(rerun_dir), space=matched_runs.space)
    first = open(f"{entry.run_dir}/epoch_log.csv", "rb").read()
    second = (rerun_dir / "epoch_log.csv").read_bytes()
    assert first == second


CLI_SWEEP_CONFIG = """
[run]
seed = 3

[task]
conditions = 3
dim = 3
n_per_condition = 30

[training]
epochs = 1
batch_size = 12

[schedule]
steps = 40

[network]
hidden = 12
time_dim = 8

[eval]
n_generate = 48
diffusion_steps = 5
flow_steps = 4
diversity_pairs = 30
multimodality_reps = 3

[latency]
batch_size = 8
warmup = 1
timed = 2
"""


def test_a14_pareto_cli_emits_full_sweep_row_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIORBENCH_RUNS", str(tmp_path / "runs"))
    config = tmp_path / "sweep.ini"
    config.write_text(CLI_SWEEP_CONFIG)
    expected = {"flow": list(range(2, 16)), "diffusion": list(range(4, 16))}
    for objective, steps in expected.items():
        rc = cli_dispatch(["train", "--config", str(config),
                           "--objective", objective, "--run-id", objective])
        assert rc == 0
        ckpt = tmp_path / "runs" / objective / "epoch-1.ckpt"
        out_dir = tmp_path / f"sweep-{objective}"
        rc = cli_dispatch(["pareto", "--checkpoint", str(ckpt),
                           "--config", str(config), "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "pareto.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(steps), (
            f"{objective}: expected {len(steps)} rows, got {len(rows)}")
        assert [int(r["steps"]) for r in rows] == steps
        assert {r["objective"] for r in rows} == {objective}
