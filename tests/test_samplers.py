"""Stride subsampling, ancestral reversal, Euler and RK4 integrators."""

import numpy as np
import pytest

from priorbench.errors import ConfigError, DivergenceError
from priorbench.network import PriorNetwork
from priorbench.objectives import build_scaled_linear_schedule
from priorbench.rng import SeededRng
from priorbench.samplers import (ddpm_ancestral_sample, euler_integrate,
                                 make_strided_timesteps, rk4_integrate)


class _FieldStub:
    """Stands in for the network: a caller-supplied velocity field v(x, t)."""

    def __init__(self, fn, d_latent):
        self.fn = fn
        self.d_latent = d_latent

    def forward(self, x, t, cond, work=None):
        return self.fn(np.asarray(x), np.asarray(t))


def test_stride_rule_examples():
    st = make_strided_timesteps(1000, 100)
    assert st.indices[0] == 1000
    assert len(st.indices) == 100
    assert np.all(np.diff(st.indices) == -10)  # stride 10

    st3 = make_strided_timesteps(1000, 3)
    np.testing.assert_array_equal(st3.indices, [1000, 667, 334])

    st_full = make_strided_timesteps(10, 10)
    np.testing.assert_array_equal(st_full.indices, np.arange(10, 0, -1))

    one = make_strided_timesteps(1000, 1)
    np.testing.assert_array_equal(one.indices, [1000])


def test_stride_properties():
    for big_t, count in ((1000, 7), (1000, 999), (64, 64), (50, 13)):
        st = make_strided_timesteps(big_t, count)
        assert len(st.indices) == count
        assert np.all(np.diff(st.indices) < 0)
        assert st.indices[0] == big_t
        assert st.indices[-1] >= 1


def test_stride_rejects_bad_counts():
    with pytest.raises(ConfigError):
        make_strided_timesteps(1000, 0)
    with pytest.raises(ConfigError):
        make_strided_timesteps(100, 101)


def _grid_values(rng, rows, cols):
    """Multiples of 2**-10 in [-2, 2): sums and differences stay exact."""
    return rng.integers(rows * cols, -2048, 2047).reshape(rows, cols) / 1024.0


def test_constant_field_exact_at_one_step():
    """v(x, t) = x0 - x1 transports x1 to x0 in a single exact step.

    On a dyadic grid the float arithmetic is exact, so equality is bitwise;
    arbitrary reals are covered at machine precision below.
    """
    rng = SeededRng(3)
    x0 = _grid_values(rng, 5, 3)
    x1 = _grid_values(rng, 5, 3)
    stub = _FieldStub(lambda x, t: x0 - x1, 3)
    conds = np.zeros((5, 2))
    for solver in (euler_integrate, rk4_integrate):
        out = solver(stub, 1, conds, x1)
        np.testing.assert_array_equal(out, x0)
    y0 = rng.standard_normal(5, 3)
    y1 = rng.standard_normal(5, 3)
    stub_r = _FieldStub(lambda x, t: y0 - y1, 3)
    for solver in (euler_integrate, rk4_integrate):
        out = solver(stub_r, 1, conds, y1)
        np.testing.assert_allclose(out, y0, atol=1e-14)


def test_constant_field_machine_precision_any_steps():
    rng = SeededRng(4)
    x0 = rng.standard_normal(4, 2)
    x1 = rng.standard_normal(4, 2)
    stub = _FieldStub(lambda x, t: x0 - x1, 2)
    conds = np.zeros((4, 1))
    for s in (2, 3, 7, 15):
        for solver in (euler_integrate, rk4_integrate):
            out = solver(stub, s, conds, x1)
            np.testing.assert_allclose(out, x0, atol=1e-12)


def test_linear_field_rk4_exact_euler_halfstep_off():
    """v = a + b t integrates to a + b/2; one Euler step sees only v(0) = a."""
    rng = SeededRng(5)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    x1 = rng.standard_normal(2, 3)
    stub = _FieldStub(lambda x, t: a + np.asarray(t)[:, None] * b, 3)
    conds = np.zeros((2, 1))
    rk = rk4_integrate(stub, 1, conds, x1)
    np.testing.assert_allclose(rk, x1 + a + b / 2.0, atol=1e-14)
    eu = euler_integrate(stub, 1, conds, x1)
    np.testing.assert_allclose(eu, x1 + a, atol=1e-14)
    np.testing.assert_allclose(rk - eu, np.broadcast_to(b / 2.0, (2, 3)), atol=1e-14)


def test_integrators_reject_bad_step_count():
    stub = _FieldStub(lambda x, t: np.zeros_like(x), 2)
    for solver in (euler_integrate, rk4_integrate):
        with pytest.raises(ConfigError):
            solver(stub, 0, np.zeros((1, 1)), np.zeros((1, 2)))


def test_integrators_flag_divergence():
    stub = _FieldStub(lambda x, t: np.full_like(x, np.nan), 2)
    with pytest.raises(DivergenceError):
        euler_integrate(stub, 3, np.zeros((1, 1)), np.zeros((1, 2)))


def test_ddpm_single_step_closed_form():
    """S = 1: one jump from pure noise to x / sqrt(abar_T) when eps_hat = 0."""
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    stub = _FieldStub(lambda x, t: np.zeros_like(x), 3)
    strided = make_strided_timesteps(100, 1)
    rng = SeededRng(8)
    out = ddpm_ancestral_sample(stub, sched, strided, np.zeros((6, 2)), rng)
    x_init = SeededRng(8).standard_normal(6, 3)
    np.testing.assert_allclose(
        out, x_init / np.sqrt(sched.alpha_bars[-1]), rtol=1e-12)


def test_ddpm_deterministic_given_seed():
    sched = build_scaled_linear_schedule(200, 1e-3, 2e-2)
    net = PriorNetwork.initialized(3, 2, SeededRng(1), hidden=6, d_time=4)
    strided = make_strided_timesteps(200, 9)
    conds = SeededRng(2).standard_normal(5, 2)
    a = ddpm_ancestral_sample(net, sched, strided, conds, SeededRng(3))
    b = ddpm_ancestral_sample(net, sched, strided, conds, SeededRng(3))
    np.testing.assert_array_equal(a, b)


def test_ddpm_rejects_mismatched_stride_table():
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    strided = make_strided_timesteps(200, 5)
    net = PriorNetwork.initialized(2, 2, SeededRng(1), hidden=4, d_time=2)
    with pytest.raises(ConfigError):
        ddpm_ancestral_sample(net, sched, strided, np.zeros((2, 2)), SeededRng(0))


def test_ddpm_reverses_forward_process_statistically():
    """Full-schedule sampling with the exact-posterior oracle recovers the
    target mean: predict eps = (x - sqrt(abar) mu) / sqrt(1 - abar) for a
    point-mass-at-mu target and the chain must land near mu."""
    sched = build_scaled_linear_schedule(400, 1e-3, 2e-2)
    mu = np.array([1.5, -2.0])

    class _PointOracle:
        d_latent = 2

        def forward(self, x, t, cond, work=None):
            k = np.rint(np.asarray(t) * 400).astype(np.int64)
            abar = sched.alpha_bars[k - 1][:, None]
            return (x - np.sqrt(abar) * mu) / np.sqrt(1.0 - abar)

    strided = make_strided_timesteps(400, 400)
    out = ddpm_ancestral_sample(_PointOracle(), sched, strided,
                                np.zeros((64, 1)), SeededRng(21))
    err = np.abs(out.mean(axis=0) - mu)
    assert np.all(err < 0.15)
    assert out.std(axis=0).max() < 0.3


class _DropWork:
    """The real network behind a ``forward`` that ignores ``work``, so every
    step allocates fresh activations as a reference."""

    def __init__(self, net):
        self.net = net
        self.d_latent = net.d_latent

    def forward(self, x, t, cond, work=None):
        return self.net.forward(x, t, cond)


def _sampler_runs(net):
    """Each sampler once on ``net`` at 64 rows: (name, steps, forwards per step, latents)."""
    sched = build_scaled_linear_schedule(200, 1e-3, 2e-2)
    conds = SeededRng(41).standard_normal(64, 8)
    x1 = SeededRng(42).standard_normal(64, 8)
    return (
        ("ancestral", 7, 1, lambda: ddpm_ancestral_sample(
            net, sched, make_strided_timesteps(200, 7), conds, SeededRng(43))),
        ("euler", 6, 1, lambda: euler_integrate(net, 6, conds, x1)),
        ("rk4", 3, 4, lambda: rk4_integrate(net, 3, conds, x1)),
    )


def test_samplers_reusing_work_match_fresh_forwards():
    net = PriorNetwork.initialized(8, 8, SeededRng(40))
    reference = {name: run() for name, _, _, run in _sampler_runs(_DropWork(net))}
    for name, _, _, run in _sampler_runs(net):
        np.testing.assert_array_equal(run(), reference[name], err_msg=name)


def test_samplers_run_one_forward_per_field_evaluation(monkeypatch):
    net = PriorNetwork.initialized(8, 8, SeededRng(40))
    original = PriorNetwork.forward_cached
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PriorNetwork, "forward_cached", counted)
    for name, steps, per_step, run in _sampler_runs(net):
        calls.clear()
        run()
        assert len(calls) == steps * per_step, name
