"""Noise schedule, forward noising, timestep sampling, and both losses."""

import numpy as np
import pytest

from priorbench.errors import ConfigError
from priorbench.network import PriorNetwork
from priorbench.objectives import (build_scaled_linear_schedule,
                                   diffusion_loss, diffusion_noising,
                                   flow_loss, flow_make_sample,
                                   sample_logit_normal_t)
from priorbench.rng import SeededRng


def test_schedule_endpoints_and_shape():
    sched = build_scaled_linear_schedule(1000, 8.5e-4, 1.2e-2)
    assert sched.steps == 1000
    np.testing.assert_allclose(sched.betas[0], 8.5e-4, rtol=1e-12)
    np.testing.assert_allclose(sched.betas[-1], 1.2e-2, rtol=1e-12)
    # linear in sqrt(beta): second differences of sqrt vanish
    second = np.diff(np.sqrt(sched.betas), n=2)
    np.testing.assert_allclose(second, 0.0, atol=1e-15)


def test_schedule_tables_consistent():
    sched = build_scaled_linear_schedule(50, 1e-3, 2e-2)
    assert np.all(np.diff(sched.betas) > 0.0)
    np.testing.assert_allclose(sched.alphas, 1.0 - sched.betas, rtol=1e-15)
    np.testing.assert_allclose(sched.alpha_bars, np.cumprod(sched.alphas), rtol=1e-12)
    assert np.all(np.diff(sched.alpha_bars) < 0.0)
    np.testing.assert_allclose(sched.alpha_bar_at(1), sched.alphas[0], rtol=1e-15)
    np.testing.assert_allclose(sched.alpha_bar_at(50), sched.alpha_bars[-1], rtol=1e-15)


def test_schedule_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        build_scaled_linear_schedule(10, 2e-2, 1e-3)
    with pytest.raises(ConfigError):
        build_scaled_linear_schedule(0, 1e-3, 2e-2)
    sched = build_scaled_linear_schedule(10, 1e-3, 2e-2)
    with pytest.raises(ValueError):
        sched.alpha_bar_at(0)
    with pytest.raises(ValueError):
        sched.alpha_bar_at(11)


def test_diffusion_noising_matches_closed_form():
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    rng = SeededRng(5)
    x0 = rng.standard_normal(4, 3)
    eps = rng.standard_normal(4, 3)
    k = np.array([1, 17, 50, 100])
    got = diffusion_noising(x0, k, eps, sched)
    abar = sched.alpha_bars[k - 1][:, None]
    np.testing.assert_allclose(
        got, np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps, rtol=1e-14)


def test_logit_normal_t_distribution():
    t = sample_logit_normal_t(SeededRng(9), 20000)
    assert np.all(t > 0.0) and np.all(t < 1.0)
    assert abs(np.median(t) - 0.5) < 0.01
    # mass concentrates near 0.5: central third outweighs the two tails
    central = np.mean((t > 1.0 / 3.0) & (t < 2.0 / 3.0))
    assert central > 0.45


def test_flow_sample_algebra():
    rng = SeededRng(12)
    x0 = rng.standard_normal(8, 4)
    s = flow_make_sample(x0, rng)
    np.testing.assert_array_equal(
        s.x_t, (1.0 - s.t[:, None]) * s.x1 + s.t[:, None] * s.x0)
    np.testing.assert_array_equal(s.v_true, s.x0 - s.x1)
    assert np.all((s.t > 0.0) & (s.t < 1.0))


class _EpsOracle:
    """Recovers the exact noise from (x_k, k/T) given the clean batch."""

    def __init__(self, x0, schedule):
        self.x0 = x0
        self.schedule = schedule

    def forward_cached(self, x_t, t, cond):
        k = np.rint(np.asarray(t) * self.schedule.steps).astype(np.int64)
        abar = self.schedule.alpha_bars[k - 1][:, None]
        eps = (x_t - np.sqrt(abar) * self.x0) / np.sqrt(1.0 - abar)
        return eps, {}

    def backward(self, cache, dout):
        return np.zeros(0)


class _VelocityOracle:
    """Recovers x0 - x1 from (x_t, t) given the clean batch."""

    def __init__(self, x0):
        self.x0 = x0

    def forward_cached(self, x_t, t, cond):
        t = np.asarray(t)[:, None]
        x1 = (x_t - t * self.x0) / (1.0 - t)
        return self.x0 - x1, {}

    def backward(self, cache, dout):
        return np.zeros(0)


def test_oracle_zero_losses():
    rng = SeededRng(31)
    x0 = rng.standard_normal(16, 4)
    conds = rng.standard_normal(16, 4)
    sched = build_scaled_linear_schedule(1000, 8.5e-4, 1.2e-2)
    d_report = diffusion_loss(x0, conds, _EpsOracle(x0, sched), sched, SeededRng(1))
    assert d_report.value < 1e-12
    f_report = flow_loss(x0, conds, _VelocityOracle(x0), SeededRng(2))
    assert f_report.value < 1e-12


def test_loss_reports_four_draws_and_mean():
    rng = SeededRng(3)
    x0 = rng.standard_normal(10, 3)
    conds = rng.standard_normal(10, 2)
    net = PriorNetwork.initialized(3, 2, SeededRng(8), hidden=6, d_time=4)
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    for report in (diffusion_loss(x0, conds, net, sched, SeededRng(4)),
                   flow_loss(x0, conds, net, SeededRng(4))):
        assert report.sub_losses.shape == (4,)
        np.testing.assert_allclose(report.value, np.mean(report.sub_losses), rtol=1e-15)
        assert report.value >= 0.0
        assert report.grad.shape == (net.param_count,)


def test_losses_are_deterministic_given_rng():
    rng = SeededRng(6)
    x0 = rng.standard_normal(12, 4)
    conds = rng.standard_normal(12, 3)
    net = PriorNetwork.initialized(4, 3, SeededRng(9), hidden=5, d_time=4)
    sched = build_scaled_linear_schedule(64, 1e-3, 2e-2)
    a = diffusion_loss(x0, conds, net, sched, SeededRng(77))
    b = diffusion_loss(x0, conds, net, sched, SeededRng(77))
    assert a.value == b.value
    np.testing.assert_array_equal(a.grad, b.grad)


def test_gradient_step_reduces_loss():
    """One small gradient step along -g must not increase either loss."""
    rng = SeededRng(15)
    x0 = rng.standard_normal(32, 4)
    conds = rng.standard_normal(32, 3)
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    for kind in ("diffusion", "flow"):
        net = PriorNetwork.initialized(4, 3, SeededRng(10), hidden=8, d_time=4)

        def loss_with(n):
            if kind == "diffusion":
                return diffusion_loss(x0, conds, n, sched, SeededRng(55))
            return flow_loss(x0, conds, n, SeededRng(55))

        before = loss_with(net)
        net.flat -= 1e-3 * before.grad
        after = loss_with(net)
        assert after.value < before.value
