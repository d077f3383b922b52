"""Inference-time generation for both objectives.

Diffusion uses stochastic ancestral sampling over a stride-subsampled
schedule; posterior statistics are recomputed from alpha_bar at the current
and next retained indices, so reduced step counts stay consistent with the
1000-step training schedule.  Flow uses deterministic fixed-step ODE
integration (forward Euler or classical RK4) of the learned velocity field
from t = 0 (noise) to t = 1 (data).  Every sampler returns the generated
latents as one [B x D] array.

Each sampler call allocates the network's activation buffers once, on its
first step, and reuses them for every later step (``PriorNetwork.forward``'s
``work``); the buffers are dropped when the call returns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .network import PriorNetwork
from .objectives import NoiseSchedule
from .rng import SeededRng


@dataclass
class StridedTimesteps:
    """Descending 1-based schedule indices used at inference."""

    full_steps: int       # T of the training schedule
    count: int            # requested inference step count S
    indices: np.ndarray   # [S], strictly decreasing, all >= 1


def make_strided_timesteps(full_steps: int, count: int) -> StridedTimesteps:
    """Uniform subsampling with stride floor(T / S), starting at index T."""
    if count < 1:
        raise ConfigError(f"step count must be >= 1, got {count}")
    if count > full_steps:
        raise ConfigError(
            f"cannot run {count} inference steps on a {full_steps}-step schedule")
    stride = full_steps // count
    indices = full_steps - stride * np.arange(count, dtype=np.int64)
    indices = np.maximum(indices, 1)
    return StridedTimesteps(full_steps=full_steps, count=count, indices=indices)


def _check_finite(x: np.ndarray, solver: str, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"{solver} sampling diverged at step {step}")


def ddpm_ancestral_sample(net: PriorNetwork, schedule: NoiseSchedule,
                          steps: StridedTimesteps, conds: np.ndarray,
                          rng: SeededRng) -> np.ndarray:
    """Stochastic reverse process over the retained schedule indices.

    Each step predicts the noise, converts it to a clean-latent estimate,
    and draws from the gap-aware posterior; the final step returns the
    posterior mean with no noise injection.
    """
    conds = np.asarray(conds, dtype=np.float64)
    b = conds.shape[0]
    d = net.d_latent
    big_t = schedule.steps
    if steps.full_steps != big_t:
        raise ConfigError(
            f"stride table was built for T={steps.full_steps}, schedule has T={big_t}")
    x = rng.standard_normal(b, d)
    work = {}
    for i, k in enumerate(steps.indices):
        abar = float(schedule.alpha_bar_at(int(k)))
        is_last = i + 1 == steps.count
        abar_next = 1.0 if is_last else float(schedule.alpha_bar_at(int(steps.indices[i + 1])))
        t_in = np.full(b, k / big_t)
        eps_hat = net.forward(x, t_in, conds, work=work)
        x0_hat = (x - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)
        alpha_gap = abar / abar_next
        beta_gap = 1.0 - alpha_gap
        mean = (np.sqrt(abar_next) * beta_gap / (1.0 - abar)) * x0_hat \
            + (np.sqrt(alpha_gap) * (1.0 - abar_next) / (1.0 - abar)) * x
        if is_last:
            x = mean
        else:
            var = beta_gap * (1.0 - abar_next) / (1.0 - abar)
            x = mean + np.sqrt(var) * rng.standard_normal(b, d)
        _check_finite(x, "ancestral", i)
    return x


def euler_integrate(net: PriorNetwork, count: int, conds: np.ndarray,
                    x1: np.ndarray) -> np.ndarray:
    """Fixed-step forward Euler from t = 0 to t = 1, field at left endpoints."""
    if count < 1:
        raise ConfigError(f"step count must be >= 1, got {count}")
    conds = np.asarray(conds, dtype=np.float64)
    x = np.asarray(x1, dtype=np.float64).copy()
    b = x.shape[0]
    dt = 1.0 / count
    work = {}
    for i in range(count):
        v = net.forward(x, np.full(b, i * dt), conds, work=work)
        x = x + dt * v
        _check_finite(x, "euler", i)
    return x


def rk4_integrate(net: PriorNetwork, count: int, conds: np.ndarray,
                  x1: np.ndarray) -> np.ndarray:
    """Classical fourth-order Runge-Kutta; four field evaluations per step."""
    if count < 1:
        raise ConfigError(f"step count must be >= 1, got {count}")
    conds = np.asarray(conds, dtype=np.float64)
    x = np.asarray(x1, dtype=np.float64).copy()
    b = x.shape[0]
    dt = 1.0 / count
    work = {}
    for i in range(count):
        t0 = i * dt
        t_half = np.full(b, t0 + 0.5 * dt)
        k1 = net.forward(x, np.full(b, t0), conds, work=work)
        k2 = net.forward(x + 0.5 * dt * k1, t_half, conds, work=work)
        k3 = net.forward(x + 0.5 * dt * k2, t_half, conds, work=work)
        k4 = net.forward(x + dt * k3, np.full(b, t0 + dt), conds, work=work)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(x, "rk4", i)
    return x
