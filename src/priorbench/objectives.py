"""The two training objectives under comparison.

Diffusion: predict the Gaussian noise mixed into a clean latent by a
scaled-linear forward process, squared error on the noise.

Rectified flow: regress the constant velocity x0 - x1 of the straight
interpolation path x_t = (1 - t) x1 + t x0, with t drawn logit-normal.
Orientation throughout: t = 0 is noise, t = 1 is data.

Both losses run one loop over four independent draws per batch, reduced by
mean over batch rows, latent dimensions, and the four draws; they differ only
in how a draw forms its (network input, time, target).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import PriorNetwork
from .rng import SeededRng

TIMESTEP_DRAWS = 4
DEFAULT_SCHEDULE_STEPS = 1000
DEFAULT_BETA_START = 8.5e-4
DEFAULT_BETA_END = 1.2e-2


@dataclass
class NoiseSchedule:
    """Beta/alpha tables of a T-step forward process (index 0 is step k=1)."""

    betas: np.ndarray       # [T]
    alphas: np.ndarray      # [T], 1 - beta
    alpha_bars: np.ndarray  # [T], cumulative product of alpha

    @property
    def steps(self) -> int:
        return self.betas.shape[0]

    def alpha_bar_at(self, k) -> np.ndarray:
        """alpha_bar for 1-based schedule index k (scalar or array)."""
        k = np.asarray(k)
        if np.any(k < 1) or np.any(k > self.steps):
            raise ValueError(f"schedule index out of range 1..{self.steps}: {k}")
        return self.alpha_bars[k - 1]


def build_scaled_linear_schedule(steps: int = DEFAULT_SCHEDULE_STEPS,
                                 beta_start: float = DEFAULT_BETA_START,
                                 beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Schedule with beta linear in sqrt(beta) between the two endpoints."""
    if steps < 2:
        raise ConfigError(f"schedule needs at least 2 steps, got {steps}")
    if not (0.0 < beta_start < beta_end < 1.0):
        raise ConfigError(
            f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})")
    sqrt_betas = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), steps)
    betas = sqrt_betas**2
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    return NoiseSchedule(betas=betas, alphas=alphas, alpha_bars=alpha_bars)


def diffusion_noising(x0: np.ndarray, k, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Forward marginal x_k = sqrt(abar_k) x0 + sqrt(1 - abar_k) eps.

    ``k`` is a 1-based schedule index, scalar or per-row [B].
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ValueError(f"noise shape {eps.shape} does not match latents {x0.shape}")
    abar = np.asarray(schedule.alpha_bar_at(k), dtype=np.float64)
    if abar.ndim == 1:
        abar = abar[:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def sample_logit_normal_t(rng: SeededRng, n: int = 1) -> np.ndarray:
    """Timesteps t = logistic(z), z ~ N(0, 1); mass concentrates near 0.5."""
    z = rng.standard_normal(n)
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class FlowSample:
    """One draw of the rectified-flow interpolation for a batch."""

    x0: np.ndarray      # clean latents [B x D]
    x1: np.ndarray      # noise [B x D]
    t: np.ndarray       # [B] in (0, 1)
    x_t: np.ndarray     # (1 - t) x1 + t x0
    v_true: np.ndarray  # x0 - x1


def flow_make_sample(x0: np.ndarray, rng: SeededRng) -> FlowSample:
    """Draw noise and logit-normal times, then interpolate."""
    x0 = np.asarray(x0, dtype=np.float64)
    b, d = x0.shape
    x1 = rng.standard_normal(b, d)
    t = sample_logit_normal_t(rng, b)
    x_t = (1.0 - t)[:, None] * x1 + t[:, None] * x0
    return FlowSample(x0=x0, x1=x1, t=t, x_t=x_t, v_true=x0 - x1)


@dataclass
class LossReport:
    """Scalar loss, the four per-draw sub-losses, and the parameter gradient."""

    value: float
    sub_losses: np.ndarray  # [TIMESTEP_DRAWS]
    grad: np.ndarray        # laid out like PriorNetwork.flat


def _loss_over_draws(x0: np.ndarray, conds: np.ndarray, net: PriorNetwork,
                     draw) -> LossReport:
    """MSE of ``net`` over ``TIMESTEP_DRAWS`` calls of ``draw(x0)``, each
    returning one draw's (network input, times, target) from the objective's
    RNG stream, in order."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    b, d = x0.shape
    sub_losses = np.zeros(TIMESTEP_DRAWS)
    grad = 0.0
    for j in range(TIMESTEP_DRAWS):
        x_in, t, target = draw(x0)
        pred, cache = net.forward_cached(x_in, t, conds)
        diff = pred - target
        sub_losses[j] = np.mean(diff**2)
        dout = 2.0 * diff / (b * d * TIMESTEP_DRAWS)
        grad += net.backward(cache, dout)
    return LossReport(value=float(np.mean(sub_losses)), sub_losses=sub_losses, grad=grad)


def diffusion_loss(x0: np.ndarray, conds: np.ndarray, net: PriorNetwork,
                   schedule: NoiseSchedule, rng: SeededRng) -> LossReport:
    """Noise-prediction MSE averaged over four independent timestep draws.

    Each draw samples a per-row schedule index k uniform on 1..T and fresh
    noise, forms x_k, and scores ||eps - net(x_k, k/T, c)||^2 averaged over
    batch rows and latent dimensions.
    """
    def draw(x0):
        k = rng.integers(x0.shape[0], 1, schedule.steps)
        eps = rng.standard_normal(*x0.shape)
        return diffusion_noising(x0, k, eps, schedule), k / schedule.steps, eps
    return _loss_over_draws(x0, conds, net, draw)


def flow_loss(x0: np.ndarray, conds: np.ndarray, net: PriorNetwork,
              rng: SeededRng) -> LossReport:
    """Velocity-regression MSE averaged over four independent (x1, t) draws."""
    def draw(x0):
        sample = flow_make_sample(x0, rng)
        return sample.x_t, sample.t, sample.v_true
    return _loss_over_draws(x0, conds, net, draw)
