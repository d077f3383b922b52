"""Walk through the two training objectives on a toy batch.

Shows the forward noising process, the straight-path interpolation, and why
each loss has a known floor: a predictor that outputs the exact noise (or the
exact velocity) scores zero.
"""

import numpy as np

from priorbench import (PriorNetwork, SeededRng, build_scaled_linear_schedule,
                        diffusion_loss, diffusion_noising, flow_loss,
                        flow_make_sample, sample_logit_normal_t)

rng = SeededRng(2024)
x0 = rng.standard_normal(8, 4)          # a batch of "clean" latents
conds = rng.standard_normal(8, 4)       # their condition embeddings

# --- diffusion side ---------------------------------------------------------
schedule = build_scaled_linear_schedule(1000)
print("schedule: T=%d, beta in [%.2e, %.2e]" % (
    schedule.steps, schedule.betas[0], schedule.betas[-1]))
print("alpha_bar endpoints: %.6f (k=1) -> %.6f (k=T)" % (
    schedule.alpha_bars[0], schedule.alpha_bars[-1]))

eps = rng.standard_normal(8, 4)
for k in (1, 250, 500, 1000):
    x_k = diffusion_noising(x0, k, eps, schedule)
    # signal fraction decays toward zero as k -> T
    print("  k=%4d  sqrt(alpha_bar)=%.4f  |x_k - eps| = %.4f" % (
        k, np.sqrt(float(schedule.alpha_bar_at(k))),
        float(np.mean(np.abs(x_k - eps)))))

net = PriorNetwork.initialized(4, 4, rng.derive("net"), hidden=32, d_time=8)
report = diffusion_loss(x0, conds, net, schedule, rng.derive("dloss"))
print("diffusion loss, untrained net: %.4f  (sub-losses %s)" % (
    report.value, np.round(report.sub_losses, 4)))

# --- flow side --------------------------------------------------------------
t = sample_logit_normal_t(rng.derive("t"), 100_000)
print("logit-normal t: median %.4f, mass in (0.25, 0.75): %.3f" % (
    float(np.median(t)), float(np.mean((t > 0.25) & (t < 0.75)))))

sample = flow_make_sample(x0, rng.derive("fs"))
check = (1.0 - sample.t)[:, None] * sample.x1 + sample.t[:, None] * sample.x0
print("interpolation identity max error: %.3e" % np.max(np.abs(sample.x_t - check)))
print("velocity identity max error:      %.3e" % np.max(
    np.abs(sample.v_true - (sample.x0 - sample.x1))))

report = flow_loss(x0, conds, net, rng.derive("floss"))
print("flow loss, untrained net: %.4f" % report.value)


# Oracle predictors hit the loss floor: whatever the draw, they return the
# exact regression target, so both objectives bottom out at zero.
class EpsOracle:
    def __init__(self, x0, schedule):
        self.x0, self.schedule = x0, schedule

    def forward_cached(self, x_t, t, conds):
        k = np.rint(np.asarray(t) * self.schedule.steps).astype(np.int64)
        abar = np.asarray(self.schedule.alpha_bar_at(k))[:, None]
        return (x_t - np.sqrt(abar) * self.x0) / np.sqrt(1.0 - abar), {}

    def backward(self, cache, dout):
        return np.zeros(0)


class VelocityOracle:
    def __init__(self, x0):
        self.x0 = x0

    def forward_cached(self, x_t, t, conds):
        t = np.asarray(t)[:, None]
        return self.x0 - (x_t - t * self.x0) / (1.0 - t), {}

    def backward(self, cache, dout):
        return np.zeros(0)


floor_d = diffusion_loss(x0, conds, EpsOracle(x0, schedule), schedule, SeededRng(1))
floor_f = flow_loss(x0, conds, VelocityOracle(x0), SeededRng(2))
print("oracle floors: diffusion %.2e, flow %.2e" % (floor_d.value, floor_f.value))
