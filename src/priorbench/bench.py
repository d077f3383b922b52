"""Latency measurement and efficiency-quality sweeps.

Timing uses a monotonic high-resolution clock, warmup iterations excluded.
The end-to-end mode wraps the prior with fixed-cost surrogate stages standing
in for the out-of-scope text encoder and latent decoder, so the share of
total latency attributable to fixed components stays measurable.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ProtocolError
from .evaluation import EvalSettings, evaluate
from .metrics import EmbeddingSpace, MetricBundle
from .network import PriorNetwork
from .objectives import NoiseSchedule
from .rng import SeededRng
from .samplers import ddpm_ancestral_sample, euler_integrate, make_strided_timesteps
from .svgplot import render_scatter

LATENCY_BATCH = 32
LATENCY_WARMUP = 3
LATENCY_TIMED = 10
TIMING_MODES = ("prior_only", "end_to_end")
FLOW_STEP_RANGE = tuple(range(2, 16))        # 14 sweep points
DIFFUSION_STEP_RANGE = tuple(range(4, 16))   # 12 sweep points
PARETO_CSV_HEADER = "objective,steps,latency_ms,fid,r1,r2,r3,mm_dist"


@dataclass
class LatencyProtocol:
    batch_size: int = LATENCY_BATCH
    warmup: int = LATENCY_WARMUP
    timed: int = LATENCY_TIMED
    mode: str = "prior_only"

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"latency.batch_size: must be >= 1, got {self.batch_size}")
        if self.warmup < 0:
            raise ConfigError(f"latency.warmup: must be >= 0, got {self.warmup}")
        if self.timed < 1:
            raise ConfigError(f"latency.timed: must be >= 1, got {self.timed}")
        if self.mode not in TIMING_MODES:
            raise ConfigError(f"latency.mode: unknown mode {self.mode!r}")


@dataclass
class LatencyResult:
    mean_ms: float
    per_iteration_ms: list
    warnings: list = field(default_factory=list)


def measure_latency(invoke, protocol: LatencyProtocol) -> LatencyResult:
    """Mean per-batch latency of ``invoke`` under the warmup/timed protocol."""
    protocol.validate()
    for _ in range(protocol.warmup):
        invoke()
    durations = []
    for _ in range(protocol.timed):
        t0 = time.perf_counter()
        invoke()
        durations.append(time.perf_counter() - t0)
    mean_s = float(np.mean(durations))
    warnings = []
    resolution = time.get_clock_info("perf_counter").resolution
    if mean_s <= 0.0 or resolution > 0.01 * mean_s:
        warnings.append(
            f"timer resolution {resolution:.3g}s exceeds 1% of measured "
            f"duration {mean_s:.3g}s; means may be quantized")
    return LatencyResult(mean_ms=mean_s * 1e3,
                         per_iteration_ms=[d * 1e3 for d in durations],
                         warnings=warnings)


class SurrogatePipeline:
    """Fixed-cost stand-ins for the condition encoder and latent decoder.

    Each stage performs a constant amount of deterministic matrix work per
    batch, independent of the sampler's step count.
    """

    def __init__(self, d_latent: int, d_cond: int, d_out: int = 64,
                 work_size: int = 192, rounds: int = 4, seed: int = 0x0DEC0DE):
        rng = SeededRng(seed)
        self.work = rng.standard_normal(work_size, work_size) / np.sqrt(work_size)
        self.lift_cond = rng.standard_normal(d_cond, work_size) / np.sqrt(d_cond)
        self.lift_latent = rng.standard_normal(d_latent, work_size) / np.sqrt(d_latent)
        self.decode_w = rng.standard_normal(d_latent, d_out) / np.sqrt(d_latent)
        self.decode_b = rng.standard_normal(d_out)
        self.rounds = rounds

    def _churn(self, h: np.ndarray) -> np.ndarray:
        for _ in range(self.rounds):
            h = np.tanh(h @ self.work)
        return h

    def encode(self, labels: np.ndarray, cond_table: np.ndarray) -> np.ndarray:
        """Condition-embedding lookup with encoder-shaped fixed cost."""
        conds = cond_table[np.asarray(labels, dtype=np.int64)]
        self._churn(conds @ self.lift_cond)
        return conds

    def decode(self, latents: np.ndarray) -> np.ndarray:
        """Affine readout with decoder-shaped fixed cost."""
        self._churn(latents @ self.lift_latent)
        return latents @ self.decode_w + self.decode_b


@dataclass
class ParetoPoint:
    objective: str
    steps: int
    latency_ms: float
    metrics: MetricBundle

    def as_csv_row(self) -> str:
        m = self.metrics
        vals = [repr(float(v)) for v in
                (self.latency_ms, m.fid, m.r1, m.r2, m.r3, m.matching_score)]
        return ",".join([self.objective, str(self.steps)] + vals)


def default_step_range(objective: str):
    if objective == "flow":
        return FLOW_STEP_RANGE
    if objective == "diffusion":
        return DIFFUSION_STEP_RANGE
    raise ConfigError(f"unknown objective {objective!r}")


def make_sampler_invocation(net: PriorNetwork, objective: str, n_steps: int,
                            labels: np.ndarray, space: EmbeddingSpace,
                            rng: SeededRng, schedule: NoiseSchedule = None,
                            pipeline: SurrogatePipeline = None):
    """Build the zero-argument callable timed by measure_latency.

    With a pipeline the call covers encode, prior sampling, and decode;
    without one it covers the prior alone.
    """
    labels = np.asarray(labels, dtype=np.int64)
    conds = space.cond_embeds[labels]
    if objective == "diffusion":
        if schedule is None:
            raise ConfigError("diffusion timing requires a noise schedule")
        strides = make_strided_timesteps(schedule.steps, n_steps)

        def run_prior(c):
            return ddpm_ancestral_sample(net, schedule, strides, c, rng)
    elif objective == "flow":
        x1 = rng.standard_normal(labels.shape[0], net.d_latent)

        def run_prior(c):
            return euler_integrate(net, n_steps, c, x1)
    else:
        raise ConfigError(f"unknown objective {objective!r}")

    if pipeline is None:
        return lambda: run_prior(conds)

    def run_full():
        c = pipeline.encode(labels, space.cond_embeds)
        return pipeline.decode(run_prior(c))
    return run_full


def pareto_sweep(net: PriorNetwork, objective: str, steps, space: EmbeddingSpace,
                 ref_samples: np.ndarray, ref_labels: np.ndarray, rng: SeededRng,
                 protocol: LatencyProtocol = None, schedule: NoiseSchedule = None,
                 settings: EvalSettings = None, csv_path: str = None,
                 svg_path: str = None) -> list:
    """Latency and quality at each step count; one ParetoPoint per count."""
    if protocol is None:
        protocol = LatencyProtocol()
    if settings is None:
        settings = EvalSettings()
    steps = list(steps)
    if not steps:
        raise ConfigError("pareto sweep needs at least one step count")
    if schedule is not None and max(steps) > schedule.steps:
        raise ConfigError(
            f"step counts up to {max(steps)} exceed the {schedule.steps}-step schedule")
    ref_labels = np.asarray(ref_labels, dtype=np.int64)
    batch_labels = np.resize(ref_labels, protocol.batch_size)
    pipeline = None
    if protocol.mode == "end_to_end":
        pipeline = SurrogatePipeline(d_latent=net.d_latent,
                                     d_cond=space.cond_embeds.shape[1])
    points = []
    for s in steps:
        invoke = make_sampler_invocation(net, objective, s, batch_labels, space,
                                         rng.derive("latency", s),
                                         schedule=schedule, pipeline=pipeline)
        latency = measure_latency(invoke, protocol)
        bundle = evaluate(net, objective, space, ref_samples, ref_labels,
                          rng.derive("quality", s),
                          settings=settings.with_steps(objective, s), schedule=schedule)
        points.append(ParetoPoint(objective=objective, steps=s,
                                  latency_ms=latency.mean_ms, metrics=bundle))
    if csv_path is not None:
        write_pareto_csv(csv_path, points)
    if svg_path is not None:
        groups = {objective: ([p.latency_ms for p in points],
                              [p.metrics.fid for p in points])}
        render_scatter(svg_path, "Latency vs quality", "latency per batch (ms)",
                       "FID", groups)
    return points


def write_pareto_csv(path: str, points: list) -> None:
    with open(path, "w") as fh:
        fh.write(PARETO_CSV_HEADER + "\n")
        for p in points:
            fh.write(p.as_csv_row() + "\n")


def per_step_cost(points: list) -> dict:
    """Least-squares latency slope (ms per step) keyed by objective."""
    by_objective = {}
    for p in points:
        by_objective.setdefault(p.objective, []).append(p)
    slopes = {}
    for objective, group in by_objective.items():
        if len(group) < 2:
            raise ProtocolError(
                f"slope fit for {objective!r} needs >= 2 points, got {len(group)}")
        xs = np.array([p.steps for p in group], dtype=np.float64)
        ys = np.array([p.latency_ms for p in group], dtype=np.float64)
        slopes[objective] = float(np.polyfit(xs, ys, 1)[0])
    return slopes
