"""End-to-end evaluation: sample from a trained prior, score in the joint space."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .metrics import (EmbeddingSpace, MetricBundle, diversity, fid,
                      matching_score, multimodality, r_precision)
from .network import PriorNetwork
from .objectives import NoiseSchedule
from .rng import SeededRng
from .samplers import ddpm_ancestral_sample, euler_integrate, make_strided_timesteps

OBJECTIVES = ("diffusion", "flow")


@dataclass
class EvalSettings:
    n_generate: int = 1024
    diffusion_steps: int = 50
    flow_steps: int = 10
    diversity_pairs: int = 300
    multimodality_reps: int = 10

    def validate(self) -> None:
        for name in ("n_generate", "diffusion_steps", "flow_steps",
                     "diversity_pairs", "multimodality_reps"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"eval.{name}: must be a positive integer, got {v!r}")

    @staticmethod
    def _steps_field(objective: str) -> str:
        if objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {objective!r}")
        return f"{objective}_steps"

    def steps_for(self, objective: str) -> int:
        """The inference step count ``objective``'s sampler runs at."""
        return getattr(self, self._steps_field(objective))

    def with_steps(self, objective: str, steps: int) -> "EvalSettings":
        """A copy whose step count for ``objective`` is ``steps``."""
        return replace(self, **{self._steps_field(objective): steps})


def generate_latents(net: PriorNetwork, objective: str, labels: np.ndarray,
                     cond_table: np.ndarray, rng: SeededRng,
                     schedule: NoiseSchedule = None, n_steps: int = None):
    """Draw latents for the given labels with the objective's native sampler."""
    labels = np.asarray(labels, dtype=np.int64)
    conds = cond_table[labels]
    if objective == "diffusion":
        if schedule is None:
            raise ConfigError("diffusion sampling requires a noise schedule")
        strides = make_strided_timesteps(schedule.steps, n_steps)
        return ddpm_ancestral_sample(net, schedule, strides, conds, rng)
    if objective == "flow":
        x1 = rng.standard_normal(labels.shape[0], net.d_latent)
        return euler_integrate(net, n_steps, conds, x1)
    raise ConfigError(f"unknown objective {objective!r}")


def evaluate(net: PriorNetwork, objective: str, space: EmbeddingSpace,
             ref_samples: np.ndarray, ref_labels: np.ndarray, rng: SeededRng,
             settings: EvalSettings = None,
             schedule: NoiseSchedule = None) -> MetricBundle:
    """Score one checkpoint against a reference split.

    Generation labels cycle through the reference labels so the conditional
    composition matches.  Multimodality reuses the main generation batch,
    grouped by label.
    """
    if settings is None:
        settings = EvalSettings()
    settings.validate()
    ref_labels = np.asarray(ref_labels, dtype=np.int64)
    n = settings.n_generate
    gen_labels = np.resize(ref_labels, n)
    latents = generate_latents(net, objective, gen_labels, space.cond_embeds, rng,
                               schedule=schedule, n_steps=settings.steps_for(objective))
    gen_emb = space.embed(latents)
    ref_emb = space.embed(ref_samples)
    r1, r2, r3 = r_precision(gen_emb, gen_labels, space.cond_embeds, rng.derive("rprec"))
    per_cond = {}
    for label in np.unique(gen_labels):
        per_cond[int(label)] = gen_emb[gen_labels == label]
    return MetricBundle(
        fid=fid(gen_emb, ref_emb),
        r1=r1, r2=r2, r3=r3,
        matching_score=matching_score(gen_emb, space.condition_embedding(gen_labels)),
        diversity=diversity(gen_emb, settings.diversity_pairs, rng.derive("div")),
        multimodality=multimodality(per_cond, settings.multimodality_reps),
    )
