"""Synthetic conditional latent distributions with known statistics.

Each condition label names a small Gaussian mixture in latent space.  The
network is conditioned on the label's anchor in the evaluation space,
``EmbeddingSpace.cond_embeds``.  The default task (8 conditions, 8
dimensions, 2 components each) is a pure function of a master seed checked
into this module, so every run and test sees identical ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import SeededRng

DEFAULT_TASK_SEED = 0x5EED_CAFE
DEFAULT_CONDITIONS = 8
DEFAULT_DIM = 8

SPLIT_NAMES = ("train", "val", "test")
_SPLIT_FRACTIONS = (0.8, 0.1)  # train, val; test takes the remainder


@dataclass
class TaskSettings:
    conditions: int = DEFAULT_CONDITIONS
    dim: int = DEFAULT_DIM
    task_seed: int = DEFAULT_TASK_SEED
    anisotropic: bool = False
    n_per_condition: int = 1000

    def validate(self) -> None:
        if self.conditions < 2:
            raise ConfigError(f"task.conditions: need >= 2, got {self.conditions}")
        if self.dim < 1:
            raise ConfigError(f"task.dim: need >= 1, got {self.dim}")
        if self.n_per_condition < 10:
            raise ConfigError(
                f"task.n_per_condition: need >= 10, got {self.n_per_condition}")


@dataclass
class ConditionSpec:
    """A condition label and the mixture it names."""

    label: int
    weights: np.ndarray       # [C], positive, sums to 1
    means: np.ndarray         # [C x D]
    covariances: np.ndarray   # [C x D x D], PSD

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mixture_mean(self) -> np.ndarray:
        return self.weights @ self.means

    def mixture_covariance(self) -> np.ndarray:
        """Law-of-total-variance covariance of the mixture."""
        mu = self.mixture_mean()
        cov = np.zeros((self.dim, self.dim))
        for w, m, c in zip(self.weights, self.means, self.covariances):
            d = m - mu
            cov += w * (c + np.outer(d, d))
        return cov


def make_task(n_conditions: int, dim: int, seed: int, between_scale: float = 1.5,
              within_scale: float = 0.6, noise_variance: float = 0.1,
              anisotropic: bool = False) -> list[ConditionSpec]:
    """Draw a family of 2-component mixtures from a master seed.

    Component means sit at base +- offset; base locations control how far
    apart conditions are, offsets control within-condition bimodality.
    """
    rng = SeededRng(seed)
    bases = rng.standard_normal(n_conditions, dim) * between_scale
    offsets = rng.standard_normal(n_conditions, dim) * within_scale
    weights = 0.35 + 0.3 * rng.uniform(n_conditions)
    if anisotropic:
        variances = 0.02 + 0.23 * rng.uniform(n_conditions * 2 * dim).reshape(
            n_conditions, 2, dim)
    else:
        variances = np.full((n_conditions, 2, dim), noise_variance)
    specs = []
    for label in range(n_conditions):
        means = np.stack([bases[label] + offsets[label], bases[label] - offsets[label]])
        covs = np.stack([np.diag(variances[label, 0]), np.diag(variances[label, 1])])
        specs.append(ConditionSpec(
            label=label,
            weights=np.array([weights[label], 1.0 - weights[label]]),
            means=means,
            covariances=covs,
        ))
    return specs


def default_task() -> list[ConditionSpec]:
    """The K = 8, D = 8 benchmark task; constant across calls."""
    return make_task(DEFAULT_CONDITIONS, DEFAULT_DIM, DEFAULT_TASK_SEED)


def ground_truth_sample(spec: ConditionSpec, n: int, rng: SeededRng) -> np.ndarray:
    """n i.i.d. draws from the condition's mixture."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    cum = np.cumsum(spec.weights)
    comp = np.searchsorted(cum, rng.uniform(n), side="right")
    comp = np.minimum(comp, len(spec.weights) - 1)
    z = rng.standard_normal(n, spec.dim)
    roots = [np.linalg.cholesky(c) for c in spec.covariances]
    out = np.empty((n, spec.dim))
    for c_idx, root in enumerate(roots):
        rows = comp == c_idx
        out[rows] = spec.means[c_idx] + z[rows] @ root.T
    return out


@dataclass
class Dataset:
    """Labeled samples with a deterministic train/val/test split.

    ``access_log`` records every split handed out, which lets the training
    driver assert that the test split stays untouched until training ends.
    """

    samples: np.ndarray   # [N x D]
    labels: np.ndarray    # [N] int
    split_tags: np.ndarray  # [N] of "train" / "val" / "test"
    seed: int
    access_log: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def split(self, name: str):
        """(samples, labels) for one split; the access is logged."""
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}, expected one of {SPLIT_NAMES}")
        self.access_log.append(name)
        rows = self.split_tags == name
        return self.samples[rows], self.labels[rows]


def generate_dataset(specs: list[ConditionSpec], n_per_condition: int,
                     seed: int) -> Dataset:
    """Draw ``n_per_condition`` samples per condition and split 80/10/10.

    Splitting is per condition, so every label appears in every split.
    """
    if n_per_condition < 10:
        raise ConfigError(
            f"need n_per_condition >= 10 for nonempty splits, got {n_per_condition}")
    rng = SeededRng(seed)
    n_train = int(n_per_condition * _SPLIT_FRACTIONS[0])
    n_val = int(n_per_condition * _SPLIT_FRACTIONS[1])
    all_samples, all_labels, all_tags = [], [], []
    for spec in specs:
        draws = ground_truth_sample(spec, n_per_condition, rng.derive("samples", spec.label))
        order = np.argsort(rng.derive("split", spec.label).uniform(n_per_condition),
                           kind="stable")
        tags = np.empty(n_per_condition, dtype=object)
        tags[order[:n_train]] = "train"
        tags[order[n_train:n_train + n_val]] = "val"
        tags[order[n_train + n_val:]] = "test"
        all_samples.append(draws)
        all_labels.append(np.full(n_per_condition, spec.label, dtype=np.int64))
        all_tags.append(tags)
    return Dataset(
        samples=np.concatenate(all_samples),
        labels=np.concatenate(all_labels),
        split_tags=np.concatenate(all_tags),
        seed=seed,
    )

