"""Evaluation metrics in a fixed joint embedding space.

The learned text-motion evaluator of the usual benchmark protocol is
replaced by an analytic stand-in: latents are projected by a fixed
orthonormal linear map, and each condition's embedding is the projection of
its mixture mean.  Every metric value is therefore auditable against closed
forms.  This substitution is deliberate and is flagged in reports.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ConditionSpec
from .errors import EvaluationError, ProtocolError
from .linalg import GaussianStats, estimate_moments, jacobi_eigh, psd_matrix_sqrt
from .rng import SeededRng

EMBEDDING_SEED = 0x10C4_7E17
R_PRECISION_CANDIDATES = 32
FID_CLAMP_WARN_MASS = 1e-6


@dataclass
class EmbeddingSpace:
    """Fixed affine joint space shared by motion and condition embeddings."""

    latent_map: np.ndarray    # [E x D], orthonormal rows
    offset: np.ndarray        # [E]
    cond_embeds: np.ndarray   # [K x E], pairwise distinct

    @property
    def dim(self) -> int:
        return self.latent_map.shape[0]

    @classmethod
    def for_task(cls, specs: list[ConditionSpec], seed: int = EMBEDDING_SEED) -> "EmbeddingSpace":
        """Orthonormal projection plus mixture-mean condition anchors."""
        d = specs[0].dim
        rows = _orthonormal_rows(d, d, SeededRng(seed))
        offset = np.zeros(d)
        cond = np.stack([rows @ s.mixture_mean() + offset for s in specs])
        dists = np.linalg.norm(cond[:, None, :] - cond[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() < 1e-6:
            raise EvaluationError("condition embeddings collapsed after projection")
        return cls(latent_map=rows, offset=offset, cond_embeds=cond)

    def embed(self, latents: np.ndarray) -> np.ndarray:
        latents = np.asarray(latents, dtype=np.float64)
        return latents @ self.latent_map.T + self.offset

    def condition_embedding(self, labels) -> np.ndarray:
        return self.cond_embeds[np.asarray(labels, dtype=np.int64)]


def _orthonormal_rows(n_rows: int, dim: int, rng: SeededRng) -> np.ndarray:
    """Gram-Schmidt on seeded Gaussian draws."""
    if n_rows > dim:
        raise ValueError(f"cannot build {n_rows} orthonormal rows in dimension {dim}")
    basis = np.empty((n_rows, dim))
    got = 0
    while got < n_rows:
        v = rng.standard_normal(dim)
        for u in basis[:got]:
            v = v - (v @ u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis[got] = v / norm
            got += 1
    return basis


@dataclass
class MetricBundle:
    """One evaluation pass: FID, R@1/2/3, MMDist, Diversity, MModality."""

    fid: float
    r1: float
    r2: float
    r3: float
    matching_score: float
    diversity: float
    multimodality: float

    def as_row(self) -> list:
        return [self.fid, self.r1, self.r2, self.r3, self.matching_score,
                self.diversity, self.multimodality]


def frechet_gaussian(a: GaussianStats, b: GaussianStats) -> float:
    """Frechet distance between two Gaussians from their exact moments.

    The cross term uses the symmetrized product sqrt(A) Sigma_b sqrt(A) so
    only symmetric PSD square roots are ever taken; slightly negative
    eigenvalues of the product are clamped, with a warning above a total
    clamped mass of 1e-6.
    """
    diff = a.mean - b.mean
    root_a = psd_matrix_sqrt(a.covariance)
    inner = root_a @ b.covariance @ root_a
    eig, _ = jacobi_eigh(0.5 * (inner + inner.T))
    clamped = float(-np.sum(eig[eig < 0.0]))
    if clamped > FID_CLAMP_WARN_MASS:
        warnings.warn(f"FID product matrix clamped {clamped:.2e} of negative eigenvalue mass")
    cross = float(np.sum(np.sqrt(np.clip(eig, 0.0, None))))
    return float(diff @ diff + np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * cross)


def fid(gen: np.ndarray, ref: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of two embedded sample sets."""
    gen = np.asarray(gen, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    for name, arr in (("generated", gen), ("reference", ref)):
        if arr.ndim != 2 or arr.shape[0] < arr.shape[1] + 1:
            raise EvaluationError(
                f"{name} set needs at least D+1 samples for a nondegenerate "
                f"covariance, got shape {arr.shape}")
    return frechet_gaussian(estimate_moments(gen), estimate_moments(ref))


def r_precision(gen_embeds: np.ndarray, true_labels: np.ndarray,
                cond_embeds: np.ndarray, rng: SeededRng):
    """Top-1/2/3 retrieval accuracy among 32 candidates per sample.

    Each sample's candidate list is its true condition embedding plus 31
    mismatches drawn uniformly (with replacement) from the other labels.
    """
    gen_embeds = np.asarray(gen_embeds, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    n = gen_embeds.shape[0]
    if n < R_PRECISION_CANDIDATES:
        raise ProtocolError(
            f"retrieval protocol needs >= {R_PRECISION_CANDIDATES} samples, got {n}")
    k = cond_embeds.shape[0]
    if k < 2:
        raise ProtocolError("retrieval needs at least 2 distinct conditions")
    n_mis = R_PRECISION_CANDIDATES - 1
    draws = rng.integers(n * n_mis, 0, k - 2).reshape(n, n_mis)
    mis_labels = draws + (draws >= true_labels[:, None])
    d_true = np.linalg.norm(gen_embeds - cond_embeds[true_labels], axis=1)
    d_mis = np.linalg.norm(gen_embeds[:, None, :] - cond_embeds[mis_labels], axis=2)
    rank = 1 + np.sum(d_mis < d_true[:, None], axis=1)
    return (float(np.mean(rank <= 1)), float(np.mean(rank <= 2)),
            float(np.mean(rank <= 3)))


def matching_score(gen_embeds: np.ndarray, paired_cond_embeds: np.ndarray) -> float:
    """Mean Euclidean distance between correctly paired embeddings."""
    gen_embeds = np.asarray(gen_embeds, dtype=np.float64)
    paired_cond_embeds = np.asarray(paired_cond_embeds, dtype=np.float64)
    if gen_embeds.shape != paired_cond_embeds.shape:
        raise ValueError(
            f"paired sets must match, got {gen_embeds.shape} vs {paired_cond_embeds.shape}")
    return float(np.mean(np.linalg.norm(gen_embeds - paired_cond_embeds, axis=1)))


def diversity(embeds: np.ndarray, n_pairs: int, rng: SeededRng) -> float:
    """Mean distance over random non-self index pairs."""
    embeds = np.asarray(embeds, dtype=np.float64)
    n = embeds.shape[0]
    if n < 2:
        raise ProtocolError(f"diversity needs >= 2 embeddings, got {n}")
    if n_pairs < 1:
        raise ProtocolError(f"diversity needs >= 1 pair, got {n_pairs}")
    first = rng.integers(n_pairs, 0, n - 1)
    second = rng.integers(n_pairs, 0, n - 2)
    second = second + (second >= first)
    return float(np.mean(np.linalg.norm(embeds[first] - embeds[second], axis=1)))


def multimodality(per_condition_embeds: dict, reps_per_condition: int) -> float:
    """Within-condition mean pairwise distance, averaged over conditions.

    Uses up to ``reps_per_condition`` embeddings per condition; every
    condition must contribute at least two.
    """
    if not per_condition_embeds:
        raise ProtocolError("multimodality needs at least one condition")
    per_cond = []
    for label, embeds in per_condition_embeds.items():
        embeds = np.asarray(embeds, dtype=np.float64)[:reps_per_condition]
        m = embeds.shape[0]
        if m < 2:
            raise ProtocolError(
                f"condition {label} has {m} generation(s); need >= 2")
        dists = np.linalg.norm(embeds[:, None, :] - embeds[None, :, :], axis=2)
        iu = np.triu_indices(m, k=1)
        per_cond.append(float(np.mean(dists[iu])))
    return float(np.mean(per_cond))


def ema_smooth(series, span: int = 5) -> np.ndarray:
    """Span-based exponential moving average, seeded at the first element."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise ValueError(f"need a nonempty 1-D series, got shape {series.shape}")
    alpha = 2.0 / (span + 1)
    out = np.empty_like(series)
    out[0] = series[0]
    for i in range(1, series.size):
        out[i] = alpha * series[i] + (1.0 - alpha) * out[i - 1]
    return out
