"""Synthetic conditional mixture tasks and the split plumbing."""

import numpy as np
import pytest

from priorbench.data import (default_task, generate_dataset,
                             ground_truth_sample, make_task)
from priorbench.errors import ConfigError
from priorbench.rng import SeededRng


def test_default_task_shape():
    specs = default_task()
    assert len(specs) == 8
    for i, s in enumerate(specs):
        assert s.label == i
        assert s.dim == 8
        assert s.means.shape == (2, 8)
        assert s.covariances.shape == (2, 8, 8)
        assert abs(s.weights.sum() - 1.0) < 1e-12
        assert np.all((s.weights >= 0.35) & (s.weights <= 0.65))


def test_make_task_reproducible():
    a = make_task(4, 6, seed=42)
    b = make_task(4, 6, seed=42)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.means, sb.means)
        np.testing.assert_array_equal(sa.weights, sb.weights)
    c = make_task(4, 6, seed=43)
    assert not np.array_equal(a[0].means, c[0].means)


def test_mixture_moments_against_empirical():
    spec = make_task(3, 4, seed=11)[1]
    draws = ground_truth_sample(spec, 60000, SeededRng(99))
    np.testing.assert_allclose(draws.mean(axis=0), spec.mixture_mean(), atol=0.02)
    emp_cov = np.cov(draws.T)
    np.testing.assert_allclose(emp_cov, spec.mixture_covariance(), atol=0.05)


def test_mixture_covariance_law_of_total_variance():
    spec = make_task(2, 3, seed=5)[0]
    w, mus, covs = spec.weights, spec.means, spec.covariances
    mix_mean = w @ mus
    expected = sum(w[c] * (covs[c] + np.outer(mus[c] - mix_mean, mus[c] - mix_mean))
                   for c in range(2))
    np.testing.assert_allclose(spec.mixture_covariance(), expected, atol=1e-12)


def test_split_sizes_and_disjointness():
    specs = make_task(4, 3, seed=1)
    ds = generate_dataset(specs, 100, seed=2)
    tags = ds.split_tags
    assert np.sum(tags == "train") == 320
    assert np.sum(tags == "val") == 40
    assert np.sum(tags == "test") == 40
    assert sorted(np.unique(tags)) == ["test", "train", "val"]
    assert len(tags) == 400
    # per-condition ratios hold exactly
    for label in range(4):
        mask = ds.labels == label
        assert np.sum((tags == "train") & mask) == 80
        assert np.sum((tags == "val") & mask) == 10
        assert np.sum((tags == "test") & mask) == 10


def test_dataset_deterministic_per_seed():
    specs = make_task(3, 3, seed=4)
    a = generate_dataset(specs, 50, seed=9)
    b = generate_dataset(specs, 50, seed=9)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.split_tags, b.split_tags)
    c = generate_dataset(specs, 50, seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_dataset_rejects_tiny_condition_counts():
    specs = make_task(2, 2, seed=0)
    with pytest.raises(ConfigError):
        generate_dataset(specs, 5, seed=0)


def test_split_access_is_logged():
    specs = make_task(2, 2, seed=3)
    ds = generate_dataset(specs, 20, seed=3)
    assert ds.access_log == []
    ds.split("train")
    ds.split("val")
    ds.split("train")
    assert ds.access_log == ["train", "val", "train"]
    with pytest.raises(ValueError):
        ds.split("bogus")


def test_split_returns_matching_rows():
    specs = make_task(3, 2, seed=8)
    ds = generate_dataset(specs, 30, seed=8)
    x, labels = ds.split("val")
    assert x.shape == (9, 2)
    assert labels.shape == (9,)
    mask = ds.split_tags == "val"
    np.testing.assert_array_equal(x, ds.samples[mask])
    np.testing.assert_array_equal(labels, ds.labels[mask])
