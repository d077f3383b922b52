"""Checkpoint scoring: generation dispatch and metric assembly."""

import numpy as np
import pytest

from priorbench.data import generate_dataset, make_task
from priorbench.errors import ConfigError
from priorbench.evaluation import EvalSettings, evaluate, generate_latents
from priorbench.metrics import EmbeddingSpace
from priorbench.network import PriorNetwork
from priorbench.objectives import build_scaled_linear_schedule
from priorbench.rng import SeededRng


@pytest.fixture(scope="module")
def ctx():
    specs = make_task(4, 4, seed=77)
    space = EmbeddingSpace.for_task(specs)
    ds = generate_dataset(specs, 60, seed=78)
    net = PriorNetwork.initialized(4, 4, SeededRng(79), hidden=16, d_time=8)
    sched = build_scaled_linear_schedule(100, 1e-3, 2e-2)
    return specs, space, ds, net, sched


def test_generate_latents_dispatch(ctx):
    specs, space, ds, net, sched = ctx
    labels = np.array([0, 1, 2, 3, 0, 1])
    flow = generate_latents(net, "flow", labels, space.cond_embeds,
                            SeededRng(1), n_steps=4)
    assert flow.shape == (6, 4)
    diff = generate_latents(net, "diffusion", labels, space.cond_embeds,
                            SeededRng(1), schedule=sched, n_steps=5)
    assert diff.shape == (6, 4)
    with pytest.raises(ConfigError):
        generate_latents(net, "diffusion", labels, space.cond_embeds,
                         SeededRng(1), n_steps=5)  # schedule missing
    with pytest.raises(ConfigError):
        generate_latents(net, "vae", labels, space.cond_embeds, SeededRng(1),
                         n_steps=5)


def test_evaluate_bundle_finite_and_deterministic(ctx):
    specs, space, ds, net, sched = ctx
    val_x, val_labels = ds.split("val")
    settings = EvalSettings(n_generate=96, diffusion_steps=6, flow_steps=4,
                            diversity_pairs=50, multimodality_reps=5)
    for objective in ("flow", "diffusion"):
        a = evaluate(net, objective, space, val_x, val_labels, SeededRng(11),
                     settings=settings, schedule=sched)
        b = evaluate(net, objective, space, val_x, val_labels, SeededRng(11),
                     settings=settings, schedule=sched)
        assert a == b
        assert all(np.isfinite(v) for v in a.as_row())
        assert a.fid > 0.0  # untrained net is far from the data


def test_evaluate_validates_settings(ctx):
    specs, space, ds, net, sched = ctx
    val_x, val_labels = ds.split("val")
    with pytest.raises(ConfigError):
        evaluate(net, "flow", space, val_x, val_labels, SeededRng(0),
                 settings=EvalSettings(n_generate=0))


def test_eval_settings_defaults():
    s = EvalSettings()
    assert (s.n_generate, s.diffusion_steps, s.flow_steps) == (1024, 50, 10)
    s.validate()


def test_eval_settings_step_count_per_objective():
    s = EvalSettings(diffusion_steps=20, flow_steps=8)
    assert (s.steps_for("diffusion"), s.steps_for("flow")) == (20, 8)
    assert s.with_steps("flow", 3) == EvalSettings(diffusion_steps=20, flow_steps=3)
    assert s.with_steps("diffusion", 5) == EvalSettings(diffusion_steps=5, flow_steps=8)
    assert s.flow_steps == 8   # the original is left as it was
    for bad in (lambda: s.steps_for("vae"), lambda: s.with_steps("vae", 3)):
        with pytest.raises(ConfigError):
            bad()
