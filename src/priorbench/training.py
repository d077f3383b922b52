"""Matched-conditions training driver.

Both objectives share the epoch loop, the data order, the optimizer, and the
evaluation protocol; only the loss function and the native sampler differ.
The shuffle stream is keyed by (seed, epoch) alone so seed-matched diffusion
and flow runs consume identical batches.
"""

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, ProtocolError
from .evaluation import OBJECTIVES, EvalSettings, evaluate
from .metrics import EmbeddingSpace, MetricBundle
from .network import (DEFAULT_HIDDEN, DEFAULT_TIME_BASE, DEFAULT_TIME_DIM, AdamW,
                      PriorNetwork, load_checkpoint, save_checkpoint)
from .objectives import (DEFAULT_BETA_END, DEFAULT_BETA_START,
                         DEFAULT_SCHEDULE_STEPS, build_scaled_linear_schedule,
                         diffusion_loss, flow_loss)
from .rng import SeededRng

EPOCH_LOG_NAME = "epoch_log.csv"
EPOCH_LOG_HEADER = "epoch,loss,fid,r1,r2,r3,mm_dist,diversity,mmodality"

# Metric direction for peak selection; ties resolve to the earlier epoch.
_PEAK_DIRECTION = {
    "fid": "min", "matching_score": "min", "mm_dist": "min",
    "r1": "max", "r2": "max", "r3": "max",
    "diversity": "max", "multimodality": "max", "mmodality": "max",
}
_METRIC_FIELD = {"mm_dist": "matching_score", "mmodality": "multimodality"}


@dataclass
class TrainConfig:
    objective: str
    epochs: int = 200
    batch_size: int = 50
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 1
    schedule_steps: int = DEFAULT_SCHEDULE_STEPS
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END
    hidden: int = DEFAULT_HIDDEN
    d_time: int = DEFAULT_TIME_DIM
    time_base: float = DEFAULT_TIME_BASE
    eval: EvalSettings = field(default_factory=EvalSettings)

    def validate(self) -> None:
        """Messages name the INI key that sets each field."""
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"run.objective: unknown kind {self.objective!r}")
        if self.epochs < 0:
            raise ConfigError("training.epochs: must be >= 0")
        for key, value in (("training.batch_size", self.batch_size),
                           ("training.eval_every", self.eval_every),
                           ("schedule.steps", self.schedule_steps),
                           ("network.hidden", self.hidden)):
            if value < 1:
                raise ConfigError(f"{key}: must be >= 1")
        if self.d_time < 2 or self.d_time % 2 != 0:
            raise ConfigError(
                f"network.time_dim: must be a positive even number, got {self.d_time}")
        if self.lr <= 0.0:
            raise ConfigError(f"training.lr: must be positive, got {self.lr}")
        self.eval.validate()


@dataclass
class RunRecord:
    objective: str
    seed: int
    epoch_losses: list = field(default_factory=list)
    val_metrics: list = field(default_factory=list)      # MetricBundle per epoch
    epoch_seconds: list = field(default_factory=list)
    checkpoint_paths: list = field(default_factory=list)
    test_metrics: list = field(default_factory=list)     # sweep, after training
    peak_epochs: dict = field(default_factory=dict)      # metric name -> 1-based epoch
    peak_epoch: int = 0                                  # composite (lowest test FID)
    peak_test: MetricBundle = None

    @property
    def epochs_completed(self) -> int:
        return len(self.epoch_losses)


def select_peak_epoch(record: RunRecord, criterion: str) -> int:
    """1-based epoch of best test-split value for the named metric."""
    if criterion not in _PEAK_DIRECTION:
        raise ConfigError(f"unknown peak criterion {criterion!r}")
    if not record.test_metrics:
        raise ProtocolError("run record has no test sweep; cannot select a peak")
    attr = _METRIC_FIELD.get(criterion, criterion)
    values = np.array([getattr(m, attr) for m in record.test_metrics])
    if _PEAK_DIRECTION[criterion] == "min":
        return int(np.argmin(values)) + 1   # argmin takes the first (earlier) tie
    return int(np.argmax(values)) + 1


def _format_row(epoch: int, loss: float, m: MetricBundle) -> str:
    vals = [repr(float(v)) for v in [loss] + m.as_row()]
    return ",".join([str(epoch)] + vals)


def train(specs: list, dataset: Dataset, config: TrainConfig, run_dir: str,
          space: EmbeddingSpace = None) -> RunRecord:
    """Run the full protocol: train, validate each epoch, sweep checkpoints.

    Writes ``epoch-<n>.ckpt`` files and ``epoch_log.csv`` under ``run_dir``.
    The test split is only touched by the post-training sweep; an access
    audit enforces this before the sweep starts.
    """
    config.validate()
    os.makedirs(run_dir, exist_ok=True)
    if space is None:
        space = EmbeddingSpace.for_task(specs)
    root = SeededRng(config.seed)
    d_latent = specs[0].dim
    d_cond = space.cond_embeds.shape[1]
    net = PriorNetwork.initialized(d_latent, d_cond, root.derive("init"),
                                   hidden=config.hidden, d_time=config.d_time,
                                   time_base=config.time_base)
    opt = AdamW(lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                weight_decay=config.weight_decay)
    schedule = build_scaled_linear_schedule(
        config.schedule_steps, config.beta_start, config.beta_end)
    loss_fn = {"diffusion": partial(diffusion_loss, schedule=schedule),
               "flow": flow_loss}[config.objective]

    train_x, train_labels = dataset.split("train")
    val_x, val_labels = dataset.split("val")
    cond_table = space.cond_embeds
    record = RunRecord(objective=config.objective, seed=config.seed)
    log_path = os.path.join(run_dir, EPOCH_LOG_NAME)
    log = open(log_path, "w")
    log.write(EPOCH_LOG_HEADER + "\n")
    try:
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            perm = np.argsort(root.derive("shuffle", epoch).uniform(train_x.shape[0]))
            xs, cs = train_x[perm], cond_table[train_labels[perm]]
            losses = []
            for b, start in enumerate(range(0, xs.shape[0], config.batch_size)):
                xb = xs[start:start + config.batch_size]
                cb = cs[start:start + config.batch_size]
                report = loss_fn(xb, cb, net, rng=root.derive("loss", epoch, b))
                if not np.isfinite(report.value):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, batch {b}")
                try:
                    opt.step(net.flat, report.grad)
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"optimizer diverged at epoch {epoch}, batch {b}: {exc}") from exc
                losses.append(report.value)
            epoch_loss = float(np.mean(losses))
            record.epoch_losses.append(epoch_loss)

            ckpt = os.path.join(run_dir, f"epoch-{epoch}.ckpt")
            save_checkpoint(ckpt, net, {"objective": config.objective,
                                        "epoch": epoch, "seed": config.seed})
            record.checkpoint_paths.append(ckpt)

            if epoch % config.eval_every == 0 or epoch == config.epochs:
                bundle = evaluate(net, config.objective, space, val_x, val_labels,
                                  root.derive("val", epoch), settings=config.eval,
                                  schedule=schedule)
                record.val_metrics.append(bundle)
                log.write(_format_row(epoch, epoch_loss, bundle) + "\n")
            record.epoch_seconds.append(time.perf_counter() - t0)
    finally:
        log.close()

    if config.epochs == 0:
        return record

    # Test isolation audit: nothing may have touched the test split yet.
    if "test" in dataset.access_log:
        raise ProtocolError(
            "test split was accessed during training; audit trail: "
            f"{dataset.access_log}")
    test_x, test_labels = dataset.split("test")
    for path in record.checkpoint_paths:
        saved, meta = load_checkpoint(path)
        bundle = evaluate(saved, config.objective, space, test_x, test_labels,
                          root.derive("test", meta["epoch"]), settings=config.eval,
                          schedule=schedule)
        record.test_metrics.append(bundle)
    for name in ("fid", "r1", "r2", "r3", "mm_dist", "diversity", "mmodality"):
        record.peak_epochs[name] = select_peak_epoch(record, name)
    record.peak_epoch = record.peak_epochs["fid"]
    record.peak_test = record.test_metrics[record.peak_epoch - 1]
    return record
