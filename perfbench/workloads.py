"""The benchmark's workloads: matched train() runs plus a few-step sweep.

A workload names one objective. Set-up builds the default task, its
embedding space and noise schedule, and trains the checkpoint the sweep
uses. The timed part then repeats one *cycle* until the time budget is
spent:

1. one matched ``train()`` run of the objective on a freshly generated
   dataset (every-epoch validation and the full post-training test sweep);
2. one few-step sweep pass over the set-up checkpoint: for the step counts
   of the objective's default range, ``make_sampler_invocation`` +
   ``measure_latency`` at batch 32 in round-robin rounds, then one
   ``evaluate`` per step count, as ``pareto_sweep`` does.

Every operation (one train() run, one ``measure_latency`` call, one sweep
``evaluate``) checks its outputs. It counts as failed, never crashing the
harness, when a check fails or the library raises. Load is closed-loop: one
caller in one process, each call issued after the previous one returned.
"""

import dataclasses
import hashlib
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np
from priorbench import bench, data, evaluation, metrics, network, objectives, training
from priorbench.errors import PriorBenchError
from priorbench.rng import SeededRng

import spans

WORKLOADS = ("flow", "diffusion")

# (name, unit, better, bound): the end-to-end metrics, reported on every workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("val_s", "s", "lower", 0.25),
    ("test_sweep_s", "s", "lower", 0.25),
    ("epoch_ms_p50", "ms", "lower", 0.25),
    ("epoch_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("sweep_s", "s", "lower", 0.25),
    ("s4_ms_p50", "ms", "lower", 0.25),
    ("s4_ms_p90", "ms", "lower", 0.25),
    ("step_ms", "ms", "lower", 0.25),
)

# (name, unit): per-layer metrics of the traced run, each per cycle.
PER_LAYER = (
    ("rng.words", "count"), ("rng.normal.calls", "count"), ("rng.normal.s", "s"),
    ("rng.derive.calls", "count"), ("rng.derive.s", "s"),
    ("network.forward.b32.calls", "count"), ("network.forward.b32.s", "s"),
    ("network.forward.b50.calls", "count"), ("network.forward.b50.s", "s"),
    ("network.forward.b1024.calls", "count"), ("network.forward.b1024.s", "s"),
    ("network.backward.calls", "count"), ("network.backward.s", "s"),
    ("network.adamw.steps", "count"), ("network.adamw.s", "s"),
    ("network.save_checkpoint.calls", "count"),
    ("network.save_checkpoint.bytes", "B"), ("network.save_checkpoint.s", "s"),
    ("network.load_checkpoint.calls", "count"), ("network.load_checkpoint.s", "s"),
    ("objectives.loss.calls", "count"), ("objectives.loss.self_s", "s"),
    ("samplers.ancestral.steps", "count"), ("samplers.ancestral.self_s", "s"),
    ("samplers.euler.steps", "count"), ("samplers.euler.self_s", "s"),
    ("evaluation.evaluate.calls", "count"), ("evaluation.evaluate.self_s", "s"),
    ("metrics.fid.calls", "count"), ("metrics.fid.self_s", "s"),
    ("metrics.r_precision.s", "s"), ("metrics.diversity.s", "s"),
    ("metrics.multimodality.s", "s"),
    ("linalg.jacobi_eigh.calls", "count"), ("linalg.jacobi_eigh.s", "s"),
    ("linalg.estimate_moments.s", "s"),
    ("data.generate_dataset.s", "s"), ("data.split.calls", "count"),
    ("training.train.self_s", "s"),
    ("bench.measure_latency.iterations", "count"), ("bench.measure_latency.self_s", "s"),
    ("share.train.step_path", "ratio"), ("share.train.evaluate", "ratio"),
    ("share.evaluate.sampler", "ratio"),
    ("trace.run_s", "s"), ("trace.base_run_s", "s"), ("trace.overhead_ratio", "ratio"),
)

PROBE_STEPS = 4   # in both default step ranges
# The sweep checkpoint only has to exist; a small evaluation keeps set-up short
# and does not change the checkpoint (evaluation draws from its own RNG keys).
SETUP_EVAL = evaluation.EvalSettings(n_generate=64, diffusion_steps=2, flow_steps=2,
                                     diversity_pairs=8, multimodality_reps=2)


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``FULL`` is the benchmark, tests use smaller ones."""

    epochs: int = 8                # per matched train() run; the peak FID settles by then
    n_per_condition: int = 1000    # the default task's dataset size
    setup_epochs: int = 1          # behind each sweep checkpoint
    setup_repeats: int = 3         # setup_s is the median
    latency_rounds: int = 5        # round-robin passes over the step counts per sweep
    latency_warmup: int = 2        # per measure_latency call
    latency_timed: int = 20        # per measure_latency call
    eval: evaluation.EvalSettings = dataclasses.field(default_factory=evaluation.EvalSettings)
    flow_steps: tuple = bench.FLOW_STEP_RANGE
    diffusion_steps: tuple = bench.DIFFUSION_STEP_RANGE

    def steps(self, objective):
        return self.flow_steps if objective == "flow" else self.diffusion_steps


FULL = Scale()


class CheckFailed(Exception):
    """An operation's output is wrong: non-finite, miscounted or not repeatable."""


def _check(condition, message):
    if not condition:
        raise CheckFailed(message)


def _check_finite(values, what):
    _check(np.all(np.isfinite(np.asarray(values, dtype=np.float64))), f"{what}: non-finite value")


class Operations:
    """Attempted/failed counts; a failing operation is logged, not raised."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def attempt(self, label, fn):
        self.attempted += 1
        try:
            return fn()
        except (PriorBenchError, CheckFailed) as exc:
            self.failed += 1
            self.log(f"# failed {label}: {type(exc).__name__}: {exc}")
        except Exception:   # a harness must report every failure and keep going
            self.failed += 1
            self.log(f"# failed {label}:\n" + traceback.format_exc())
        return None


@dataclasses.dataclass
class Context:
    objective: str
    seed: int
    scale: Scale
    work_dir: str
    specs: list = None
    space: metrics.EmbeddingSpace = None
    schedule: objectives.NoiseSchedule = None
    sweep_net: network.PriorNetwork = None
    sweep_ref: tuple = None          # test split (samples, labels)
    checkpoint_sha: str = ""


def set_up(ctx):
    """Task, embedding space, schedule, dataset and the sweep checkpoint."""
    ctx.specs = data.default_task()
    ctx.space = metrics.EmbeddingSpace.for_task(ctx.specs)
    ctx.schedule = objectives.build_scaled_linear_schedule()
    dataset = data.generate_dataset(ctx.specs, ctx.scale.n_per_condition, ctx.seed)
    run_dir = os.path.join(ctx.work_dir, "setup")
    shutil.rmtree(run_dir, ignore_errors=True)
    config = training.TrainConfig(objective=ctx.objective, epochs=ctx.scale.setup_epochs,
                                  seed=ctx.seed, eval=SETUP_EVAL)
    record = training.train(ctx.specs, dataset, config, run_dir, space=ctx.space)
    path = record.checkpoint_paths[-1]
    ctx.sweep_net, _ = network.load_checkpoint(path)
    with open(path, "rb") as fh:
        ctx.checkpoint_sha = hashlib.sha256(fh.read()).hexdigest()
    ctx.sweep_ref = dataset.split("test")


@dataclasses.dataclass
class TrainResult:
    run_s: float
    train_s: float
    val_s: float
    test_sweep_s: float
    epoch_seconds: list
    peak_test_fid: float
    log_bytes: bytes


def train_once(ctx, index, phase):
    """One matched train() run; ``phase`` times its evaluate() calls."""
    scale = ctx.scale
    # train() audits that the test split is untouched, so each run gets a fresh dataset.
    dataset = data.generate_dataset(ctx.specs, scale.n_per_condition, ctx.seed)
    run_dir = os.path.join(ctx.work_dir, f"train-{index}")
    config = training.TrainConfig(objective=ctx.objective, epochs=scale.epochs,
                                  seed=ctx.seed, eval=scale.eval)
    first_span = len(phase.spans)
    t0 = time.perf_counter()
    record = training.train(ctx.specs, dataset, config, run_dir, space=ctx.space)
    run_s = time.perf_counter() - t0
    try:
        with open(os.path.join(run_dir, training.EPOCH_LOG_NAME), "rb") as fh:
            log_bytes = fh.read()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    e = scale.epochs
    lines = log_bytes.decode().splitlines()
    _check(lines[0] == training.EPOCH_LOG_HEADER, "epoch_log.csv: wrong header")
    _check(len(lines) == e + 1, f"epoch_log.csv: {len(lines) - 1} rows, expected {e}")
    _check(all(len(line.split(",")) == 9 for line in lines[1:]), "epoch_log.csv: ragged row")
    _check_finite([float(v) for line in lines[1:] for v in line.split(",")], "epoch_log.csv")
    _check(len(record.epoch_seconds) == e and len(record.test_metrics) == e,
           "run record: wrong epoch or test-sweep count")
    _check_finite([m.as_row() for m in record.test_metrics], "test sweep")

    evals = [s for s in phase.spans[first_span:] if s[0] == "evaluation.evaluate"]
    _check(len(evals) == 2 * e, f"{len(evals)} evaluate calls, expected {2 * e}")
    val_s = sum(end - start for _, start, end, _ in evals[:e])
    epochs_s = sum(record.epoch_seconds)
    return TrainResult(run_s=run_s, train_s=epochs_s - val_s, val_s=val_s,
                       test_sweep_s=run_s - epochs_s, epoch_seconds=list(record.epoch_seconds),
                       peak_test_fid=record.peak_test.fid, log_bytes=log_bytes)


def _sweep_rng(ctx):
    return SeededRng(ctx.seed).derive("sweep", ctx.objective)


def sampler_invocation(ctx, steps):
    """The batch-32 sampler call that ``measure_latency`` times at ``steps``."""
    batch_labels = np.resize(ctx.sweep_ref[1], bench.LATENCY_BATCH)
    return bench.make_sampler_invocation(ctx.sweep_net, ctx.objective, steps, batch_labels,
                                         ctx.space, _sweep_rng(ctx).derive("latency", steps),
                                         schedule=ctx.schedule)


def latency_samples(ctx, invoke):
    """One checked ``measure_latency`` call; returns its per-iteration ms."""
    scale = ctx.scale
    protocol = bench.LatencyProtocol(warmup=scale.latency_warmup, timed=scale.latency_timed)
    latency = bench.measure_latency(invoke, protocol)
    _check(len(latency.per_iteration_ms) == scale.latency_timed, "latency: wrong sample count")
    _check(all(ms > 0.0 for ms in latency.per_iteration_ms), "latency: non-positive sample")
    out = invoke()
    _check(out.shape == (bench.LATENCY_BATCH, ctx.sweep_net.d_latent),
           f"sampler output shape {out.shape}")
    _check_finite(out, "sampler output")
    return latency.per_iteration_ms


def quality_row(ctx, steps):
    """One ``evaluate`` of the sweep checkpoint at ``steps``, as ``pareto_sweep`` runs it."""
    settings = dataclasses.replace(ctx.scale.eval, diffusion_steps=steps, flow_steps=steps)
    ref_x, ref_labels = ctx.sweep_ref
    bundle = evaluation.evaluate(ctx.sweep_net, ctx.objective, ctx.space, ref_x, ref_labels,
                                 _sweep_rng(ctx).derive("quality", steps), settings=settings,
                                 schedule=ctx.schedule)
    _check_finite(bundle.as_row(), "sweep quality")
    return tuple(bundle.as_row())


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Run:
    """State of one benchmark invocation: set-up, cycles and their results."""

    def __init__(self, objective, seed, seconds, scale, work_dir, log=print,
                 fid_expectation=None):
        self.ctx = Context(objective=objective, seed=seed, scale=scale, work_dir=work_dir)
        self.seconds = seconds
        self.log = log
        self.fid_expectation = fid_expectation   # (reference, relative tolerance) or None
        self.ops = Operations(log)
        self.setup_s = []
        self.trains = {False: [], True: []}      # keyed by "traced"
        self.sweep_walls = []
        self.latency = {}                        # steps -> pooled ms samples
        self.quality = {}                        # steps -> first pass's quality row
        self.first_output = None                 # (epoch_log.csv bytes, peak test FID)
        self.tracer = spans.Tracer()
        self.traced_cycles = 0

    # -- set-up ---------------------------------------------------------------
    def set_up(self):
        shas = set()
        for _ in range(self.ctx.scale.setup_repeats):
            t0 = time.perf_counter()
            set_up(self.ctx)
            self.setup_s.append(time.perf_counter() - t0)
            shas.add(self.ctx.checkpoint_sha)
        if len(shas) != 1:
            raise CheckFailed("set-up wrote different checkpoint bytes on repeat")

    # -- one cycle --------------------------------------------------------------
    def _train(self, index, traced):
        phase = self.tracer if traced else spans.Tracer()
        if traced:
            result = train_once(self.ctx, index, phase)
        else:
            with spans.installed(phase, spans.PHASE_POINTS):
                result = train_once(self.ctx, index, phase)
        output = (result.log_bytes, result.peak_test_fid)
        if self.first_output is None:
            self.first_output = output
        _check(output[0] == self.first_output[0],
               "epoch_log.csv differs from the first run of this seed")
        _check(output[1] == self.first_output[1],
               "peak_test_fid differs from the first run of this seed")
        if self.fid_expectation is not None:
            ref, tol = self.fid_expectation
            _check(abs(result.peak_test_fid / ref - 1.0) <= tol,
                   f"peak_test_fid {result.peak_test_fid:.4f} outside {ref} +- {tol:.0%}")
        self.trains[traced].append(result)

    def _latency(self, invocations, steps):
        if steps not in invocations:
            invocations[steps] = sampler_invocation(self.ctx, steps)
        self.latency.setdefault(steps, []).extend(latency_samples(self.ctx, invocations[steps]))

    def _quality(self, steps):
        row = quality_row(self.ctx, steps)
        first = self.quality.setdefault(steps, row)
        _check(row == first, f"sweep quality at {steps} steps differs from the first pass")

    def cycle(self, index, traced):
        self.ops.attempt(f"train run {index}", lambda: self._train(index, traced))
        t0 = time.perf_counter()
        steps = self.ctx.scale.steps(self.ctx.objective)
        invocations = {}
        # Round-robin over the step counts, so a slow spell of the machine lands
        # on every step count alike instead of skewing the per-step slope.
        for r in range(self.ctx.scale.latency_rounds):
            for s in steps:
                self.ops.attempt(f"latency at {s} steps (cycle {index}, round {r})",
                                 lambda s=s: self._latency(invocations, s))
        for s in steps:
            self.ops.attempt(f"evaluate at {s} steps (cycle {index})",
                             lambda s=s: self._quality(s))
        if not traced:
            self.sweep_walls.append(time.perf_counter() - t0)

    def measure(self, trace):
        """Repeat cycles for ``seconds``; with ``trace`` odd cycles are traced."""
        start = time.perf_counter()
        index = 0
        while index < (2 if trace else 1) or time.perf_counter() - start < self.seconds:
            traced = trace and index % 2 == 1
            if traced:
                with spans.installed(self.tracer):
                    self.tracer.call("cycle", self.cycle, index, traced)
                self.traced_cycles += 1
            else:
                self.cycle(index, traced)
            index += 1

    # -- results ----------------------------------------------------------------
    def end_to_end(self, import_s):
        runs = self.trains[False]
        medians = {s: statistics.median(v) for s, v in self.latency.items()}
        _check(runs and PROBE_STEPS in medians and len(medians) >= 2,
               "no complete train run and sweep to report")
        epochs_ms = [1e3 * s for r in runs for s in r.epoch_seconds]
        points = [bench.ParetoPoint(self.ctx.objective, s, ms, None)
                  for s, ms in sorted(medians.items())]
        values = {
            "setup_s": import_s + statistics.median(self.setup_s),
            "run_s": statistics.median(r.run_s for r in runs),
            "train_s": statistics.median(r.train_s for r in runs),
            "val_s": statistics.median(r.val_s for r in runs),
            "test_sweep_s": statistics.median(r.test_sweep_s for r in runs),
            "epoch_ms_p50": _percentile(epochs_ms, 50),
            "epoch_ms_p90": _percentile(epochs_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sweep_s": statistics.median(self.sweep_walls),
            "s4_ms_p50": _percentile(self.latency[PROBE_STEPS], 50),
            "s4_ms_p90": _percentile(self.latency[PROBE_STEPS], 90),
            "step_ms": bench.per_step_cost(points)[self.ctx.objective],
        }
        self.log(f"# quality peak_test_fid {runs[0].peak_test_fid!r} at epoch-count "
                 f"{self.ctx.scale.epochs}, identical in all {len(runs)} runs")
        self.log("# setup_s " + " ".join(f"{s:.3f}" for s in self.setup_s)
                 + f" import_s {import_s:.3f}")
        self.log("# cycles run_s " + " ".join(f"{r.run_s:.3f}" for r in runs)
                 + " sweep_s " + " ".join(f"{s:.3f}" for s in self.sweep_walls))
        self.log("# samples " + " ".join([
            f"train_runs={len(runs)}", f"epochs={len(epochs_ms)}",
            f"sweep_passes={len(self.sweep_walls)}",
            f"s4_latency={len(self.latency[PROBE_STEPS])}", f"setups={len(self.setup_s)}"]))
        return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    def per_layer(self):
        _check(self.traced_cycles and self.trains[True] and self.trains[False],
               "no traced and untraced cycle pair to report")
        overall, within = spans.totals(self.tracer.spans)
        counts = self.tracer.counts
        n = self.traced_cycles
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

        def get(name, field, table=overall):
            return table.get(name, zero)[field]

        values = {"rng.words": counts["rng.words"],
                  "network.save_checkpoint.bytes": counts["network.save_checkpoint.bytes"],
                  "samplers.ancestral.steps": counts["samplers.ancestral.steps"],
                  "samplers.euler.steps": counts["samplers.euler.steps"],
                  "bench.measure_latency.iterations": counts["bench.measure_latency.iterations"],
                  "network.adamw.steps": get("network.adamw", "calls")}
        for metric, _ in PER_LAYER:
            if metric not in values and not metric.startswith(("share.", "trace.")):
                span, _, field = metric.rpartition(".")
                values[metric] = get(span, field)
        values = {name: v / n for name, v in values.items()}

        train_s = get("training.train", "s", within)
        eval_s = get("evaluation.evaluate", "s", within)
        values["share.train.step_path"] = (
            get("objectives.loss", "s", within) + get("network.adamw", "s", within)) / train_s
        values["share.train.evaluate"] = eval_s / train_s
        values["share.evaluate.sampler"] = (
            get("samplers.ancestral", "s", within) + get("samplers.euler", "s", within)) / eval_s
        traced = statistics.median(r.run_s for r in self.trains[True])
        base = statistics.median(r.run_s for r in self.trains[False])
        values["trace.run_s"] = traced
        values["trace.base_run_s"] = base
        values["trace.overhead_ratio"] = (traced - base) / base
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def result(self, trace, import_s):
        """The final JSON object; metrics is None when nothing could be reported."""
        try:
            metrics_ = self.per_layer() if trace else self.end_to_end(import_s)
        except CheckFailed as exc:
            self.log(f"# no metrics: {exc}")
            metrics_ = None
        return {"correct": self.ops.failed == 0 and metrics_ is not None,
                "attempted": self.ops.attempted, "failed": self.ops.failed,
                "metrics": metrics_}


def check_predictions(layer_metrics, predictions):
    """[(metric, minimum, measured, ok)] for each predicted share floor."""
    out = []
    for metric, floor in predictions.items():
        measured = layer_metrics[metric]["value"]
        out.append((metric, floor, measured, measured >= floor))
    return out
