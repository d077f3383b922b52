"""In-memory span tracing of priorbench's public functions.

Spans are recorded from the benchmark's side: each traced name is replaced,
at the point where its caller looks it up, by a wrapper that opens a span,
calls the original, and closes the span. Functions imported with
``from .x import y`` are replaced in the importing module; methods are
replaced on their class. ``installed`` restores every original on exit.

Every layer runs in one thread, so spans nest strictly: a span's parent is
the span open when it started, and children never overlap each other.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, _clock(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _clock()
            self._open.pop()

    def write_jsonl(self, path):
        """One JSON object per span, then one holding the counters."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# --- wrapper factories --------------------------------------------------------
# Each takes (tracer, original) and returns the replacement.

def _span(name, counter=None, amount=None):
    """Plain span; with ``counter``, also adds ``amount(bound arguments)`` to it."""
    def factory(tracer, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += amount(signature.bind(*args, **kwargs).arguments)
            return tracer.call(name, original, *args, **kwargs)
        return wrapped
    return factory


def _forward(tracer, original):
    @functools.wraps(original)
    def wrapped(self, x_t, *args, **kwargs):
        return tracer.call(f"network.forward.b{len(x_t)}", original,
                           self, x_t, *args, **kwargs)
    return wrapped


def _raw_u64(tracer, original):
    @functools.wraps(original)
    def wrapped(self, n):
        tracer.counts["rng.words"] += int(n)
        return original(self, n)
    return wrapped


def _save_checkpoint(tracer, original):
    @functools.wraps(original)
    def wrapped(path, *args, **kwargs):
        out = tracer.call("network.save_checkpoint", original, path, *args, **kwargs)
        tracer.counts["network.save_checkpoint.bytes"] += os.path.getsize(path)
        return out
    return wrapped


_ANCESTRAL = _span("samplers.ancestral", "samplers.ancestral.steps",
                   lambda a: a["steps"].count)
_EULER = _span("samplers.euler", "samplers.euler.steps", lambda a: a["count"])
_MEASURE_LATENCY = _span("bench.measure_latency", "bench.measure_latency.iterations",
                         lambda a: a["protocol"].warmup + a["protocol"].timed)

# (module or class path, attribute, wrapper factory)
POINTS = (
    ("priorbench.rng:SeededRng", "raw_u64", _raw_u64),
    ("priorbench.rng:SeededRng", "standard_normal", _span("rng.normal")),
    ("priorbench.rng:SeededRng", "derive", _span("rng.derive")),
    ("priorbench.network:PriorNetwork", "forward_cached", _forward),
    ("priorbench.network:PriorNetwork", "backward", _span("network.backward")),
    ("priorbench.network:AdamW", "step", _span("network.adamw")),
    ("priorbench.training", "save_checkpoint", _save_checkpoint),
    ("priorbench.training", "load_checkpoint", _span("network.load_checkpoint")),
    ("priorbench.training", "flow_loss", _span("objectives.loss")),
    ("priorbench.training", "diffusion_loss", _span("objectives.loss")),
    ("priorbench.training", "evaluate", _span("evaluation.evaluate")),
    ("priorbench.training", "train", _span("training.train")),
    ("priorbench.evaluation", "evaluate", _span("evaluation.evaluate")),
    ("priorbench.evaluation", "ddpm_ancestral_sample", _ANCESTRAL),
    ("priorbench.evaluation", "euler_integrate", _EULER),
    ("priorbench.evaluation", "fid", _span("metrics.fid")),
    ("priorbench.evaluation", "r_precision", _span("metrics.r_precision")),
    ("priorbench.evaluation", "diversity", _span("metrics.diversity")),
    ("priorbench.evaluation", "multimodality", _span("metrics.multimodality")),
    ("priorbench.metrics", "estimate_moments", _span("linalg.estimate_moments")),
    ("priorbench.metrics", "jacobi_eigh", _span("linalg.jacobi_eigh")),
    ("priorbench.linalg", "jacobi_eigh", _span("linalg.jacobi_eigh")),
    ("priorbench.bench", "ddpm_ancestral_sample", _ANCESTRAL),
    ("priorbench.bench", "euler_integrate", _EULER),
    ("priorbench.bench", "measure_latency", _MEASURE_LATENCY),
    ("priorbench.data", "generate_dataset", _span("data.generate_dataset")),
    ("priorbench.data:Dataset", "split", _span("data.split")),
)

# The one point the untraced run keeps: it splits train() into its phases.
PHASE_POINTS = (("priorbench.training", "evaluate", _span("evaluation.evaluate")),)


def _resolve(path):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def installed(tracer, points=POINTS):
    """Replace every point with its traced wrapper; restore on exit."""
    saved = []
    try:
        for path, attr, factory in points:
            owner = _resolve(path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- aggregation --------------------------------------------------------------

def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def totals(spans):
    """name -> {"calls", "s", "self_s"}, plus the same under each train() span.

    Returns (overall, within_train) where ``within_train`` counts only spans
    that descend from a ``training.train`` span.
    """
    selfs = self_times(spans)
    under_train = [False] * len(spans)
    overall = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    within = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        under_train[i] = name == "training.train" or (parent >= 0 and under_train[parent])
        for table in (overall, within) if under_train[i] else (overall,):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += selfs[i]
    return overall, within
