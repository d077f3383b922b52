"""Run configuration files and manifests.

Flat INI-style key-value text with sections, parsed by configparser.  Every
key has a default; a config file only states what it overrides.  Validation
failures name the offending field as ``section.key`` so CLI diagnostics stay
actionable.  A run's ``manifest.ini`` is written in the same schema, so it is
itself a valid config file.
"""

import configparser
import hashlib
import os
from dataclasses import dataclass, field
from operator import attrgetter

from .bench import LatencyProtocol
from .data import TaskSettings
from .errors import ConfigError
from .training import TrainConfig

RUN_ROOT_ENV = "PRIORBENCH_RUNS"
DEFAULT_RUN_ROOT = "runs"
MANIFEST_NAME = "manifest.ini"

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}

# Every INI key, as (section, key), and the RunConfig attribute it sets.  A
# key's type is the type of its attribute's default.
SCHEMA = {
    ("run", "id"): "run_id",
    ("run", "objective"): "training.objective",
    ("run", "seed"): "training.seed",
    ("task", "conditions"): "task.conditions",
    ("task", "dim"): "task.dim",
    ("task", "task_seed"): "task.task_seed",
    ("task", "anisotropic"): "task.anisotropic",
    ("task", "n_per_condition"): "task.n_per_condition",
    ("training", "epochs"): "training.epochs",
    ("training", "batch_size"): "training.batch_size",
    ("training", "lr"): "training.lr",
    ("training", "beta1"): "training.beta1",
    ("training", "beta2"): "training.beta2",
    ("training", "weight_decay"): "training.weight_decay",
    ("training", "eval_every"): "training.eval_every",
    ("schedule", "steps"): "training.schedule_steps",
    ("schedule", "beta_start"): "training.beta_start",
    ("schedule", "beta_end"): "training.beta_end",
    ("network", "hidden"): "training.hidden",
    ("network", "time_dim"): "training.d_time",
    ("network", "time_base"): "training.time_base",
    ("eval", "n_generate"): "training.eval.n_generate",
    ("eval", "diffusion_steps"): "training.eval.diffusion_steps",
    ("eval", "flow_steps"): "training.eval.flow_steps",
    ("eval", "diversity_pairs"): "training.eval.diversity_pairs",
    ("eval", "multimodality_reps"): "training.eval.multimodality_reps",
    ("latency", "batch_size"): "latency.batch_size",
    ("latency", "warmup"): "latency.warmup",
    ("latency", "timed"): "latency.timed",
    ("latency", "mode"): "latency.mode",
}

# Fields the ``train`` command's flags override, named by attribute.
_OVERRIDABLE = ("run_id", "objective", "seed", "epochs")

# Keys (``section.key`` prefixes) a config may change when it scores a
# checkpoint against the run manifest: how to evaluate, not what was trained.
_SCORING_KEYS = ("eval.", "latency.", "run.id")


@dataclass
class RunConfig:
    run_id: str = ""   # empty: callers derive one from objective and seed
    task: TaskSettings = field(default_factory=TaskSettings)
    training: TrainConfig = field(default_factory=lambda: TrainConfig(objective="flow"))
    latency: LatencyProtocol = field(default_factory=LatencyProtocol)

    @property
    def objective(self) -> str:
        return self.training.objective

    @property
    def seed(self) -> int:
        return self.training.seed

    def validate(self) -> None:
        self.task.validate()
        self.training.validate()
        self.latency.validate()


def _assign(cfg: RunConfig, attr: str, value) -> None:
    owner, _, name = attr.rpartition(".")
    setattr(attrgetter(owner)(cfg) if owner else cfg, name, value)


def _cast(name: str, raw: str, default):
    try:
        if isinstance(default, bool):
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _stated_keys(path: str):
    """(``section.key``, attribute, raw value) for every key the INI file at
    ``path`` states; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    sections = {section for section, _ in SCHEMA}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{section}: unknown config section")
        for key, raw in parser.items(section):
            attr = SCHEMA.get((section, key))
            if attr is None:
                raise ConfigError(f"{section}.{key}: unknown key")
            yield f"{section}.{key}", attr, raw


def _apply(cfg: RunConfig, path: str, locked: bool = False) -> None:
    """Set every key the file at ``path`` states.  With ``locked``, only
    ``_SCORING_KEYS`` may differ from ``cfg``; any other stated key must
    repeat its value."""
    for name, attr, raw in _stated_keys(path):
        current = attrgetter(attr)(cfg)
        value = _cast(name, raw, current)
        if locked and value != current and not name.startswith(_SCORING_KEYS):
            raise ConfigError(f"{name}: config has {value!r} but the checkpoint's "
                              f"run manifest has {current!r}")
        _assign(cfg, attr, value)


def load_run_config(path: str = None, overrides: dict = None,
                    manifest: str = None) -> RunConfig:
    """Defaults, then the run ``manifest`` if given, then the INI file at
    ``path`` if given, then ``overrides``.

    Unknown sections or keys are errors.  On top of a manifest, ``path`` may
    change only ``_SCORING_KEYS``.  ``overrides`` maps the fields in
    ``_OVERRIDABLE`` to values; None values are ignored.
    """
    cfg = RunConfig()
    if manifest is not None:
        _apply(cfg, manifest)
    if path is not None:
        _apply(cfg, path, locked=manifest is not None)

    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in _OVERRIDABLE:
            raise ConfigError(f"override {name}: unknown field")
        _assign(cfg, next(a for a in SCHEMA.values() if a.rpartition(".")[2] == name),
                value)
    cfg.validate()
    return cfg


def check_checkpoint(cfg: RunConfig, net, meta: dict) -> None:
    """Raise ConfigError, naming the INI key, where a checkpoint's network or
    training seed disagrees with the config it is about to be scored under."""
    arch = net.arch
    found = {"task.dim": arch["d_latent"], "training.hidden": arch["hidden"],
             "training.d_time": arch["d_time"], "training.time_base": arch["time_base"],
             "training.seed": meta.get("seed", cfg.seed)}
    keys = {attr: f"{section}.{key}" for (section, key), attr in SCHEMA.items()}
    for attr, got in found.items():
        want = attrgetter(attr)(cfg)
        if got != want:
            raise ConfigError(f"{keys[attr]}: config has {want!r} but the "
                              f"checkpoint was trained with {got!r}")


def run_root() -> str:
    return os.environ.get(RUN_ROOT_ENV, DEFAULT_RUN_ROOT)


def resolve_run_dir(run_id: str) -> str:
    return os.path.join(run_root(), run_id)


@dataclass
class RunManifest:
    """String key-value sections, written as INI text."""

    sections: dict = field(default_factory=dict)

    def save(self, path: str) -> None:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_dict(self.sections)
        with open(path, "w") as fh:
            parser.write(fh)

    def hash(self) -> str:
        digest = hashlib.sha256()
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                line = f"{section}\0{key}\0{self.sections[section][key]}\n"
                digest.update(line.encode("utf-8"))
        return digest.hexdigest()


def manifest_for(cfg: RunConfig) -> RunManifest:
    """The resolved config in the config file's own schema; loadable by
    ``load_run_config``."""
    m = RunManifest()
    for (section, key), attr in SCHEMA.items():
        m.sections.setdefault(section, {})[key] = str(attrgetter(attr)(cfg))
    return m
