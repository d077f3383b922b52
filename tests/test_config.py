"""INI run configs, overrides, and run manifests."""

import configparser
import pathlib

import pytest

from priorbench.config import (DEFAULT_RUN_ROOT, RUN_ROOT_ENV, RunConfig, RunManifest,
                               load_run_config, manifest_for, resolve_run_dir,
                               run_root)
from priorbench.data import DEFAULT_TASK_SEED
from priorbench.errors import ConfigError


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_file_yields_defaults(tmp_path):
    cfg = load_run_config(write(tmp_path, ""))
    assert cfg.objective == "flow"
    assert cfg.seed == 0
    assert cfg.run_id == ""
    assert cfg.task.conditions == 8
    assert cfg.task.dim == 8
    assert cfg.task.task_seed == DEFAULT_TASK_SEED
    assert cfg.task.anisotropic is False
    assert cfg.training.epochs == 200
    assert cfg.training.batch_size == 50
    assert cfg.training.lr == 2e-4
    assert cfg.training.weight_decay == 0.01
    assert cfg.training.schedule_steps == 1000
    assert cfg.training.eval.n_generate == 1024
    assert cfg.training.eval.diffusion_steps == 50
    assert cfg.training.eval.flow_steps == 10
    assert cfg.latency.batch_size == 32
    assert cfg.latency.mode == "prior_only"
    assert load_run_config() == cfg


def test_values_parse_into_right_places(tmp_path):
    text = """
[run]
id = demo
objective = diffusion
seed = 9

[task]
conditions = 4
dim = 5
anisotropic = yes
n_per_condition = 60

[training]
epochs = 3
lr = 0.001

[schedule]
steps = 120
beta_start = 0.002
beta_end = 0.03

[network]
hidden = 32
time_dim = 8
time_base = 4.0

[eval]
n_generate = 96
flow_steps = 6

[latency]
warmup = 1
timed = 4
mode = end_to_end
"""
    cfg = load_run_config(write(tmp_path, text))
    assert cfg.run_id == "demo"
    assert cfg.objective == "diffusion"
    assert cfg.seed == 9
    assert cfg.task.conditions == 4 and cfg.task.dim == 5
    assert cfg.task.anisotropic is True
    assert cfg.task.n_per_condition == 60
    t = cfg.training
    assert t.objective == "diffusion" and t.seed == 9
    assert t.epochs == 3 and t.lr == 0.001
    assert t.schedule_steps == 120
    assert t.beta_start == 0.002 and t.beta_end == 0.03
    assert t.hidden == 32 and t.d_time == 8 and t.time_base == 4.0
    assert t.eval.n_generate == 96 and t.eval.flow_steps == 6
    assert t.eval.diffusion_steps == 50  # untouched default
    assert cfg.latency.warmup == 1 and cfg.latency.timed == 4
    assert cfg.latency.mode == "end_to_end"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="sampler"):
        load_run_config(write(tmp_path, "[sampler]\nsteps = 5\n"))


def test_unknown_key_names_the_field(tmp_path):
    with pytest.raises(ConfigError, match=r"training\.momentum"):
        load_run_config(write(tmp_path, "[training]\nmomentum = 0.9\n"))


def test_bad_value_names_the_field(tmp_path):
    with pytest.raises(ConfigError, match=r"run\.seed"):
        load_run_config(write(tmp_path, "[run]\nseed = banana\n"))
    with pytest.raises(ConfigError, match=r"task\.anisotropic"):
        load_run_config(write(tmp_path, "[task]\nanisotropic = maybe\n"))


def test_invalid_semantics_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"task\.conditions"):
        load_run_config(write(tmp_path, "[task]\nconditions = 1\n"))
    with pytest.raises(ConfigError, match=r"latency\.mode"):
        load_run_config(write(tmp_path, "[latency]\nmode = warp\n"))
    # messages name the key as written in the file, not the attribute it sets
    for text, key in (("[run]\nobjective = vae\n", r"run\.objective"),
                      ("[schedule]\nsteps = 0\n", r"schedule\.steps"),
                      ("[network]\nhidden = 0\n", r"network\.hidden"),
                      ("[network]\ntime_dim = 7\n", r"network\.time_dim")):
        with pytest.raises(ConfigError, match=key):
            load_run_config(write(tmp_path, text))


def test_overrides_win_and_propagate(tmp_path):
    path = write(tmp_path, "[run]\nobjective = flow\nseed = 1\n")
    cfg = load_run_config(path, overrides={"objective": "diffusion", "seed": 7,
                                           "run_id": "ovr", "epochs": 2})
    assert cfg.objective == "diffusion"
    assert cfg.seed == 7
    assert cfg.run_id == "ovr"
    assert cfg.training.objective == "diffusion"
    assert cfg.training.seed == 7
    assert cfg.training.epochs == 2


def test_none_overrides_are_ignored(tmp_path):
    path = write(tmp_path, "[run]\nseed = 3\n")
    cfg = load_run_config(path, overrides={"objective": None, "seed": None,
                                           "run_id": None, "epochs": None})
    assert cfg.seed == 3 and cfg.objective == "flow"


def test_unknown_override_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(ConfigError, match="override"):
        load_run_config(path, overrides={"optimizer": "sgd"})


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_run_config(str(tmp_path / "absent.ini"))


def test_run_root_env(monkeypatch, tmp_path):
    monkeypatch.delenv(RUN_ROOT_ENV, raising=False)
    assert run_root() == DEFAULT_RUN_ROOT
    monkeypatch.setenv(RUN_ROOT_ENV, str(tmp_path))
    assert run_root() == str(tmp_path)
    assert resolve_run_dir("abc") == str(tmp_path / "abc")


def test_manifest_round_trip_and_hash(tmp_path):
    cfg = load_run_config(write(tmp_path, "[run]\nid = demo\nseed = 12\n"
                                          "[task]\nanisotropic = yes\n"
                                          "[training]\nlr = 3e-4\n"))
    m = manifest_for(cfg)
    path = str(tmp_path / "manifest.ini")
    m.save(path)
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path)
    written = RunManifest({s: dict(parser.items(s)) for s in parser.sections()})
    assert written.hash() == m.hash()

    # the manifest is itself a config file describing the same run
    reloaded = load_run_config(path)
    assert reloaded == cfg
    assert manifest_for(reloaded).hash() == m.hash()

    other = load_run_config(path, overrides={"seed": 13})
    assert manifest_for(other).hash() != m.hash()


def test_manifest_for_covers_config(tmp_path):
    cfg = load_run_config(write(tmp_path, "[run]\nid = demo\nseed = 4\n"))
    m = manifest_for(cfg)
    assert m.sections["run"]["id"] == "demo"
    assert m.sections["run"]["seed"] == "4"
    assert "out_dir" not in m.sections["run"]
    assert m.sections["training"]["epochs"] == "200"
    assert m.sections["schedule"]["steps"] == "1000"
    assert m.sections["network"]["time_dim"] == "16"
    assert m.sections["eval"]["n_generate"] == "1024"
    assert m.sections["latency"]["mode"] == "prior_only"
    # identical configs yield identical hashes regardless of insert order
    again = manifest_for(cfg)
    assert again.hash() == m.hash()


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    got = manifest_for(load_run_config(write(tmp_path, block))).sections
    want = manifest_for(RunConfig()).sections
    assert got["run"].pop("id") == "my-run"
    want["run"].pop("id")
    assert got == want
