"""CLI dispatch, subcommands, exit codes, and emitted artifacts."""

import csv
import json
import os
import re
import shutil
import struct

import pytest

from priorbench.cli import _parse_step_range, cli_dispatch
from priorbench.config import load_run_config
from priorbench.errors import ConfigError
from priorbench.network import load_checkpoint, save_checkpoint

SMALL_CONFIG = """
[run]
objective = flow
seed = 3

[task]
conditions = 3
dim = 3
n_per_condition = 30

[training]
epochs = 2
batch_size = 12

[schedule]
steps = 40

[network]
hidden = 12
time_dim = 8

[eval]
n_generate = 48
diffusion_steps = 5
flow_steps = 4
diversity_pairs = 30
multimodality_reps = 3

[latency]
batch_size = 8
warmup = 1
timed = 2
"""


@pytest.fixture()
def runs_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("PRIORBENCH_RUNS", str(root))
    return root


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture()
def trained_run(runs_root, config_path, capsys):
    rc = cli_dispatch(["train", "--config", config_path, "--run-id", "smoke"])
    assert rc == 0
    train_output = capsys.readouterr().out
    run_dir = runs_root / "smoke"
    return run_dir, config_path, train_output


def test_no_arguments_prints_usage(capsys):
    assert cli_dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error():
    assert cli_dispatch(["eval"]) == 2


def test_parse_step_range():
    assert _parse_step_range("2..5") == [2, 3, 4, 5]
    assert _parse_step_range("7") == [7]
    for bad in ("a..b", "5..2", "0..3", "x"):
        with pytest.raises(ConfigError):
            _parse_step_range(bad)


def test_train_writes_artifacts(trained_run):
    run_dir, config_path, out = trained_run
    assert "epochs completed: 2" in out
    assert "peak epoch" in out
    assert (run_dir / "manifest.ini").exists()
    assert (run_dir / "epoch_log.csv").exists()
    assert (run_dir / "epoch-1.ckpt").exists()
    assert (run_dir / "epoch-2.ckpt").exists()
    lines = (run_dir / "epoch_log.csv").read_text().splitlines()
    assert len(lines) == 3
    # the manifest is a config file for the same run
    assert (load_run_config(str(run_dir / "manifest.ini"))
            == load_run_config(config_path, {"run_id": "smoke"}))


def test_train_refuses_a_used_run_directory(trained_run, runs_root, capsys):
    run_dir, config_path, _ = trained_run
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    other = run_dir.parent / "other.ini"
    other.write_text(SMALL_CONFIG.replace("conditions = 3", "conditions = 4"))
    rc = cli_dispatch(["train", "--config", str(other), "--run-id", "smoke",
                       "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(run_dir) in err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    # an existing but empty run directory is fine
    (runs_root / "empty").mkdir()
    assert cli_dispatch(["train", "--config", config_path, "--run-id", "empty",
                         "--epochs", "1"]) == 0
    assert (runs_root / "empty" / "epoch-1.ckpt").exists()


def test_eval_prints_metrics(trained_run, capsys):
    run_dir, config_path, _ = trained_run
    rc = cli_dispatch(["eval", "--checkpoint", str(run_dir / "epoch-2.ckpt"),
                       "--config", config_path])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("fid:", "r1:", "r2:", "r3:", "mm_dist:", "diversity:",
                 "mmodality:"):
        assert name in out


def test_eval_defaults_to_the_run_manifest(trained_run, capsys):
    run_dir, config_path, _ = trained_run
    ckpt = str(run_dir / "epoch-2.ckpt")
    assert cli_dispatch(["eval", "--checkpoint", ckpt, "--config", config_path]) == 0
    with_config = capsys.readouterr().out
    assert cli_dispatch(["eval", "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out == with_config


def test_eval_rejects_a_config_the_checkpoint_was_not_trained_under(
        trained_run, tmp_path, capsys):
    run_dir, _, _ = trained_run
    ckpt = str(run_dir / "epoch-2.ckpt")
    for change, key in ((("seed = 3", "seed = 4"), "run.seed"),
                        (("hidden = 12", "hidden = 16"), "network.hidden"),
                        (("time_dim = 8", "time_dim = 4"), "network.time_dim")):
        other = tmp_path / "other.ini"
        other.write_text(SMALL_CONFIG.replace(*change))
        assert cli_dispatch(["eval", "--checkpoint", ckpt, "--config", str(other)]) == 2
        assert key in capsys.readouterr().err
    # no manifest beside the checkpoint: defaults apply, and dim 8 != 3
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copy(ckpt, lone / "epoch-2.ckpt")
    assert cli_dispatch(["bench", "--checkpoint", str(lone / "epoch-2.ckpt")]) == 2
    assert "task.dim" in capsys.readouterr().err


def test_eval_config_may_change_only_how_a_run_is_scored(runs_root, tmp_path, capsys):
    config = tmp_path / "diffusion.ini"
    config.write_text(SMALL_CONFIG.replace("objective = flow", "objective = diffusion"))
    assert cli_dispatch(["train", "--config", str(config), "--run-id", "diff"]) == 0
    ckpt = str(runs_root / "diff" / "epoch-2.ckpt")
    capsys.readouterr()
    other = tmp_path / "other.ini"
    other.write_text(config.read_text().replace("conditions = 3", "conditions = 4"))
    assert cli_dispatch(["eval", "--checkpoint", ckpt, "--config", str(other)]) == 2
    assert "task.conditions" in capsys.readouterr().err
    # [eval] may change; the keys the file leaves out come from the manifest
    assert cli_dispatch(["eval", "--checkpoint", ckpt]) == 0
    own = capsys.readouterr().out
    other.write_text("[eval]\nn_generate = 64\n")
    assert cli_dispatch(["eval", "--checkpoint", ckpt, "--config", str(other)]) == 0
    assert capsys.readouterr().out != own


def test_truncated_checkpoint_is_an_error_not_a_traceback(trained_run, tmp_path,
                                                          capsys):
    run_dir, _, _ = trained_run
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((run_dir / "epoch-2.ckpt").read_bytes()[:100])
    assert cli_dispatch(["eval", "--checkpoint", str(cut)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # an objective no sampler implements, beside the run's own manifest
    net, meta = load_checkpoint(run_dir / "epoch-2.ckpt")
    odd = run_dir / "odd.ckpt"
    save_checkpoint(odd, net, {**meta, "objective": "diffusionx"})
    for command in (["eval"], ["bench"], ["pareto", "--out", str(tmp_path / "sweep")]):
        assert cli_dispatch(command + ["--checkpoint", str(odd)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "odd.ckpt" in err and "diffusionx" in err
    assert not (tmp_path / "sweep").exists()
    # a header stating an architecture too large to allocate
    blob = (run_dir / "epoch-2.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    header["arch"]["hidden"] = 10**7
    text = json.dumps(header).encode("utf8")
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])
    assert cli_dispatch(["eval", "--checkpoint", str(huge)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge.ckpt" in err and "Traceback" not in err


def test_eval_missing_checkpoint_is_io_error(config_path, capsys):
    rc = cli_dispatch(["eval", "--checkpoint", "/nonexistent/x.ckpt",
                       "--config", config_path])
    assert rc == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_bench_reports_latency(trained_run, capsys):
    run_dir, config_path, _ = trained_run
    rc = cli_dispatch(["bench", "--checkpoint", str(run_dir / "epoch-1.ckpt"),
                       "--config", config_path, "--steps", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean latency per batch" in out
    assert "steps: 3" in out
    # the SMALL_CONFIG protocol times 2 iterations; spread is reported beside the mean
    spread = re.search(r"median latency per batch: (\S+) ms, p90 (\S+) ms \((\d+) samples\)",
                       out)
    assert spread is not None
    median, p90, count = float(spread[1]), float(spread[2]), int(spread[3])
    assert count == 2
    assert 0.0 < median <= p90


def test_pareto_writes_requested_rows(trained_run, tmp_path):
    run_dir, config_path, _ = trained_run
    out_dir = tmp_path / "sweep"
    rc = cli_dispatch(["pareto", "--checkpoint", str(run_dir / "epoch-2.ckpt"),
                       "--config", config_path, "--steps", "2..4",
                       "--out", str(out_dir)])
    assert rc == 0
    csv_path = out_dir / "pareto.csv"
    assert csv_path.exists()
    assert (out_dir / "pareto.svg").exists()
    rows = list(csv.DictReader(csv_path.open()))
    assert [int(r["steps"]) for r in rows] == [2, 3, 4]
    assert {r["objective"] for r in rows} == {"flow"}


def test_report_renders_curves_and_scatter(trained_run, tmp_path):
    run_dir, config_path, _ = trained_run
    rc = cli_dispatch(["pareto", "--checkpoint", str(run_dir / "epoch-2.ckpt"),
                       "--config", config_path, "--steps", "2..3",
                       "--out", str(run_dir)])
    assert rc == 0
    rc = cli_dispatch(["report", "--run-dir", str(run_dir)])
    assert rc == 0
    for name in ("curve_fid.svg", "curve_loss.svg", "pareto_scatter.svg"):
        assert (run_dir / name).exists(), name


def test_report_empty_dir_is_config_error(tmp_path, capsys):
    rc = cli_dispatch(["report", "--run-dir", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    log_head = "epoch,loss,fid,r1,r2,r3,mm_dist,diversity,mmodality\n"
    row = "1,0.5,3.1,0.2,0.3,0.4,1.0,1.0,1.0\n"
    bad_files = (
        ("epoch_log.csv", log_head + row + "2,0.4,3.", "line 3"),        # cut mid-row
        ("epoch_log.csv", log_head + row.replace("3.1", "abc"), "line 2"),  # non-numeric
        ("pareto.csv", "objective,steps,latency_ms,r1,r2,r3,mm_dist\n"
                       "flow,2,1.5,0.2,0.3,0.4,1.0\n", "line 1"),       # no fid column
    )
    for i, (name, text, where) in enumerate(bad_files):
        run_dir = tmp_path / f"bad{i}"
        run_dir.mkdir()
        (run_dir / name).write_text(text)
        rc = cli_dispatch(["report", "--run-dir", str(run_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err and where in err
        assert not list(run_dir.glob("*.svg"))


def test_invalid_config_value_names_field(runs_root, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    for text, key in (("[task]\nconditions = 1\n", "task.conditions"),
                      ("[network]\ntime_dim = 7\n", "network.time_dim")):
        bad.write_text(text)
        rc = cli_dispatch(["train", "--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
    assert not runs_root.exists()  # rejected before any run directory is made


def test_train_default_run_id(runs_root, config_path, capsys):
    rc = cli_dispatch(["train", "--config", config_path,
                       "--objective", "diffusion", "--seed", "5",
                       "--epochs", "1"])
    assert rc == 0
    assert (runs_root / "diffusion-s5" / "epoch-1.ckpt").exists()
