"""Command-line front end: train, eval, bench, pareto, report."""

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (PARETO_CSV_HEADER, SurrogatePipeline, default_step_range,
                    make_sampler_invocation, measure_latency, pareto_sweep)
from .config import (MANIFEST_NAME, RunConfig, check_checkpoint, load_run_config,
                     manifest_for, resolve_run_dir)
from .data import generate_dataset, make_task
from .errors import CheckpointError, ConfigError, PriorBenchError
from .evaluation import evaluate
from .metrics import EmbeddingSpace, ema_smooth
from .network import load_checkpoint
from .objectives import build_scaled_linear_schedule
from .rng import SeededRng
from .svgplot import render_line_chart, render_scatter
from .training import EPOCH_LOG_HEADER, OBJECTIVES, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorbench",
        description="Benchmark diffusion and rectified-flow priors on "
                    "synthetic conditional latent tasks.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="train a prior and sweep checkpoints")
    p_train.add_argument("--config", help="run config file (INI)")
    p_train.add_argument("--objective", choices=("diffusion", "flow"))
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--run-id", dest="run_id")
    p_train.set_defaults(handler=_cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config")
    p_eval.add_argument("--steps", type=int, help="inference step count")
    p_eval.add_argument("--seed", type=int, default=0, help="evaluation rng seed")
    p_eval.set_defaults(handler=_cmd_eval)

    p_bench = sub.add_parser("bench", help="measure sampler latency")
    p_bench.add_argument("--checkpoint", required=True)
    p_bench.add_argument("--config")
    p_bench.add_argument("--steps", type=int)
    p_bench.add_argument("--mode", choices=("prior_only", "end_to_end"))
    p_bench.set_defaults(handler=_cmd_bench)

    p_pareto = sub.add_parser("pareto", help="sweep step counts for latency vs quality")
    p_pareto.add_argument("--checkpoint", required=True)
    p_pareto.add_argument("--config")
    p_pareto.add_argument("--steps", help="range as A..B (default per objective)")
    p_pareto.add_argument("--mode", choices=("prior_only", "end_to_end"))
    p_pareto.add_argument("--out", help="output directory (default: checkpoint's)")
    p_pareto.set_defaults(handler=_cmd_pareto)

    p_report = sub.add_parser("report", help="render SVG charts from run CSVs")
    p_report.add_argument("--run-dir", dest="run_dir", required=True)
    p_report.set_defaults(handler=_cmd_report)
    return parser


def _task_context(cfg: RunConfig):
    specs = make_task(cfg.task.conditions, cfg.task.dim, cfg.task.task_seed,
                      anisotropic=cfg.task.anisotropic)
    dataset = generate_dataset(specs, cfg.task.n_per_condition, cfg.seed)
    space = EmbeddingSpace.for_task(specs)
    return specs, dataset, space


def _cmd_train(args) -> int:
    cfg = load_run_config(args.config, {"objective": args.objective, "seed": args.seed,
                                        "run_id": args.run_id, "epochs": args.epochs})
    run_id = cfg.run_id or f"{cfg.objective}-s{cfg.seed}"
    run_dir = resolve_run_dir(run_id)
    if os.path.isdir(run_dir) and os.listdir(run_dir):
        raise ConfigError(f"run directory {run_dir} is not empty; use a new run id")
    specs, dataset, space = _task_context(cfg)
    os.makedirs(run_dir, exist_ok=True)
    manifest_for(cfg).save(os.path.join(run_dir, MANIFEST_NAME))
    record = train(specs, dataset, cfg.training, run_dir, space=space)
    print(f"run directory: {run_dir}")
    print(f"epochs completed: {record.epochs_completed}")
    if record.peak_test is not None:
        print(f"peak epoch (test FID): {record.peak_epoch}")
        print(f"peak test fid: {record.peak_test.fid:.6g}")
    return 0


def _checkpoint_context(args):
    """Checkpoint plus the run context it is scored in: the ``manifest.ini``
    beside the checkpoint (else defaults), under ``--config`` if given."""
    if not os.path.exists(args.checkpoint):
        raise OSError(f"checkpoint not found: {args.checkpoint}")
    net, meta = load_checkpoint(args.checkpoint)
    manifest = os.path.join(os.path.dirname(args.checkpoint), MANIFEST_NAME)
    cfg = load_run_config(args.config,
                          manifest=manifest if os.path.exists(manifest) else None)
    check_checkpoint(cfg, net, meta)
    objective = meta.get("objective", cfg.objective)
    if objective not in OBJECTIVES:
        raise CheckpointError(f"{args.checkpoint}: unknown objective {objective!r}")
    specs, dataset, space = _task_context(cfg)
    schedule = build_scaled_linear_schedule(cfg.training.schedule_steps,
                                            cfg.training.beta_start,
                                            cfg.training.beta_end)
    return net, meta, cfg, objective, dataset, space, schedule


def _cmd_eval(args) -> int:
    net, meta, cfg, objective, dataset, space, schedule = _checkpoint_context(args)
    settings = cfg.training.eval
    if args.steps is not None:
        settings = settings.with_steps(objective, args.steps)
    test_x, test_labels = dataset.split("test")
    bundle = evaluate(net, objective, space, test_x, test_labels,
                      SeededRng(args.seed).derive("cli-eval"),
                      settings=settings, schedule=schedule)
    print(f"checkpoint: {args.checkpoint} (objective {objective})")
    for name, value in zip(("fid", "r1", "r2", "r3", "mm_dist", "diversity",
                            "mmodality"), bundle.as_row()):
        print(f"{name}: {value:.6g}")
    return 0


def _cmd_bench(args) -> int:
    net, meta, cfg, objective, dataset, space, schedule = _checkpoint_context(args)
    protocol = cfg.latency
    if args.mode is not None:
        protocol = replace(protocol, mode=args.mode)
    steps = args.steps if args.steps is not None else cfg.training.eval.steps_for(objective)
    _, test_labels = dataset.split("test")
    labels = np.resize(test_labels, protocol.batch_size)
    pipeline = None
    if protocol.mode == "end_to_end":
        pipeline = SurrogatePipeline(d_latent=net.d_latent,
                                     d_cond=space.cond_embeds.shape[1])
    invoke = make_sampler_invocation(net, objective, steps, labels, space,
                                     SeededRng(0).derive("cli-bench"),
                                     schedule=schedule, pipeline=pipeline)
    result = measure_latency(invoke, protocol)
    print(f"objective: {objective}  steps: {steps}  mode: {protocol.mode}")
    print(f"mean latency per batch: {result.mean_ms:.4g} ms "
          f"({protocol.timed} timed, {protocol.warmup} warmup)")
    samples = result.per_iteration_ms
    print(f"median latency per batch: {np.median(samples):.4g} ms, "
          f"p90 {np.percentile(samples, 90):.4g} ms ({len(samples)} samples)")
    for w in result.warnings:
        print(f"warning: {w}")
    return 0


def _parse_step_range(text: str):
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError(f"--steps: expected A..B integers, got {text!r}") from exc
        if lo < 1 or hi < lo:
            raise ConfigError(f"--steps: invalid range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise ConfigError(f"--steps: expected A..B or integer, got {text!r}") from exc


def _cmd_pareto(args) -> int:
    net, meta, cfg, objective, dataset, space, schedule = _checkpoint_context(args)
    steps = (_parse_step_range(args.steps) if args.steps is not None
             else list(default_step_range(objective)))
    protocol = cfg.latency
    if args.mode is not None:
        protocol = replace(protocol, mode=args.mode)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "pareto.csv")
    svg_path = os.path.join(out_dir, "pareto.svg")
    test_x, test_labels = dataset.split("test")
    points = pareto_sweep(net, objective, steps, space, test_x, test_labels,
                          SeededRng(cfg.seed).derive("cli-pareto"),
                          protocol=protocol, schedule=schedule,
                          settings=cfg.training.eval,
                          csv_path=csv_path, svg_path=svg_path)
    print(f"wrote {len(points)} sweep points to {csv_path}")
    print(f"wrote scatter to {svg_path}")
    return 0


# Columns that are not finite floats; every other column must parse as one.
_CSV_PARSERS = {"epoch": int, "steps": int, "objective": str}


def _read_csv(path: str, header: str):
    """Rows of a run CSV as dicts of parsed values.

    Raises ConfigError naming the file and line on a wrong header, a row
    with the wrong number of fields, or a value that does not parse (numeric
    columns must hold finite floats).
    """
    names = header.split(",")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for fields in reader:
            line = reader.line_num
            if line == 1:
                if fields != names:
                    raise ConfigError(f"{path}: line 1: header {','.join(fields)!r} "
                                      f"is not {header!r}")
                continue
            if not fields:
                continue
            if len(fields) != len(names):
                raise ConfigError(f"{path}: line {line}: expected {len(names)} fields, "
                                  f"got {len(fields)}")
            row = {}
            for name, text in zip(names, fields):
                parse = _CSV_PARSERS.get(name, float)
                try:
                    row[name] = parse(text)
                    ok = parse is not float or np.isfinite(row[name])
                except ValueError:
                    ok = False
                if not ok:
                    kind = "a finite float" if parse is float else "an integer"
                    raise ConfigError(f"{path}: line {line}: {name} = {text!r} is not {kind}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def _cmd_report(args) -> int:
    run_dir = args.run_dir
    wrote = []
    log_path = os.path.join(run_dir, "epoch_log.csv")
    if os.path.exists(log_path):
        rows = _read_csv(log_path, EPOCH_LOG_HEADER)
        epochs = [r["epoch"] for r in rows]
        for column, label in (("fid", "validation FID"), ("loss", "training loss")):
            series_raw = [r[column] for r in rows]
            smooth = ema_smooth(series_raw, span=5)
            out = os.path.join(run_dir, f"curve_{column}.svg")
            render_line_chart(
                out, f"{label} per epoch", "epoch", label,
                [(f"{column} (raw)", epochs, series_raw,
                  {"opacity": 0.35, "width": 1.0}),
                 (f"{column} (EMA span 5)", epochs, smooth, {"width": 2.0})])
            wrote.append(out)
    pareto_path = os.path.join(run_dir, "pareto.csv")
    if os.path.exists(pareto_path):
        rows = _read_csv(pareto_path, PARETO_CSV_HEADER)
        groups = {}
        for r in rows:
            xs, ys = groups.setdefault(r["objective"], ([], []))
            xs.append(r["latency_ms"])
            ys.append(r["fid"])
        out = os.path.join(run_dir, "pareto_scatter.svg")
        render_scatter(out, "Latency vs quality", "latency per batch (ms)",
                       "FID", groups)
        wrote.append(out)
    if not wrote:
        raise ConfigError(
            f"{run_dir}: found neither epoch_log.csv nor pareto.csv to render")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cli_dispatch(argv) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PriorBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
