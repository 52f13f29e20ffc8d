"""Command line front end.

Subcommands cover the whole pipeline: prep (CSV to scenario archive),
synth (parametric scenario generator), spectrum (transform inspection),
train, eval and predict. Every subcommand accepts --config with a JSON
file of defaults; explicit flags win over the file, the file wins over
built-ins. Bad input, a missing file and a diverging run come back as a
single "error: ..." line on stderr and a nonzero exit code; any other
exception propagates with its traceback.
"""
from __future__ import annotations

import argparse
import os
import sys
import numpy as np

from .metrics import (BIN_WIDTH, check_bin_width, evaluate, write_histogram_csv,
                      write_report_json)
from .model import (GRAPH_KINDS, PRESETS, ModelConfig, NumericError, build_basis,
                    block_spectra, check_grid, load_checkpoint, predict, preset_config,
                    score_blocks)
from .scenario import (MANEUVERS, N_VEHICLES, T_OBS_S, T_PRED_S, DatasetSplit,
                       _check_slots, _window_steps, balance, extract_scenarios,
                       ingest_tracks, load_archive, open_archive, save_archive,
                       split_indices, synthesize, SCHEMAS)
from .spectral import gft_extended, inverse_gft, write_spectrum_csv, write_tensor_csv
from .store import read_document
from .training import DivergenceError, TrainConfig, train


def _require(args, *keys):
    # Not argparse's required=True: a config file may give the option.
    for key in keys:
        if getattr(args, key) is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _class_counts(batch) -> str:
    counts = np.bincount(batch.codes, minlength=len(MANEUVERS))
    return ", ".join(f"{m}={count}" for m, count in zip(MANEUVERS, counts))


def _find_scenario(ids, scenario_id) -> int:
    """The row of ``scenario_id`` among ``ids``, or the first row if it is
    None. An id that no row or more than one row holds is refused."""
    if scenario_id is None:
        return 0
    count = ids.count(scenario_id)
    if count == 0:
        raise ValueError(f"scenario {scenario_id!r} not found in archive")
    if count > 1:
        raise ValueError(f"scenario {scenario_id!r} is held by {count} rows of the archive")
    return ids.index(scenario_id)


def _one_scenario(scenario_id):
    """The ``load_archive`` row chooser that reads only ``scenario_id``'s row."""
    return lambda ids, codes: [_find_scenario(ids, scenario_id)]


def cmd_prep(args):
    _require(args, "input", "fps")
    # The grid extract_scenarios will cut, refused before the input is read.
    _window_steps(args.fps, args.t_obs, args.t_pred)
    _check_slots(args.n_vehicles)
    tracks = ingest_tracks(args.input, args.schema)
    print(f"read {tracks.frame.size} rows of {len(tracks)} vehicles from {args.input}")
    scenarios = extract_scenarios(tracks, args.fps, args.t_obs, args.t_pred, args.n_vehicles)
    if not scenarios:
        raise ValueError("no scenarios could be extracted from the input")
    balanced = balance(scenarios, args.seed)
    path = _out_path(args, "archive.json")
    save_archive(path, balanced, args.fps)
    print(f"extracted {len(scenarios)} scenarios ({_class_counts(scenarios)})")
    print(f"kept {len(balanced)} after balancing ({_class_counts(balanced)})")
    print(f"wrote {path}")


def cmd_synth(args):
    _require(args, "n", "fps")
    scenarios = synthesize(args.n, args.fps, args.seed, noise_std=args.noise_std,
                           t_obs=args.t_obs, t_pred=args.t_pred, n_vehicles=args.n_vehicles)
    path = _out_path(args, "archive.json")
    save_archive(path, scenarios, args.fps)
    print(f"generated {len(scenarios)} scenarios ({_class_counts(scenarios)})")
    print(f"wrote {path}")


def cmd_spectrum(args):
    _require(args, "archive")
    scenarios, fps = load_archive(args.archive, _one_scenario(args.scenario_id))
    scenario = scenarios[0]
    config = ModelConfig(k=4, t_obs=scenario.t_obs, t_pred=scenario.t_pred,
                         n_v=scenario.n_vehicles, p=scenario.t_obs,
                         graph_kind=args.graph_kind, fps=fps)
    basis = build_basis(config)
    fhat = gft_extended(scenario.features, basis)
    energy_signal = float(np.sum(scenario.features ** 2))
    energy_coeffs = float(np.sum(fhat ** 2))
    drift = abs(energy_signal - energy_coeffs) / max(energy_signal, 1.0)
    if drift > 1e-9:
        raise RuntimeError(f"energy not preserved: relative drift {drift:.3e}")
    # Reconstructed before any write, so a --p out of range writes nothing.
    recon = None if args.p is None else inverse_gft(fhat, basis, args.p)
    spectrum_path = _out_path(args, "eigenvalues.csv")
    coeff_path = _out_path(args, "coefficients.csv")
    write_spectrum_csv(basis, spectrum_path)
    write_tensor_csv(fhat, coeff_path)
    print(f"scenario {scenario.scenario_id}: energy {energy_signal:.6f}, "
          f"parseval drift {drift:.3e}")
    print(f"wrote {spectrum_path}")
    print(f"wrote {coeff_path}")
    if recon is not None:
        recon_path = _out_path(args, "reconstruction.csv")
        write_tensor_csv(recon, recon_path, header=("k", "t", "v", "value"))
        err = float(np.max(np.abs(recon - scenario.features)))
        print(f"wrote {recon_path} (p={args.p}, max reconstruction error {err:.6f})")


def _model_config(args, batch) -> ModelConfig:
    """The config ``--preset`` names, on the grid of ``batch``, a batch or
    an archive, which must match a named preset's."""
    given = {name: getattr(args, name) for name in ("p", "k", "graph_kind")
             if getattr(args, name) is not None}
    preset = args.preset
    if preset != "custom":
        fixed = list(given) + (["weighted"] if args.weighted else [])
        if fixed:
            raise ValueError(
                f"preset {preset!r} already fixes: {', '.join(fixed)}; "
                f"use --preset custom to override"
            )
        config = preset_config(preset, batch.fps, n_vehicles=batch.n_vehicles,
                               hidden=args.hidden)
        check_grid(batch, config)
        return config
    return ModelConfig(**{"k": 4, "p": batch.t_obs, **given}, t_obs=batch.t_obs,
                       t_pred=batch.t_pred, n_v=batch.n_vehicles, hidden=args.hidden,
                       weighted=args.weighted, fps=batch.fps)


def cmd_train(args):
    _require(args, "archive")
    train_config = TrainConfig(
        learning_rate=args.learning_rate, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed)
    # train makes --out with its first log row, so a run that diverges
    # before it leaves no directory.
    log_path = os.path.join(args.out, "training_log.csv")
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    with open_archive(args.archive) as archive:
        config = _model_config(args, archive)
        resume = None if args.resume is None else load_checkpoint(args.resume)
        # split's sides, drawn from the head; train reads each block by block.
        sides = split_indices(archive.codes(), args.split_ratio, args.seed)
        dataset = DatasetSplit(*map(archive.take, sides), seed=args.seed)
        result = train(dataset, config, train_config,
                       log_path=log_path, checkpoint_path=ckpt_path, resume=resume)
    last = result.history[-1]
    print(f"model: preset={args.preset} parameters={result.params.n_params} "
          f"train={len(dataset.train)} test={len(dataset.test)}")
    print(f"epoch {last['epoch']}: train_loss={last['train_loss']:.6f} "
          f"test_loss={last['test_loss']:.6f} ade={last['ade']:.4f} "
          f"fde={last['fde']:.4f}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {log_path}")


def _subset(args, archive):
    """The rows of ``archive`` that ``--subset`` scores: all of them, or
    one side of ``split`` in its drawn order, which ``split_indices``
    draws from the head's maneuver codes, so the other side is never read."""
    if args.subset == "all":
        return archive
    side = ("train", "test").index(args.subset)
    return archive.take(split_indices(archive.codes(), args.split_ratio, args.seed)[side])


def _checkpoint(args, grid):
    """The checkpoint that scores scenarios on ``grid``, a batch or an
    archive (without its Adam moments), and its reference basis. The grid
    must be the checkpoint's, also for ``eval --self-test``."""
    ckpt = load_checkpoint(args.checkpoint, optimizer=False)
    check_grid(grid, ckpt.config)
    return ckpt, build_basis(ckpt.config)


def cmd_eval(args):
    _require(args, "archive", "checkpoint")
    check_bin_width(args.bin_width)
    with open_archive(args.archive) as archive:
        rows = _subset(args, archive)
        ckpt, basis = _checkpoint(args, rows)
        # One block at a time, dropped before the next is read; only the
        # displacements are kept.
        blocks = rows.blocks()
        if args.self_test:
            for block in blocks:    # read all the same, so the scenario rule checks each row
                del block
            dx = dy = np.zeros((len(rows), rows.t_pred))
        else:
            dx, dy = score_blocks(block_spectra(blocks, basis, ckpt.config),
                                  len(rows), ckpt.params, ckpt.config)[1:]
    report = evaluate(dx, dy, args.bin_width)
    report_path = _out_path(args, "eval_report.json")
    hist_path = _out_path(args, "histogram.csv")
    write_report_json(report, report_path)
    write_histogram_csv(report, hist_path)
    print(f"n={report.n_scenarios} ade={report.ade:.4f} fde={report.fde:.4f} "
          f"ade_euclid_mean={report.ade_euclid_mean:.4f}")
    print(f"wrote {report_path}")
    print(f"wrote {hist_path}")


def cmd_predict(args):
    _require(args, "archive", "checkpoint", "scenario_id")
    scenarios, _ = load_archive(args.archive, _one_scenario(args.scenario_id))
    ckpt, basis = _checkpoint(args, scenarios)
    scenario = scenarios[0]
    trajectory = predict(scenario, basis, ckpt.params, ckpt.config)
    path = _out_path(args, f"trajectory_{scenario.scenario_id}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("step,t,x,y\n")
        for i in range(len(trajectory)):
            t = i / ckpt.config.fps
            x, y = float(trajectory.x[i]), float(trajectory.y[i])
            fh.write(f"{i},{t!r},{x!r},{y!r}\n")
    print(f"wrote {path}")


def _common_options(p):
    p.add_argument("--config", help="JSON file with default options")
    p.add_argument("--out", default=".", help="output directory (default: .)")


def _seed_option(p):
    p.add_argument("--seed", type=int, default=0, help="seed for every random choice")


def _grid_options(p):
    p.add_argument("--fps", type=float, help="sampling rate in frames per second")
    p.add_argument("--t-obs", type=float, default=T_OBS_S, help="observation window in seconds")
    p.add_argument("--t-pred", type=float, default=T_PRED_S,
                   help="prediction window in seconds")
    p.add_argument("--n-vehicles", type=int, default=N_VEHICLES,
                   help="vehicle slots per scenario")


def _split_ratio_option(p):
    # eval --subset scores a side of train's split only under train's ratio.
    p.add_argument("--split-ratio", type=float, default=0.7,
                   help="share of the scenarios on the training side")


def _prep_options(p):
    p.add_argument("--input", help="CSV file with per-frame vehicle samples")
    p.add_argument("--schema", choices=sorted(SCHEMAS), default="normalized")


def _synth_options(p):
    p.add_argument("--n", type=int, help="number of scenarios")
    p.add_argument("--noise-std", type=float, default=0.05, help="position noise in metres")


def _spectrum_options(p):
    p.add_argument("--archive")
    p.add_argument("--scenario-id", help="default: first scenario")
    p.add_argument("--graph-kind", choices=GRAPH_KINDS, default=ModelConfig.graph_kind)
    p.add_argument("--p", type=int, help="also write the reconstruction from the p lowest modes")


def _train_options(p):
    p.add_argument("--archive")
    p.add_argument("--preset", choices=PRESETS + ("custom",), default="gftnn")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", "--lr", dest="learning_rate", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden,
                   help="width of the per-channel MLP")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--p", type=int, help="custom preset: temporal modes kept")
    p.add_argument("--k", type=int, help="custom preset: feature channels")
    p.add_argument("--weighted", action="store_true",
                   help="custom preset: inverse-distance spatial weights")
    p.add_argument("--graph-kind", choices=GRAPH_KINDS)


def _eval_options(p):
    p.add_argument("--archive")
    p.add_argument("--checkpoint")
    p.add_argument("--bin-width", type=float, default=BIN_WIDTH)
    p.add_argument("--subset", choices=("all", "train", "test"), default="all")
    p.add_argument("--self-test", action="store_true",
                   help="score the ground truth against itself")


def _predict_options(p):
    p.add_argument("--archive")
    p.add_argument("--checkpoint")
    p.add_argument("--scenario-id")


# name: (help, adders of the options after the common ones, handler); an
# option two subcommands share is declared once, in its own adder.
_COMMANDS = {
    "prep": ("convert recorded tracks to a scenario archive",
             (_seed_option, _grid_options, _prep_options), cmd_prep),
    "synth": ("generate labelled synthetic scenarios",
              (_seed_option, _grid_options, _synth_options), cmd_synth),
    "spectrum": ("write eigenvalues and coefficients of a scenario",
                 (_spectrum_options,), cmd_spectrum),
    "train": ("fit a model", (_seed_option, _split_ratio_option, _train_options), cmd_train),
    "eval": ("displacement metrics of a checkpoint",
             (_seed_option, _split_ratio_option, _eval_options), cmd_eval),
    "predict": ("write the predicted trajectory of one scenario",
                (_predict_options,), cmd_predict),
}


def _build_parser(command=None):
    """The ``gftnn`` parser and its subcommand parsers by name: only
    ``command``'s if it names one, else all. Library defaults are imported."""
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    parser = argparse.ArgumentParser(
        prog="gftnn",
        description="Graph-spectral trajectory prediction for highway traffic.")
    # A one-command tree never prints its own usage: main builds one only
    # for a known command, whose parser reports every error in the call.
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, adders, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for add in (_common_options,) + adders:
            add(p)
        p.set_defaults(func=handler)
    return parser, sub.choices


def _config_defaults(command: argparse.ArgumentParser, path):
    """Make the values of the config file at ``path`` the defaults of the
    subcommand parser ``command``, so its flags still win over them.

    Each key must name one of its options, and each value must have the
    option's JSON type (a number for a float, an integer for an int, a
    boolean for a switch and a string otherwise) and be one of its choices.
    """
    doc = read_document(path, "config file")
    actions = {action.dest: action for action in command._actions
               if action.dest not in ("help", "config")}
    unknown = set(doc.obj) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key in doc.obj:
        action = actions[key]
        value = doc.value(key, bool if action.nargs == 0 else action.type or str)
        if action.choices is not None and value not in action.choices:
            raise doc.error(f"{key} is {value!r}, expected one of "
                            f"{', '.join(action.choices)}")
        values[key] = value
    command.set_defaults(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser(argv[0] if argv else None)
    args, unknown = parser.parse_known_args(argv)
    if unknown:     # refused in argparse's words, with their command's usage
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    # Bad input and failed runs print one line; any other exception is a
    # defect and keeps its traceback.
    try:
        if args.config:
            _config_defaults(commands[args.command], args.config)
            args = parser.parse_args(argv)
        if vars(args).get("seed", 0) < 0:
            raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
        args.func(args)
    except (ValueError, OSError, DivergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
