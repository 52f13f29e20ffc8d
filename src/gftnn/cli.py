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
from collections import Counter

import numpy as np

from .metrics import evaluate, write_histogram_csv, write_report_json
from .model import (PRESETS, ModelConfig, NumericError, build_basis,
                    load_checkpoint, predict, predict_batch, preset_config,
                    truth_trajectory)
from .scenario import (MANEUVERS, balance, extract_scenarios, ingest_tracks,
                       load_archive, save_archive, split, synthesize, SCHEMAS)
from .spectral import gft_extended, inverse_gft, write_spectrum_csv, write_tensor_csv
from .store import read_document
from .training import DivergenceError, TrainConfig, train

PREP_DEFAULTS = {
    "input": None, "schema": "normalized", "fps": None,
    "t_obs": 3.0, "t_pred": 5.0, "n_vehicles": 9,
}
SYNTH_DEFAULTS = {
    "n": None, "fps": None, "noise_std": 0.05,
    "t_obs": 3.0, "t_pred": 5.0, "n_vehicles": 9,
}
SPECTRUM_DEFAULTS = {
    "archive": None, "scenario_id": None, "graph_kind": "spider", "p": None,
}
TRAIN_DEFAULTS = {
    "archive": None, "preset": "gftnn", "epochs": 30, "learning_rate": 1e-4,
    "batch_size": 64, "hidden": 50, "split_ratio": 0.7, "resume": None,
    "p": None, "k": None, "weighted": False, "graph_kind": None,
}
EVAL_DEFAULTS = {
    "archive": None, "checkpoint": None, "bin_width": 0.1,
    "subset": "all", "split_ratio": 0.7, "self_test": False,
}
PREDICT_DEFAULTS = {
    "archive": None, "checkpoint": None, "scenario_id": None,
}


def _resolve(args, defaults):
    """Merge CLI flags, config file values and built-in defaults. A config
    file value must have the JSON type of its option: a number for a float,
    an integer for an int, a boolean for a switch and a string otherwise."""
    file_cfg = {}
    if getattr(args, "config", None):
        doc = read_document(args.config, "config file")
        unknown = set(doc.obj) - set(defaults) - {"seed", "out"}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        file_cfg = {key: doc.value(key, args.value_types[key]) for key in doc.obj}
    opts = {}
    for key, built_in in defaults.items():
        flag = getattr(args, key, None)
        if isinstance(built_in, bool):
            opts[key] = flag or file_cfg.get(key, built_in)
        elif flag is not None:
            opts[key] = flag
        else:
            opts[key] = file_cfg.get(key, built_in)
    opts["seed"] = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    opts["out"] = args.out if args.out is not None else file_cfg.get("out", ".")
    return opts


def _require(opts, *keys):
    for key in keys:
        if opts[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _out_path(opts, name):
    os.makedirs(opts["out"], exist_ok=True)
    return os.path.join(opts["out"], name)


def _class_counts(scenarios) -> str:
    counts = Counter(s.maneuver for s in scenarios)
    return ", ".join(f"{m}={counts.get(m, 0)}" for m in MANEUVERS)


def _find_scenario(scenarios, scenario_id):
    if scenario_id is None:
        return scenarios[0]
    for s in scenarios:
        if s.scenario_id == scenario_id:
            return s
    raise ValueError(f"scenario {scenario_id!r} not found in archive")


def cmd_prep(args):
    opts = _resolve(args, PREP_DEFAULTS)
    _require(opts, "input", "fps")
    tracks = ingest_tracks(opts["input"], opts["schema"])
    print(f"read {sum(map(len, tracks))} rows of {len(tracks)} vehicles "
          f"from {opts['input']}")
    scenarios = extract_scenarios(tracks, opts["fps"], opts["t_obs"],
                                  opts["t_pred"], opts["n_vehicles"])
    if not scenarios:
        raise ValueError("no scenarios could be extracted from the input")
    balanced = balance(scenarios, opts["seed"])
    path = _out_path(opts, "archive.json")
    save_archive(path, balanced, opts["fps"])
    print(f"extracted {len(scenarios)} scenarios ({_class_counts(scenarios)})")
    print(f"kept {len(balanced)} after balancing ({_class_counts(balanced)})")
    print(f"wrote {path}")


def cmd_synth(args):
    opts = _resolve(args, SYNTH_DEFAULTS)
    _require(opts, "n", "fps")
    scenarios = synthesize(opts["n"], opts["fps"], opts["seed"],
                           noise_std=opts["noise_std"], t_obs=opts["t_obs"],
                           t_pred=opts["t_pred"], n_vehicles=opts["n_vehicles"])
    path = _out_path(opts, "archive.json")
    save_archive(path, scenarios, opts["fps"])
    print(f"generated {len(scenarios)} scenarios ({_class_counts(scenarios)})")
    print(f"wrote {path}")


def cmd_spectrum(args):
    opts = _resolve(args, SPECTRUM_DEFAULTS)
    _require(opts, "archive")
    scenarios, fps = load_archive(opts["archive"])
    scenario = _find_scenario(scenarios, opts["scenario_id"])
    config = ModelConfig(k=4, t_obs=scenario.t_obs, t_pred=scenario.t_pred,
                         n_v=scenario.n_vehicles, p=scenario.t_obs,
                         graph_kind=opts["graph_kind"], fps=fps)
    basis = build_basis(config)
    fhat = gft_extended(scenario.features, basis)
    energy_signal = float(np.sum(scenario.features ** 2))
    energy_coeffs = float(np.sum(fhat ** 2))
    drift = abs(energy_signal - energy_coeffs) / max(energy_signal, 1.0)
    if drift > 1e-9:
        raise RuntimeError(f"energy not preserved: relative drift {drift:.3e}")
    spectrum_path = _out_path(opts, "eigenvalues.csv")
    coeff_path = _out_path(opts, "coefficients.csv")
    write_spectrum_csv(basis, spectrum_path)
    write_tensor_csv(fhat, coeff_path)
    print(f"scenario {scenario.scenario_id}: energy {energy_signal:.6f}, "
          f"parseval drift {drift:.3e}")
    print(f"wrote {spectrum_path}")
    print(f"wrote {coeff_path}")
    if opts["p"] is not None:
        recon = inverse_gft(fhat, basis, opts["p"])
        recon_path = _out_path(opts, "reconstruction.csv")
        write_tensor_csv(recon, recon_path, header=("k", "t", "v", "value"))
        err = float(np.max(np.abs(recon - scenario.features)))
        print(f"wrote {recon_path} (p={opts['p']}, max reconstruction error {err:.6f})")


def _model_config(opts, scenarios, fps) -> ModelConfig:
    # load_archive guarantees one scenario or more, all on the first's grid.
    t_obs = scenarios[0].t_obs
    t_pred = scenarios[0].t_pred
    n_v = scenarios[0].n_vehicles
    preset = opts["preset"]
    if preset != "custom":
        fixed = [name for name in ("p", "k", "graph_kind")
                 if opts[name] is not None]
        if opts["weighted"]:
            fixed.append("weighted")
        if fixed:
            raise ValueError(
                f"preset {preset!r} already fixes: {', '.join(fixed)}; "
                f"use --preset custom to override"
            )
        config = preset_config(preset, fps, n_vehicles=n_v,
                               hidden=opts["hidden"])
        if (config.t_obs, config.t_pred) != (t_obs, t_pred):
            raise ValueError(
                f"archive windows ({t_obs}, {t_pred}) do not match preset "
                f"({config.t_obs}, {config.t_pred})"
            )
        return config
    return ModelConfig(
        k=opts["k"] if opts["k"] is not None else 4,
        t_obs=t_obs, t_pred=t_pred, n_v=n_v,
        p=opts["p"] if opts["p"] is not None else t_obs,
        hidden=opts["hidden"],
        graph_kind=opts["graph_kind"] if opts["graph_kind"] is not None else "spider",
        weighted=opts["weighted"], fps=fps,
    )


def cmd_train(args):
    opts = _resolve(args, TRAIN_DEFAULTS)
    _require(opts, "archive")
    scenarios, fps = load_archive(opts["archive"])
    config = _model_config(opts, scenarios, fps)
    resume = None
    if opts["resume"] is not None:
        resume = load_checkpoint(opts["resume"])
    dataset = split(scenarios, opts["split_ratio"], opts["seed"])
    train_config = TrainConfig(
        learning_rate=opts["learning_rate"], epochs=opts["epochs"],
        batch_size=opts["batch_size"], seed=opts["seed"])
    log_path = _out_path(opts, "training_log.csv")
    ckpt_path = _out_path(opts, "checkpoint.json")
    result = train(dataset, config, train_config,
                   log_path=log_path, checkpoint_path=ckpt_path, resume=resume)
    last = result.history[-1]
    print(f"model: preset={opts['preset']} parameters={result.params.n_params} "
          f"train={len(dataset.train)} test={len(dataset.test)}")
    print(f"epoch {last['epoch']}: train_loss={last['train_loss']:.6f} "
          f"test_loss={last['test_loss']:.6f} ade={last['ade']:.4f} "
          f"fde={last['fde']:.4f}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {log_path}")


def _subset(scenarios, opts):
    if opts["subset"] == "all":
        return scenarios
    dataset = split(scenarios, opts["split_ratio"], opts["seed"])
    return dataset.train if opts["subset"] == "train" else dataset.test


def _load_archive_and_checkpoint(opts):
    """The archive's scenarios and the checkpoint that scores them."""
    scenarios, fps = load_archive(opts["archive"])
    ckpt = load_checkpoint(opts["checkpoint"])
    if fps != ckpt.config.fps:
        raise ValueError(
            f"archive fps {fps} does not match checkpoint fps {ckpt.config.fps}"
        )
    return scenarios, ckpt


def cmd_eval(args):
    opts = _resolve(args, EVAL_DEFAULTS)
    _require(opts, "archive", "checkpoint")
    scenarios, ckpt = _load_archive_and_checkpoint(opts)
    chosen = _subset(scenarios, opts)
    if not chosen:
        raise ValueError(f"subset {opts['subset']!r} is empty")
    truths = [truth_trajectory(s) for s in chosen]
    if opts["self_test"]:
        predictions = truths
    else:
        predictions = predict_batch(chosen, ckpt.basis, ckpt.params, ckpt.config)
    report = evaluate(predictions, truths, opts["bin_width"])
    report_path = _out_path(opts, "eval_report.json")
    hist_path = _out_path(opts, "histogram.csv")
    write_report_json(report, report_path)
    write_histogram_csv(report, hist_path)
    print(f"n={report.n_scenarios} ade={report.ade:.4f} fde={report.fde:.4f} "
          f"ade_euclid_mean={report.ade_euclid_mean:.4f}")
    print(f"wrote {report_path}")
    print(f"wrote {hist_path}")


def cmd_predict(args):
    opts = _resolve(args, PREDICT_DEFAULTS)
    _require(opts, "archive", "checkpoint", "scenario_id")
    scenarios, ckpt = _load_archive_and_checkpoint(opts)
    scenario = _find_scenario(scenarios, opts["scenario_id"])
    trajectory = predict(scenario, ckpt.basis, ckpt.params, ckpt.config)
    path = _out_path(opts, f"trajectory_{scenario.scenario_id}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("step,t,x,y\n")
        for i in range(len(trajectory)):
            t = i / ckpt.config.fps
            x, y = float(trajectory.x[i]), float(trajectory.y[i])
            fh.write(f"{i},{t!r},{x!r},{y!r}\n")
    print(f"wrote {path}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default options")
    common.add_argument("--seed", type=int, help="seed for every random choice")
    common.add_argument("--out", help="output directory (default: .)")

    parser = argparse.ArgumentParser(
        prog="gftnn",
        description="Graph-spectral trajectory prediction for highway traffic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", parents=[common],
                       help="convert recorded tracks to a scenario archive")
    p.add_argument("--input", help="CSV file with per-frame vehicle samples")
    p.add_argument("--schema", choices=sorted(SCHEMAS))
    p.add_argument("--fps", type=float, help="sampling rate of the recording")
    p.add_argument("--t-obs", type=float, help="observation window in seconds")
    p.add_argument("--t-pred", type=float, help="prediction window in seconds")
    p.add_argument("--n-vehicles", type=int, help="vehicle slots per scenario")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("synth", parents=[common],
                       help="generate labelled synthetic scenarios")
    p.add_argument("--n", type=int, help="number of scenarios")
    p.add_argument("--fps", type=float)
    p.add_argument("--noise-std", type=float, help="position noise in metres")
    p.add_argument("--t-obs", type=float)
    p.add_argument("--t-pred", type=float)
    p.add_argument("--n-vehicles", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("spectrum", parents=[common],
                       help="write eigenvalues and coefficients of a scenario")
    p.add_argument("--archive")
    p.add_argument("--scenario-id", help="default: first scenario")
    p.add_argument("--graph-kind", choices=("spider", "mesh"))
    p.add_argument("--p", type=int,
                   help="also write the reconstruction from the p lowest modes")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", parents=[common], help="fit a model")
    p.add_argument("--archive")
    p.add_argument("--preset", choices=PRESETS + ("custom",))
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", "--lr", dest="learning_rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden", type=int, help="width of the per-channel MLP")
    p.add_argument("--split-ratio", type=float)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--p", type=int, help="custom preset: temporal modes kept")
    p.add_argument("--k", type=int, help="custom preset: feature channels")
    p.add_argument("--weighted", action="store_true",
                   help="custom preset: inverse-distance spatial weights")
    p.add_argument("--graph-kind", choices=("spider", "mesh"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="displacement metrics of a checkpoint")
    p.add_argument("--archive")
    p.add_argument("--checkpoint")
    p.add_argument("--bin-width", type=float)
    p.add_argument("--subset", choices=("all", "train", "test"))
    p.add_argument("--split-ratio", type=float)
    p.add_argument("--self-test", action="store_true",
                   help="score the ground truth against itself")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[common],
                       help="write the predicted trajectory of one scenario")
    p.add_argument("--archive")
    p.add_argument("--checkpoint")
    p.add_argument("--scenario-id")
    p.set_defaults(func=cmd_predict)

    # The type _resolve reads each option's config file value as.
    for command in sub.choices.values():
        command.set_defaults(value_types={
            action.dest: bool if action.nargs == 0 else action.type or str
            for action in command._actions})
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Bad input and failed runs print one line; any other exception is a
    # defect and keeps its traceback.
    try:
        args.func(args)
    except (ValueError, OSError, DivergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
