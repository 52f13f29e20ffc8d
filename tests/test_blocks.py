"""Block reads: eval and train hold one block of an archive's rows at a time."""
import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from gftnn import model
from gftnn.cli import main
from gftnn.metrics import evaluate
from gftnn.model import (build_basis, init_params, load_checkpoint, preset_config,
                         save_checkpoint, scenario_spectra, score_blocks)
from gftnn.scenario import (BLOCK_ROWS, load_archive, open_archive, save_archive, split,
                            split_indices, synthesize)
from gftnn.training import TrainConfig, train
from helpers import poked

# The preset each test grid is scored with: the reference and the weighted
# spatial basis.
GRIDS = {"gftnn": 10, "gftnn-w": 25}
SIZES = (1, 256, 257, 600)
RATIO, SEED = 0.5, 3


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([str(arg) for arg in argv])
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Per preset: the archives of the first 1, 256, 257 and 600 of one
    synthesis, by size, and an untrained checkpoint on their grid."""
    out = {}
    for preset, fps in GRIDS.items():
        root = tmp_path_factory.mktemp(preset)
        scenarios = synthesize(max(SIZES), fps, seed=9)
        paths = {}
        for n in SIZES:
            paths[n] = root / f"archive-{n}.json"
            save_archive(paths[n], scenarios[:n], fps)
        config = preset_config(preset, fps, hidden=8)
        ckpt = root / "checkpoint.json"
        save_checkpoint(ckpt, config, build_basis(config), init_params(config, 1))
        out[preset] = paths, ckpt
    return out


def chosen_rows(codes, subset):
    if subset == "all":
        return np.arange(len(codes))
    return split_indices(codes, RATIO, SEED)[("train", "test").index(subset)]


def cases():
    for preset in GRIDS:
        for n in SIZES:
            for subset in ("all",) if n == 1 else ("all", "train", "test"):
                yield preset, n, subset


@pytest.mark.parametrize("preset, n, subset", list(cases()))
def test_blocks_cover_each_chosen_row_once_in_order(archives, tmp_path, monkeypatch, preset,
                                                    n, subset):
    paths, ckpt = archives[preset]
    whole, fps = load_archive(paths[n])
    rows = chosen_rows(whole.codes, subset)
    # The blocks of the archive's rows: every chosen row once, in order, in
    # full blocks but the last.
    with open_archive(paths[n]) as archive:
        picked = archive if subset == "all" else archive.take(rows)
        sizes, ids = [], []
        for block in picked.blocks():
            sizes.append(len(block))
            ids.extend(block.ids)
            assert block.features.tobytes() == whole.features[block_rows(whole, block)].tobytes()
    assert ids == [whole.ids[i] for i in rows]
    assert sizes == [min(BLOCK_ROWS, rows.size - start)
                     for start in range(0, rows.size, BLOCK_ROWS)]
    # eval scores those blocks: each row once, in split_indices' order, and
    # its report is the one of the rows read whole and scored in the same
    # blocks.
    ckpt_doc = load_checkpoint(ckpt, optimizer=False)
    config, basis = ckpt_doc.config, build_basis(ckpt_doc.config)
    blocks = ((scenario_spectra(b, basis, config), b.v0, b.futures)
              for b in whole[rows].blocks())
    dx, dy = score_blocks(blocks, rows.size, ckpt_doc.params, config)[1:]
    scored = score_spy(monkeypatch)
    rc, out = quiet_main(["eval", "--archive", paths[n], "--checkpoint", ckpt,
                          "--subset", subset, "--split-ratio", RATIO, "--seed", SEED,
                          "--out", tmp_path / "eval"])
    assert rc == 0 and out.startswith(f"n={rows.size} ")
    assert [len(v0) for v0 in scored] == sizes
    assert np.concatenate(scored).tobytes() == whole.v0[rows].tobytes()
    report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
    assert report["n_scenarios"] == rows.size
    assert report["per_scenario_ade"] == evaluate(dx, dy).per_scenario_ade.tolist()


def score_spy(monkeypatch):
    """The v0 of each block ``model.score`` is called on, which it still scores."""
    calls = []
    original = model.score

    def spy(s, v0, *args):
        calls.append(v0.copy())
        return original(s, v0, *args)

    monkeypatch.setattr(model, "score", spy)
    return calls


def block_rows(whole, block):
    """The rows of ``whole`` that hold the ids of ``block``."""
    index = {sid: i for i, sid in enumerate(whole.ids)}
    return [index[sid] for sid in block.ids]


@pytest.mark.parametrize("subset", ["all", "test"])
def test_a_corrupt_row_in_the_second_block_is_refused(archives, tmp_path, monkeypatch,
                                                      subset):
    paths, ckpt = archives["gftnn"]
    codes = load_archive(paths[600])[0].codes
    bad = int(chosen_rows(codes, subset)[BLOCK_ROWS + 3])
    archive = tmp_path / "archive.json"
    archive.write_bytes(poked("features", bad, math.nan, 7)(paths[600].read_bytes()))
    scored = score_spy(monkeypatch)
    out = tmp_path / "eval"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, stdout = quiet_main(["eval", "--archive", archive, "--checkpoint", ckpt,
                                 "--subset", subset, "--split-ratio", RATIO, "--seed", SEED,
                                 "--out", out])
    assert (rc, stdout) == (1, "")
    assert err.getvalue() == (f"error: {archive}: scenario {bad} ('synth-{bad:05d}'): "
                              f"scenario synth-{bad:05d}: non-finite data\n")
    # The first block was read and scored; the refusal wrote nothing.
    assert [len(v0) for v0 in scored] == [BLOCK_ROWS]
    assert not out.exists()


@pytest.mark.parametrize("preset, batch_size", [("gftnn", 1), ("gftnn-w", 64)])
def test_cli_train_writes_the_bytes_of_library_train(archives, tmp_path, preset,
                                                     batch_size):
    # Both sides of the split of 600 span two blocks: the CLI streams
    # them from the archive, the library takes them from a whole read.
    paths, _ = archives[preset]
    fps = GRIDS[preset]
    config = preset_config(preset, fps, hidden=8)
    train_config = TrainConfig(epochs=1, batch_size=batch_size, seed=SEED)
    dataset = split(load_archive(paths[600])[0], RATIO, SEED)
    assert min(len(dataset.train), len(dataset.test)) > BLOCK_ROWS
    flags = ["--archive", paths[600], "--preset", preset, "--hidden", 8, "--epochs", 1,
             "--batch-size", batch_size, "--split-ratio", RATIO, "--seed", SEED]
    for run, resume in (("run", None), ("resumed", "run")):
        cli_dir, lib_dir = tmp_path / "cli" / run, tmp_path / "lib" / run
        extra = [] if resume is None else ["--resume", tmp_path / "cli" / resume /
                                           "checkpoint.json"]
        assert quiet_main(["train", *flags, *extra, "--out", cli_dir])[0] == 0
        train(dataset, config, train_config, log_path=lib_dir / "training_log.csv",
              checkpoint_path=lib_dir / "checkpoint.json",
              resume=None if resume is None else load_checkpoint(
                  tmp_path / "lib" / resume / "checkpoint.json"))
        for name in ("checkpoint.json", "training_log.csv"):
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), (run, name)
    assert load_checkpoint(tmp_path / "cli" / "resumed" / "checkpoint.json").epochs_trained == 2


# ------------------------------------------------------------------ memory

LARGE = (1500, 6000)


@pytest.fixture(scope="module")
def large_archives(tmp_path_factory):
    """Archives of the first 1500 and 6000 scenarios of one synthesis at
    10 fps, with the byte size of the larger one's features."""
    root = tmp_path_factory.mktemp("large")
    scenarios = synthesize(max(LARGE), 10, seed=11)
    paths = {}
    for n in LARGE:
        paths[n] = root / f"archive-{n}.json"
        save_archive(paths[n], scenarios[:n], 10)
    return paths, scenarios.features.nbytes


def traced_peak(argv) -> int:
    """The tracemalloc peak of one CLI call, in bytes above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert quiet_main(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_eval_peak_grows_by_the_displacements(large_archives, tmp_path):
    # Between 1500 and 6000 scenarios the peak grows by the (n, T_pred)
    # displacements eval keeps, plus at most 1 MB: the head's ids and
    # (n,) columns, about 100 bytes a row. The features and spectra it
    # holds are one block's.
    paths, _ = large_archives
    config = preset_config("gftnn", 10, hidden=8)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, config, build_basis(config), init_params(config, 0))
    peaks = {n: traced_peak(["eval", "--archive", paths[n], "--checkpoint", ckpt,
                             "--out", tmp_path / f"eval-{n}"]) for n in LARGE}
    displacements = 2 * 8 * config.t_pred * (LARGE[1] - LARGE[0])
    assert peaks[LARGE[1]] - peaks[LARGE[0]] <= displacements + 1e6, peaks


def test_cli_train_holds_less_than_the_archives_features(large_archives, tmp_path):
    # The sides are streamed into spectra of 2 of the 30 temporal modes:
    # the run holds the spectra, futures and one block, not the features.
    paths, features = large_archives
    peak = traced_peak(["train", "--archive", paths[LARGE[1]], "--preset", "gftnn-rdcby15",
                        "--hidden", 8, "--epochs", 1, "--out", tmp_path / "run"])
    assert peak < features, (peak, features)
