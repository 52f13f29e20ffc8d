"""Block reads: eval and train hold one block of an archive's rows at a time."""
import contextlib
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gftnn import model, store
from gftnn.cli import main
from gftnn.metrics import evaluate
from gftnn.model import (block_spectra, build_basis, init_params, load_checkpoint,
                         preset_config, save_checkpoint, score_blocks)
from gftnn.scenario import (BLOCK_ROWS, Archive, load_archive, open_archive, save_archive,
                            split, split_indices, synthesize)
from gftnn.training import TrainConfig, _prepare, train
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
    dx, dy = score_blocks(block_spectra(whole[rows].blocks(), basis, config), rows.size,
                          ckpt_doc.params, config)[1:]
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


def live_blocks(monkeypatch):
    """How many batches ``Archive.read`` returned are alive at each read,
    before it reads, and at each ``model.score`` call, which still reads
    and scores."""
    blocks, counts = [], {"read": [], "score": []}
    read, score = Archive.read, model.score

    def alive():
        return sum(ref() is not None for ref in blocks)

    def spy_read(self, *args):
        counts["read"].append(alive())
        batch = read(self, *args)
        blocks.append(weakref.ref(batch))
        return batch

    def spy_score(*args):
        counts["score"].append(alive())
        return score(*args)

    monkeypatch.setattr(Archive, "read", spy_read)
    monkeypatch.setattr(model, "score", spy_score)
    return counts


@pytest.mark.parametrize("command, flags, reads, scores", [
    ("eval", [], 3, 3),
    ("eval", ["--subset", "test"], 2, 2),
    ("eval", ["--self-test"], 3, 0),
    # Both sides are read, two blocks each; the test pass scores two
    # blocks of spectra, not of rows.
    ("train", ["--preset", "gftnn", "--hidden", 8, "--epochs", 1], 4, 2),
])
def test_no_block_outlives_its_scoring(archives, tmp_path, monkeypatch, command, flags,
                                       reads, scores):
    # 600 rows are three blocks, and each side of the split two: every
    # block is dropped before it is scored and before the next is read.
    paths, ckpt = archives["gftnn"]
    counts = live_blocks(monkeypatch)
    checkpoint = ["--checkpoint", ckpt] if command == "eval" else []
    rc, _ = quiet_main([command, "--archive", paths[600], *checkpoint, *flags,
                        "--split-ratio", RATIO, "--seed", SEED, "--out", tmp_path / "out"])
    assert rc == 0
    assert counts == {"read": [0] * reads, "score": [0] * scores}


def count_reads(monkeypatch):
    """The ``Payload._read_into`` calls per array name, which still read."""
    calls = {}
    read_into = store.Payload._read_into

    def spy(self, arr, offset, name):
        calls[name] = calls.get(name, 0) + 1
        return read_into(self, arr, offset, name)

    monkeypatch.setattr(store.Payload, "_read_into", spy)
    return calls


@pytest.mark.parametrize("preset", GRIDS)
def test_train_reads_a_shuffled_side_in_file_order(archives, monkeypatch, preset):
    # Each side of the split of 600 is shuffled and spans two blocks.
    # train reads it in file order, one call per run of consecutive rows
    # (a block's edge may cut a run), and places each row at its drawn
    # position: the spectra of the rows read whole in drawn order. A read
    # of the side gives the bytes of those rows of a whole read.
    paths, _ = archives[preset]
    whole = load_archive(paths[600])[0]
    config = preset_config(preset, GRIDS[preset], hidden=8)
    basis = build_basis(config)
    for rows in split_indices(whole.codes, RATIO, SEED):
        want = _prepare(whole[rows], basis, config)
        runs = 1 + int(np.count_nonzero(np.diff(np.sort(rows)) != 1))
        blocks = -(-rows.size // BLOCK_ROWS)
        with open_archive(paths[600]) as archive:
            side = archive.take(rows)
            calls = count_reads(monkeypatch)
            got = _prepare(side, basis, config)
            assert set(calls) == {"features", "future"}
            assert max(calls.values()) <= runs + blocks - 1, (calls, runs)
            monkeypatch.undo()
            read = side.read()
        for name, got_array, want_array in zip(("spectra", "v0", "futures"), got, want):
            assert got_array.tobytes() == want_array.tobytes(), name
        assert read.ids == whole[rows].ids
        for name in ("codes", "v0", "first_frame", "vehicle_id", "features", "futures"):
            assert getattr(read, name).tobytes() == getattr(whole, name)[rows].tobytes(), name


def test_train_names_a_corrupt_row_by_its_archive_index(archives, tmp_path):
    # A row of the training side past its first block in file order.
    paths, _ = archives["gftnn"]
    codes = load_archive(paths[600])[0].codes
    bad = int(np.sort(split_indices(codes, RATIO, SEED)[0])[BLOCK_ROWS + 3])
    archive = tmp_path / "archive.json"
    archive.write_bytes(poked("features", bad, math.nan, 7)(paths[600].read_bytes()))
    out = tmp_path / "run"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc, stdout = quiet_main(["train", "--archive", archive, "--hidden", 8, "--epochs", 1,
                                 "--split-ratio", RATIO, "--seed", SEED, "--out", out])
    assert (rc, stdout) == (1, "")
    assert err.getvalue() == (f"error: {archive}: scenario {bad} ('synth-{bad:05d}'): "
                              f"scenario synth-{bad:05d}: non-finite data\n")
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

