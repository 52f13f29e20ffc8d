import csv
import json

import numpy as np
import pytest

from gftnn.metrics import (HISTOGRAM_MAX_BINS, ade, ade_euclid_mean, evaluate, fde,
                           histogram,
                           histogram_mode, per_scenario_ade,
                           write_histogram_csv, write_report_json)
from gftnn.model import Trajectory


def traj(dx=0.0, dy=0.0, n=5, slope=1.0):
    """Straight-line trajectory offset by (dx, dy) at every step."""
    t = np.arange(n + 1, dtype=np.float64)
    return Trajectory(slope * t + dx, np.zeros(n + 1) + dy)


def test_zero_error_for_identical():
    truth = [traj(), traj(slope=2.0)]
    assert ade(truth, truth) == 0.0
    assert fde(truth, truth) == 0.0
    assert ade_euclid_mean(truth, truth) == 0.0


def test_unit_offset():
    assert ade([traj(dx=1.0)], [traj()]) == 1.0
    assert fde([traj(dx=1.0)], [traj()]) == 1.0
    assert ade_euclid_mean([traj(dx=1.0)], [traj()]) == 1.0


def test_three_four_five():
    pred = [traj(dx=3.0, dy=4.0)]
    truth = [traj()]
    assert abs(ade(pred, truth) - 5.0) < 1e-12
    assert abs(fde(pred, truth) - 5.0) < 1e-12


def test_rms_ade_differs_from_mean_euclid():
    # constant per-step errors of 1 and 7: the RMS form averages squares
    # first, so it lands on 5 rather than on the plain mean 4
    preds = [traj(dx=1.0), traj(dx=7.0)]
    truths = [traj(), traj()]
    assert abs(ade(preds, truths) - 5.0) < 1e-12
    assert abs(ade_euclid_mean(preds, truths) - 4.0) < 1e-12
    assert abs(fde(preds, truths) - 4.0) < 1e-12


def test_per_scenario_values():
    preds = [traj(dx=1.0), traj(dx=7.0)]
    truths = [traj(), traj()]
    assert np.allclose(per_scenario_ade(preds, truths), [1.0, 7.0],
                       rtol=0, atol=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=6)
    ys = rng.normal(size=6)
    pred = Trajectory(xs, ys)
    truth = Trajectory(xs + rng.normal(size=6) * 0.1, ys)
    shift = 512.0
    pred_s = Trajectory(pred.x + shift, pred.y - shift)
    truth_s = Trajectory(truth.x + shift, truth.y - shift)
    assert abs(ade([pred], [truth]) - ade([pred_s], [truth_s])) < 1e-9
    assert abs(fde([pred], [truth]) - fde([pred_s], [truth_s])) < 1e-9


def test_symmetry_in_arguments():
    rng = np.random.default_rng(1)
    a = [Trajectory(rng.normal(size=7), rng.normal(size=7)) for _ in range(3)]
    b = [Trajectory(rng.normal(size=7), rng.normal(size=7)) for _ in range(3)]
    assert ade(a, b) == ade(b, a)
    assert fde(a, b) == fde(b, a)


def test_step_zero_is_ignored():
    # identical from step 1 on; only the (excluded) anchor differs
    pred = Trajectory(np.array([5.0, 1.0, 2.0]), np.zeros(3))
    truth = Trajectory(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    assert ade([pred], [truth]) == 0.0


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        ade([], [])
    with pytest.raises(ValueError, match="predictions"):
        ade([traj()], [traj(), traj()])
    with pytest.raises(ValueError, match="lengths"):
        ade([traj(n=5)], [traj(n=6)])


@pytest.mark.parametrize("predictions, truths", [
    ([traj(n=5), traj(n=4)], [traj(n=5), traj(n=5)]),
    ([traj(n=5), traj(n=5)], [traj(n=5), traj(n=4)]),
])
def test_mixed_lengths_name_the_first_odd_trajectory(predictions, truths):
    with pytest.raises(ValueError) as exc:
        ade(predictions, truths)
    assert str(exc.value) == ("trajectory 1 has 5 samples, but trajectory 0 has 6; "
                              "a batch holds one length")


# ------------------------------------------------------------------ histogram

def test_histogram_basic():
    edges, counts = histogram([0.1, 0.5, 0.9], bin_width=0.5)
    assert np.allclose(edges, [0.0, 0.5, 1.0])
    assert np.array_equal(counts, [1, 2])


def test_histogram_single_bin():
    edges, counts = histogram([0.31, 0.33, 0.39], bin_width=0.1)
    assert counts.sum() == 3
    assert np.array_equal(counts, [0, 0, 0, 3])
    assert histogram_mode(edges, counts) == pytest.approx(0.3)


def test_histogram_empty():
    edges, counts = histogram([], bin_width=0.1)
    assert edges.size == 0
    assert counts.size == 0
    with pytest.raises(ValueError):
        histogram_mode(edges, counts)


def test_histogram_mode_tie_takes_lower_edge():
    edges, counts = histogram([0.05, 0.15], bin_width=0.1)
    assert np.array_equal(counts, [1, 1])
    assert histogram_mode(edges, counts) == 0.0


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError, match="non-negative"):
        histogram([-0.1, 0.5])
    for width in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError) as info:
            histogram([0.5], bin_width=width)
        assert str(info.value) == f"bin width must be positive and finite, got {width}"


def test_histogram_refuses_more_bins_than_its_bound():
    # 0.7 / 1e-300 overflows an int64 bin index; the width is refused first.
    for width in (1e-300, 0.35 / HISTOGRAM_MAX_BINS):
        with pytest.raises(ValueError) as info:
            histogram([0.5, 0.7], bin_width=width)
        assert str(info.value) == (f"bin width {width} needs more than "
                                   f"{HISTOGRAM_MAX_BINS} bins for values up to 0.7")
    edges, counts = histogram([0.5, 0.7], bin_width=1.4 / HISTOGRAM_MAX_BINS)
    assert HISTOGRAM_MAX_BINS / 2 <= counts.size <= HISTOGRAM_MAX_BINS
    assert counts.sum() == 2 and edges.size == counts.size + 1


def test_histogram_zero_values_land_in_first_bin():
    edges, counts = histogram([0.0, 0.0], bin_width=0.1)
    assert np.array_equal(counts, [2])
    assert np.allclose(edges, [0.0, 0.1])


# ------------------------------------------------------------------- evaluate

def test_evaluate_report_consistency():
    rng = np.random.default_rng(2)
    dx, dy = rng.normal(0, 0.5, size=(2, 10, 7))
    report = evaluate(dx, dy, bin_width=0.25)
    assert report.n_scenarios == 10
    assert report.bin_counts.sum() == 10
    assert report.per_scenario_ade.shape == (10,)
    # the headline ADE is the RMS of the per-scenario figures
    assert abs(report.ade - np.sqrt(np.mean(report.per_scenario_ade ** 2))) < 1e-12
    assert report.ade >= report.ade_euclid_mean
    assert report.bin_edges.size == report.bin_counts.size + 1


def test_evaluate_reads_displacements_as_the_list_functions_form_them():
    truths = [traj(), traj(slope=2.0)]
    preds = [traj(dx=0.5), traj(dy=1.25, slope=2.0)]
    report = evaluate(np.array([[0.5] * 5, [0.0] * 5]), np.array([[0.0] * 5, [1.25] * 5]))
    assert report.n_scenarios == 2
    assert (report.ade, report.fde, report.ade_euclid_mean) == (
        ade(preds, truths), fde(preds, truths), ade_euclid_mean(preds, truths))
    assert report.per_scenario_ade.tolist() == per_scenario_ade(preds, truths).tolist()
    assert report.per_scenario_ade.tolist() == [0.5, 1.25]


def test_report_writers_roundtrip(tmp_path):
    report = evaluate(np.array([[0.5] * 5, [0.0] * 5]), np.array([[0.0] * 5, [1.25] * 5]),
                      bin_width=0.5)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "hist.csv"
    write_report_json(report, jpath)
    write_histogram_csv(report, cpath)
    doc = json.loads(jpath.read_text())
    assert doc["n_scenarios"] == 2
    assert doc["ade"] == report.ade
    assert doc["fde"] == report.fde
    assert doc["ade_euclid_mean"] == report.ade_euclid_mean
    assert np.allclose(doc["per_scenario_ade"], report.per_scenario_ade)
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_left", "bin_right", "count"]
    assert len(rows) == 1 + report.bin_counts.size
    assert [int(r[2]) for r in rows[1:]] == report.bin_counts.tolist()
    assert float(rows[1][0]) == 0.0
