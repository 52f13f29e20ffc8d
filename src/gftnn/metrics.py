"""Displacement metrics and evaluation reports.

The headline ADE is the root of the mean (over scenarios and steps) squared
displacement, i.e. an RMS figure. The more common mean-Euclidean variant is
also provided, as ade_euclid_mean, because the two are NOT interchangeable;
by Jensen's inequality the RMS form is never smaller. FDE is the mean
Euclidean displacement at the final step. Step 0 is anchored to the origin
on both sides and is excluded everywhere.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import loss_batch

# The most bins a histogram may have; a narrower bin width is refused.
HISTOGRAM_MAX_BINS = 1_000_000
BIN_WIDTH = 0.1     # metres, the histogram bin width unless one is given


def _stacked(trajectories):
    """The (B, T_pred + 1) ``x`` and ``y`` of a list of equally long
    trajectories."""
    for i, t in enumerate(trajectories):
        if len(t) != len(trajectories[0]):
            raise ValueError(f"trajectory {i} has {len(t)} samples, but trajectory 0 "
                             f"has {len(trajectories[0])}; a batch holds one length")
    return np.stack([t.x for t in trajectories]), np.stack([t.y for t in trajectories])


def _displacements(predictions, truths):
    """(B, T_pred) displacements of predicted from true trajectories, two
    equally long lists, at steps 1 on: ``model.loss_batch``'s."""
    if len(predictions) != len(truths):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(truths)} truths"
        )
    if len(predictions) == 0:
        raise ValueError("cannot evaluate an empty set of trajectories")
    (x, y), (tx, ty) = _stacked(predictions), _stacked(truths)
    if x.shape != tx.shape:
        raise ValueError("prediction and truth lengths differ")
    return loss_batch(x, y, np.stack([tx[:, 1:], ty[:, 1:]], axis=2))[1:]


def ade_from_displacements(dx, dy) -> float:
    return float(np.sqrt(np.mean(dx * dx + dy * dy)))


def fde_from_displacements(dx, dy) -> float:
    return float(np.mean(np.hypot(dx[:, -1], dy[:, -1])))


def ade_euclid_mean_from_displacements(dx, dy) -> float:
    return float(np.mean(np.hypot(dx, dy)))


def per_scenario_ade_from_displacements(dx, dy) -> np.ndarray:
    return np.sqrt(np.mean(dx * dx + dy * dy, axis=1))


def ade(predictions, truths) -> float:
    """RMS average displacement error over steps 1 .. T_pred."""
    dx, dy = _displacements(predictions, truths)
    return ade_from_displacements(dx, dy)


def fde(predictions, truths) -> float:
    """Mean Euclidean displacement at the final step."""
    dx, dy = _displacements(predictions, truths)
    return fde_from_displacements(dx, dy)


def ade_euclid_mean(predictions, truths) -> float:
    """Mean Euclidean displacement over all steps (not the headline ADE)."""
    dx, dy = _displacements(predictions, truths)
    return ade_euclid_mean_from_displacements(dx, dy)


def per_scenario_ade(predictions, truths) -> np.ndarray:
    """Per-scenario RMS displacement, used for error histograms."""
    dx, dy = _displacements(predictions, truths)
    return per_scenario_ade_from_displacements(dx, dy)


def check_bin_width(bin_width):
    """Refuse a histogram bin width that is not positive and finite."""
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")


def histogram(values, bin_width: float = BIN_WIDTH):
    """Fixed-width histogram anchored at zero; returns (edges, counts).

    A value lands in bin floor(v / bin_width); edges has one more entry
    than counts. Empty input gives empty arrays. A width that is not
    positive and finite (see ``check_bin_width``), or that needs more than
    ``HISTOGRAM_MAX_BINS`` bins for the largest value, is refused.
    """
    check_bin_width(bin_width)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    if np.any(values < 0):
        raise ValueError("histogram expects non-negative values")
    if not values.max() / bin_width < HISTOGRAM_MAX_BINS:
        raise ValueError(f"bin width {bin_width} needs more than {HISTOGRAM_MAX_BINS} "
                         f"bins for values up to {values.max()}")
    idx = np.floor(values / bin_width).astype(np.int64)
    counts = np.bincount(idx)
    edges = np.arange(counts.size + 1) * bin_width
    return edges, counts


def histogram_mode(edges, counts) -> float:
    """Left edge of the most populated bin (ties: lowest edge)."""
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("empty histogram has no mode")
    return float(edges[int(np.argmax(counts))])


@dataclass(frozen=True)
class EvalReport:
    n_scenarios: int
    ade: float
    fde: float
    ade_euclid_mean: float
    per_scenario_ade: np.ndarray
    bin_width: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def evaluate(dx, dy, bin_width: float = BIN_WIDTH) -> EvalReport:
    """The report of (B, T_pred) displacements ``dx, dy`` at steps 1 on,
    as ``model.loss_batch`` gives them."""
    per = per_scenario_ade_from_displacements(dx, dy)
    edges, counts = histogram(per, bin_width)
    return EvalReport(
        n_scenarios=len(dx),
        ade=ade_from_displacements(dx, dy),
        fde=fde_from_displacements(dx, dy),
        ade_euclid_mean=ade_euclid_mean_from_displacements(dx, dy),
        per_scenario_ade=per,
        bin_width=bin_width,
        bin_edges=edges,
        bin_counts=counts,
    )


def write_report_json(report: EvalReport, path):
    doc = {
        "n_scenarios": report.n_scenarios,
        "ade": report.ade,
        "fde": report.fde,
        "ade_euclid_mean": report.ade_euclid_mean,
        "bin_width": report.bin_width,
        "per_scenario_ade": report.per_scenario_ade.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_histogram_csv(report: EvalReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(report.bin_counts):
            writer.writerow([repr(float(report.bin_edges[i])),
                             repr(float(report.bin_edges[i + 1])),
                             int(count)])
