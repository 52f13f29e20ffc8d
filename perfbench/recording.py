"""Seeded highway recording for the recording-25fps workload.

Vehicles enter a straight multi-lane road at staggered random frames and
stay in view for the same number of frames, so every track yields the
same number of extraction windows. A fixed number of vehicles change lane
to the left or right along a logistic lateral profile whose lane crossing
sits in the middle of the prediction part of one window, and a fixed
number of keep-lane vehicles lose a few frames inside one window (a
coverage gap that only that window sees). The window count of each
maneuver class, and the number of skipped windows, are therefore known in
advance and do not depend on the seed; positions, speeds, entry frames
and which vehicle does what do.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LANE_WIDTH = 3.5        # metres, the lane width gftnn labels with
N_LANES = 4
FPS = 25
T_OBS_S, T_PRED_S = 3.0, 5.0
OBS_FRAMES = round(FPS * T_OBS_S)
PRED_FRAMES = round(FPS * T_PRED_S)   # also prep's default window stride
HEADWAY_S = 1.5         # mean gap between entries on one lane
NOISE_STD = 0.05        # metres of position noise
GAP_FRAMES = 5          # frames dropped from a gapped track
SPEED_RANGE = (22.0, 33.0)
ACCEL_RANGE = (-0.4, 0.4)
RATE_RANGE = (1.0, 2.5)
COLUMNS = ("frame", "vehicle_id", "x", "y", "vx", "vy", "lane_id")


@dataclass(frozen=True)
class Spec:
    n_tracks: int = 300
    windows_per_track: int = 2
    n_left: int = 75
    n_right: int = 75
    n_gapped: int = 30

    def __post_init__(self):
        if self.n_left + self.n_right + self.n_gapped > self.n_tracks:
            raise ValueError("more special vehicles than tracks")
        if self.windows_per_track < 1:
            raise ValueError("need one window per track")

    @property
    def track_frames(self) -> int:
        return OBS_FRAMES + self.windows_per_track * PRED_FRAMES

    def expected_windows(self) -> dict:
        """Windows prep extracts per maneuver class, plus the skipped ones."""
        total = self.n_tracks * self.windows_per_track - self.n_gapped
        return {
            "keep_lane": total - self.n_left - self.n_right,
            "lane_change_left": self.n_left,
            "lane_change_right": self.n_right,
            "skipped": self.n_gapped,
        }


@dataclass(frozen=True)
class Track:
    vehicle_id: int
    role: str               # keep, gap, left or right
    frame: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    lane_id: np.ndarray


def generate(spec: Spec, seed: int) -> list[Track]:
    rng = np.random.default_rng(seed)
    roles = (["left"] * spec.n_left + ["right"] * spec.n_right
             + ["gap"] * spec.n_gapped)
    roles += ["keep"] * (spec.n_tracks - len(roles))
    roles = [roles[i] for i in rng.permutation(spec.n_tracks)]
    span = int(spec.n_tracks / N_LANES * HEADWAY_S * FPS)
    entries = rng.integers(0, span, size=spec.n_tracks)
    n = spec.track_frames
    t = np.arange(n) / FPS
    tracks = []
    for i, role in enumerate(roles):
        if role == "left":
            lane0 = int(rng.integers(1, N_LANES))
        elif role == "right":
            lane0 = int(rng.integers(2, N_LANES + 1))
        else:
            lane0 = int(rng.integers(1, N_LANES + 1))
        v0 = rng.uniform(*SPEED_RANGE)
        accel = rng.uniform(*ACCEL_RANGE)
        x = v0 * t + 0.5 * accel * t * t
        vx = v0 + accel * t
        y = np.full(n, (lane0 + 0.5) * LANE_WIDTH)
        vy = np.zeros(n)
        keep = np.ones(n, dtype=bool)
        k = int(rng.integers(spec.windows_per_track))
        if role in ("left", "right"):
            # Cross the lane boundary half a frame after the middle of the
            # prediction part of window k; the label then comes from a
            # lateral move far larger than the noise.
            crossing = k * PRED_FRAMES + OBS_FRAMES - 1 + PRED_FRAMES // 2
            amplitude = LANE_WIDTH if role == "left" else -LANE_WIDTH
            rate = rng.uniform(*RATE_RANGE)
            g = expit(rate * (t - (crossing + 0.5) / FPS))
            y = y + amplitude * g
            vy = amplitude * rate * g * (1.0 - g)
        elif role == "gap":
            # Frames only window k covers: after window k-1 ends, before
            # window k+1 starts.
            first = k * PRED_FRAMES + OBS_FRAMES + 15
            keep[first:first + GAP_FRAMES] = False
        lane = np.floor(y / LANE_WIDTH).astype(np.int64)
        x = x + rng.normal(0.0, NOISE_STD, n)
        y = y + rng.normal(0.0, NOISE_STD, n)
        frame = int(entries[i]) + np.arange(n)
        tracks.append(Track(i + 1, role, frame[keep], x[keep], y[keep],
                            vx[keep], vy[keep], lane[keep]))
    return tracks


def write_csv(tracks, path) -> int:
    """Write the normalized schema, rows in recording order; returns rows."""
    cols = [np.concatenate([getattr(tr, name) for tr in tracks])
            for name in ("frame", "x", "y", "vx", "vy", "lane_id")]
    vid = np.concatenate([np.full(tr.frame.size, tr.vehicle_id) for tr in tracks])
    order = np.lexsort((vid, cols[0]))
    frame, x, y, vx, vy, lane = (c[order].tolist() for c in cols)
    vid = vid[order].tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(zip(frame, vid, map(repr, x), map(repr, y),
                             map(repr, vx), map(repr, vy), lane))
    return len(frame)
