"""Spectral encoder and closed-form trajectory decoder.

The model maps the truncated graph-spectral coefficients of a scenario to
three latent quantities: a longitudinal acceleration and the amplitude and
rate of a logistic lateral profile. Decoding is an explicit formula rather
than a learned layer, so predictions are smooth by construction and the
whole network stays small. The forward pass, decoder and loss work on
batches; one scenario is a batch of one.
"""
from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import erf, expit

from .graph import inverse_distance_weights
from .spectral import (DEGENERACY_TOL, ProductBasis, Spectrum, complete_spectrum,
                       gft_extended, path_spectrum, star_spectra,
                       truncate_spectrum)
from .store import Table, encode_array, read_document

OUT = 3
LN_EPS = 1e-5
CHECKPOINT_VERSION = 2
ORTHONORMAL_TOL = 1e-9          # max |V^T V - I| of a stored basis factor
GRAPH_KINDS = ("spider", "mesh")
PRESETS = ("gftnn", "gftnn-w", "gftnn-rdcby5", "gftnn-rdcby15")
PRESET_T_OBS_S = 3.0            # observed window of every preset, seconds
PRESET_T_PRED_S = 5.0           # predicted window of every preset, seconds
CHANNEL_KINDS = ("w_n", "b_n", "w_l", "b_l")    # per-channel block arrays

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class NumericError(RuntimeError):
    """A forward or backward intermediate stopped being finite."""


@dataclass(frozen=True)
class ModelConfig:
    k: int                      # feature channels fed to the encoder (2 or 4)
    t_obs: int                  # observed steps (temporal graph size)
    t_pred: int                 # predicted steps
    n_v: int                    # vehicle slots (spatial graph size)
    p: int                      # temporal modes kept after truncation
    hidden: int = 50
    graph_kind: str = "spider"
    weighted: bool = False
    fps: float = 25.0

    def __post_init__(self):
        if self.k not in (2, 4):
            raise ValueError(f"k must be 2 or 4, got {self.k}")
        if self.t_obs < 2:
            raise ValueError(f"t_obs must be at least 2, got {self.t_obs}")
        if self.t_pred < 1:
            raise ValueError(f"t_pred must be at least 1, got {self.t_pred}")
        if self.n_v < 2:
            raise ValueError(f"n_v must be at least 2, got {self.n_v}")
        if not 1 <= self.p <= self.t_obs:
            raise ValueError(f"p must be in [1, {self.t_obs}], got {self.p}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be positive, got {self.hidden}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}")
        if self.weighted and self.graph_kind != "spider":
            raise ValueError("inverse-distance weighting needs a spider graph")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")

    @property
    def zk(self) -> int:
        """Spectral coefficients per feature channel."""
        return self.p * self.n_v

    @property
    def z(self) -> int:
        """Total input size of the encoder."""
        return self.k * self.p * self.n_v


def preset_config(preset: str, fps, n_vehicles: int = 9,
                  hidden: int = 50) -> ModelConfig:
    """Named configurations over PRESET_T_OBS_S observed and PRESET_T_PRED_S
    predicted seconds; fps must be one of the supported camera rates."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    if fps not in (10, 25):
        raise ValueError(f"preset {preset!r} expects fps 10 or 25, got {fps}")
    t_obs = round(fps * PRESET_T_OBS_S)
    t_pred = round(fps * PRESET_T_PRED_S)
    k = 4
    weighted = False
    p = t_obs
    if preset == "gftnn-w":
        k = 2
        weighted = True
    elif preset == "gftnn-rdcby5":
        p = max(1, t_obs // 5)
    elif preset == "gftnn-rdcby15":
        p = max(1, t_obs // 15)
    return ModelConfig(k=k, t_obs=t_obs, t_pred=t_pred, n_v=n_vehicles, p=p,
                       hidden=hidden, weighted=weighted, fps=float(fps))


class ModelParams:
    """Named float64 parameter arrays, all views into one flat vector.

    ``shapes`` maps each name to its shape in iteration order (see
    ``param_shapes``); ``flat`` holds the values of every array in that
    order, each in C order. The channel arrays of one kind lie next to each
    other, so ``w_n``, ``b_n``, ``w_l`` and ``b_l`` are ``(k, ...)`` views
    and ``w_n[i]`` is the array named ``w_n_i``. Writing through a view
    writes ``flat``.
    """

    def __init__(self, shapes: dict, flat=None):
        self.shapes = dict(shapes)
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        self._views = {}
        starts = {}
        offset = 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            self._views[name] = self.flat[offset:offset + size].reshape(shape)
            starts[name] = offset
            offset += size
        k = (len(self.shapes) - 3) // 4
        self.w_s = self._views["w_s"]
        for kind in CHANNEL_KINDS:
            shape = self.shapes[f"{kind}_0"]
            start = starts[f"{kind}_0"]
            setattr(self, kind, self.flat[start:start + k * math.prod(shape)]
                    .reshape(k, *shape))
        self.w_h = self._views["w_h"]
        self.b_h = self._views["b_h"]

    def items(self):
        return self._views.items()

    @property
    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.shapes, self.flat.copy())

    @classmethod
    def from_named(cls, named: dict, k: int) -> "ModelParams":
        arrays = {name: np.asarray(named[name], dtype=np.float64)
                  for name in _param_names(k)}
        return cls({name: arr.shape for name, arr in arrays.items()},
                   np.concatenate([arr.ravel() for arr in arrays.values()]))


def _param_names(k: int) -> list:
    per_channel = [f"{kind}_{i}" for kind in CHANNEL_KINDS for i in range(k)]
    return ["w_s", *per_channel, "w_h", "b_h"]


def param_shapes(config: ModelConfig) -> dict:
    per_kind = {"w_n": (config.hidden, config.zk), "b_n": (config.hidden,),
                "w_l": (OUT, config.hidden), "b_l": (OUT,)}
    shapes = {"w_s": (config.z,)}
    for kind in CHANNEL_KINDS:
        for k in range(config.k):
            shapes[f"{kind}_{k}"] = per_kind[kind]
    shapes["w_h"] = (OUT, OUT * config.k)
    shapes["b_h"] = (OUT,)
    return shapes


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform fan-in initialisation; gate weights start at 1, biases at 0."""
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = ModelParams(param_shapes(config))
    params.w_s[:] = 1.0
    for k in range(config.k):
        params.w_n[k][:] = uniform((config.hidden, config.zk), config.zk)
        params.w_l[k][:] = uniform((OUT, config.hidden), config.hidden)
    params.w_h[:] = uniform((OUT, OUT * config.k), OUT * config.k)
    return params


def gelu(x):
    """Exact Gaussian error linear unit, x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x * _SQRT1_2))


def gelu_grad(x):
    """d/dx of exact GELU: Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x * _SQRT1_2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _ensure_finite(arr, layer: str):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {layer}")


def forward(s, params: ModelParams, config: ModelConfig):
    """Encoder on a (B, z) batch of truncated spectra.

    Per row: an elementwise spectral gate, then per feature channel a
    block of layer norm (no learned scale or shift), linear, GELU and
    linear down to 3, and a head that maps the sigmoids of all blocks to
    the latent triple. The k channel blocks run as one stacked pass over
    (k, B, zk). Returns the (B, 3) latents and the intermediates the
    backward pass needs, the block ones stacked as (k, B, ...).
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != config.z:
        raise ValueError(f"spectra shape {s.shape} does not match (B, {config.z})")
    b = s.shape[0]
    h_s = s * params.w_s
    _ensure_finite(h_s, "spectral_gate")
    x = h_s.reshape(b, config.k, config.zk).transpose(1, 0, 2)
    normed = np.subtract(x, x.mean(axis=2, keepdims=True), order="C")
    # The gate output is spent: its buffer takes the squares for the variance.
    sq = np.multiply(normed, normed, out=x)
    sig = np.sqrt(sq.mean(axis=2, keepdims=True) + LN_EPS)
    del h_s, x, sq
    np.divide(normed, sig, out=normed)
    z_lin = np.matmul(normed, params.w_n.transpose(0, 2, 1))
    z_lin += params.b_n[:, None, :]
    act = gelu(z_lin)
    out = np.matmul(act, params.w_l.transpose(0, 2, 1))
    out += params.b_l[:, None, :]
    if not np.all(np.isfinite(out)):
        k = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
        raise NumericError(f"non-finite values in mlp_block_{k}")
    sg = expit(out.transpose(1, 0, 2).reshape(b, OUT * config.k))
    h_z = sg @ params.w_h.T + params.b_h
    _ensure_finite(h_z, "head")
    return h_z, {"sig": sig, "normed": normed, "z_lin": z_lin, "act": act,
                 "sg": sg}


@dataclass(frozen=True)
class Trajectory:
    """Planar trajectory sampled at step 0 .. T_pred, relative to step 0."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError(f"bad trajectory shapes {x.shape}, {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("trajectory must be finite")
        x = np.ascontiguousarray(x)
        y = np.ascontiguousarray(y)
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.x.size


def _horizon(t_pred: int, fps):
    # Sample times 0 .. T_pred and their offsets from the horizon midpoint.
    t = np.arange(t_pred + 1) / fps
    return t, t - 0.5 * (t_pred / fps)


def decode_batch(h_z, v0, t_pred: int, fps):
    """Roll (B, 3) latents out into trajectories: (x, y), each (B, T_pred + 1).

    Longitudinal: constant acceleration h_z[:, 0] on top of the observed
    speed v0 (B,). Lateral: logistic profile with amplitude h_z[:, 1] and
    rate h_z[:, 2], centred on the horizon midpoint and shifted so
    y(0) = 0. Both components are exactly zero at step 0.
    """
    t, tau = _horizon(t_pred, fps)
    x = v0[:, None] * t + 0.5 * h_z[:, 0:1] * (t * t)
    g = expit(-h_z[:, 2:3] * tau)
    y = h_z[:, 1:2] * (g - g[:, :1])
    return x, y


def decode(h_z, v0: float, t_pred: int, fps) -> Trajectory:
    """Roll one latent triple out into a trajectory (see ``decode_batch``)."""
    h = np.asarray(h_z, dtype=np.float64)
    if h.shape != (OUT,):
        raise ValueError(f"latent state must have shape ({OUT},), got {h.shape}")
    x, y = decode_batch(h[None, :], np.array([v0], dtype=np.float64), t_pred, fps)
    return Trajectory(x=x[0], y=y[0])


def loss_batch(x, y, futures):
    """Mean squared displacement per scenario over steps 1 .. T_pred, x and
    y summed, for decoded (B, T_pred + 1) trajectories against (B, T_pred, 2)
    recorded futures. Step 0 is pinned to the origin on both sides and
    carries no signal. Returns the (B,) losses and the displacements."""
    dx = x[:, 1:] - futures[:, :, 0]
    dy = y[:, 1:] - futures[:, :, 1]
    return np.mean(dx * dx + dy * dy, axis=1), dx, dy


def decode_partials(h_z, t_pred: int, fps):
    """Analytic derivatives of the decoded trajectory w.r.t. the latents.

    Returns (dx/dh1, dy/dh2, dy/dh3), each sampled at step 0 .. T_pred.
    Accepts a single latent triple or a batch (B, 3).
    """
    h = np.asarray(h_z, dtype=np.float64)
    single = h.ndim == 1
    h = np.atleast_2d(h)
    if h.shape[1] != OUT:
        raise ValueError(f"latent state must have {OUT} entries, got {h.shape}")
    t, tau = _horizon(t_pred, fps)
    g = expit(-h[:, 2:3] * tau)
    g0 = g[:, :1]
    dx_dh1 = np.broadcast_to(0.5 * t * t, g.shape).copy()
    dy_dh2 = g - g0
    dy_dh3 = h[:, 1:2] * (-tau * g * (1.0 - g) + tau[0] * g0 * (1.0 - g0))
    if single:
        return dx_dh1[0], dy_dh2[0], dy_dh3[0]
    return dx_dh1, dy_dh2, dy_dh3


def truth_trajectory(scenario) -> Trajectory:
    """The recorded future as a trajectory anchored at (0, 0)."""
    return Trajectory(
        x=np.concatenate([[0.0], scenario.future[:, 0]]),
        y=np.concatenate([[0.0], scenario.future[:, 1]]),
    )


def build_basis(config: ModelConfig) -> ProductBasis:
    """Reference eigenbases in closed form: the unit-weight temporal path
    and the unit-weight spatial star or complete graph."""
    if config.graph_kind == "spider":
        w, v = star_spectra(np.ones((1, config.n_v - 1)))
        spatial = Spectrum(w[0], v[0])
    else:
        spatial = complete_spectrum(config.n_v)
    return ProductBasis(path_spectrum(config.t_obs), spatial)


def select_channels(features, k: int):
    """Pick the encoder's channels: all four, or the two velocities."""
    if k == 4:
        return features
    if k == 2:
        return features[2:4]
    raise ValueError(f"k must be 2 or 4, got {k}")


def scenario_spectra(scenarios, basis: ProductBasis, config: ModelConfig) -> np.ndarray:
    """Truncated spectral coefficients of many scenarios, one row each: (B, z).

    With weighting enabled, each scenario's spatial factor is the star
    reweighted by inverse hub distance at its last observed step, and all
    of them come from one closed-form ``star_spectra`` call; otherwise
    every scenario uses the reference basis.
    """
    for scenario in scenarios:
        if scenario.t_obs != config.t_obs or scenario.n_vehicles != config.n_v:
            raise ValueError(
                f"scenario grid ({scenario.t_obs}, {scenario.n_vehicles}) does "
                f"not match config ({config.t_obs}, {config.n_v})"
            )
    feats = np.stack([select_channels(s.features, config.k) for s in scenarios])
    spatial = None
    if config.weighted:
        t0 = config.t_obs - 1
        positions = np.stack([s.features[:2, t0, :].T for s in scenarios])
        # One (V, V) basis per scenario, shared by its channels.
        spatial = star_spectra(inverse_distance_weights(positions))[1][:, None]
    return truncate_spectrum(gft_extended(feats, basis, spatial), config.p)


def scenario_spectrum(scenario, basis: ProductBasis, config: ModelConfig) -> np.ndarray:
    """Truncated spectral coefficients of one scenario, flattened to (z,)."""
    return scenario_spectra([scenario], basis, config)[0]


def predict_batch(scenarios, basis: ProductBasis, params: ModelParams,
                  config: ModelConfig) -> list[Trajectory]:
    """Full inference path for many scenarios: one stacked spectral pass,
    one forward pass and one decode over the whole batch."""
    for scenario in scenarios:
        if scenario.fps != config.fps:
            raise ValueError(
                f"scenario fps {scenario.fps} does not match model fps {config.fps}"
            )
        if scenario.t_pred != config.t_pred:
            raise ValueError(
                f"scenario horizon {scenario.t_pred} does not match config "
                f"{config.t_pred}"
            )
    h_z, _ = forward(scenario_spectra(scenarios, basis, config), params, config)
    v0 = np.array([scenario.v0 for scenario in scenarios])
    x, y = decode_batch(h_z, v0, config.t_pred, config.fps)
    return [Trajectory(x=xi, y=yi) for xi, yi in zip(x, y)]


def predict(scenario, basis: ProductBasis, params: ModelParams,
            config: ModelConfig) -> Trajectory:
    """Full inference path for one scenario (a batch of one)."""
    return predict_batch([scenario], basis, params, config)[0]


def _spectrum_doc(spec: Spectrum) -> dict:
    return {
        "eigenvalues": encode_array(spec.eigenvalues),
        "eigenvectors": encode_array(spec.eigenvectors),
    }


def _spectrum_from_doc(table: Table, n: int) -> Spectrum:
    """A stored basis factor, checked to be an ascending orthonormal n-node basis."""
    spec = table.build(Spectrum, eigenvalues=table.array("eigenvalues", (n,)),
                       eigenvectors=table.array("eigenvectors", (n, n)))
    w, v = spec.eigenvalues, spec.eigenvectors
    # Closed-form bases ascend exactly. A basis stored from the Jacobi
    # solver orders a degenerate group by eigenvector, so its equal
    # eigenvalues may step down by float noise.
    if np.any(np.diff(w) < -DEGENERACY_TOL):
        raise table.error("eigenvalues are not ascending")
    drift = np.max(np.abs(v.T @ v - np.eye(n)))
    if drift > ORTHONORMAL_TOL:
        raise table.error(f"eigenvectors are not orthonormal: "
                          f"max |V^T V - I| = {drift:.3g}")
    return spec


@dataclass(frozen=True)
class Checkpoint:
    config: ModelConfig
    basis: ProductBasis
    params: ModelParams
    epochs_trained: int
    optimizer: dict | None


def save_checkpoint(path, config: ModelConfig, basis: ProductBasis,
                    params: ModelParams, epochs_trained: int = 0,
                    optimizer: dict | None = None):
    """Serialise model state to one JSON file (format version 2).

    Config, epoch count and optimizer step are plain JSON. Every float
    array (parameters, Adam's m and v, basis eigenvalues and eigenvectors)
    is one ``encode_array`` string, so values survive the round trip bit
    for bit. The stored basis is the
    unweighted reference basis; distance-weighted spatial bases are always
    derived per scenario.

    The file is json.dumps(doc) of the whole document, written one array
    of params, m and v at a time, so only one array's text is in memory at
    once.
    """
    head = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "param_count": params.n_params,
        "epochs_trained": int(epochs_trained),
        "basis": {
            "temporal": _spectrum_doc(basis.temporal),
            "spatial": _spectrum_doc(basis.spatial),
        },
    })
    with open(path, "w") as fh:
        fh.write(head[:-1])  # all but the closing "}"
        _write_arrays(fh, "params", params.items())
        if optimizer is not None:
            fh.write(f', "optimizer": {{"step": {int(optimizer["step"])}')
            for moment in ("m", "v"):
                _write_arrays(fh, moment, optimizer[moment].items())
            fh.write("}")
        fh.write("}")


def _write_arrays(fh, key: str, arrays):
    """Write ``, "key": {"name": "<encode_array>", ...}`` as json.dumps
    would, one array at a time."""
    fh.write(f", {json.dumps(key)}: {{")
    for i, (name, arr) in enumerate(arrays):
        fh.write(f'{", " if i else ""}{json.dumps(name)}: "')
        fh.write(encode_array(arr))
        fh.write('"')
    fh.write("}")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint of format version 2, or of version 1 (repr() strings).

    A corrupt file, an unknown config key, a non-finite parameter or a
    basis factor that is not an ascending orthonormal basis raises a
    ValueError naming the path and the key.
    """
    doc = read_document(path, "checkpoint", "format_version",
                        (1, CHECKPOINT_VERSION))
    cfg = _config_from_doc(doc.table("config"))
    shapes = param_shapes(cfg)
    params = ModelParams(shapes)
    stored = doc.table("params")
    for name, view in params.items():
        view[...] = stored.array(name, view.shape)
        if not np.all(np.isfinite(view)):
            raise stored.error(f"{name} is not finite")
    stored = doc.table("basis")
    basis = ProductBasis(
        temporal=_spectrum_from_doc(stored.table("temporal"), cfg.t_obs),
        spatial=_spectrum_from_doc(stored.table("spatial"), cfg.n_v),
    )
    optimizer = None
    if "optimizer" in doc.obj:
        stored = doc.table("optimizer")
        optimizer = {"step": stored.value("step", int)}
        for moment in ("m", "v"):
            moments = stored.table(moment)
            optimizer[moment] = {name: moments.array(name, shape)
                                 for name, shape in shapes.items()}
    return Checkpoint(config=cfg, basis=basis, params=params,
                      epochs_trained=doc.value("epochs_trained", int, 0),
                      optimizer=optimizer)


def _config_from_doc(table: Table) -> ModelConfig:
    # Files written while the config had a block count store n_blocks; no
    # entry point could write any value but 1.
    n_blocks = table.value("n_blocks", int, 1)
    if n_blocks != 1:
        raise table.error(f"n_blocks {n_blocks!r} is not supported: the model "
                          f"has exactly one block per channel")
    known = fields(ModelConfig)
    unknown = sorted(set(table.obj) - {f.name for f in known} - {"n_blocks"})
    if unknown:
        raise table.error(f"has unknown keys: {', '.join(unknown)}")
    types = typing.get_type_hints(ModelConfig)
    return table.build(ModelConfig, **{
        f.name: table.value(f.name, types[f.name], f.default) for f in known})
