"""Spectral encoder and closed-form trajectory decoder.

The model maps the truncated graph-spectral coefficients of a scenario to
three latent quantities: a longitudinal acceleration and the amplitude and
rate of a logistic lateral profile. Decoding is an explicit formula rather
than a learned layer, so predictions are smooth by construction and the
whole network stays small. The forward pass, decoder and loss work on
batches; one scenario is a batch of one.
"""
from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .graph import _frozen, inverse_distance_weights
from .scenario import N_VEHICLES, T_OBS_S, T_PRED_S, ScenarioBatch, _window_steps
from .special import erf, expit
from .spectral import (ProductBasis, complete_spectrum, gft_extended,
                       path_spectrum, star_spectra, unit_star_spectrum)
from .store import Table, open_document, write_document

OUT = 3
LN_EPS = 1e-5
CHECKPOINT_VERSION = 4
GRAPH_KINDS = ("spider", "mesh")
PRESETS = ("gftnn", "gftnn-w", "gftnn-rdcby5", "gftnn-rdcby15")

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
    fps: float = field(kw_only=True)

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
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be positive and finite, got {self.fps}")

    @property
    def zk(self) -> int:
        """Spectral coefficients per feature channel."""
        return self.p * self.n_v

    @property
    def z(self) -> int:
        """Total input size of the encoder."""
        return self.k * self.p * self.n_v


_CONFIG_TYPES = typing.get_type_hints(ModelConfig)   # resolved once, not per load


def preset_config(preset: str, fps, n_vehicles: int = N_VEHICLES,
                  hidden: int = ModelConfig.hidden) -> ModelConfig:
    """Named configurations over the default T_OBS_S observed and T_PRED_S
    predicted seconds; fps must be one of the supported camera rates."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    if fps not in (10, 25):
        raise ValueError(f"preset {preset!r} expects fps 10 or 25, got {fps}")
    t_obs, t_pred = _window_steps(fps, T_OBS_S, T_PRED_S)
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
    order, each in C order, and each name is an attribute holding its
    view. Writing through a view writes ``flat``.
    """

    def __init__(self, shapes: dict, flat=None):
        self.shapes = dict(shapes)
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        offset = 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            setattr(self, name, self.flat[offset:offset + size].reshape(shape))
            offset += size

    def items(self):
        return [(name, getattr(self, name)) for name in self.shapes]

    @property
    def n_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.shapes, self.flat.copy())


def param_shapes(config: ModelConfig) -> dict:
    """The parameter arrays in ``ModelParams`` order: the spectral gate, the
    k channel blocks' weights and biases stacked on a leading axis, and the
    head."""
    k, hidden = config.k, config.hidden
    return {"w_s": (config.z,), "w_n": (k, hidden, config.zk), "b_n": (k, hidden),
            "w_l": (k, OUT, hidden), "b_l": (k, OUT),
            "w_h": (OUT, OUT * k), "b_h": (OUT,)}


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


def gaussian_cdf(x):
    """Phi(x), the standard normal CDF."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x * _SQRT1_2))


def gelu(x):
    """Exact Gaussian error linear unit, x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return x * gaussian_cdf(x)


def gelu_grad(x, cdf=None):
    """d/dx of exact GELU: Phi(x) + x * phi(x). ``cdf`` is Phi(x) when the
    caller already has it (the forward pass keeps it)."""
    x = np.asarray(x, dtype=np.float64)
    if cdf is None:
        cdf = gaussian_cdf(x)
    return cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _ensure_finite(arr, layer: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {layer}")


def forward(s, params: ModelParams, config: ModelConfig):
    """Encoder on a (B, z) batch of truncated spectra.

    Per row: an elementwise spectral gate, then per feature channel a
    block of layer norm (no learned scale or shift), linear, GELU and
    linear down to 3, and a head that maps the sigmoids of all blocks to
    the latent triple. The k channel blocks run as one stacked pass over
    (k, B, zk). Returns the (B, 3) latents and the intermediates the
    backward pass needs, the block ones stacked as (k, B, ...); ``cdf``
    is Phi(z_lin), so the GELU derivative needs no second erf.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != config.z:
        raise ValueError(f"spectra shape {s.shape} does not match (B, {config.z})")
    b = s.shape[0]
    h_s = s * params.w_s
    _ensure_finite(h_s, "spectral_gate")
    x = h_s.reshape(b, config.k, config.zk).transpose(1, 0, 2)
    # Means as add.reduce / n: the bits of mean(), with less dispatch.
    normed = np.subtract(x, np.add.reduce(x, axis=2, keepdims=True) / config.zk, order="C")
    # The gate output is spent: its buffer takes the squares for the variance.
    sq = np.multiply(normed, normed, out=x)
    sig = np.sqrt(np.add.reduce(sq, axis=2, keepdims=True) / config.zk + LN_EPS)
    del h_s, x, sq
    np.divide(normed, sig, out=normed)
    z_lin = np.matmul(normed, params.w_n.transpose(0, 2, 1))
    z_lin += params.b_n[:, None, :]
    cdf = gaussian_cdf(z_lin)
    act = z_lin * cdf
    out = np.matmul(act, params.w_l.transpose(0, 2, 1))
    out += params.b_l[:, None, :]
    if not np.isfinite(out).all():
        k = int(np.argmin(np.isfinite(out).all(axis=(1, 2))))
        raise NumericError(f"non-finite values in mlp_block_{k}")
    sg = expit(out.transpose(1, 0, 2).reshape(b, OUT * config.k))
    h_z = sg @ params.w_h.T + params.b_h
    _ensure_finite(h_z, "head")
    return h_z, {"sig": sig, "normed": normed, "z_lin": z_lin, "cdf": cdf,
                 "act": act, "sg": sg, "h_z": h_z}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A planar trajectory sampled at step 0 .. T_pred, relative to step 0:
    (T_pred + 1,) arrays ``x`` and ``y``, which the trajectory rule checks
    and freezes as copies."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError(f"bad trajectory shapes {x.shape}, {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("trajectory must be finite")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y", _frozen(y))

    def __len__(self):
        return self.x.size


def _decode_terms(h_z, t_pred: int, fps):
    """The sample times t = 0 .. T_pred over fps, their offsets tau from
    the horizon midpoint, and the (B, T_pred + 1) logistic g = expit(-h3 tau)
    of (B, 3) latents."""
    t = np.arange(t_pred + 1) / fps
    tau = t - 0.5 * (t_pred / fps)
    return t, tau, expit(-h_z[:, 2:3] * tau)


def _decode(h_z, v0, t_pred: int, fps):
    """``decode_batch`` plus the ``_decode_terms`` it used."""
    terms = t, _, g = _decode_terms(h_z, t_pred, fps)
    x = v0[:, None] * t + 0.5 * h_z[:, 0:1] * (t * t)
    y = h_z[:, 1:2] * (g - g[:, :1])
    return x, y, terms


def decode_batch(h_z, v0, t_pred: int, fps):
    """Roll (B, 3) latents out into trajectories: (x, y), each (B, T_pred + 1).

    Longitudinal: constant acceleration h_z[:, 0] on top of the observed
    speed v0 (B,). Lateral: logistic profile with amplitude h_z[:, 1] and
    rate h_z[:, 2], centred on the horizon midpoint and shifted so
    y(0) = 0. Both components are exactly zero at step 0.
    """
    return _decode(h_z, v0, t_pred, fps)[:2]


def decode(h_z, v0: float, t_pred: int, fps) -> Trajectory:
    """Roll one latent triple out into a trajectory (see ``decode_batch``)."""
    h = np.asarray(h_z, dtype=np.float64)
    if h.shape != (OUT,):
        raise ValueError(f"latent state must have shape ({OUT},), got {h.shape}")
    x, y = decode_batch(h[None, :], np.array([v0], dtype=np.float64), t_pred, fps)
    return Trajectory(x[0], y[0])


def loss_batch(x, y, futures):
    """Mean squared displacement per scenario over steps 1 .. T_pred, x and
    y summed, for decoded (B, T_pred + 1) trajectories against (B, T_pred, 2)
    recorded futures. Step 0 is pinned to the origin on both sides and
    carries no signal. Returns the (B,) losses and the displacements."""
    dx = x[:, 1:] - futures[:, :, 0]
    dy = y[:, 1:] - futures[:, :, 1]
    return _row_losses(dx, dy), dx, dy


def _row_losses(dx, dy):
    """``loss_batch``'s (B,) losses of (B, T_pred) displacements."""
    return np.add.reduce(dx * dx + dy * dy, axis=1) / dx.shape[1]


def _mean_loss(per_scenario) -> float:
    return float(np.add.reduce(per_scenario) / per_scenario.size)


def score(s, v0, futures, params: ModelParams, config: ModelConfig):
    """Forward pass, decode and loss of (B, z) spectra against the speeds
    ``v0`` and recorded ``futures``. Returns the batch-mean loss, the
    (B, T_pred) displacements ``dx, dy`` and the backward pass's cache:
    ``forward``'s plus the ``_decode_terms``. Overflow warns of nothing and
    raises NumericError, "non-finite values in decoder" or "loss is not
    finite". Losses are >= 0: only a mean that is not finite checks the decode."""
    with np.errstate(over="ignore", invalid="ignore"):
        h_z, cache = forward(s, params, config)
        x, y, cache["terms"] = _decode(h_z, v0, config.t_pred, config.fps)
        per_scenario, dx, dy = loss_batch(x, y, futures)
        loss = _mean_loss(per_scenario)
    if not math.isfinite(loss):
        _ensure_finite((x, y), "decoder")
        raise NumericError("loss is not finite")
    return loss, dx, dy, cache


def score_blocks(blocks, n: int, params: ModelParams, config: ModelConfig):
    """``score`` of each (s, v0, futures) block of ``blocks``, n rows in
    all. Returns the mean loss over the n rows and their (n, T_pred)
    displacements ``dx, dy``, each block's rows as ``score`` gives them;
    the mean is formed over all rows as ``score`` forms a batch's, so one
    block gives ``score``'s bits. It refuses as ``score`` does. A block
    is dropped once it is scored, before the next is taken."""
    dx, dy = np.empty((n, config.t_pred)), np.empty((n, config.t_pred))
    end = 0
    for s, v0, futures in blocks:
        start, end = end, end + len(s)
        dx[start:end], dy[start:end] = score(s, v0, futures, params, config)[1:3]
        del s, v0, futures
    with np.errstate(over="ignore"):
        loss = _mean_loss(_row_losses(dx, dy))
    if not math.isfinite(loss):
        raise NumericError("loss is not finite")
    return loss, dx, dy


def block_spectra(blocks, basis: ProductBasis, config: ModelConfig):
    """``score_blocks``' (s, v0, futures) of each batch of ``blocks``: its
    spectra, v0 and futures. ``map`` drops each batch once they are
    taken, so no batch outlives its spectra or stays while the next is read."""
    return map(lambda batch: (scenario_spectra(batch, basis, config), batch.v0, batch.futures),
               blocks)


def _partials(h_z, terms):
    """(dx/dh1, dy/dh2, dy/dh3) of (B, 3) latents from their ``_decode_terms``.
    dx/dh1 = t^2 / 2 is the same for every row and comes back as one
    (T_pred + 1,) row; the other two are (B, T_pred + 1)."""
    t, tau, g = terms
    g0 = g[:, :1]
    dy_dh3 = h_z[:, 1:2] * (-tau * g * (1.0 - g) + tau[0] * g0 * (1.0 - g0))
    return 0.5 * t * t, g - g0, dy_dh3


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
    dx_dh1, dy_dh2, dy_dh3 = _partials(h, _decode_terms(h, t_pred, fps))
    dx_dh1 = np.broadcast_to(dx_dh1, dy_dh2.shape).copy()
    if single:
        return dx_dh1[0], dy_dh2[0], dy_dh3[0]
    return dx_dh1, dy_dh2, dy_dh3


def _own_batch(scenario):
    """A scenario row as a batch of one: its batch, or the slice of it
    that holds the row."""
    batch = scenario.batch
    return batch if len(batch) == 1 else batch[scenario.index:scenario.index + 1]


def truth_trajectory(scenario) -> Trajectory:
    """The recorded future as a trajectory anchored at (0, 0)."""
    future = scenario.future
    return Trajectory(np.append(0.0, future[:, 0]), np.append(0.0, future[:, 1]))


def build_basis(config: ModelConfig) -> ProductBasis:
    """Reference eigenbases in closed form: the unit-weight temporal path
    and the unit-weight spatial star or complete graph."""
    if config.graph_kind == "spider":
        spatial = unit_star_spectrum(config.n_v)
    else:
        spatial = complete_spectrum(config.n_v)
    return ProductBasis(path_spectrum(config.t_obs), spatial)


def select_channels(features, k: int):
    """Pick the encoder's channels of (..., 4, T_obs, N_V) features: all
    four, or the two velocities."""
    if k == 4:
        return features
    if k == 2:
        return features[..., 2:4, :, :]
    raise ValueError(f"k must be 2 or 4, got {k}")


def check_grid(batch: ScenarioBatch, config: ModelConfig):
    """Refuse ``batch`` unless it lies on the grid ``config`` was built for:
    its fps, t_obs, t_pred and n_vehicles. The ValueError names every field
    that differs."""
    _refuse_differences("scenario grid does not match the model", (
        ("fps", batch.fps, config.fps), ("t_obs", batch.t_obs, config.t_obs),
        ("t_pred", batch.t_pred, config.t_pred),
        ("n_vehicles", batch.n_vehicles, config.n_v)))


def check_resume(checkpoint: Checkpoint, config: ModelConfig):
    """Refuse to continue ``checkpoint`` under a ``config`` other than its
    own. The ValueError names every field that differs."""
    _refuse_differences("checkpoint config does not match the requested config", (
        (f.name, getattr(checkpoint.config, f.name), getattr(config, f.name))
        for f in fields(ModelConfig)))


def _refuse_differences(message: str, values):
    """Raise ``message``, naming each (name, have, want) of ``values`` that differ."""
    differ = [f"{name} {have} != {want}" for name, have, want in values if have != want]
    if differ:
        raise ValueError(f"{message}: {', '.join(differ)}")


def scenario_spectra(batch: ScenarioBatch, basis: ProductBasis,
                     config: ModelConfig) -> np.ndarray:
    """Truncated spectral coefficients of ``batch``, one row per scenario: (B, z),
    each scenario's p kept temporal modes alone transformed and flattened.

    The batch must lie on the config's grid (``check_grid``). With
    weighting enabled, each scenario's spatial factor is the star
    reweighted by inverse hub distance at its last observed step, and all
    of them come from one closed-form ``star_spectra`` call; otherwise
    every scenario uses the reference basis.
    """
    check_grid(batch, config)
    spatial = None
    if config.weighted:
        positions = batch.features[:, :2, config.t_obs - 1, :].transpose(0, 2, 1)
        # One (V, V) basis per scenario, shared by its channels.
        spatial = star_spectra(inverse_distance_weights(positions))[1][:, None]
    feats = select_channels(batch.features, config.k)
    return gft_extended(feats, basis, spatial, config.p).reshape(len(batch), -1)


def predict_batch(batch: ScenarioBatch, basis: ProductBasis, params: ModelParams,
                  config: ModelConfig):
    """Full inference path for ``batch``: one spectral pass, one forward pass
    and one decode over the whole batch. Returns the decoded (B, T_pred + 1)
    arrays ``x, y``; one that is not finite raises ``score``'s NumericError."""
    s = scenario_spectra(batch, basis, config)
    with np.errstate(over="ignore", invalid="ignore"):
        h_z, _ = forward(s, params, config)
        x, y = decode_batch(h_z, batch.v0, config.t_pred, config.fps)
    _ensure_finite((x, y), "decoder")
    return x, y


def predict(scenario, basis: ProductBasis, params: ModelParams,
            config: ModelConfig) -> Trajectory:
    """Full inference path for one scenario (a batch of one)."""
    x, y = predict_batch(_own_batch(scenario), basis, params, config)
    return Trajectory(x[0], y[0])


@dataclass(frozen=True)
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    epochs_trained: int
    optimizer: dict | None      # {"step", "m", "v"}, m and v laid out like params.flat


def save_checkpoint(path, config: ModelConfig, basis: ProductBasis,
                    params: ModelParams, epochs_trained: int = 0,
                    optimizer: dict | None = None):
    """Serialise model state to one file (format version 4).

    The head holds the config, the epoch count and the optimizer step; the
    payload is ``params.flat`` and, with optimizer state, Adam's flat ``m``
    and ``v`` (as ``AdamState.as_dict`` gives them), as raw float64 (see
    ``store.write_document``), so values survive the round trip bit for
    bit. The file stores no basis, and ``basis`` is not read: loading
    rebuilds ``build_basis(config)``. The argument stays for callers that
    pass the later ones by position.
    """
    head = {"format_version": CHECKPOINT_VERSION, "config": asdict(config),
            "epochs_trained": int(epochs_trained)}
    arrays = {"params": params.flat}
    if optimizer is not None:
        head["optimizer"] = {"step": int(optimizer["step"])}
        arrays.update(m=optimizer["m"], v=optimizer["v"])
    write_document(path, head, arrays)


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """Read a checkpoint of format version 4; any other version is refused.

    Callers score a checkpoint with ``build_basis(config)``. Every key
    the writer writes is required. A corrupt file, an unknown or missing
    key, a non-finite parameter or a negative epoch count or optimizer
    step raises a ValueError naming the path and the key.

    With ``optimizer=False``, for scoring, Adam's moments are not read and
    the result's ``optimizer`` is None. The head and the file length are
    checked as in a full load, so a file that would fail a full load fails
    this one with the same message.
    """
    with open_document(path, "checkpoint", "format_version",
                       CHECKPOINT_VERSION) as doc:
        cfg = _config_from_doc(doc.table("config"))
        shapes = param_shapes(cfg)
        state = _optimizer_step(doc)
        flat = (sum(math.prod(shape) for shape in shapes.values()),)
        declared = {"params": flat}
        if state is not None:
            declared.update(m=flat, v=flat)
        doc.payload.expect(declared, "its config")
        params = ModelParams(shapes, doc.payload.read("params"))
        for name, view in params.items():
            if not np.all(np.isfinite(view)):
                raise doc.error(f"params {name} is not finite")
        if state is not None and optimizer:
            state.update(m=doc.payload.read("m"), v=doc.payload.read("v"))
    epochs_trained = doc.value("epochs_trained", int)
    if epochs_trained < 0:
        raise doc.error(f"epochs_trained is {epochs_trained}, expected a "
                        f"non-negative integer")
    return Checkpoint(config=cfg, params=params, epochs_trained=epochs_trained,
                      optimizer=state if optimizer else None)


def _optimizer_step(doc: Table) -> dict | None:
    if "optimizer" not in doc.obj:
        return None
    stored = doc.table("optimizer")
    step = stored.value("step", int)
    if step < 0:
        raise stored.error(f"step is {step}, expected a non-negative integer")
    return {"step": step}


def _config_from_doc(table: Table) -> ModelConfig:
    known = fields(ModelConfig)
    unknown = sorted(set(table.obj) - {f.name for f in known})
    if unknown:
        raise table.error(f"has unknown keys: {', '.join(unknown)}")
    return table.build(ModelConfig, **{
        f.name: table.value(f.name, _CONFIG_TYPES[f.name]) for f in known})
