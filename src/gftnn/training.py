"""Gradient training of the spectral encoder.

Gradients are computed analytically: the decoder is differentiated in
closed form and the encoder layers are backpropagated by hand, stopping at
the spectral coefficients (the transform itself has no learnable parts).
Everything runs in float64; batches are plain numpy arrays, so there is no
autograd framework anywhere.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import metrics
from .model import (LN_EPS, ModelConfig, ModelParams, build_basis,
                    decode_partials, gelu, gelu_grad, init_params,
                    save_checkpoint, scenario_spectra, scenario_spectrum)


class NumericError(RuntimeError):
    """A forward or backward intermediate stopped being finite."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        # A zero learning rate is allowed: it turns training into a pure
        # evaluation loop, which is occasionally useful as a control run.
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 < beta < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {beta}")
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


def trajectory_loss(pred, truth) -> float:
    """Mean squared displacement over steps 1 .. T_pred, x and y summed.

    Step 0 is pinned to the origin on both sides and carries no signal, so
    it is excluded from the average.
    """
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    dx = pred.x[1:] - truth.x[1:]
    dy = pred.y[1:] - truth.y[1:]
    return float(np.mean(dx * dx) + np.mean(dy * dy))


def _ensure_finite(arr, layer: str):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {layer}")


def _forward_batch(s, params: ModelParams, config: ModelConfig):
    """Encoder forward pass on a (B, Z) batch; returns latents and cache."""
    h_s = s * params.w_s
    _ensure_finite(h_s, "spectral_gate")
    zk = config.zk
    parts = []
    cache = {"h_s": h_s, "blocks": []}
    for k in range(config.k):
        x = h_s[:, k * zk:(k + 1) * zk]
        reps = []
        for _ in range(config.n_blocks):
            mu = x.mean(axis=1, keepdims=True)
            sig = np.sqrt(x.var(axis=1, keepdims=True) + LN_EPS)
            normed = (x - mu) / sig
            z_lin = normed @ params.w_n[k].T + params.b_n[k]
            act = gelu(z_lin)
            out = act @ params.w_l[k].T + params.b_l[k]
            reps.append((sig, normed, z_lin, act))
            x = out
        _ensure_finite(x, f"mlp_block_{k}")
        parts.append(x)
        cache["blocks"].append(reps)
    h_c = np.concatenate(parts, axis=1)
    sg = expit(h_c)
    h_z = sg @ params.w_h.T + params.b_h
    _ensure_finite(h_z, "head")
    cache["sg"] = sg
    return h_z, cache


def _decode_batch(h_z, v0, t_pred: int, fps):
    """Vectorised decoder; returns (x, y) of shape (B, T_pred + 1)."""
    t = np.arange(t_pred + 1) / fps
    tau = t - 0.5 * (t_pred / fps)
    x = v0[:, None] * t + 0.5 * h_z[:, 0:1] * (t * t)
    g = expit(-h_z[:, 2:3] * tau)
    y = h_z[:, 1:2] * (g - g[:, :1])
    return x, y


def _loss_batch(x, y, futures):
    dx = x[:, 1:] - futures[:, :, 0]
    dy = y[:, 1:] - futures[:, :, 1]
    per_scenario = np.mean(dx * dx + dy * dy, axis=1)
    return per_scenario, dx, dy


def _backward_batch(s, dx, dy, h_z, cache, params: ModelParams,
                    config: ModelConfig) -> ModelParams:
    """Gradients of the batch-mean loss for every parameter array."""
    b, t_pred = dx.shape
    scale = 2.0 / (b * t_pred)
    d_xhat = scale * dx
    d_yhat = scale * dy
    dx_dh1, dy_dh2, dy_dh3 = decode_partials(h_z, t_pred, config.fps)
    d_h1 = np.sum(d_xhat * dx_dh1[:, 1:], axis=1)
    d_h2 = np.sum(d_yhat * dy_dh2[:, 1:], axis=1)
    d_h3 = np.sum(d_yhat * dy_dh3[:, 1:], axis=1)
    d_hz = np.stack([d_h1, d_h2, d_h3], axis=1)
    _ensure_finite(d_hz, "decoder")
    sg = cache["sg"]
    g_wh = d_hz.T @ sg
    g_bh = d_hz.sum(axis=0)
    d_hc = (d_hz @ params.w_h) * sg * (1.0 - sg)
    h_s = cache["h_s"]
    d_hs = np.empty_like(h_s)
    zk = config.zk
    g_wn, g_bn, g_wl, g_bl = [], [], [], []
    for k in range(config.k):
        d_out = d_hc[:, 3 * k:3 * k + 3]
        gw_n = np.zeros_like(params.w_n[k])
        gb_n = np.zeros_like(params.b_n[k])
        gw_l = np.zeros_like(params.w_l[k])
        gb_l = np.zeros_like(params.b_l[k])
        for sig, normed, z_lin, act in reversed(cache["blocks"][k]):
            gw_l += d_out.T @ act
            gb_l += d_out.sum(axis=0)
            d_z = (d_out @ params.w_l[k]) * gelu_grad(z_lin)
            gw_n += d_z.T @ normed
            gb_n += d_z.sum(axis=0)
            d_norm = d_z @ params.w_n[k]
            d_out = (d_norm - d_norm.mean(axis=1, keepdims=True)
                     - normed * np.mean(d_norm * normed, axis=1, keepdims=True)) / sig
        d_hs[:, k * zk:(k + 1) * zk] = d_out
        g_wn.append(gw_n)
        g_bn.append(gb_n)
        g_wl.append(gw_l)
        g_bl.append(gb_l)
    _ensure_finite(d_hs, "spectral_gate")
    g_ws = np.sum(d_hs * s, axis=0)
    return ModelParams(g_ws, g_wn, g_bn, g_wl, g_bl, g_wh, g_bh)


def _batch_loss_and_grads(s, futures, v0, params, config):
    h_z, cache = _forward_batch(s, params, config)
    x, y = _decode_batch(h_z, v0, config.t_pred, config.fps)
    per_scenario, dx, dy = _loss_batch(x, y, futures)
    loss = float(per_scenario.mean())
    grads = _backward_batch(s, dx, dy, h_z, cache, params, config)
    return loss, grads


def gradients(scenario, params: ModelParams, config: ModelConfig,
              basis) -> ModelParams:
    """Loss gradients for a single scenario (a batch of one)."""
    s = scenario_spectrum(scenario, basis, config)[None, :]
    futures = scenario.future[None, :, :]
    v0 = np.array([scenario.v0])
    _, grads = _batch_loss_and_grads(s, futures, v0, params, config)
    return grads


class AdamState:
    """First/second moment estimates per parameter array, plus step count."""

    def __init__(self, m: dict, v: dict, step: int = 0):
        self.m = m
        self.v = v
        self.step = step

    @classmethod
    def initial(cls, params: ModelParams) -> "AdamState":
        return cls(m={name: np.zeros_like(arr) for name, arr in params.items()},
                   v={name: np.zeros_like(arr) for name, arr in params.items()},
                   step=0)

    def as_dict(self) -> dict:
        return {"step": self.step, "m": self.m, "v": self.v}


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              config: TrainConfig):
    """One bias-corrected Adam update; returns fresh params and state."""
    t = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_m, new_v, new_p = {}, {}, {}
    grad_map = dict(grads.items())
    for name, p_arr in params.items():
        g = grad_map[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        update = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
        new_m[name] = m
        new_v[name] = v
        new_p[name] = p_arr - update
    k = len(params.w_n)
    return ModelParams.from_named(new_p, k), AdamState(new_m, new_v, t)


@dataclass
class TrainResult:
    params: ModelParams
    config: ModelConfig
    basis: object
    history: list
    epochs_trained: int


def _prepare(scenarios, basis, config):
    """Precompute spectra once; the transform never changes during training."""
    s = scenario_spectra(scenarios, basis, config)
    futures = np.stack([sc.future for sc in scenarios])
    v0 = np.array([sc.v0 for sc in scenarios])
    return s, futures, v0


def _test_metrics(s, futures, v0, params, config):
    h_z, _ = _forward_batch(s, params, config)
    x, y = _decode_batch(h_z, v0, config.t_pred, config.fps)
    per_scenario, dx, dy = _loss_batch(x, y, futures)
    return (float(per_scenario.mean()),
            metrics.ade_from_displacements(dx, dy),
            metrics.fde_from_displacements(dx, dy))


def train(split, config: ModelConfig, train_config: TrainConfig,
          log_path=None, checkpoint_path=None, resume=None) -> TrainResult:
    """Minibatch Adam over the training split.

    Per epoch the data is reshuffled deterministically from the seed. The
    logged train loss is the batch-size-weighted mean of the batch losses
    (each measured before its update step); test loss and displacement
    metrics are computed after the epoch. ``resume`` accepts a loaded
    checkpoint and continues its epoch count and optimizer state.
    """
    if not split.train:
        raise ValueError("training split is empty")
    basis = build_basis(config)
    s_train, fut_train, v0_train = _prepare(split.train, basis, config)
    have_test = bool(split.test)
    if have_test:
        s_test, fut_test, v0_test = _prepare(split.test, basis, config)
    if resume is not None:
        if resume.config != config:
            raise ValueError("checkpoint config does not match the requested config")
        params = resume.params.copy()
        epoch0 = resume.epochs_trained
        if resume.optimizer is not None:
            state = AdamState(m=dict(resume.optimizer["m"]),
                              v=dict(resume.optimizer["v"]),
                              step=resume.optimizer["step"])
        else:
            state = AdamState.initial(params)
    else:
        params = init_params(config, train_config.seed)
        state = AdamState.initial(params)
        epoch0 = 0
    rng = np.random.default_rng(train_config.seed)
    n = len(split.train)
    history = []
    log_fh = writer = None
    if log_path is not None:
        new_file = not (os.path.exists(log_path) and os.path.getsize(log_path) > 0)
        log_fh = open(log_path, "a", newline="")
        writer = csv.writer(log_fh)
        if new_file:
            writer.writerow(["epoch", "train_loss", "test_loss", "ade", "fde"])
    try:
        for e in range(1, train_config.epochs + 1):
            epoch = epoch0 + e
            perm = rng.permutation(n)
            total = 0.0
            for b0 in range(0, n, train_config.batch_size):
                idx = perm[b0:b0 + train_config.batch_size]
                try:
                    loss, grads = _batch_loss_and_grads(
                        s_train[idx], fut_train[idx], v0_train[idx], params, config)
                except NumericError as exc:
                    raise DivergenceError(
                        f"epoch {epoch}, batch {b0 // train_config.batch_size}: {exc}"
                    ) from exc
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"epoch {epoch}, batch {b0 // train_config.batch_size}: "
                        f"loss is not finite"
                    )
                params, state = adam_step(params, grads, state, train_config)
                total += loss * idx.size
            train_loss = total / n
            if have_test:
                test_loss, ade, fde = _test_metrics(
                    s_test, fut_test, v0_test, params, config)
            else:
                test_loss = ade = fde = float("nan")
            row = {"epoch": epoch, "train_loss": train_loss,
                   "test_loss": test_loss, "ade": ade, "fde": fde}
            history.append(row)
            if writer is not None:
                writer.writerow([epoch, repr(train_loss), repr(test_loss),
                                 repr(ade), repr(fde)])
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    epochs_trained = epoch0 + train_config.epochs
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, config, basis, params,
                        epochs_trained=epochs_trained,
                        optimizer=state.as_dict())
    return TrainResult(params=params, config=config, basis=basis,
                       history=history, epochs_trained=epochs_trained)
