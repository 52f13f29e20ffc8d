"""Gradient training of the spectral encoder.

Gradients are computed analytically: the decoder is differentiated in
closed form and the encoder layers are backpropagated by hand, stopping at
the spectral coefficients (the transform itself has no learnable parts).
Everything runs in float64; batches are plain numpy arrays, so there is no
autograd framework anywhere.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import metrics
from .model import (OUT, ModelConfig, ModelParams, NumericError, _ensure_finite,
                    _own_batch, _partials, build_basis, check_resume, gelu_grad,
                    init_params, loss_batch, save_checkpoint, scenario_spectra, score,
                    score_blocks)
from .scenario import BLOCK_ROWS


# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        # A zero learning rate is allowed: it turns training into a pure
        # evaluation loop, which is occasionally useful as a control run.
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")


def trajectory_loss(pred, truth) -> float:
    """Mean squared displacement of one trajectory over steps 1 .. T_pred,
    x and y summed (``model.loss_batch`` on a batch of one)."""
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)}")
    future = np.stack([truth.x[1:], truth.y[1:]], axis=1)
    per_scenario, _, _ = loss_batch(pred.x[None], pred.y[None], future[None])
    return float(per_scenario[0])


def _backward_batch(s, dx, dy, cache, params: ModelParams, config: ModelConfig,
                    grads: ModelParams):
    """Gradients of the batch-mean loss for every parameter array, written
    into ``grads`` (every entry is overwritten), from what ``model.score``
    returned for ``s``."""
    b, t_pred = dx.shape
    scale = 2.0 / (b * t_pred)
    d_xhat = scale * dx
    d_yhat = scale * dy
    dx_dh1, dy_dh2, dy_dh3 = _partials(cache["h_z"], cache["terms"])
    d_hz = np.empty((b, OUT))
    np.add.reduce(d_xhat * dx_dh1[1:], axis=1, out=d_hz[:, 0])
    np.add.reduce(d_yhat * dy_dh2[:, 1:], axis=1, out=d_hz[:, 1])
    np.add.reduce(d_yhat * dy_dh3[:, 1:], axis=1, out=d_hz[:, 2])
    _ensure_finite(d_hz, "decoder")
    sg = cache["sg"]
    np.matmul(d_hz.T, sg, out=grads.w_h)
    np.add.reduce(d_hz, axis=0, out=grads.b_h)
    d_hc = (d_hz @ params.w_h) * sg * (1.0 - sg)
    # The channel blocks, stacked as (k, B, ...) like the forward pass.
    d_out = d_hc.reshape(b, config.k, OUT).transpose(1, 0, 2)
    normed, sig = cache["normed"], cache["sig"]
    np.matmul(d_out.transpose(0, 2, 1), cache["act"], out=grads.w_l)
    np.add.reduce(d_out, axis=1, out=grads.b_l)
    d_z = np.matmul(d_out, params.w_l)
    d_z *= gelu_grad(cache["z_lin"], cache["cdf"])
    if b == 1:
        # matmul's one-term products are slow; einsum forms the same outer
        # products, zero signs included.
        np.einsum("kbh,kbz->khz", d_z, normed, out=grads.w_n)
    else:
        np.matmul(d_z.transpose(0, 2, 1), normed, out=grads.w_n)
    np.add.reduce(d_z, axis=1, out=grads.b_n)
    d_norm = np.matmul(d_z, params.w_n)
    proj = np.add.reduce(d_norm * normed, axis=2, keepdims=True) / config.zk
    d_norm -= np.add.reduce(d_norm, axis=2, keepdims=True) / config.zk
    d_norm -= normed * proj
    d_hs = np.empty((b, config.z))
    np.divide(d_norm, sig, out=d_hs.reshape(b, config.k, config.zk).transpose(1, 0, 2))
    _ensure_finite(d_hs, "spectral_gate")
    d_hs *= s
    np.add.reduce(d_hs, axis=0, out=grads.w_s)


def _batch_loss_and_grads(s, v0, futures, params, config, grads=None):
    """``model.score``'s batch-mean loss and its gradients, written into
    ``grads`` when given and into fresh arrays otherwise."""
    loss, dx, dy, cache = score(s, v0, futures, params, config)
    if grads is None:
        grads = ModelParams(params.shapes)
    _backward_batch(s, dx, dy, cache, params, config, grads)
    return loss, grads


def gradients(scenario, params: ModelParams, config: ModelConfig,
              basis) -> ModelParams:
    """Loss gradients for a single scenario (a batch of one)."""
    return _batch_loss_and_grads(*_prepare(_own_batch(scenario), basis, config),
                                 params, config)[1]


class AdamState:
    """First and second moment estimates as flat vectors laid out like
    ``ModelParams.flat``, the step count, and one work vector that
    ``adam_step`` reuses."""

    def __init__(self, m, v, step: int):
        self.m = m
        self.v = v
        self.step = step
        self.work = np.empty_like(m)

    @classmethod
    def initial(cls, params: ModelParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)

    def as_dict(self) -> dict:
        """Step count and the flat moments, as checkpoints store them."""
        return {"step": self.step, "m": self.m, "v": self.v}


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              config: TrainConfig):
    """One bias-corrected Adam update over the flat parameter vector, in place.

    ``params.flat``, ``state.m`` and ``state.v`` take their new values and
    ``state.step`` advances. The moments are Kingma & Ba's Algorithm 1; the
    update is their section 2 ordering, params -= alpha_t m / (sqrt(v) + eps_hat)
    with alpha_t = lr sqrt(c2) / c1, eps_hat = eps sqrt(c2) and c_i = 1 - beta_i^t:
    Algorithm 1's update in exact arithmetic, a few ulps off it in floats. It
    reuses ``state.work`` and ``grads.flat``, which holds no gradient afterwards.
    """
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    root_c2 = math.sqrt(1.0 - b2 ** t)
    g, m, v, work = grads.flat, state.m, state.v, state.work
    # v = b2 v + ((1 - b2) g) g, then m = b1 m + (1 - b1) g; g is free after.
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=work)
    np.multiply(work, g, out=work)
    np.add(v, work, out=v)
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=g)
    np.add(m, g, out=m)
    # params -= alpha_t m / (sqrt(v) + eps_hat)
    np.sqrt(v, out=work)
    np.add(work, ADAM_EPS * root_c2, out=work)
    np.divide(m, work, out=work)
    np.multiply(work, config.learning_rate * root_c2 / c1, out=work)
    np.subtract(params.flat, work, out=params.flat)
    state.step = t


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    epochs_trained: int


def _prepare(side, basis, config):
    """``model.score``'s spectra (computed once: the transform never changes
    during training), v0 and futures of ``side``, a ``ScenarioBatch`` or
    the ``Archive`` rows of one, transformed block by block as
    ``side.blocks()`` gives them: only one block's features are held, and
    each block is dropped before the next is read. Each block fills the
    next slice of the arrays; a row's spectra are its own, whichever block
    it is transformed in."""
    n = len(side)
    s, v0, futures = np.empty((n, config.z)), np.empty(n), np.empty((n, config.t_pred, 2))
    end = 0
    for block in side.blocks():
        rows = slice(end, end + len(block))
        end += len(block)
        s[rows] = scenario_spectra(block, basis, config)
        v0[rows], futures[rows] = block.v0, block.futures
        del block
    return s, v0, futures


def _blocks(data):
    """The rows of ``_prepare``'s (s, v0, futures) in blocks of ``BLOCK_ROWS``."""
    for start in range(0, len(data[0]), BLOCK_ROWS):
        yield tuple(array[start:start + BLOCK_ROWS] for array in data)


def train(split, config: ModelConfig, train_config: TrainConfig,
          log_path=None, checkpoint_path=None, resume=None) -> TrainResult:
    """Minibatch Adam over the training split.

    Each side is transformed to spectra block by block, so a side of
    ``Archive`` rows is never held as features. Per epoch the data is
    reshuffled deterministically from the seed, and each batch gathers
    its rows from the spectra. The logged train loss is the
    batch-size-weighted mean of the batch losses (each measured before its
    update step); test loss and displacement metrics are computed after
    the epoch, scored in the blocks of the side; a test pass that
    ``model.score`` refuses ends the run as a batch does. ``resume``
    accepts a loaded checkpoint and continues its epoch count, optimizer
    state and shuffle sequence, so N epochs and M resumed ones give the
    bits of N + M epochs.
    The run updates its own copy of the parameters and the moments in
    place; ``resume`` is left as it was.
    """
    if not split.train:
        raise ValueError("training split is empty")
    if resume is not None:
        check_resume(resume, config)
    basis = build_basis(config)
    s_train, v0_train, fut_train = _prepare(split.train, basis, config)
    test_data = _prepare(split.test, basis, config) if split.test else None
    if resume is not None:
        params = resume.params.copy()
        epoch0, opt = resume.epochs_trained, resume.optimizer
    else:
        params = init_params(config, train_config.seed)
        epoch0, opt = 0, None
    state = (AdamState.initial(params) if opt is None
             else AdamState(opt["m"].copy(), opt["v"].copy(), opt["step"]))
    grads = ModelParams(params.shapes)
    rng = np.random.default_rng(train_config.seed)
    n = len(split.train)
    # Each trained epoch drew one permutation; a resumed run draws on.
    for _ in range(epoch0):
        rng.permutation(n)
    history = []
    for e in range(1, train_config.epochs + 1):
        epoch = epoch0 + e
        perm = rng.permutation(n)
        total = 0.0
        for b0 in range(0, n, train_config.batch_size):
            rows = perm[b0:b0 + train_config.batch_size]
            try:
                loss = _batch_loss_and_grads(s_train[rows], v0_train[rows], fut_train[rows],
                                             params, config, grads)[0]
            except NumericError as exc:
                raise DivergenceError(f"epoch {epoch}, batch "
                                      f"{b0 // train_config.batch_size}: {exc}") from exc
            adam_step(params, grads, state, train_config)
            total += loss * rows.size
        train_loss = total / n
        if test_data is not None:
            try:
                test_loss, dx, dy = score_blocks(_blocks(test_data), len(split.test),
                                                 params, config)
            except NumericError as exc:
                raise DivergenceError(f"epoch {epoch}, test pass: {exc}") from exc
            ade = metrics.ade_from_displacements(dx, dy)
            fde = metrics.fde_from_displacements(dx, dy)
        else:
            test_loss = ade = fde = float("nan")
        row = {"epoch": epoch, "train_loss": train_loss,
               "test_loss": test_loss, "ade": ade, "fde": fde}
        history.append(row)
        if log_path is not None:
            # Opened per row, and its directory made with the first: a run
            # that fails before its first row writes no log and no directory.
            os.makedirs(os.path.dirname(log_path) or os.curdir, exist_ok=True)
            new_file = not (os.path.exists(log_path) and os.path.getsize(log_path) > 0)
            with open(log_path, "a", newline="") as log_fh:
                writer = csv.writer(log_fh)
                if new_file:
                    writer.writerow(row.keys())
                writer.writerow(map(repr, row.values()))
    epochs_trained = epoch0 + train_config.epochs
    # The spectra and the gradient buffer are spent; free them before
    # encoding the checkpoint, the largest allocation of a run.
    del s_train, v0_train, fut_train, test_data, grads
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, config, basis, params,
                        epochs_trained=epochs_trained,
                        optimizer=state.as_dict())
    return TrainResult(params=params, history=history, epochs_trained=epochs_trained)
