import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy.stats import norm

from gftnn import model, spectral
from gftnn import store
from gftnn.cli import main
from gftnn.model import (GRAPH_KINDS, PRESETS, ModelConfig, ModelParams, Trajectory,
                         build_basis, decode, decode_batch,
                         decode_partials, forward, gaussian_cdf, gelu, gelu_grad,
                         init_params, load_checkpoint, param_shapes, predict,
                         predict_batch, preset_config, save_checkpoint,
                         scenario_spectra, score, select_channels, truth_trajectory)
from gftnn.metrics import (ade, ade_euclid_mean, evaluate, fde, per_scenario_ade)
from gftnn.scenario import ScenarioBatch, save_archive, synthesize
from gftnn.special import expit
from gftnn.spectral import gft_extended
from helpers import edited_head, rewrite_head, split_head, tiny_config


def manual_batch(*offsets, n_v=3, t_obs=6, t_pred=10, fps=2.0):
    """Hand-built scenarios, one per entry of ``offsets``, whose neighbours
    sit at that entry's fixed offsets from the target."""
    feats = np.empty((len(offsets), 4, t_obs, n_v))
    for f, slots in zip(feats, offsets):
        f[...] = np.random.default_rng(42).normal(size=(4, t_obs, n_v))
        f[0, :, 0] = 20.0 * (np.arange(t_obs) / fps)
        f[1, :, 0] = 0.0
        for slot, (dx, dy) in enumerate(slots, start=1):
            f[0, :, slot] = f[0, :, 0] + dx
            f[1, :, slot] = f[1, :, 0] + dy
    future = np.stack([20.0 * (np.arange(1, t_pred + 1) / fps),
                       np.zeros(t_pred)], axis=1)
    n = len(offsets)
    return ScenarioBatch(tuple(f"manual-{i}" for i in range(n)), ("keep_lane",) * n,
                         (20.0,) * n, (0,) * n, range(1, n + 1), feats,
                         np.broadcast_to(future, (n, t_pred, 2)), fps)


# --------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="k must be"):
        tiny_config(k=3)
    with pytest.raises(ValueError, match="p must be"):
        tiny_config(p=7)
    with pytest.raises(ValueError, match="p must be"):
        tiny_config(p=0)
    with pytest.raises(ValueError, match="spider"):
        tiny_config(weighted=True, graph_kind="mesh")
    with pytest.raises(ValueError, match="graph_kind"):
        tiny_config(graph_kind="torus")
    for fps in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^fps must be positive and finite, got {fps}$"):
            tiny_config(fps=fps)
    with pytest.raises(ValueError):
        tiny_config(hidden=0)
    # every channel holds at least two coefficients for its layer norm
    with pytest.raises(ValueError, match="n_v"):
        tiny_config(n_v=1)
    assert "n_blocks" not in {f.name for f in dataclasses.fields(ModelConfig)}
    # The rate has no default and is passed by name; it stays the last
    # field, so asdict and checkpoint heads keep their order.
    with pytest.raises(TypeError, match="fps"):
        ModelConfig(k=2, t_obs=6, t_pred=10, n_v=3, p=6)
    with pytest.raises(TypeError):
        ModelConfig(2, 6, 10, 3, 6, 4, "spider", False, 2.0)
    assert dataclasses.fields(ModelConfig)[-1].name == "fps"


def test_config_sizes():
    cfg = tiny_config()
    assert cfg.zk == 18
    assert cfg.z == 36


def test_encoder_input_sizes_per_preset_at_25_fps():
    # 4 channels x 9 vehicles x 75, 15 and 5 kept temporal modes.
    assert [preset_config(name, 25).z for name in ("gftnn", "gftnn-rdcby5",
                                                   "gftnn-rdcby15")] == [2700, 540, 180]
    with pytest.raises(ValueError, match=r"^p must be in \[1, 75\], got 76$"):
        dataclasses.replace(preset_config("gftnn", 25), p=76)


def test_preset_table():
    for fps, t_obs, t_pred in ((10, 30, 50), (25, 75, 125)):
        base = preset_config("gftnn", fps)
        assert (base.k, base.p, base.weighted) == (4, t_obs, False)
        assert (base.t_obs, base.t_pred) == (t_obs, t_pred)
        w = preset_config("gftnn-w", fps)
        assert (w.k, w.p, w.weighted) == (2, t_obs, True)
        assert preset_config("gftnn-rdcby5", fps).p == t_obs // 5
        assert preset_config("gftnn-rdcby15", fps).p == t_obs // 15
    assert preset_config("gftnn-rdcby5", 25).p == 15
    assert preset_config("gftnn-rdcby15", 10).p == 2


def test_preset_hidden_and_bad_inputs():
    assert preset_config("gftnn", 10, hidden=8).hidden == 8
    with pytest.raises(ValueError, match="preset"):
        preset_config("mlp", 10)
    with pytest.raises(ValueError, match="fps"):
        preset_config("gftnn", 15)


# --------------------------------------------------------------------- params

def expected_count(cfg):
    per_channel = cfg.hidden * cfg.zk + cfg.hidden + 3 * cfg.hidden + 3
    return cfg.z + cfg.k * per_channel + 3 * (3 * cfg.k) + 3


def test_param_count_formula():
    for cfg in (tiny_config(), preset_config("gftnn", 10),
                preset_config("gftnn-w", 10), preset_config("gftnn-rdcby15", 25)):
        params = init_params(cfg, 0)
        assert params.n_params == expected_count(cfg)
        shapes = param_shapes(cfg)
        assert sum(int(np.prod(s)) for s in shapes.values()) == params.n_params


def test_param_count_regression_values():
    assert init_params(preset_config("gftnn", 10), 0).n_params == 55931
    assert init_params(preset_config("gftnn-w", 10), 0).n_params == 27967


def test_init_deterministic_and_shaped():
    cfg = tiny_config()
    a = init_params(cfg, 5)
    b = init_params(cfg, 5)
    c = init_params(cfg, 6)
    for (name, arr_a), (_, arr_b) in zip(a.items(), b.items()):
        assert np.array_equal(arr_a, arr_b), name
        assert arr_a.shape == param_shapes(cfg)[name]
    assert any(not np.array_equal(x, y)
               for (_, x), (_, y) in zip(a.items(), c.items()))


def test_init_gate_ones_biases_zero_weights_bounded():
    cfg = tiny_config()
    p = init_params(cfg, 7)
    assert np.array_equal(p.w_s, np.ones(cfg.z))
    for k in range(cfg.k):
        assert np.array_equal(p.b_n[k], np.zeros(cfg.hidden))
        assert np.array_equal(p.b_l[k], np.zeros(3))
        assert np.max(np.abs(p.w_n[k])) <= 1.0 / np.sqrt(cfg.zk)
        assert np.max(np.abs(p.w_l[k])) <= 1.0 / np.sqrt(cfg.hidden)
    assert np.max(np.abs(p.w_h)) <= 1.0 / np.sqrt(3 * cfg.k)
    assert np.array_equal(p.b_h, np.zeros(3))


def test_params_copy_is_independent():
    cfg = tiny_config()
    p = init_params(cfg, 1)
    q = p.copy()
    q.w_s[0] = 99.0
    assert p.w_s[0] == 1.0
    assert np.array_equal(q.flat[1:], p.flat[1:])


def test_params_are_views_of_one_buffer():
    cfg = tiny_config()
    p = init_params(cfg, 2)
    assert [name for name, _ in p.items()] == list(param_shapes(cfg)) == [
        "w_s", "w_n", "b_n", "w_l", "b_l", "w_h", "b_h"]
    assert p.flat.shape == (p.n_params,)
    offset = 0
    for name, arr in p.items():
        assert arr is getattr(p, name), name
        assert arr.shape == param_shapes(cfg)[name], name
        assert arr.flags.c_contiguous and arr.flags.writeable, name
        assert np.shares_memory(arr, p.flat), name
        # a write through the flat vector shows in the named view
        p.flat[offset:offset + arr.size] = np.arange(arr.size) + offset
        assert np.array_equal(arr.ravel(), np.arange(arr.size) + offset), name
        offset += arr.size
    # the channel blocks are (k, ...) stacks, channel i at index i
    for name in ("w_n", "b_n", "w_l", "b_l"):
        assert getattr(p, name).shape[0] == cfg.k, name
    q = p.copy()
    assert not np.shares_memory(q.flat, p.flat)
    q.flat[:] = -1.0
    q.w_h[:] = 7.0
    assert np.array_equal(p.flat, np.arange(p.n_params))
    assert np.all(dict(q.items())["w_h"] == 7.0)


# --------------------------------------------------------------- forward pass

def block_config(zk, k=2, hidden=4):
    """A config whose channels hold zk = p * n_v coefficients, with p = 1."""
    return ModelConfig(k=k, t_obs=2, t_pred=3, n_v=zk, p=1, hidden=hidden, fps=1.0)


def test_forward_gate_scales_spectrum():
    cfg = block_config(2)
    params = init_params(cfg, 0)
    params.w_s[:] = [3.0, 4.0, -1.0, 0.5]
    _, cache = forward(np.array([[1.0, 2.0, 8.0, 6.0]]), params, cfg)
    # the gated channels are [3, 8] and [-8, 3]; layer norm sees those
    want = [[[-2.5 / np.sqrt(6.25 + 1e-5), 2.5 / np.sqrt(6.25 + 1e-5)]],
            [[-5.5 / np.sqrt(30.25 + 1e-5), 5.5 / np.sqrt(30.25 + 1e-5)]]]
    assert np.allclose(cache["normed"], want, rtol=0, atol=1e-15)


def test_forward_layer_norm_constant_channel():
    cfg = block_config(7)
    _, cache = forward(np.full((3, cfg.z), 3.25), init_params(cfg, 0), cfg)
    assert cache["normed"].shape == (cfg.k, 3, 7)
    for normed in cache["normed"]:
        assert np.array_equal(normed, np.zeros((3, 7)))


def test_forward_layer_norm_two_points():
    cfg = block_config(2, k=2)
    _, cache = forward(np.array([[1.0, -1.0, -1.0, 1.0]]), init_params(cfg, 0), cfg)
    want = 1.0 / np.sqrt(1.0 + 1e-5)
    assert np.allclose(cache["normed"][0], [[want, -want]], rtol=0, atol=1e-15)
    assert np.allclose(cache["normed"][1], [[-want, want]], rtol=0, atol=1e-15)


def test_forward_layer_norm_statistics():
    cfg = block_config(101)
    rng = np.random.default_rng(0)
    _, cache = forward(rng.normal(3.0, 10.0, size=(4, cfg.z)), init_params(cfg, 0), cfg)
    for normed in cache["normed"]:
        assert np.max(np.abs(normed.mean(axis=1))) < 1e-12
        # variance is slightly below 1 because of the epsilon in the denominator
        assert np.max(np.abs(normed.var(axis=1) - 1.0)) < 1e-4


def test_forward_zero_block_weights_pass_bias():
    cfg = block_config(10, hidden=4)
    params = init_params(cfg, 1)
    rng = np.random.default_rng(1)
    for k in range(cfg.k):
        params.w_n[k][:] = 0.0
        params.b_n[k][:] = rng.normal(size=4)
        params.w_l[k][:] = 0.0
    params.b_l[0][:] = [1.5, -2.0, 0.25]
    params.b_l[1][:] = [0.0, 3.0, -0.5]
    _, cache = forward(rng.normal(size=(2, cfg.z)), params, cfg)
    want = expit(np.array([1.5, -2.0, 0.25, 0.0, 3.0, -0.5]))
    assert np.array_equal(cache["sg"], np.stack([want, want]))


def test_forward_blocks_match_straight_line_math():
    cfg = block_config(12, hidden=5)
    rng = np.random.default_rng(2)
    params = init_params(cfg, 2)
    params.flat[:] = rng.normal(size=params.n_params)
    s = rng.normal(size=(3, cfg.z))
    _, cache = forward(s, params, cfg)
    for row in range(3):
        for k in range(cfg.k):
            h = s[row, 12 * k:12 * (k + 1)] * params.w_s[12 * k:12 * (k + 1)]
            normed = (h - h.mean()) / np.sqrt(h.var() + 1e-5)
            want = (params.w_l[k] @ gelu(params.w_n[k] @ normed + params.b_n[k])
                    + params.b_l[k])
            assert np.allclose(cache["sg"][row, 3 * k:3 * k + 3], expit(want),
                               rtol=0, atol=1e-12)


def test_forward_zero_head_returns_head_bias():
    cfg = tiny_config()
    params = init_params(cfg, 4)
    params.w_h[:] = 0.0
    params.b_h[:] = [1.0, 2.0, 3.0]
    rng = np.random.default_rng(5)
    out, _ = forward(rng.normal(size=(2, cfg.z)), params, cfg)
    assert np.array_equal(out, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


def test_forward_rejects_wrong_shape():
    cfg = tiny_config()
    params = init_params(cfg, 0)
    for bad in (np.zeros((1, cfg.z + 1)), np.zeros(cfg.z), np.zeros((1, 1, cfg.z))):
        with pytest.raises(ValueError, match="shape"):
            forward(bad, params, cfg)


def test_forward_channel_permutation_symmetry():
    # swapping whole channels together with their weights leaves the output
    # unchanged, i.e. channels interact only through the head
    cfg = ModelConfig(k=4, t_obs=5, t_pred=4, n_v=2, p=5, hidden=6, fps=1.0)
    params = init_params(cfg, 8)
    rng = np.random.default_rng(9)
    params.w_s[:] = rng.normal(size=cfg.z)
    s = rng.normal(size=(3, cfg.z))
    perm = [2, 0, 3, 1]
    zk = cfg.zk
    s_p = np.concatenate([s[:, k * zk:(k + 1) * zk] for k in perm], axis=1)
    params_p = ModelParams(params.shapes)
    params_p.w_s[:] = np.concatenate([params.w_s[k * zk:(k + 1) * zk] for k in perm])
    params_p.w_h[:] = np.concatenate([params.w_h[:, 3 * k:3 * k + 3] for k in perm],
                                     axis=1)
    params_p.b_h[:] = params.b_h
    for kind in ("w_n", "b_n", "w_l", "b_l"):
        getattr(params_p, kind)[:] = getattr(params, kind)[perm]
    assert np.allclose(forward(s_p, params_p, cfg)[0], forward(s, params, cfg)[0],
                       rtol=0, atol=1e-12)


def test_forward_head_sees_sigmoid_of_blocks():
    cfg = tiny_config()
    params = init_params(cfg, 10)
    rng = np.random.default_rng(11)
    s = rng.normal(size=(2, cfg.z))
    zk = cfg.zk
    for row in range(2):
        parts = []
        for k in range(cfg.k):
            h = s[row, k * zk:(k + 1) * zk] * params.w_s[k * zk:(k + 1) * zk]
            normed = (h - h.mean()) / np.sqrt(h.var() + 1e-5)
            parts.append(params.w_l[k] @ gelu(params.w_n[k] @ normed + params.b_n[k])
                         + params.b_l[k])
        want = params.w_h @ expit(np.concatenate(parts)) + params.b_h
        assert np.allclose(forward(s, params, cfg)[0][row], want, rtol=0, atol=1e-12)


def test_gelu_matches_gaussian_cdf():
    x = np.linspace(-6, 6, 201)
    assert np.allclose(gelu(x), x * norm.cdf(x), rtol=1e-12, atol=1e-14)


def test_gelu_saturation():
    assert abs(gelu(-20.0)) < 1e-80
    assert abs(gelu(20.0) - 20.0) < 1e-12
    assert abs(gelu_grad(-20.0)) < 1e-80
    assert abs(gelu_grad(20.0) - 1.0) < 1e-12
    assert gelu(0.0) == 0.0
    assert abs(gelu_grad(0.0) - 0.5) < 1e-15


def test_forward_caches_gaussian_cdf_of_block_inputs():
    cfg = block_config(10, hidden=4)
    params = init_params(cfg, 3)
    _, cache = forward(np.random.default_rng(3).normal(size=(2, cfg.z)), params, cfg)
    z = cache["z_lin"]
    assert np.array_equal(cache["cdf"], gaussian_cdf(z))
    assert np.array_equal(cache["act"], gelu(z))
    assert np.array_equal(gelu_grad(z, cache["cdf"]), gelu_grad(z))


def test_gelu_grad_matches_finite_difference():
    x = np.linspace(-4, 4, 81)
    h = 1e-6
    fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
    assert np.max(np.abs(fd - gelu_grad(x))) < 1e-8


# --------------------------------------------------------------------- decode

def test_decode_starts_at_origin():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tr = decode(rng.normal(size=3), rng.uniform(10, 40), 50, 10.0)
        assert tr.x[0] == 0.0
        assert tr.y[0] == 0.0
        assert len(tr) == 51


def test_decode_zero_latents_give_constant_velocity():
    t = np.arange(51) / 10.0
    tr = decode(np.array([0.0, 0.0, 1.3]), 30.0, 50, 10.0)
    assert np.array_equal(tr.x, 30.0 * t)
    assert np.array_equal(tr.y, np.zeros(51))


def test_decode_zero_amplitude_means_straight():
    tr = decode(np.array([0.7, 0.0, 2.0]), 25.0, 50, 10.0)
    assert np.array_equal(tr.y, np.zeros(51))


def test_decode_known_point():
    # x(2 s) = 30 * 2 + 0.5 * 1 * 4 = 62 exactly (t = 2.0 is representable)
    tr = decode(np.array([1.0, 5.0, 2.0]), 30.0, 50, 10.0)
    assert tr.x[20] == 62.0


def test_decode_lateral_bounded_by_amplitude():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = rng.normal(size=3) * [1.0, 3.0, 2.0]
        tr = decode(h, 30.0, 50, 10.0)
        assert np.max(np.abs(tr.y)) <= abs(h[1])


def test_decode_lateral_monotone():
    tr = decode(np.array([0.0, 2.0, 1.5]), 30.0, 50, 10.0)
    steps = np.diff(tr.y)
    assert np.all(steps <= 0) or np.all(steps >= 0)


def test_decode_rate_sign_flip_mirrors_lateral():
    # the anchored lateral profile is antisymmetric in the rate
    rng = np.random.default_rng(14)
    for _ in range(10):
        h1, h2, h3 = rng.normal(size=3)
        plus = decode(np.array([h1, h2, h3]), 20.0, 50, 10.0)
        minus = decode(np.array([h1, h2, -h3]), 20.0, 50, 10.0)
        assert np.allclose(plus.y + minus.y, 0.0, rtol=0, atol=1e-12)
        assert np.array_equal(plus.x, minus.x)


def test_decode_longitudinal_curvature():
    h1 = 1.7
    tr = decode(np.array([h1, 0.0, 1.0]), 28.0, 50, 10.0)
    second = np.diff(tr.x, 2)
    assert np.max(np.abs(second - h1 / 100.0)) < 1e-9


def test_decode_validation():
    with pytest.raises(ValueError):
        decode(np.zeros(4), 30.0, 50, 10.0)
    with pytest.raises(ValueError):
        decode_partials(np.zeros((2, 4)), 50, 10.0)


def test_decode_partials_exact_x_term():
    t = np.arange(51) / 10.0
    dx, _, _ = decode_partials(np.array([0.3, 1.0, 2.0]), 50, 10.0)
    assert np.array_equal(dx, 0.5 * t * t)


def test_decode_partials_match_finite_differences():
    h = np.array([0.4, 2.1, 1.2])
    eps = 1e-6
    _, dy2, dy3 = decode_partials(h, 50, 10.0)

    def y_of(h_z):
        return decode(h_z, 0.0, 50, 10.0).y

    fd2 = (y_of(h + [0, eps, 0]) - y_of(h - [0, eps, 0])) / (2 * eps)
    fd3 = (y_of(h + [0, 0, eps]) - y_of(h - [0, 0, eps])) / (2 * eps)
    assert np.max(np.abs(fd2 - dy2)) < 1e-7
    assert np.max(np.abs(fd3 - dy3)) < 1e-7


def test_decode_partials_match_their_formulas_bit_for_bit():
    # The backward pass shares decode_partials' helper; both must give the
    # bits of the formulas written out, for the same logistic g.
    rng = np.random.default_rng(16)
    h = rng.normal(size=(4, 3)) * [1.0, 3.0, 2.0]
    t = np.arange(51) / 10.0
    tau = t - 0.5 * (50 / 10.0)
    g = expit(-h[:, 2:3] * tau)
    g0 = g[:, :1]
    want = (np.broadcast_to(0.5 * t * t, g.shape),
            g - g0,
            h[:, 1:2] * (-tau * g * (1.0 - g) + tau[0] * g0 * (1.0 - g0)))
    for got, ref in zip(decode_partials(h, 50, 10.0), want):
        assert got.shape == (4, 51)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    _, y = decode_batch(h, np.zeros(4), 50, 10.0)
    assert np.array_equal(y, h[:, 1:2] * (g - g0))


def test_decode_partials_batched_matches_single():
    rng = np.random.default_rng(15)
    batch = rng.normal(size=(5, 3))
    dx_b, dy2_b, dy3_b = decode_partials(batch, 50, 10.0)
    assert dx_b.shape == (5, 51)
    for i in range(5):
        dx, dy2, dy3 = decode_partials(batch[i], 50, 10.0)
        assert np.array_equal(dx_b[i], dx)
        assert np.array_equal(dy2_b[i], dy2)
        assert np.array_equal(dy3_b[i], dy3)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.zeros(5), np.zeros(4))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, np.inf]), np.zeros(2))
    x = np.zeros(3)
    tr = Trajectory(x, np.zeros(3))
    with pytest.raises(ValueError):
        tr.x[0] = 1.0
    x[0] = 1.0      # the trajectory holds a copy
    assert tr.x[0] == 0.0


def test_predict_batch_returns_the_decoded_arrays(basis_30x9):
    # The (B, T_pred + 1) arrays decode_batch gives, and predict's rows of
    # batches of one are Trajectory copies of them, read-only.
    cfg = preset_config("gftnn", 10)
    params = init_params(cfg, 2)
    scenarios = synthesize(5, 10, seed=31, noise_std=0.05)
    h_z, _ = forward(scenario_spectra(scenarios, basis_30x9, cfg), params, cfg)
    want = decode_batch(h_z, np.array([s.v0 for s in scenarios]), cfg.t_pred, cfg.fps)
    got = predict_batch(scenarios, basis_30x9, params, cfg)
    for arr, ref in zip(got, want):
        assert arr.shape == (5, cfg.t_pred + 1) and arr.dtype == np.float64
        assert np.array_equal(arr.view(np.uint64), ref.view(np.uint64))
    row = predict(scenarios[2], basis_30x9, params, cfg)
    assert isinstance(row, Trajectory) and len(row) == cfg.t_pred + 1
    alone = predict_batch(scenarios[2:3], basis_30x9, params, cfg)
    for arr, ref in ((row.x, alone[0][0]), (row.y, alone[1][0])):
        assert np.array_equal(arr.view(np.uint64), ref.view(np.uint64))
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("x, y, message", [
    (np.array([0.0, np.inf]), np.zeros(2), "trajectory must be finite"),
    (np.zeros(2), np.array([np.nan, 0.0]), "trajectory must be finite"),
    (np.zeros(1), np.zeros(1), r"bad trajectory shapes \(1,\), \(1,\)"),
    (np.zeros(3), np.zeros(4), r"bad trajectory shapes \(3,\), \(4,\)"),
    (np.zeros((2, 3)), np.zeros((2, 3)), r"bad trajectory shapes \(2, 3\), \(2, 3\)"),
])
def test_trajectory_refuses_with_its_rule_messages(x, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trajectory(x, y)


def test_evaluate_of_score_displacements_matches_the_list_metrics(basis_30x9):
    # The report of eval's arrays, score's displacements, and the list
    # functions over predict_batch's Trajectory rows read the same
    # displacements, so they agree bit for bit.
    cfg = preset_config("gftnn", 10)
    params = init_params(cfg, 3)
    batch = synthesize(7, 10, seed=32, noise_std=0.05)
    x, y = predict_batch(batch, basis_30x9, params, cfg)
    s = scenario_spectra(batch, basis_30x9, cfg)
    report = evaluate(*score(s, batch.v0, batch.futures, params, cfg)[1:3], 0.1)
    preds = [Trajectory(xi, yi) for xi, yi in zip(x, y)]
    truths = [truth_trajectory(s) for s in batch]
    assert report.n_scenarios == 7
    assert (report.ade, report.fde, report.ade_euclid_mean) == (
        ade(preds, truths), fde(preds, truths), ade_euclid_mean(preds, truths))
    assert report.per_scenario_ade.tobytes() == per_scenario_ade(preds, truths).tobytes()


def test_truth_trajectory_prepends_origin():
    scen = synthesize(1, 10, seed=16)[0]
    tr = truth_trajectory(scen)
    assert tr.x[0] == 0.0 and tr.y[0] == 0.0
    assert np.array_equal(tr.x[1:], scen.future[:, 0])
    assert np.array_equal(tr.y[1:], scen.future[:, 1])


def test_truth_trajectory_keeps_the_bits_of_the_future_read_only():
    # A future holding a signed zero and a subnormal keeps their bits.
    batch = synthesize(4, 10, seed=17, noise_std=0.05)
    futures = batch.futures.copy()
    futures[2, 3] = [-0.0, 5e-324]
    scenarios = ScenarioBatch(batch.ids, batch.codes, batch.v0, batch.first_frame,
                              batch.vehicle_id, batch.features, futures, batch.fps)
    for scenario, future in zip(scenarios, futures):
        tr = truth_trajectory(scenario)
        for got, want in ((tr.x, future[:, 0]), (tr.y, future[:, 1])):
            assert got.shape == (future.shape[0] + 1,) and got.dtype == np.float64
            assert got[0] == 0.0 and not np.signbit(got[0])
            assert np.array_equal(got[1:].view(np.uint64), want.view(np.uint64))
            with pytest.raises(ValueError):
                got[0] = 1.0


# ------------------------------------------------------------ end-to-end path

def test_select_channels():
    feats = np.arange(4 * 5 * 2, dtype=np.float64).reshape(4, 5, 2)
    assert select_channels(feats, 4) is feats
    assert np.array_equal(select_channels(feats, 2), feats[2:4])
    with pytest.raises(ValueError):
        select_channels(feats, 3)


def test_build_basis_dimensions(basis_30x9):
    assert basis_30x9.temporal.eigenvalues.shape == (30,)
    assert basis_30x9.spatial.eigenvalues.shape == (9,)
    # hub-and-spokes spectrum: 0, then 1 with multiplicity 7, then n
    w = basis_30x9.spatial.eigenvalues
    assert abs(w[0]) < 1e-9
    assert np.max(np.abs(w[1:8] - 1.0)) < 1e-9
    assert abs(w[8] - 9.0) < 1e-9


# SHA-256 of the reference basis that version-4 checkpoints are scored
# with, per config (temporal then spatial; eigenvalues then eigenvectors;
# '<f8' bytes). A checkpoint stores no basis: eval, predict and --resume
# rebuild it, so a trained file keeps its eval and predict bits only while
# build_basis keeps these. The hashes are those the version-2 files that
# stored the basis held, hence the name.
STORED_V2_BASIS_SHA256 = {
    ("gftnn", 10): "32e36170dec38cb18e0261e6a48010708bc089d571166891a0fe4df7eee59641",
    ("gftnn", 25): "6879e1d2f00abb03a73d5ae65ed294e9a96e21322a5f78d898b8ce582aaababb",
    ("gftnn-w", 10): "32e36170dec38cb18e0261e6a48010708bc089d571166891a0fe4df7eee59641",
    ("gftnn-w", 25): "6879e1d2f00abb03a73d5ae65ed294e9a96e21322a5f78d898b8ce582aaababb",
    ("mesh", 10): "b229eda39effe10cb34fa6b82d3836b73a2a0e8e2e1759a974b601cff464edfa",
    ("mesh", 25): "0be1c944271a17532897047c1f7cff39c75b9d87c35a5f045a49372a481a485e",
}


@pytest.mark.parametrize("name, fps", sorted(STORED_V2_BASIS_SHA256))
def test_build_basis_gives_the_bits_version_2_files_store(name, fps):
    # The bits every version-4 checkpoint of this config is scored with.
    if name == "mesh":
        cfg = dataclasses.replace(preset_config("gftnn", fps), graph_kind="mesh")
    else:
        cfg = preset_config(name, fps)
    basis = build_basis(cfg)
    digest = hashlib.sha256()
    for spec in (basis.temporal, basis.spatial):
        for arr in (spec.eigenvalues, spec.eigenvectors):
            digest.update(arr.astype("<f8").tobytes())
    assert digest.hexdigest() == STORED_V2_BASIS_SHA256[name, fps]


def test_scenario_spectra_k2_uses_velocity_channels(basis_30x9):
    scen = synthesize(1, 10, seed=17, noise_std=0.05)
    cfg = preset_config("gftnn", 10)
    cfg2 = dataclasses.replace(cfg, k=2)
    full = gft_extended(scen.features[0, 2:4], basis_30x9)
    assert np.array_equal(scenario_spectra(scen, basis_30x9, cfg2)[0],
                          full[..., :cfg2.p, :].reshape(-1))
    assert scenario_spectra(scen, basis_30x9, cfg).shape == (1, cfg.z)


def test_scenario_spectra_rejects_wrong_grid(basis_30x9):
    # Every field of the grid that differs is named.
    scen = synthesize(1, 25, seed=18, t_pred=4.0, n_vehicles=5)
    cfg = preset_config("gftnn", 10)
    with pytest.raises(ValueError) as info:
        scenario_spectra(scen, basis_30x9, cfg)
    assert str(info.value) == ("scenario grid does not match the model: fps 25.0 != 10.0, "
                               "t_obs 75 != 30, t_pred 100 != 50, n_vehicles 5 != 9")


def test_scenario_spectra_unweighted_uses_reference_basis(monkeypatch):
    cfg = tiny_config()
    basis = build_basis(cfg)
    scenarios = manual_batch(((1.0, 0.0), (0.0, -1.0)), ((4.0, 0.0), (0.0, -1.0)))

    def no_solve(*args, **kwargs):
        raise AssertionError("unweighted spectra must not solve an eigenproblem")

    monkeypatch.setattr(spectral, "symmetric_eigh", no_solve)
    rows = scenario_spectra(scenarios, basis, cfg)
    for row, scen in zip(rows, scenarios):
        fhat = gft_extended(select_channels(scen.features, cfg.k), basis)
        assert np.array_equal(row, fhat[..., :cfg.p, :].reshape(-1))


def test_runtime_bases_never_call_the_jacobi_solver(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("runtime graphs have closed-form spectra")

    monkeypatch.setattr(spectral, "symmetric_eigh", no_solve)
    for fps in (10, 25):
        for kind in GRAPH_KINDS:
            cfg = dataclasses.replace(preset_config("gftnn", fps), graph_kind=kind)
            assert build_basis(cfg).shape == (cfg.t_obs, cfg.n_v)
        cfg = preset_config("gftnn-w", fps)
        scenarios = synthesize(6, fps, seed=29, noise_std=0.05)
        rows = scenario_spectra(scenarios, build_basis(cfg), cfg)
        assert rows.shape == (6, cfg.z) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("fps", [10, 25])
@pytest.mark.parametrize("preset", PRESETS)
def test_scenario_spectra_rows_match_batches_of_one(preset, fps, basis_30x9, basis_75x9):
    cfg = preset_config(preset, fps)
    basis = basis_30x9 if fps == 10 else basis_75x9
    scenarios = synthesize(8, fps, seed=23, noise_std=0.05)
    rows = scenario_spectra(scenarios, basis, cfg)
    assert rows.shape == (len(scenarios), cfg.z)
    for i, row in enumerate(rows):
        assert np.array_equal(row, scenario_spectra(scenarios[i:i + 1], basis, cfg)[0])


@pytest.mark.parametrize("n", [1, 5, 64, 150])
@pytest.mark.parametrize("fps", [10, 25])
@pytest.mark.parametrize("preset", PRESETS + ("custom weighted, p 7",))
def test_scenario_spectra_form_the_kept_modes_to_the_bits_of_all_modes(monkeypatch, preset,
                                                                        fps, n):
    # Transforming only the p kept temporal modes gives the bits of
    # transforming all t_obs of them and then truncating, on the same
    # signal and bases.
    if preset in PRESETS:
        cfg = preset_config(preset, fps)
    else:
        cfg = dataclasses.replace(preset_config("gftnn-w", fps), p=7)
    scenarios = synthesize(150, fps, seed=31, noise_std=0.05)[:n]
    full = []

    def transform(signal, basis, spatial=None, p=None):
        assert p == cfg.p
        full.append(gft_extended(signal, basis, spatial)[..., :p, :].reshape(len(signal), -1))
        return gft_extended(signal, basis, spatial, p)

    monkeypatch.setattr(model, "gft_extended", transform)
    rows = scenario_spectra(scenarios, build_basis(cfg), cfg)
    assert len(full) == 1 and rows.shape == full[0].shape == (n, cfg.z)
    assert rows.tobytes() == full[0].tobytes()


def test_gft_extended_refuses_a_p_outside_the_temporal_modes(basis_30x9):
    signal = np.zeros((4, 30, 9))
    for p in (0, 31):
        with pytest.raises(ValueError, match=rf"^p must be in \[1, 30\], got {p}$"):
            gft_extended(signal, basis_30x9, p=p)


def test_weighted_basis_matches_unweighted_at_unit_distance():
    # neighbours exactly 1 m from the target give unit weights, so the
    # distance-weighted spatial basis must coincide with the reference one
    scen = manual_batch(((1.0, 0.0), (0.0, -1.0)))
    cfg_w = tiny_config(k=2, weighted=True)
    cfg_u = tiny_config(k=2, weighted=False)
    basis = build_basis(cfg_u)
    assert np.array_equal(scenario_spectra(scen, basis, cfg_w),
                          scenario_spectra(scen, basis, cfg_u))


def test_weighted_basis_differs_off_unit_distance():
    # distances must be *unequal*: equal distances only rescale the star
    # Laplacian, which leaves its eigenvectors (and the spectrum) unchanged
    scen = manual_batch(((4.0, 0.0), (0.0, -1.0)))
    cfg_w = tiny_config(k=2, weighted=True)
    cfg_u = tiny_config(k=2, weighted=False)
    basis = build_basis(cfg_u)
    assert not np.array_equal(scenario_spectra(scen, basis, cfg_w),
                              scenario_spectra(scen, basis, cfg_u))


def test_predict_deterministic(basis_30x9):
    scen = synthesize(1, 10, seed=19, noise_std=0.05)[0]
    cfg = preset_config("gftnn", 10)
    params = init_params(cfg, 1)
    a = predict(scen, basis_30x9, params, cfg)
    b = predict(scen, basis_30x9, params, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert len(a) == cfg.t_pred + 1


def test_predict_rejects_rate_mismatch(basis_75x9):
    scen = synthesize(1, 10, seed=20)[0]
    cfg = preset_config("gftnn", 25)
    with pytest.raises(ValueError, match="fps"):
        predict(scen, basis_75x9, init_params(cfg, 0), cfg)


def test_predict_rejects_horizon_mismatch(basis_30x9):
    scen = synthesize(1, 10, seed=21, t_pred=4.0)[0]
    cfg = preset_config("gftnn", 10)
    with pytest.raises(ValueError, match="^scenario grid does not match the model: "
                                         "t_pred 40 != 50$"):
        predict(scen, basis_30x9, init_params(cfg, 0), cfg)


# ----------------------------------------------------------------- checkpoint

def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def awkward_state(cfg, seed):
    """Parameters and Adam state holding floats that a lossy codec would
    change: signed zero, the smallest subnormal, NaN with a payload. The
    moments are flat, laid out like ``params.flat``."""
    params = init_params(cfg, seed)
    params.w_s[:5] = [1.0 / 3.0, np.nextafter(1.0, 2.0), 1e-308, -0.0, 5e-324]
    m = ModelParams(params.shapes, np.full(params.n_params, 0.125))
    v = ModelParams(params.shapes, np.full(params.n_params, 0.5))
    m.w_h.flat[:3] = [-0.0, 5e-324, np.nan]
    v.b_h[:] = [np.nan, -np.nan, -0.0]
    v.w_s[:2] = np.array([0x7FF8000000000001, 0xFFF0000000000DEF],
                         dtype=np.uint64).view(np.float64)
    return params, {"step": 17, "m": m.flat, "v": v.flat}


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, 3)
    basis = build_basis(cfg)
    opt = {"step": 17, "m": np.full_like(params.flat, 0.125),
           "v": np.full_like(params.flat, 0.5)}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, basis, params, epochs_trained=5, optimizer=opt)
    head, payload = split_head(path)
    assert list(head) == ["format_version", "config", "epochs_trained", "optimizer",
                          "arrays"]
    assert head["format_version"] == 4
    assert payload[:8 * params.n_params] == params.flat.astype("<f8").tobytes()
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert ckpt.epochs_trained == 5
    for (name, a), (_, b) in zip(params.items(), ckpt.params.items()):
        assert np.array_equal(a, b), name
        assert b.flags.writeable, name
    assert list(ckpt.optimizer) == ["step", "m", "v"]
    assert ckpt.optimizer["step"] == 17
    for moment in ("m", "v"):
        got = ckpt.optimizer[moment]
        assert got.shape == (params.n_params,) and got.flags.writeable, moment
        assert np.array_equal(got, opt[moment]), moment


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_checkpoint_file_is_the_head_line_then_raw_arrays(tmp_path, with_optimizer):
    # Pins format version 4: one line of json.dumps(head), then params, m and
    # v as little-endian float64 in the order of param_shapes.
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 6)
    n = params.n_params
    head = {"format_version": 4, "config": dataclasses.asdict(cfg), "epochs_trained": 4}
    raw = params.flat.astype("<f8").tobytes()
    if with_optimizer:
        head["optimizer"] = {"step": 17}
        raw += opt["m"].astype("<f8").tobytes() + opt["v"].astype("<f8").tobytes()
    head["arrays"] = {name: [n] for name in ("params", "m", "v")[:3 if with_optimizer else 1]}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, 4,
                    opt if with_optimizer else None)
    assert path.read_bytes() == json.dumps(head).encode() + b"\n" + raw


def test_checkpoint_roundtrip_awkward_floats(tmp_path):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 4)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params)
    back = load_checkpoint(path)
    assert same_bits(back.params.flat, params.flat)
    assert back.epochs_trained == 0
    assert back.optimizer is None
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    back = load_checkpoint(path)
    for moment in ("m", "v"):
        assert same_bits(back.optimizer[moment], opt[moment]), moment


@pytest.mark.parametrize("optimizer", [True, False], ids=["full", "scoring"])
@pytest.mark.parametrize("stored", [99, 3, "4", True, 4.0, None])
def test_checkpoint_rejects_wrong_version(tmp_path, stored, optimizer):
    # The version is checked before anything else in the head.
    cfg = tiny_config()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), init_params(cfg, 0))
    rewrite_head(path, lambda head: head.update(format_version=stored, config=[]))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, optimizer=optimizer)
    assert str(info.value) == f"{path}: checkpoint has unsupported version {stored!r}"


def _arrays(**shapes):
    def change(head):
        head["arrays"].update(shapes)
    return change


def _config(**values):
    def change(head):
        head["config"].update(values)
    return edited_head(change)


def _config_without(key):
    return edited_head(lambda head: head["config"].pop(key))


def _infinite_first_param(data):
    start = data.index(b"\n") + 1
    return data[:start] + np.array([np.inf], "<f8").tobytes() + data[start + 8:]


N_PARAMS = ModelParams(param_shapes(tiny_config())).n_params


def _nan_last_param(data):
    start = data.index(b"\n") + 1 + 8 * (N_PARAMS - 1)
    return data[:start] + np.array([np.nan], "<f8").tobytes() + data[start + 8:]


CORRUPT_PAYLOADS = [
    (lambda data: data.replace(b'"config": {', b'"config": {,', 1),
     "checkpoint head is not valid JSON at config: Expecting property name "
     "enclosed in double quotes: line 1 column 34 (char 33)"),
    (lambda data: data[:40] + b"\n" + data[40:],
     "checkpoint head is not valid JSON at config.k: Expecting property name "
     "enclosed in double quotes: line 2 column 1 (char 41)"),
    (lambda data: data.replace(b"\n", b"", 1), "checkpoint has no newline after its head"),
    (lambda data: data.replace(b"}\n", b"} \n", 1),
     "checkpoint has no newline after its head"),
    (lambda data: data[:-1], f"checkpoint payload is {24 * N_PARAMS - 1} bytes, "
                             f"expected {24 * N_PARAMS} for the arrays its head declares"),
    (lambda data: data + b"\0", f"checkpoint payload is {24 * N_PARAMS + 1} bytes, "
                                f"expected {24 * N_PARAMS} for the arrays its head declares"),
    (edited_head(_arrays(params=[N_PARAMS + 1], m=[N_PARAMS - 1])),
     f"checkpoint arrays params has shape ({N_PARAMS + 1},), expected "
     f"({N_PARAMS},) for its config"),
    (edited_head(_arrays(params=[1, N_PARAMS])),
     f"checkpoint arrays params has shape (1, {N_PARAMS}), expected "
     f"({N_PARAMS},) for its config"),
    (edited_head(lambda head: head["config"].update(hidden=5)),
     f"checkpoint arrays params has shape ({N_PARAMS},), expected "
     f"({N_PARAMS + 2 * (6 * 3 + 1 + 3)},) for its config"),
    (edited_head(lambda head: head.pop("optimizer")), "checkpoint arrays has unknown keys: m, v"),
    (lambda data: edited_head(lambda head: head["arrays"].pop("v"))(data)[:-8 * N_PARAMS],
     "checkpoint arrays is missing key 'v'"),
    (edited_head(_arrays(params=[0])),
     "checkpoint arrays params has shape [0], expected a list of positive integers"),
    (edited_head(_arrays(params=[1.5])),
     "checkpoint arrays params has shape [1.5], expected a list of positive integers"),
    (edited_head(_arrays(m=N_PARAMS)), "checkpoint arrays m is an integer, expected a list"),
    (edited_head(lambda head: head.update(arrays=[])),
     "checkpoint arrays is a list, expected an object"),
    (edited_head(lambda head: head.pop("arrays")), "checkpoint is missing key 'arrays'"),
    (_infinite_first_param, "checkpoint params w_s is not finite"),
    (edited_head(lambda head: head["optimizer"].update(step=-1)),
     "checkpoint optimizer step is -1, expected a non-negative integer"),
    (edited_head(lambda head: head.update(epochs_trained=-5)),
     "checkpoint epochs_trained is -5, expected a non-negative integer"),
    (edited_head(lambda head: head["config"].update(colour=1)),
     "checkpoint config has unknown keys: colour"),
    (edited_head(lambda head: head.pop("config")), "checkpoint is missing key 'config'"),
    (lambda data: b"[" + data.replace(b"\n", b"]\n", 1), "checkpoint is not a JSON object"),
    (edited_head(lambda head: head["config"].pop("p")), "checkpoint config is missing key 'p'"),
    (_config(t_obs="30"), "checkpoint config t_obs is a string, expected an integer"),
    (_config(hidden=True), "checkpoint config hidden is a boolean, expected an integer"),
    (_config(fps="2"), "checkpoint config fps is a string, expected a number"),
    (_config(fps=float("inf")), "checkpoint config: fps must be positive and finite, got inf"),
    (_config(p=7), "checkpoint config: p must be in [1, 6], got 7"),
    # Configs written while the model had a block count stored n_blocks.
    (_config(n_blocks=1), "checkpoint config has unknown keys: n_blocks"),
    (edited_head(lambda head: head["optimizer"].update(step=17.0)),
     "checkpoint optimizer step is a number, expected an integer"),
    (edited_head(lambda head: head["optimizer"].pop("step")),
     "checkpoint optimizer is missing key 'step'"),
    (_nan_last_param, "checkpoint params b_h is not finite"),
    (edited_head(lambda head: head.update(epochs_trained=2.0)),
     "checkpoint epochs_trained is a number, expected an integer"),
    (edited_head(lambda head: head.update(epochs_trained=True)),
     "checkpoint epochs_trained is a boolean, expected an integer"),
    (edited_head(lambda head: head.update(config=[])),
     "checkpoint config is a list, expected an object"),
    (edited_head(lambda head: head.update(optimizer=[])),
     "checkpoint optimizer is a list, expected an object"),
    (_config(fps=float("-inf")), "checkpoint config: fps must be positive and finite, got -inf"),
    (_config(fps=float("nan")), "checkpoint config: fps must be positive and finite, got nan"),
    (_config(fps=0), "checkpoint config: fps must be positive and finite, got 0.0"),
    (_config(p=0), "checkpoint config: p must be in [1, 6], got 0"),
    (_config(k=3), "checkpoint config: k must be 2 or 4, got 3"),
    (_config(graph_kind="torus"),
     "checkpoint config: graph_kind must be one of ('spider', 'mesh')"),
    (_config(weighted=1), "checkpoint config weighted is an integer, expected a boolean"),
    (edited_head(lambda head: head["optimizer"].update(step=True)),
     "checkpoint optimizer step is a boolean, expected an integer"),
    # The writer writes every key, so none is filled in from a default.
    (_config_without("hidden"), "checkpoint config is missing key 'hidden'"),
    (_config_without("graph_kind"), "checkpoint config is missing key 'graph_kind'"),
    (_config_without("weighted"), "checkpoint config is missing key 'weighted'"),
    (_config_without("fps"), "checkpoint config is missing key 'fps'"),
    (edited_head(lambda head: head.pop("epochs_trained")),
     "checkpoint is missing key 'epochs_trained'"),
]


def corrupt_payload(tmp_path, edit):
    """A version-4 checkpoint with Adam state whose bytes ``edit`` has changed."""
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    path.write_bytes(edit(path.read_bytes()))
    return path


@pytest.mark.parametrize("edit, message", CORRUPT_PAYLOADS)
def test_checkpoint_corrupt_payload_names_path_and_fault(tmp_path, edit, message):
    path = corrupt_payload(tmp_path, edit)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"


# --------------------------------------------------------------- scoring load

def refusal(path, **kwargs):
    with pytest.raises(ValueError) as info:
        load_checkpoint(path, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("edit", [pytest.param(edit, id=f"payload-{i}")
                                  for i, (edit, _) in enumerate(CORRUPT_PAYLOADS)])
def test_scoring_load_refuses_what_a_full_load_refuses(tmp_path, capsys, edit):
    # Scoring does not read Adam's moments: each corrupt file fails the
    # scoring load, eval and predict with the full load's message.
    path = corrupt_payload(tmp_path, edit)
    message = refusal(path)
    assert refusal(path, optimizer=False) == message
    archive = tmp_path / "archive.json"
    save_archive(archive, synthesize(2, 10, seed=0), 10)
    for command in (["eval"], ["predict", "--scenario-id", "synth-00000"]):
        assert main([*command, "--archive", str(archive), "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_scoring_load_matches_a_full_load(tmp_path, with_optimizer):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 10)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, 7,
                    opt if with_optimizer else None)
    full = load_checkpoint(path)
    scoring = load_checkpoint(path, optimizer=False)
    assert (scoring.config, scoring.epochs_trained) == \
        (full.config, full.epochs_trained) == (cfg, 7)
    assert scoring.params.shapes == full.params.shapes
    assert same_bits(scoring.params.flat, full.params.flat)
    assert (full.optimizer is not None) == with_optimizer
    assert scoring.optimizer is None


def test_scoring_load_reads_only_the_params(tmp_path, monkeypatch):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 11)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    read = []
    payload_read = store.Payload.read

    def recording(self, name):
        read.append(name)
        return payload_read(self, name)

    monkeypatch.setattr(store.Payload, "read", recording)
    load_checkpoint(path, optimizer=False)
    assert read == ["params"]
    read.clear()
    load_checkpoint(path)
    assert read == ["params", "m", "v"]
