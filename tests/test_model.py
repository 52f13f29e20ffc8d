import base64
import dataclasses
import json

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from gftnn import spectral
from gftnn.model import (GRAPH_KINDS, PRESETS, ModelConfig, ModelParams, Trajectory, build_basis,
                         decode, decode_partials, forward, gelu, gelu_grad,
                         init_params, load_checkpoint, param_shapes, predict,
                         preset_config, save_checkpoint, scenario_spectra,
                         scenario_spectrum, select_channels, truth_trajectory)
from gftnn.scenario import Scenario, synthesize
from gftnn.spectral import ProductBasis, Spectrum, gft_extended, truncate_spectrum
from gftnn.store import encode_array
from helpers import tiny_config, write_v1_checkpoint


def manual_scenario(n_v=3, t_obs=6, t_pred=10, fps=2.0, offsets=((1.0, 0.0), (0.0, -1.0))):
    """Hand-built scenario whose neighbours sit at fixed offsets from the target."""
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(4, t_obs, n_v))
    t = np.arange(t_obs) / fps
    feats[0, :, 0] = 20.0 * t
    feats[1, :, 0] = 0.0
    for slot, (dx, dy) in enumerate(offsets, start=1):
        feats[0, :, slot] = feats[0, :, 0] + dx
        feats[1, :, slot] = feats[1, :, 0] + dy
    future = np.stack([20.0 * (np.arange(1, t_pred + 1) / fps),
                       np.zeros(t_pred)], axis=1)
    return Scenario("manual-0", feats, future, 20.0, fps, "keep_lane")


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
    with pytest.raises(ValueError, match="fps"):
        tiny_config(fps=0.0)
    with pytest.raises(ValueError):
        tiny_config(hidden=0)
    # every channel holds at least two coefficients for its layer norm
    with pytest.raises(ValueError, match="n_v"):
        tiny_config(n_v=1)
    assert "n_blocks" not in {f.name for f in dataclasses.fields(ModelConfig)}


def test_config_sizes():
    cfg = tiny_config()
    assert cfg.zk == 18
    assert cfg.z == 36


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


def test_params_copy_and_named_roundtrip():
    cfg = tiny_config()
    p = init_params(cfg, 1)
    q = p.copy()
    q.w_s[0] = 99.0
    assert p.w_s[0] == 1.0
    named = dict(p.items())
    r = ModelParams.from_named(named, cfg.k)
    for (name, a), (_, b) in zip(p.items(), r.items()):
        assert np.array_equal(a, b), name


def test_params_are_views_of_one_buffer():
    cfg = tiny_config()
    p = init_params(cfg, 2)
    assert [name for name, _ in p.items()] == list(param_shapes(cfg))
    assert p.flat.shape == (p.n_params,)
    offset = 0
    for name, arr in p.items():
        assert arr.flags.c_contiguous and arr.flags.writeable, name
        assert np.shares_memory(arr, p.flat), name
        # a write through the flat vector shows in the named view
        p.flat[offset:offset + arr.size] = np.arange(arr.size) + offset
        assert np.array_equal(arr.ravel(), np.arange(arr.size) + offset), name
        offset += arr.size
    # each kind's channel arrays are one (k, ...) view, in the order of names
    named = dict(p.items())
    for kind in ("w_n", "b_n", "w_l", "b_l"):
        stacked = getattr(p, kind)
        assert stacked.shape == (cfg.k, *named[f"{kind}_0"].shape), kind
        assert stacked.flags.c_contiguous and np.shares_memory(stacked, p.flat), kind
        for i in range(cfg.k):
            assert (stacked[i].__array_interface__["data"]
                    == named[f"{kind}_{i}"].__array_interface__["data"]), (kind, i)
            assert stacked[i].shape == named[f"{kind}_{i}"].shape, (kind, i)
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
    named = {"w_s": np.concatenate([params.w_s[k * zk:(k + 1) * zk] for k in perm]),
             "w_h": np.concatenate([params.w_h[:, 3 * k:3 * k + 3] for k in perm],
                                   axis=1),
             "b_h": params.b_h}
    for i, k in enumerate(perm):
        for kind in ("w_n", "b_n", "w_l", "b_l"):
            named[f"{kind}_{i}"] = getattr(params, kind)[k]
    params_p = ModelParams.from_named(named, cfg.k)
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
    tr = Trajectory(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        tr.x[0] = 1.0


def test_truth_trajectory_prepends_origin():
    scen = synthesize(1, 10, seed=16)[0]
    tr = truth_trajectory(scen)
    assert tr.x[0] == 0.0 and tr.y[0] == 0.0
    assert np.array_equal(tr.x[1:], scen.future[:, 0])
    assert np.array_equal(tr.y[1:], scen.future[:, 1])


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


def test_scenario_spectrum_k2_uses_velocity_channels(basis_30x9):
    scen = synthesize(1, 10, seed=17, noise_std=0.05)[0]
    cfg = preset_config("gftnn", 10)
    cfg2 = dataclasses.replace(cfg, k=2)
    full = gft_extended(scen.features[2:4], basis_30x9)
    assert np.array_equal(scenario_spectrum(scen, basis_30x9, cfg2),
                          truncate_spectrum(full, cfg2.p))
    assert scenario_spectrum(scen, basis_30x9, cfg).shape == (cfg.z,)


def test_scenario_spectrum_rejects_wrong_grid(basis_30x9):
    scen = synthesize(1, 25, seed=18)[0]
    cfg = preset_config("gftnn", 10)
    with pytest.raises(ValueError, match="grid"):
        scenario_spectrum(scen, basis_30x9, cfg)


def test_scenario_spectra_unweighted_uses_reference_basis(monkeypatch):
    cfg = tiny_config()
    basis = build_basis(cfg)
    scenarios = [manual_scenario(), manual_scenario(offsets=((4.0, 0.0), (0.0, -1.0)))]

    def no_solve(*args, **kwargs):
        raise AssertionError("unweighted spectra must not solve an eigenproblem")

    monkeypatch.setattr(spectral, "symmetric_eigh", no_solve)
    rows = scenario_spectra(scenarios, basis, cfg)
    for row, scen in zip(rows, scenarios):
        fhat = gft_extended(select_channels(scen.features, cfg.k), basis)
        assert np.array_equal(row, truncate_spectrum(fhat, cfg.p))


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
def test_scenario_spectra_rows_match_scenario_spectrum(preset, fps, basis_30x9,
                                                       basis_75x9):
    cfg = preset_config(preset, fps)
    basis = basis_30x9 if fps == 10 else basis_75x9
    scenarios = synthesize(8, fps, seed=23, noise_std=0.05)
    rows = scenario_spectra(scenarios, basis, cfg)
    assert rows.shape == (len(scenarios), cfg.z)
    for row, scen in zip(rows, scenarios):
        assert np.array_equal(row, scenario_spectrum(scen, basis, cfg))


def test_weighted_basis_matches_unweighted_at_unit_distance():
    # neighbours exactly 1 m from the target give unit weights, so the
    # distance-weighted spatial basis must coincide with the reference one
    scen = manual_scenario(offsets=((1.0, 0.0), (0.0, -1.0)))
    cfg_w = tiny_config(k=2, weighted=True)
    cfg_u = tiny_config(k=2, weighted=False)
    basis = build_basis(cfg_u)
    assert np.array_equal(scenario_spectrum(scen, basis, cfg_w),
                          scenario_spectrum(scen, basis, cfg_u))


def test_weighted_basis_differs_off_unit_distance():
    # distances must be *unequal*: equal distances only rescale the star
    # Laplacian, which leaves its eigenvectors (and the spectrum) unchanged
    scen = manual_scenario(offsets=((4.0, 0.0), (0.0, -1.0)))
    cfg_w = tiny_config(k=2, weighted=True)
    cfg_u = tiny_config(k=2, weighted=False)
    basis = build_basis(cfg_u)
    assert not np.array_equal(scenario_spectrum(scen, basis, cfg_w),
                              scenario_spectrum(scen, basis, cfg_u))


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
    with pytest.raises(ValueError, match="horizon"):
        predict(scen, basis_30x9, init_params(cfg, 0), cfg)


# ----------------------------------------------------------------- checkpoint

def checkpoint_arrays(ckpt):
    """Every float array a checkpoint holds, by a readable label."""
    out = {f"param {name}": arr for name, arr in ckpt.params.items()}
    for factor in ("temporal", "spatial"):
        spec = getattr(ckpt.basis, factor)
        out[f"{factor} eigenvalues"] = spec.eigenvalues
        out[f"{factor} eigenvectors"] = spec.eigenvectors
    if ckpt.optimizer is not None:
        for moment in ("m", "v"):
            for name, arr in ckpt.optimizer[moment].items():
                out[f"{moment} {name}"] = arr
    return out


def assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for label in a:
        assert a[label].shape == b[label].shape, label
        assert np.array_equal(np.asarray(a[label]).view(np.uint64),
                              np.asarray(b[label]).view(np.uint64)), label


def awkward_state(cfg, seed):
    """Parameters and Adam state holding floats that a lossy codec would
    change: signed zero, the smallest subnormal, NaN with a payload."""
    params = init_params(cfg, seed)
    params.w_s[:5] = [1.0 / 3.0, np.nextafter(1.0, 2.0), 1e-308, -0.0, 5e-324]
    m = {name: np.full_like(arr, 0.125) for name, arr in params.items()}
    v = {name: np.full_like(arr, 0.5) for name, arr in params.items()}
    m["w_h"].flat[:3] = [-0.0, 5e-324, np.nan]
    v["b_h"][:] = [np.nan, -np.nan, -0.0]
    v["w_s"][:2] = np.array([0x7FF8000000000001, 0xFFF0000000000DEF],
                            dtype=np.uint64).view(np.float64)
    return params, {"step": 17, "m": m, "v": v}


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, 3)
    basis = build_basis(cfg)
    opt = {
        "step": 17,
        "m": {name: np.full_like(arr, 0.125) for name, arr in params.items()},
        "v": {name: np.full_like(arr, 0.5) for name, arr in params.items()},
    }
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, basis, params, epochs_trained=5, optimizer=opt)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert base64.b64decode(doc["params"]["b_h"]) == params.b_h.astype("<f8").tobytes()
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert ckpt.epochs_trained == 5
    for (name, a), (_, b) in zip(params.items(), ckpt.params.items()):
        assert np.array_equal(a, b), name
        assert b.flags.writeable, name
    assert np.array_equal(ckpt.basis.temporal.eigenvalues,
                          basis.temporal.eigenvalues)
    assert np.array_equal(ckpt.basis.spatial.eigenvectors,
                          basis.spatial.eigenvectors)
    assert ckpt.optimizer["step"] == 17
    assert np.array_equal(ckpt.optimizer["m"]["w_h"], opt["m"]["w_h"])
    assert np.array_equal(ckpt.optimizer["v"]["w_s"], opt["v"]["w_s"])


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_checkpoint_file_is_json_dumps_of_the_document(tmp_path, with_optimizer):
    # save_checkpoint streams the arrays; the text is that of the whole document.
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 6)
    basis = build_basis(cfg)
    doc = {
        "format_version": 2,
        "config": dataclasses.asdict(cfg),
        "param_count": params.n_params,
        "epochs_trained": 4,
        "basis": {factor: {"eigenvalues": encode_array(getattr(basis, factor).eigenvalues),
                           "eigenvectors": encode_array(getattr(basis, factor).eigenvectors)}
                  for factor in ("temporal", "spatial")},
        "params": {name: encode_array(arr) for name, arr in params.items()},
    }
    if with_optimizer:
        doc["optimizer"] = {"step": 17, **{
            moment: {name: encode_array(arr) for name, arr in opt[moment].items()}
            for moment in ("m", "v")}}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, basis, params, 4, opt if with_optimizer else None)
    assert path.read_text() == json.dumps(doc)


def test_checkpoint_roundtrip_awkward_floats(tmp_path):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 4)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params)
    back = load_checkpoint(path)
    assert np.array_equal(back.params.w_s.view(np.uint64), params.w_s.view(np.uint64))
    assert back.epochs_trained == 0
    assert back.optimizer is None
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    back = load_checkpoint(path)
    for moment in ("m", "v"):
        for name, arr in opt[moment].items():
            assert np.array_equal(back.optimizer[moment][name].view(np.uint64),
                                  arr.view(np.uint64)), (moment, name)


def test_checkpoint_reads_version_1(tmp_path):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 5)
    # repr() strings keep every value except a NaN's sign and payload.
    opt["v"]["b_h"][:] = [np.nan, 0.25, -0.0]
    opt["v"]["w_s"][:2] = [np.nan, 1.5]
    basis = build_basis(cfg)
    save_checkpoint(tmp_path / "v2.json", cfg, basis, params, 7, opt)
    write_v1_checkpoint(tmp_path / "v1.json", cfg, basis, params, 7, opt)
    v1 = load_checkpoint(tmp_path / "v1.json")
    v2 = load_checkpoint(tmp_path / "v2.json")
    assert (v1.config, v1.epochs_trained, v1.optimizer["step"]) == \
        (v2.config, v2.epochs_trained, v2.optimizer["step"]) == (cfg, 7, 17)
    assert_same_bits(checkpoint_arrays(v1), checkpoint_arrays(v2))
    assert (tmp_path / "v2.json").stat().st_size < (tmp_path / "v1.json").stat().st_size


def test_checkpoint_ignores_stored_graph_hash(tmp_path):
    # Earlier writers stored a content hash of each basis factor's graph
    # as "source_graph_id"; nothing reads it.
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 8)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, 3, opt)
    doc = json.loads(path.read_text())
    assert all("source_graph_id" not in doc["basis"][f] for f in ("temporal", "spatial"))
    plain = load_checkpoint(path)
    for factor in ("temporal", "spatial"):
        doc["basis"][factor] = {"source_graph_id": "0123456789ab", **doc["basis"][factor]}
    path.write_text(json.dumps(doc))
    assert_same_bits(checkpoint_arrays(load_checkpoint(path)), checkpoint_arrays(plain))


def _edit(change):
    """A text edit that applies change to the parsed document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def _drop(*keys):
    def change(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return _edit(change)


def _set(*keys, value):
    def change(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return _edit(change)


@pytest.mark.parametrize("edit, message", [
    (_drop("params"), "checkpoint is missing key 'params'"),
    (_drop("basis"), "checkpoint is missing key 'basis'"),
    (_drop("basis", "spatial"), "checkpoint basis is missing key 'spatial'"),
    (_drop("config"), "checkpoint is missing key 'config'"),
    (_drop("optimizer", "step"), "checkpoint optimizer is missing key 'step'"),
    (_drop("config", "p"), "checkpoint config is missing key 'p'"),
    (_edit(lambda doc: doc["config"].update(depth=3, colour=1)),
     "checkpoint config has unknown keys: colour, depth"),
    (lambda text: text[:text.index('"w_n_0"') + 30],
     "checkpoint is not valid JSON at params.w_n_0: Unterminated string "
     "starting at: line 1 column 1303 (char 1302)"),
    (lambda text: f"[{text}]", "checkpoint is not a JSON object"),
    (_set("config", "t_obs", value="30"),
     "checkpoint config t_obs is a string, expected an integer"),
    (_set("config", "hidden", value=True),
     "checkpoint config hidden is a boolean, expected an integer"),
    (_set("config", "fps", value="2"), "checkpoint config fps is a string, expected a number"),
    (_set("optimizer", "step", value=17.0),
     "checkpoint optimizer step is a number, expected an integer"),
    (_set("params", value=[]), "checkpoint params is a list, expected an object"),
    (_set("config", "p", value=7), "checkpoint config: p must be in [1, 6], got 7"),
])
def test_checkpoint_corrupt_document_names_path_and_key(tmp_path, edit, message):
    cfg = tiny_config()
    params, opt = awkward_state(cfg, 9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("writer", ["v1", "v2"])
def test_checkpoint_config_with_n_blocks(tmp_path, writer):
    # Files written while the config had a block count carry "n_blocks": 1.
    cfg = tiny_config()
    params = init_params(cfg, 6)
    path = tmp_path / "ckpt.json"
    if writer == "v1":
        write_v1_checkpoint(path, cfg, build_basis(cfg), params)
    else:
        save_checkpoint(path, cfg, build_basis(cfg), params)
        doc = json.loads(path.read_text())
        doc["config"]["n_blocks"] = 1
        path.write_text(json.dumps(doc))
    doc = json.loads(path.read_text())
    assert doc["config"]["n_blocks"] == 1
    ckpt = load_checkpoint(path)
    assert ckpt.config == cfg
    assert np.array_equal(ckpt.params.flat, params.flat)
    for bad in (2, 0):
        doc["config"]["n_blocks"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"n_blocks {bad} is not supported"):
            load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), init_params(cfg, 0))
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_or_short_params(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), init_params(cfg, 0))
    doc = json.loads(path.read_text())
    del doc["params"]["w_h"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint params is missing key 'w_h'"):
        load_checkpoint(path)
    doc = json.loads(path.read_text())
    raw = base64.b64decode(doc["params"]["b_h"])
    doc["params"]["w_h"] = base64.b64encode(raw[:16]).decode("ascii")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint params w_h has wrong size"):
        load_checkpoint(path)


def _corrupt(section, name, edit):
    def apply(doc):
        table = doc
        for key in section:
            table = table[key]
        table[name] = edit(table[name])
    return apply


def _truncate(nbytes):
    def edit(text):
        return base64.b64encode(base64.b64decode(text)[:-nbytes]).decode("ascii")
    return edit


def _non_finite(text):
    arr = np.frombuffer(base64.b64decode(text), dtype="<f8").copy()
    arr[-1] = np.inf
    return base64.b64encode(arr.tobytes()).decode("ascii")


@pytest.mark.parametrize("edit, message", [
    (_corrupt(["params"], "w_s", lambda t: t[:-4] + "!!!!"),
     "params w_s is not valid base64"),
    (_corrupt(["params"], "w_s", lambda t: "A" + t),
     "params w_s is not valid base64"),
    (_corrupt(["params"], "b_n_1", lambda t: [0.0] * 4),
     "params b_n_1 is a list, expected a string"),
    (_corrupt(["params"], "b_l_0", _truncate(3)),
     r"params b_l_0 has wrong size: 21 bytes, expected 24 for shape \(3,\)"),
    (_corrupt(["params"], "w_h", _non_finite), "params w_h is not finite"),
    (_corrupt(["basis", "temporal"], "eigenvectors", _truncate(8)),
     r"basis temporal eigenvectors has wrong size: 280 bytes, expected 288"),
    (_corrupt(["basis", "spatial"], "eigenvalues", _non_finite),
     "basis spatial: eigenvalues must be finite"),
    (_corrupt(["optimizer", "m"], "w_n_0", _truncate(1)),
     "optimizer m w_n_0 has wrong size"),
    (_corrupt(["optimizer", "v"], "b_h", lambda t: t.replace(t[0], "*")),
     "optimizer v b_h is not valid base64"),
    (lambda doc: doc["optimizer"]["m"].pop("w_l_1"),
     "checkpoint optimizer m is missing key 'w_l_1'"),
    (lambda doc: doc["basis"]["spatial"].pop("eigenvectors"),
     "checkpoint basis spatial is missing key 'eigenvectors'"),
])
def test_checkpoint_rejects_corrupt_arrays(tmp_path, edit, message):
    cfg = tiny_config()
    params = init_params(cfg, 0)
    opt = {"step": 1,
           "m": {name: np.zeros_like(arr) for name, arr in params.items()},
           "v": {name: np.zeros_like(arr) for name, arr in params.items()}}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, build_basis(cfg), params, optimizer=opt)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def _descending(spec):
    return Spectrum(spec.eigenvalues[::-1], spec.eigenvectors[:, ::-1])


def _stretched(spec):
    v = spec.eigenvectors.copy()
    v[:, 1] *= 1.0 + 1e-8
    return Spectrum(spec.eigenvalues, v)


@pytest.mark.parametrize("writer", [save_checkpoint, write_v1_checkpoint])
@pytest.mark.parametrize("factor, bad_basis, message", [
    ("temporal", lambda b: build_basis(tiny_config(t_obs=7, p=6)).temporal,
     r"basis temporal eigenvalues has wrong size: .* for shape \(6,\)"),
    ("spatial", lambda b: build_basis(tiny_config(n_v=4)).spatial,
     r"basis spatial eigenvalues has wrong size: .* for shape \(3,\)"),
    ("temporal", lambda b: _descending(b.temporal),
     "basis temporal eigenvalues are not ascending"),
    ("spatial", lambda b: _descending(b.spatial),
     "basis spatial eigenvalues are not ascending"),
    ("temporal", lambda b: _stretched(b.temporal),
     "basis temporal eigenvectors are not orthonormal"),
    ("spatial", lambda b: _stretched(b.spatial),
     "basis spatial eigenvectors are not orthonormal"),
])
def test_checkpoint_rejects_bad_basis(tmp_path, writer, factor, bad_basis, message):
    cfg = tiny_config()
    basis = build_basis(cfg)
    basis = dataclasses.replace(basis, **{factor: bad_basis(basis)})
    path = tmp_path / "ckpt.json"
    writer(path, cfg, basis, init_params(cfg, 0))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_checkpoint_accepts_basis_within_orthonormal_tolerance(tmp_path):
    cfg = tiny_config()
    basis = build_basis(cfg)
    v = basis.spatial.eigenvectors.copy()
    v[:, 1] *= 1.0 + 1e-12
    basis = dataclasses.replace(basis, spatial=Spectrum(basis.spatial.eigenvalues, v))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, basis, init_params(cfg, 0))
    assert np.array_equal(load_checkpoint(path).basis.spatial.eigenvectors, v)
