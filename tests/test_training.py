import dataclasses
import math

import numpy as np
import pytest

from gftnn.model import (Checkpoint, ModelParams, build_basis, decode_batch,
                         forward, init_params, load_checkpoint, loss_batch,
                         param_shapes, predict, predict_batch, preset_config,
                         save_checkpoint, score, truth_trajectory)
from gftnn.scenario import DatasetSplit, ScenarioBatch, synthesize
from gftnn.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                            DivergenceError, TrainConfig, _batch_loss_and_grads,
                            _prepare, adam_step, gradients, train, trajectory_loss)
from helpers import (adam_step_fresh, adam_step_per_array, backward_per_channel,
                     forward_per_channel, tiny_config)


def tiny_scenarios(n, seed, noise_std=0.05):
    """Scenarios on the tiny 6 x 3 grid used throughout this module."""
    return synthesize(n, 2.0, seed, noise_std=noise_std, n_vehicles=3)


def ones_like_params(params):
    return ModelParams(params.shapes, np.ones_like(params.flat))


def named(params, flat):
    """The arrays of a flat vector laid out like ``params.flat``, by name."""
    return dict(ModelParams(params.shapes, flat).items())


# --------------------------------------------------------------- train config

def test_train_config_validation():
    TrainConfig(learning_rate=0.0)  # evaluation-only runs are legal
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=bad)


# ----------------------------------------------------------------------- loss

def test_trajectory_loss_zero_for_identical():
    scen = tiny_scenarios(1, seed=0)[0]
    truth = truth_trajectory(scen)
    assert trajectory_loss(truth, truth) == 0.0


def test_trajectory_loss_known_values():
    from gftnn.model import Trajectory
    base = Trajectory(np.zeros(6), np.zeros(6))
    unit_x = Trajectory(np.concatenate([[0.0], np.ones(5)]), np.zeros(6))
    assert trajectory_loss(unit_x, base) == 1.0
    both = Trajectory(np.concatenate([[0.0], np.full(5, 3.0)]),
                      np.concatenate([[0.0], np.full(5, 4.0)]))
    assert trajectory_loss(both, base) == 25.0


def test_trajectory_loss_ignores_step_zero():
    from gftnn.model import Trajectory
    base = Trajectory(np.zeros(4), np.zeros(4))
    off = Trajectory(np.array([9.0, 0.0, 0.0, 0.0]), np.zeros(4))
    assert trajectory_loss(off, base) == 0.0


def test_trajectory_loss_length_mismatch():
    from gftnn.model import Trajectory
    with pytest.raises(ValueError, match="mismatch"):
        trajectory_loss(Trajectory(np.zeros(4), np.zeros(4)),
                        Trajectory(np.zeros(5), np.zeros(5)))


# ------------------------------------------------------------------ gradients

def test_gradients_vanish_at_zero_residual():
    # build the target through the exact batched forward path, so the
    # residual is zero bit for bit and every gradient must be exactly zero
    cfg = tiny_config()
    basis = build_basis(cfg)
    scen = tiny_scenarios(1, seed=1)
    params = init_params(cfg, 2)
    s, v0, _ = _prepare(scen, basis, cfg)
    h_z, _ = forward(s, params, cfg)
    x, y = decode_batch(h_z, v0, cfg.t_pred, cfg.fps)
    perfect = ScenarioBatch(scen.ids, scen.codes, scen.v0, scen.first_frame,
                            scen.vehicle_id, scen.features,
                            np.stack([x[:, 1:], y[:, 1:]], axis=2), scen.fps)
    loss, dx, dy, _ = score(*_prepare(perfect, basis, cfg), params, cfg)
    assert loss == 0.0 and not dx.any() and not dy.any()
    grads = gradients(perfect[0], params, cfg, basis)
    for name, arr in grads.items():
        assert np.array_equal(arr, np.zeros_like(arr)), name


def test_gradients_match_finite_differences():
    cfg = tiny_config()
    basis = build_basis(cfg)
    scen = tiny_scenarios(1, seed=3)[0]
    params = init_params(cfg, 4)
    grads = gradients(scen, params, cfg, basis)

    def loss(p):
        return trajectory_loss(predict(scen, basis, p, cfg),
                               truth_trajectory(scen))

    rng = np.random.default_rng(5)
    eps = 1e-6
    shapes = param_shapes(cfg)
    grad_map = dict(grads.items())
    for name, arr in params.items():
        flat_idx = rng.choice(arr.size, size=min(4, arr.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, shapes[name])
            plus = params.copy()
            minus = params.copy()
            dict(plus.items())[name][idx] += eps
            dict(minus.items())[name][idx] -= eps
            fd = (loss(plus) - loss(minus)) / (2 * eps)
            an = grad_map[name][idx]
            rel = abs(fd - an) / max(abs(fd) + abs(an), 1e-6)
            assert rel < 1e-4, f"{name}{idx}: fd={fd} analytic={an}"


@pytest.mark.parametrize("weighted", [False, True])
def test_row_functions_run_on_the_rows_slice_of_a_larger_batch(weighted):
    # Row 2 of a 5-row batch is a view; predict, truth_trajectory and
    # gradients on it run on the slice batch[2:3], bit for bit. The
    # 5-row pass agrees with that slice within rounding: its matrix
    # products may sum in another order.
    cfg = tiny_config(weighted=weighted)
    basis = build_basis(cfg)
    batch = tiny_scenarios(5, seed=18)
    row, one = batch[2], batch[2:3]
    params = init_params(cfg, 9)
    truth, pred = truth_trajectory(row), predict(row, basis, params, cfg)
    alone = predict_batch(one, basis, params, cfg)
    among = predict_batch(batch, basis, params, cfg)
    for i, name in enumerate(("x", "y")):
        assert same_bits(getattr(truth, name)[1:], batch.futures[2, :, i])
        assert same_bits(getattr(pred, name), alone[i][0])
        assert np.max(np.abs(getattr(pred, name) - among[i][2])) <= 1e-12
    want = _batch_loss_and_grads(*_prepare(one, basis, cfg), params, cfg)[1]
    assert same_bits(gradients(row, params, cfg, basis).flat, want.flat)


def test_batched_gradients_average_per_scenario():
    cfg = tiny_config()
    basis = build_basis(cfg)
    scens = tiny_scenarios(3, seed=6)
    params = init_params(cfg, 7)
    per = [gradients(s, params, cfg, basis) for s in scens]
    loss, batched = _batch_loss_and_grads(*_prepare(scens, basis, cfg), params, cfg)
    want_loss = np.mean([trajectory_loss(predict(sc, basis, params, cfg),
                                         truth_trajectory(sc))
                         for sc in scens])
    assert abs(loss - want_loss) < 1e-12 * max(1.0, abs(want_loss))
    batched_map = dict(batched.items())
    for name, _ in params.items():
        mean = np.mean([dict(g.items())[name] for g in per], axis=0)
        assert np.allclose(batched_map[name], mean, rtol=1e-9, atol=1e-9), name


# ----------------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_params():
    cfg = tiny_config()
    params = init_params(cfg, 8)
    before = params.copy()
    zeros = ModelParams(params.shapes)
    state = AdamState.initial(params)
    adam_step(params, zeros, state, TrainConfig(learning_rate=0.01))
    for (name, a), (_, b) in zip(before.items(), params.items()):
        assert np.array_equal(a, b), name
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    cfg = tiny_config()
    params = init_params(cfg, 9)
    before = params.copy()
    lr = 0.01
    adam_step(params, ones_like_params(params), AdamState.initial(params),
              TrainConfig(learning_rate=lr))
    for (name, a), (_, b) in zip(before.items(), params.items()):
        assert np.allclose(b, a - lr, rtol=0, atol=lr * 1e-6), name


def test_adam_zero_learning_rate_keeps_params_bitwise():
    cfg = tiny_config()
    params = init_params(cfg, 10)
    before = params.copy()
    state = AdamState.initial(params)
    adam_step(params, ones_like_params(params), state, TrainConfig(learning_rate=0.0))
    for (name, a), (_, b) in zip(before.items(), params.items()):
        assert np.array_equal(a, b), name
    # moments still advance, so a later nonzero-lr step has history
    assert state.step == 1
    assert state.as_dict()["m"].max() > 0


def test_adam_state_as_dict_is_what_a_checkpoint_stores(tmp_path):
    # The flat moments and step of as_dict() load back bit for bit.
    cfg = tiny_config()
    params = init_params(cfg, 5)
    state = AdamState.initial(params)
    rng = np.random.default_rng(4)
    for _ in range(3):
        adam_step(params, ModelParams(params.shapes, rng.normal(size=params.n_params)),
                  state, TrainConfig(learning_rate=1e-2))
    stored = state.as_dict()
    assert list(stored) == ["step", "m", "v"] and stored["step"] == 3
    save_checkpoint(tmp_path / "ckpt.json", cfg, build_basis(cfg), params, 1, stored)
    back = load_checkpoint(tmp_path / "ckpt.json").optimizer
    assert back["step"] == 3
    for moment in ("m", "v"):
        assert same_bits(back[moment], getattr(state, moment)), moment


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_adam_flat_update_matches_per_array_reference():
    cfg = tiny_config()
    params = init_params(cfg, 20)
    rng = np.random.default_rng(21)
    tc = TrainConfig(learning_rate=1e-2)
    state = AdamState.initial(params)
    ref_params = dict(params.copy().items())
    ref_state = {"step": 0, "m": named(params, state.m.copy()),
                 "v": named(params, state.v.copy())}
    for _ in range(5):
        grads = ModelParams(params.shapes, rng.normal(size=params.n_params)
                            * rng.choice([0.0, 1e-6, 1.0, 1e3], size=params.n_params))
        # adam_step spends the gradient buffer, so the reference goes first
        ref_params, ref_state = adam_step_per_array(ref_params, grads, ref_state, tc)
        adam_step(params, grads, state, tc)
        assert state.step == ref_state["step"]
        m, v = named(params, state.m), named(params, state.v)
        for name, arr in params.items():
            assert same_bits(arr, ref_params[name]), name
            assert same_bits(m[name], ref_state["m"][name]), name
            assert same_bits(v[name], ref_state["v"][name]), name
    assert state.step == 5


def test_adam_update_is_algorithm_1_within_a_few_ulps():
    # adam_step orders the update as Kingma & Ba's section 2 does, which is
    # Algorithm 1 in exact arithmetic. Algorithm 1 rounds six times on the
    # way to the update and the section-2 ordering eight, so the two part by
    # a few ulps of the update (at most 5 on these inputs); the moments are
    # Algorithm 1's bit for bit.
    cfg = tiny_config()
    params = init_params(cfg, 40)
    state = AdamState.initial(params)
    rng = np.random.default_rng(41)
    lr, b1, b2 = 1e-3, ADAM_BETA1, ADAM_BETA2
    m = np.zeros(params.n_params)
    v = np.zeros(params.n_params)
    # Each entry keeps one scale, so some see only gradients far below eps.
    scale = 10.0 ** rng.uniform(-12.0, 3.0, size=params.n_params)
    for t in range(1, 501):
        g = scale * rng.normal(size=params.n_params) * (rng.random(params.n_params) > 0.1)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        want = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # From zero parameters the new parameters are minus the update, exactly.
        params.flat[:] = 0.0
        adam_step(params, ModelParams(params.shapes, g.copy()), state,
                  TrainConfig(learning_rate=lr))
        assert same_bits(state.m, m) and same_bits(state.v, v), t
        ulps = np.abs(-params.flat - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8, (t, ulps.max())
    assert state.step == 500


def test_adam_updates_in_place():
    cfg = tiny_config()
    params = init_params(cfg, 12)
    state = AdamState.initial(params)
    buffers = (params.flat, state.m, state.v, state.work)
    w_n = params.w_n
    grads = ones_like_params(params)
    assert adam_step(params, grads, state, TrainConfig(learning_rate=1e-3)) is None
    assert all(a is b for a, b in zip(buffers, (params.flat, state.m, state.v,
                                                state.work)))
    # the named views still read the updated vector
    assert np.shares_memory(w_n, params.flat)
    assert not np.array_equal(params.flat, init_params(cfg, 12).flat)
    assert np.all(state.m > 0) and np.all(state.v > 0)


def test_adam_steps_accumulate():
    cfg = tiny_config()
    params = init_params(cfg, 11)
    tc = TrainConfig(learning_rate=1e-3)
    state = AdamState.initial(params)
    for want_step in (1, 2, 3):
        adam_step(params, ones_like_params(params), state, tc)
        assert state.step == want_step


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("b", [1, 3, 64])
def test_step_matches_per_channel_oracle(b, k):
    # The stacked forward and backward, the reused gradient buffer and the
    # in-place Adam give the bits of the per-channel loop and fresh arrays.
    cfg = tiny_config(k=k, t_obs=10, n_v=5, p=8, hidden=16)
    rng = np.random.default_rng(30 + b + k)
    s = rng.normal(0.0, 3.0, size=(b, cfg.z))
    futures = rng.normal(0.0, 2.0, size=(b, cfg.t_pred, 2))
    v0 = rng.uniform(20.0, 30.0, size=b)
    tc = TrainConfig(learning_rate=1e-2)
    params = init_params(cfg, b + k)
    state = AdamState.initial(params)
    grads = ModelParams(params.shapes)
    flat, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
    for step in range(20):
        ref = ModelParams(params.shapes, flat)
        h_z, cache = forward_per_channel(s, ref, cfg)
        x, y = decode_batch(h_z, v0, cfg.t_pred, cfg.fps)
        per_scenario, dx, dy = loss_batch(x, y, futures)
        ref_grads = backward_per_channel(s, dx, dy, h_z, cache, ref, cfg)
        loss, got_dx, got_dy, _ = score(s, v0, futures, params, cfg)
        assert loss == float(per_scenario.mean()), step
        assert same_bits(got_dx, dx) and same_bits(got_dy, dy), step
        got_loss, out = _batch_loss_and_grads(s, v0, futures, params, cfg, grads)
        assert out is grads and got_loss == loss, step
        assert same_bits(forward(s, params, cfg)[0], h_z), step
        for (name, got), (_, want) in zip(grads.items(), ref_grads.items()):
            assert same_bits(got, want), (step, name)
        flat, m, v = adam_step_fresh(flat, ref_grads.flat, m, v, step,
                                     tc.learning_rate)
        adam_step(params, grads, state, tc)
        assert same_bits(params.flat, flat), step
        assert same_bits(state.m, m) and same_bits(state.v, v), step


def test_gradients_are_fresh_arrays():
    cfg = tiny_config()
    basis = build_basis(cfg)
    scen = tiny_scenarios(1, seed=23)[0]
    params = init_params(cfg, 24)
    a = gradients(scen, params, cfg, basis)
    b = gradients(scen, params, cfg, basis)
    assert not np.shares_memory(a.flat, b.flat)
    assert not np.shares_memory(a.flat, params.flat)
    assert same_bits(a.flat, b.flat)


# ---------------------------------------------------------------------- train

def test_train_rejects_empty_split():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="empty"):
        train(DatasetSplit(train=[], test=[], seed=0), cfg, TrainConfig())


def test_train_zero_learning_rate_is_a_control_run():
    cfg = tiny_config()
    scens = tiny_scenarios(6, seed=12)
    ds = DatasetSplit(train=scens[:4], test=scens[4:], seed=0)
    tc = TrainConfig(learning_rate=0.0, epochs=3, batch_size=2, seed=13)
    result = train(ds, cfg, tc)
    losses = [row["train_loss"] for row in result.history]
    # batch regrouping may reorder float additions, nothing more
    assert max(losses) - min(losses) < 1e-9 * max(1.0, max(losses))
    init = init_params(cfg, 13)
    for (name, a), (_, b) in zip(init.items(), result.params.items()):
        assert np.array_equal(a, b), name


def test_train_overfits_single_scenario():
    cfg = tiny_config()
    ds = DatasetSplit(train=tiny_scenarios(1, seed=14, noise_std=0.0), test=[], seed=0)
    tc = TrainConfig(learning_rate=3e-3, epochs=500, batch_size=1, seed=0)
    result = train(ds, cfg, tc)
    losses = np.array([row["train_loss"] for row in result.history])
    # a noise-free synthetic future lies exactly in the decoder family, so a
    # single scenario can be fitted to numerical zero
    assert losses[-1] < 1e-12
    assert losses[-1] < losses[0] * 1e-10
    assert math.isnan(result.history[-1]["test_loss"])


def test_train_deterministic():
    cfg = tiny_config()
    scens = tiny_scenarios(8, seed=15)
    ds = DatasetSplit(train=scens[:6], test=scens[6:], seed=0)
    tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=2, seed=1)
    r1 = train(ds, cfg, tc)
    r2 = train(ds, cfg, tc)
    assert r1.history == r2.history
    for (name, a), (_, b) in zip(r1.params.items(), r2.params.items()):
        assert np.array_equal(a, b), name


def test_train_writes_log(tmp_path):
    cfg = tiny_config()
    scens = tiny_scenarios(4, seed=16)
    ds = DatasetSplit(train=scens[:3], test=scens[3:], seed=0)
    log = tmp_path / "log.csv"
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=2, seed=2)
    result = train(ds, cfg, tc, log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,ade,fde"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == result.history[0]["train_loss"]


def test_train_resume_continues_epoch_count(tmp_path):
    cfg = tiny_config()
    scens = tiny_scenarios(6, seed=17)
    ds = DatasetSplit(train=scens[:4], test=scens[4:], seed=0)
    ckpt_path = tmp_path / "ckpt.json"
    log = tmp_path / "log.csv"
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=2, seed=3)
    first = train(ds, cfg, tc, log_path=log, checkpoint_path=ckpt_path)
    assert first.epochs_trained == 2
    ckpt = load_checkpoint(ckpt_path)
    assert ckpt.epochs_trained == 2
    assert ckpt.optimizer is not None
    second = train(ds, cfg, tc, log_path=log, checkpoint_path=ckpt_path,
                   resume=ckpt)
    assert [row["epoch"] for row in second.history] == [3, 4]
    assert second.epochs_trained == 4
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 5  # one header, four epochs
    assert lines.count("epoch,train_loss,test_loss,ade,fde") == 1


def test_train_resume_continues_the_run_bitwise(tmp_path):
    # N epochs, a checkpoint file, then M resumed epochs equal N + M epochs.
    cfg = tiny_config()
    scens = tiny_scenarios(9, seed=25)
    ds = DatasetSplit(train=scens[:7], test=scens[7:], seed=0)
    tc = TrainConfig(learning_rate=1e-2, batch_size=2, seed=7)
    whole = train(ds, cfg, dataclasses.replace(tc, epochs=5),
                  log_path=tmp_path / "whole.csv",
                  checkpoint_path=tmp_path / "whole.json")
    train(ds, cfg, dataclasses.replace(tc, epochs=2), log_path=tmp_path / "part.csv",
          checkpoint_path=tmp_path / "part.json")
    resumed = train(ds, cfg, dataclasses.replace(tc, epochs=3),
                    log_path=tmp_path / "part.csv",
                    checkpoint_path=tmp_path / "part.json",
                    resume=load_checkpoint(tmp_path / "part.json"))
    assert resumed.history == whole.history[2:]
    assert (tmp_path / "part.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    a, b = load_checkpoint(tmp_path / "whole.json"), load_checkpoint(tmp_path / "part.json")
    assert (a.epochs_trained, a.optimizer["step"]) == (b.epochs_trained,
                                                        b.optimizer["step"]) == (5, 20)
    assert same_bits(a.params.flat, b.params.flat)
    assert same_bits(resumed.params.flat, whole.params.flat)
    for moment in ("m", "v"):
        assert same_bits(a.optimizer[moment], b.optimizer[moment]), moment


def test_train_resume_leaves_checkpoint_unchanged(tmp_path):
    cfg = tiny_config()
    scens = tiny_scenarios(5, seed=26)
    ds = DatasetSplit(train=scens[:4], test=scens[4:], seed=0)
    tc = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=2, seed=8)
    train(ds, cfg, tc, checkpoint_path=tmp_path / "ckpt.json")
    ckpt = load_checkpoint(tmp_path / "ckpt.json")
    params = ckpt.params.flat.copy()
    moments = {moment: ckpt.optimizer[moment].copy() for moment in ("m", "v")}
    result = train(ds, cfg, tc, resume=ckpt)
    assert not np.shares_memory(result.params.flat, ckpt.params.flat)
    assert same_bits(ckpt.params.flat, params)
    assert ckpt.optimizer["step"] == 4
    for moment, flat in moments.items():
        assert same_bits(ckpt.optimizer[moment], flat), moment


def test_train_resume_rejects_other_config(tmp_path):
    cfg = tiny_config()
    scens = tiny_scenarios(4, seed=18)
    ds = DatasetSplit(train=scens[:3], test=scens[3:], seed=0)
    ckpt_path = tmp_path / "ckpt.json"
    tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=4)
    train(ds, cfg, tc, checkpoint_path=ckpt_path)
    ckpt = load_checkpoint(ckpt_path)
    other = tiny_config(hidden=5, p=4)
    with pytest.raises(ValueError, match=r"^checkpoint config does not match the "
                                         r"requested config: p 6 != 4, hidden 4 != 5$"):
        train(ds, other, tc, resume=ckpt)


def test_train_refuses_scenarios_at_another_fps():
    # 7.5 s and 12.5 s at 10 fps are the 75 and 125 steps of a 25 fps
    # preset: the step counts fit, the rate does not.
    scens = synthesize(6, 10, seed=1, t_obs=7.5, t_pred=12.5)
    ds = DatasetSplit(train=scens, test=[], seed=0)
    tc = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(ValueError, match=r"^scenario grid does not match the model: "
                                         r"fps 10\.0 != 25\.0$"):
        train(ds, preset_config("gftnn", 25), tc)


def test_train_reports_divergence():
    cfg = tiny_config()
    scens = tiny_scenarios(2, seed=19)
    ds = DatasetSplit(train=scens, test=[], seed=0)
    params = init_params(cfg, 0)
    params.w_s[0] = np.inf
    # load_checkpoint rejects non-finite parameters, so resume from memory.
    ckpt = Checkpoint(config=cfg, params=params, epochs_trained=0, optimizer=None)
    tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=5)
    with pytest.raises(DivergenceError, match="epoch 1"):
        train(ds, cfg, tc, resume=ckpt)


def test_train_reports_an_overflowing_loss():
    # Latents and the decode stay finite, but the squared displacement
    # overflows: the loss check names the epoch and the batch, and numpy
    # warns of nothing (the suite raises its warnings).
    cfg = tiny_config()
    scens = tiny_scenarios(2, seed=19)
    ds = DatasetSplit(train=scens, test=[], seed=0)
    params = init_params(cfg, 0)
    params.b_h[0] = 1e159
    ckpt = Checkpoint(config=cfg, params=params, epochs_trained=0, optimizer=None)
    tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=1, seed=5)
    with pytest.raises(DivergenceError, match=r"^epoch 1, batch 0: loss is not finite$"):
        train(ds, cfg, tc, resume=ckpt)


def test_train_refuses_a_test_pass_that_overflows(tmp_path):
    # A test scenario with a finite but huge speed decodes to finite values
    # whose squared displacement overflows: the test pass ends the run,
    # without a numpy warning (which the suite raises) and before the
    # epoch's log row.
    cfg = tiny_config()
    scens = tiny_scenarios(4, seed=19)
    v0 = scens.v0.copy()
    v0[3] = 1e306
    scens = ScenarioBatch(scens.ids, scens.codes, v0, scens.first_frame,
                          scens.vehicle_id, scens.features, scens.futures, scens.fps)
    ds = DatasetSplit(train=scens[:3], test=scens[3:], seed=0)
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=2, seed=5)
    log = tmp_path / "log.csv"
    with pytest.raises(DivergenceError, match=r"^epoch 1, test pass: loss is not finite$"):
        train(ds, cfg, tc, log_path=log)
    assert not log.exists()
