"""Recurrence kernels, layers, optimizer, and checkpoint format.

The LSTM is checked against a reference recurrence written here with
separate per-gate weight matrices and elementwise loops, against the
step-by-step kernels in ``reference.py``, and its backward pass against
central finite differences of the forward loss.
"""
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from soccersum.core import DataFormatError, TrainingError
from soccersum.neural import (
    Adam,
    FitConfig,
    bce_loss,
    bce_sigmoid_grad,
    dense_init,
    fit,
    load_checkpoint,
    lstm_init,
    save_checkpoint,
    sigmoid,
    uniform_init,
)
from soccersum.neural import kernels
from soccersum.neural.optim import STOP_REASONS
from soccersum.neural.params import MAGIC

import reference


def reference_lstm(x, W, U, b):
    """Plain-python recurrence with per-gate slices, kept deliberately
    different in shape handling from the kernel implementation."""
    T = len(x)
    H = U.shape[1]
    Wi, Wf, Wg, Wo = (W[j * H:(j + 1) * H] for j in range(4))
    Ui, Uf, Ug, Uo = (U[j * H:(j + 1) * H] for j in range(4))
    bi, bf, bg, bo = (b[j * H:(j + 1) * H] for j in range(4))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    hs, cs = [], []
    for t in range(T):
        i = 1.0 / (1.0 + np.exp(-(Wi @ x[t] + Ui @ h_prev + bi)))
        f = 1.0 / (1.0 + np.exp(-(Wf @ x[t] + Uf @ h_prev + bf)))
        g = np.tanh(Wg @ x[t] + Ug @ h_prev + bg)
        o = 1.0 / (1.0 + np.exp(-(Wo @ x[t] + Uo @ h_prev + bo)))
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        hs.append(h_prev.copy())
        cs.append(c_prev.copy())
    return np.array(hs), np.array(cs)


def random_case(rng, T=None, D=None, H=None):
    T = T or int(rng.integers(1, 12))
    D = D or int(rng.integers(1, 8))
    H = H or int(rng.integers(1, 8))
    x = rng.normal(size=(T, D))
    W = rng.normal(scale=0.4, size=(4 * H, D))
    U = rng.normal(scale=0.4, size=(4 * H, H))
    b = rng.normal(scale=0.1, size=4 * H)
    return x, W, U, b


def test_lstm_forward_matches_reference_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, W, U, b = random_case(rng)
        h_ref, c_ref = reference_lstm(x, W, U, b)
        # the kernel, and the step-by-step oracle the batched tests use
        for forward in (kernels.lstm_forward, reference.lstm_forward):
            h, c, gates = forward(x, W, U, b)
            assert np.allclose(h, h_ref, atol=1e-12)
            assert np.allclose(c, c_ref, atol=1e-12)
            assert gates.shape == (x.shape[0], 4 * U.shape[1])
            assert np.all(gates[:, : 2 * U.shape[1]] > 0)  # sigmoid gates


def test_lstm_zero_weights_give_zero_states():
    x = np.random.default_rng(0).normal(size=(5, 3))
    H = 4
    h, c, _ = kernels.lstm_forward(x, np.zeros((4 * H, 3)), np.zeros((4 * H, H)),
                                   np.zeros(4 * H))
    # candidate gate is tanh(0) = 0, so the cell never accumulates anything
    assert np.all(h == 0.0)
    assert np.all(c == 0.0)


def test_lstm_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    x, W, U, b = random_case(rng, T=6, D=4, H=3)
    P = rng.normal(size=(6, 3))

    def loss(x_, W_, U_, b_):
        h, _, _ = kernels.lstm_forward(x_, W_, U_, b_)
        return float(np.sum(h * P))

    h, c, gates = kernels.lstm_forward(x, W, U, b)
    dx, dW, dU, db = kernels.lstm_backward(x, h, c, gates, W, U, P)

    step = 1e-6
    for arr, grad in ((x, dx), (W, dW), (U, dU), (b, db)):
        flat = arr.ravel()
        gflat = np.asarray(grad).ravel()
        idx = rng.choice(flat.size, size=min(25, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss(x, W, U, b)
            flat[i] = orig - step
            lm = loss(x, W, U, b)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


def ragged_batch(rng, lengths, D, H):
    """Left-aligned (B, T, D) batch with random padding values, the per-row
    sequences, and weights."""
    T = max(lengths)
    x = rng.normal(size=(len(lengths), T, D))
    rows = [x[i, :n].copy() for i, n in enumerate(lengths)]
    W = rng.normal(scale=0.4, size=(4 * H, D))
    U = rng.normal(scale=0.4, size=(4 * H, H))
    b = rng.normal(scale=0.1, size=4 * H)
    return x, rows, W, U, b


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _check_batch_against_oracle(lengths, D, H, seed):
    rng = np.random.default_rng(seed)
    x, rows, W, U, b = ragged_batch(rng, lengths, D, H)
    h, c, gates = kernels.lstm_forward_batch(x, W, U, b)
    dh_ext = rng.normal(size=h.shape)
    for i, n in enumerate(lengths):
        dh_ext[i, n:] = 0.0
    dx, dW, dU, db = kernels.lstm_backward_batch(x, h, c, gates, W, U, dh_ext)
    sums = [np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)]
    for i, (row, n) in enumerate(zip(rows, lengths)):
        h1, c1, g1 = reference.lstm_forward(row, W, U, b)
        assert _rel(h[i, :n], h1) <= 1e-12
        assert _rel(c[i, :n], c1) <= 1e-12
        assert _rel(gates[i, :n], g1) <= 1e-12
        dx1, dW1, dU1, db1 = reference.lstm_backward(row, h1, c1, g1, W, U, dh_ext[i, :n])
        assert _rel(dx[i, :n], dx1) <= 1e-10
        assert np.all(dx[i, n:] == 0.0)  # padded steps get exactly nothing
        for acc, g in zip(sums, (dW1, dU1, db1)):
            acc += g
    for got, want in zip((dW, dU, db), sums):
        assert _rel(got, want) <= 1e-10


@pytest.mark.parametrize("lengths", [[1], [7], [5, 1, 9, 3], [1, 1, 2], [13] * 4 + [4]])
def test_batched_lstm_matches_per_example_oracle(lengths):
    _check_batch_against_oracle(lengths, 5, 4, len(lengths) * 100 + sum(lengths))


# (D, H) of the kernel shapes the benchmark reports: metadata and audio
# widths of both networks
BENCH_SHAPES = {"D35_H16": (35, 16), "D35_H32": (35, 32), "D21_H32": (21, 32),
                "D32_H16": (32, 16)}


@pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
def test_batched_lstm_matches_oracle_at_bench_shapes(shape):
    D, H = BENCH_SHAPES[shape]
    _check_batch_against_oracle([10, 3, 1, 10, 7, 12, 5, 10], D, H, D * 100 + H)


# (B, T, D, H) of the stage-1 calls timed for the float32 kernels: a
# training minibatch, a match's validation windows, a wider hidden state
FLOAT32_SHAPES = [(32, 13, 35, 16), (300, 10, 35, 16), (32, 12, 35, 32)]


@pytest.mark.parametrize("shape", FLOAT32_SHAPES, ids=str)
def test_float32_kernels_stay_float32_and_agree_with_float64(shape):
    """The kernels compute in their input's dtype: float32 inputs give
    float32 outputs close to the float64 call on the same (rounded) values."""
    B, T, D, H = shape
    rng = np.random.default_rng(B * T + H)
    x, _, W, U, b = ragged_batch(rng, [T] * B, D, H)
    dh_ext = rng.normal(size=(B, T, H))
    x, W, U, b, dh_ext = (a.astype(np.float32) for a in (x, W, U, b, dh_ext))
    fwd32 = kernels.lstm_forward_batch(x, W, U, b)
    bwd32 = kernels.lstm_backward_batch(x, *fwd32, W, U, dh_ext)
    x, W, U, b, dh_ext = (a.astype(np.float64) for a in (x, W, U, b, dh_ext))
    fwd64 = kernels.lstm_forward_batch(x, W, U, b)
    bwd64 = kernels.lstm_backward_batch(x, *fwd64, W, U, dh_ext)
    assert all(a.dtype == np.float32 for a in fwd32 + bwd32)
    assert _rel(fwd32[0], fwd64[0]) <= 1e-5
    for got, want in zip(bwd32, bwd64):
        assert _rel(got, want) <= 1e-4


@pytest.mark.parametrize("weight_scale", [1.0, 12.0])  # 12: gates saturate
def test_gates_are_the_activations_of_the_pre_activations(weight_scale):
    """The kernel evaluates sigmoid(z) as 0.5 * tanh(0.5 z) + 0.5; its gates
    agree with ``sigmoid`` and ``np.tanh`` of the pre-activations to 1e-15."""
    rng = np.random.default_rng(17)
    H = 16
    x, _, W, U, b = ragged_batch(rng, [9, 4, 1], 35, H)
    W *= weight_scale
    h, _, gates = kernels.lstm_forward_batch(x, W, U, b)
    h_prev = np.concatenate((np.zeros_like(h[:, :1]), h[:, :-1]), axis=1)
    # the input product over time-major rows, as the kernel forms it, so
    # that z carries the kernel's rounding
    B, T, D = x.shape
    x_in = (np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(T * B, D) @ W.T)
    z = (x_in.reshape(T, B, 4 * H).transpose(1, 0, 2) + b) + h_prev @ U.T
    want = sigmoid(z)
    want[..., 2 * H : 3 * H] = np.tanh(z[..., 2 * H : 3 * H])
    assert np.max(np.abs(gates - want)) <= 1e-15


def test_padded_steps_give_exactly_zero_gradients():
    """Padded steps add exact zeros: the gradients do not depend on the
    padding values at all."""
    rng = np.random.default_rng(19)
    lengths = [6, 2, 4]
    x, _, W, U, b = ragged_batch(rng, lengths, 5, 4)
    dh_ext = rng.normal(size=(3, 6, 4))
    other = x.copy()
    for i, n in enumerate(lengths):
        dh_ext[i, n:] = 0.0
        other[i, n:] = rng.normal(scale=10.0, size=other[i, n:].shape)
    grads = kernels.lstm_backward_batch(x, *kernels.lstm_forward_batch(x, W, U, b), W, U,
                                        dh_ext)
    grads_other = kernels.lstm_backward_batch(other, *kernels.lstm_forward_batch(other, W, U, b),
                                              W, U, dh_ext)
    for i, n in enumerate(lengths):
        assert np.all(grads[0][i, n:] == 0.0)
    for got, want in zip(grads_other, grads):
        np.testing.assert_array_equal(got, want)


def test_batched_lstm_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    lengths = [6, 1, 4]
    x, _, W, U, b = ragged_batch(rng, lengths, 4, 3)
    P = rng.normal(size=(3, 6, 3))
    for i, n in enumerate(lengths):
        P[i, n:] = 0.0

    def loss():
        h, _, _ = kernels.lstm_forward_batch(x, W, U, b)
        return float(np.sum(h * P))

    h, c, gates = kernels.lstm_forward_batch(x, W, U, b)
    grads = kernels.lstm_backward_batch(x, h, c, gates, W, U, P)
    step = 1e-4  # the step and tolerance of acceptance criterion 1
    for arr, grad in zip((x, W, U, b), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            lp = loss()
            flat[i] = keep - step
            lm = loss()
            flat[i] = keep
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3) < 1e-4


def test_sigmoid_saturates_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.array([-1000.0, 1000.0]))
    assert np.array_equal(out, [0.0, 1.0])
    z = np.linspace(-30.0, 30.0, 61)
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15, atol=0.0)


def test_maxpool_time_and_backward():
    h = np.array([[1.0, 5.0], [3.0, 2.0], [3.0, 4.0]])
    pooled, idx = reference.maxpool_time(h)
    assert np.array_equal(pooled, [3.0, 5.0])
    assert np.array_equal(idx, [1, 0])  # earliest step wins the tie in column 0
    dh = reference.maxpool_time_backward(np.array([10.0, 20.0]), idx, 3)
    want = np.zeros((3, 2))
    want[1, 0] = 10.0
    want[0, 1] = 20.0
    assert np.array_equal(dh, want)


def test_softmax_and_backward():
    softmax, softmax_backward = reference.softmax, reference.softmax_backward
    x = np.array([1.0, 2.0, 3.0])
    s = softmax(x)
    assert s.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(s) > 0)
    # shift invariance
    assert np.allclose(softmax(x + 100.0), s)

    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    ds = rng.normal(size=6)
    s = softmax(x)
    dx = softmax_backward(s, ds)
    step = 1e-6
    for i in range(6):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fd = (float(softmax(xp) @ ds) - float(softmax(xm) @ ds)) / (2 * step)
        assert abs(fd - dx[i]) < 1e-8


def test_bce_loss_and_grad():
    assert bce_loss(0.5, 1.0) == pytest.approx(np.log(2.0))
    assert bce_loss(0.0, 0.0) < 1e-6         # clamp keeps it finite
    assert np.isfinite(bce_loss(1.0, 0.0))
    assert bce_sigmoid_grad(0.8, 1.0) == pytest.approx(-0.2)
    assert bce_sigmoid_grad(0.8, 0.0) == pytest.approx(0.8)
    assert sigmoid(0.0) == 0.5


def test_adam_first_step_magnitude():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    opt = Adam(params, lr=0.01)
    g = np.array([0.5, -0.25, 2.0])
    opt.step(params, {"w": g.copy()})
    # after bias correction the first update is lr * g / (|g| + eps)
    assert np.allclose(params["w"], [1.0 - 0.01, -2.0 + 0.01, 0.5 - 0.01], atol=1e-6)


def test_adam_leaves_parameters_without_gradients_alone():
    params = {"a": np.ones(2), "b": np.ones(2)}
    opt = Adam(params, lr=0.1)
    opt.step(params, {"a": np.ones(2)})
    assert np.array_equal(params["b"], np.ones(2))
    assert not np.array_equal(params["a"], np.ones(2))


def test_adam_keeps_float32_parameters_float32():
    params = {"w": np.array([1.0, -2.0, 0.5], dtype=np.float32)}
    opt = Adam(params, lr=0.01)
    assert opt.m["w"].dtype == opt.v["w"].dtype == np.float32
    for _ in range(3):
        opt.step(params, {"w": np.array([0.5, -0.25, 2.0], dtype=np.float32)})
    assert params["w"].dtype == opt.m["w"].dtype == opt.v["w"].dtype == np.float32


def test_adam_rejects_bad_gradients():
    params = {"a": np.ones(2)}
    opt = Adam(params, lr=1e-3)
    with pytest.raises(TrainingError, match="unknown"):
        opt.step(params, {"zz": np.ones(2)})
    with pytest.raises(TrainingError, match="non-finite"):
        opt.step(params, {"a": np.array([1.0, np.nan])})



def _scripted_fit(monkeypatch, val_fs, epochs=10):
    """Run ``fit`` (patience 3, batch 2) on the items 1..5, whose summed loss
    and gradient are the chunk sum, with validation F-scores taken from ``val_fs`` in order.
    Records each epoch's chunks, the gradients Adam received and the
    parameters each validation saw."""
    rec = SimpleNamespace(chunks=[], steps=[], seen=[])
    step = Adam.step

    def recording_step(self, params, grads):
        rec.steps.append({k: v.copy() for k, v in grads.items()})
        step(self, params, grads)
    monkeypatch.setattr(Adam, "step", recording_step)

    def loss_grads(params, chunk):
        rec.chunks.append(list(chunk))
        return sum(chunk), None, {"w": np.full(2, sum(chunk))}

    scripted = iter(val_fs)

    def validate(params):
        rec.seen.append({k: v.copy() for k, v in params.items()})
        return {"val_f": next(scripted), "extra": len(rec.seen)}

    params = {"w": np.array([0.5, -0.5])}
    config = FitConfig(epochs=epochs, patience=3, batch=2, lr=0.1)
    best, history, best_epoch, rec.stop = fit(params, [1.0, 2.0, 3.0, 4.0, 5.0], loss_grads,
                                              validate, config, np.random.default_rng(11))
    return params, best, history, best_epoch, rec


def test_fit_stops_after_patience_epochs_and_ties_do_not_improve(monkeypatch):
    # epoch 1 is best; 2 (a tie), 3 and 4 (a tie) do not improve; 5 never runs
    _, _, history, best_epoch, rec = _scripted_fit(monkeypatch, [0.5, 0.7, 0.7, 0.6, 0.7, 0.9])
    assert best_epoch == 1
    assert [row["epoch"] for row in history] == [0, 1, 2, 3, 4]
    assert len(rec.seen) == 5
    assert rec.stop == "patience"


def test_fit_stops_once_val_f_reaches_one(monkeypatch):
    # epoch 2 scores 1.0, which no F-score can beat: epochs 3 and 4 never run
    live, best, history, best_epoch, rec = _scripted_fit(monkeypatch, [0.5, 0.7, 1.0, 0.9, 1.0])
    assert best_epoch == 2
    assert [row["epoch"] for row in history] == [0, 1, 2]
    assert rec.stop == "val_f_max"
    assert len(rec.seen) == 3 and len(rec.steps) == 3 * 3
    # the kept parameters are those epoch 2 validated, as without the stop
    assert np.array_equal(best["w"], rec.seen[2]["w"])
    assert np.array_equal(live["w"], rec.seen[2]["w"])


def test_fit_returns_a_copy_of_the_best_epochs_parameters(monkeypatch):
    live, best, _, best_epoch, rec = _scripted_fit(monkeypatch, [0.1, 0.3, 0.2, 0.2, 0.2])
    assert best_epoch == 1
    assert np.array_equal(best["w"], rec.seen[1]["w"])
    assert not np.array_equal(best["w"], live["w"])
    assert not np.shares_memory(best["w"], live["w"])


def test_fit_averages_gradients_over_each_chunk(monkeypatch):
    _, _, _, _, rec = _scripted_fit(monkeypatch, [0.1, 0.2], epochs=2)
    order = np.random.default_rng(11)
    expected = []
    for _ in range(2):
        items = [float(i + 1) for i in order.permutation(5)]
        expected += [items[0:2], items[2:4], items[4:5]]  # the last chunk is short
    assert rec.chunks == expected
    assert [len(c) for c in rec.chunks] == [2, 2, 1] * 2
    for chunk, grads in zip(rec.chunks, rec.steps):
        assert np.allclose(grads["w"], np.mean(chunk))


def test_fit_history_rows(monkeypatch):
    _, _, history, _, _ = _scripted_fit(monkeypatch, [0.4, 0.2], epochs=2)
    assert history == [{"epoch": 0, "loss": 3.0, "val_f": 0.4, "extra": 1},
                       {"epoch": 1, "loss": 3.0, "val_f": 0.2, "extra": 2}]


@pytest.mark.parametrize("val_fs, stop", [
    ([0.1, 0.2, 0.3], "epoch_limit"),
    ([0.3, 0.2, 0.2], "epoch_limit"),  # one short of patience when the epochs end
    ([0.3, 0.2, 0.2, 0.2], "patience"),  # patience reached on the last epoch
    ([0.3, 0.2, 1.0], "val_f_max"),  # a maximum on the last epoch
])
def test_fit_stop_reason(monkeypatch, val_fs, stop):
    *_, rec = _scripted_fit(monkeypatch, val_fs, epochs=len(val_fs))
    assert rec.stop == stop and rec.stop in STOP_REASONS


def test_fit_without_epochs_keeps_the_initial_parameters(monkeypatch):
    live, best, history, best_epoch, rec = _scripted_fit(monkeypatch, [], epochs=0)
    assert (history, best_epoch, rec.steps, rec.stop) == ([], -1, [], "epoch_limit")
    assert np.array_equal(best["w"], [0.5, -0.5]) and best["w"] is not live["w"]

def test_initializers():
    rng = np.random.default_rng(9)
    w = uniform_init((1000,), 16, rng)
    assert np.max(np.abs(w)) <= 1.0 / 4.0
    p = lstm_init(5, 3, rng, "x")
    assert p["x.W"].shape == (12, 5)
    assert p["x.U"].shape == (12, 3)
    assert np.all(p["x.b"] == 0.0)
    d = dense_init(7, rng, "out")
    assert d["out.w"].shape == (7,)
    assert d["out.b"].shape == (1,)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    params = {
        "layer.W": rng.normal(size=(3, 4)),
        "layer.b": rng.normal(size=3),
        "scalar": np.array([2.5]),
    }
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert list(back) == list(params)
    for k in params:
        assert back[k].dtype == np.float64
        assert np.array_equal(back[k], params[k])


def test_checkpoint_bad_files(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(str(p))

    p.write_bytes(MAGIC + struct.pack("<II", 99, 0))
    with pytest.raises(DataFormatError, match="version"):
        load_checkpoint(str(p))

    good = tmp_path / "good.ckpt"
    save_checkpoint({"a": np.zeros(2)}, str(good))
    good.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(str(good))
