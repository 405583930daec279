"""Proposal scorer: two-modality attention, event attention, labeling,
checkpointing, and training on a separable toy problem."""
import numpy as np
import pytest

from soccersum.config import PipelineConfig
from soccersum.core import ShapeError, TrainingError
from soccersum.neural import load_checkpoint, save_checkpoint
from soccersum.stage2 import (
    HmaConfig,
    HmaModel,
    attention_weights,
    hma_backward_batch,
    hma_batch_loss_grads,
    hma_forward_batch,
    hma_loss_grads,
    init_hma_params,
    label_proposal,
    pad_proposals,
    score_proposals,
    train_hma,
)

import reference

META_DIM, AUDIO_DIM = 4, 3
# audio statistics under which normalization leaves features as they are
IDENTITY_NORM = {"audio_mu": np.zeros(AUDIO_DIM), "audio_sd": np.ones(AUDIO_DIM)}


def _stage2(**settings):
    """The configuration of the ``stage2.<name>`` ``settings``, every other
    key at its default."""
    return PipelineConfig({"stage2." + name: value for name, value in settings.items()})


def _train_hma(train_items, val_items, seed, **settings):
    """``train_hma`` under ``_stage2(**settings)``."""
    cfg = _stage2(**settings)
    return train_hma(train_items, val_items, cfg.hma_config(), cfg.fit_config("stage2"), seed)


def small_params(seed=0, hm=5, hf=4):
    rng = np.random.default_rng(seed)
    cfg = HmaConfig(hidden_modality=hm, hidden_fusion=hf)
    return init_hma_params(META_DIM, AUDIO_DIM, cfg, rng)


def random_pair(rng, length):
    return (rng.normal(size=(length, META_DIM)),
            rng.normal(size=(length, AUDIO_DIM)))


def test_forward_rejects_bad_shapes():
    params = small_params()
    for bad, message in (((np.zeros((3, META_DIM)), np.zeros((2, AUDIO_DIM))), "disagree"),
                         ((np.zeros((0, META_DIM)), np.zeros((0, AUDIO_DIM))), "no events")):
        with pytest.raises(ShapeError, match=message):
            attention_weights(params, *bad)
        with pytest.raises(ShapeError, match=message):
            hma_loss_grads(params, *bad, 1.0)


def test_attention_weights_normalized_everywhere():
    rng = np.random.default_rng(99)
    params = small_params(1)
    for _ in range(200):
        xm, xa = random_pair(rng, int(rng.integers(1, 12)))
        lam_m, lam_a, beta = attention_weights(params, xm, xa)
        assert lam_m.shape == lam_a.shape == (xm.shape[0],)
        np.testing.assert_allclose(lam_m + lam_a, 1.0, atol=1e-12)
        assert np.all(lam_m > 0) and np.all(lam_m < 1)
        assert beta.shape == (xm.shape[0],)
        assert np.all(beta > 0)
        assert abs(beta.sum() - 1.0) < 1e-12


def test_single_event_gets_full_attention():
    rng = np.random.default_rng(5)
    params = small_params(2)
    xm, xa = random_pair(rng, 1)
    _, _, beta = attention_weights(params, xm, xa)
    assert beta.shape == (1,)
    assert beta[0] == pytest.approx(1.0, abs=1e-15)


def test_event_order_matters():
    rng = np.random.default_rng(7)
    params = small_params(3)
    xm, xa = random_pair(rng, 6)
    _, p_fwd, _ = hma_loss_grads(params, xm, xa, 1.0)
    _, p_rev, _ = hma_loss_grads(params, xm[::-1].copy(), xa[::-1].copy(), 1.0)
    assert abs(p_fwd - p_rev) > 1e-9


def test_forward_deterministic():
    rng = np.random.default_rng(11)
    params = small_params(4)
    xm, xa = random_pair(rng, 5)
    _, p1, _ = hma_loss_grads(params, xm, xa, 1.0)
    _, p2, _ = hma_loss_grads(params, xm, xa, 0.0)
    assert p1 == p2
    assert isinstance(p1, float) and 0.0 < p1 < 1.0


@pytest.mark.parametrize("length", [1, 2, 7])
def test_gate_functions_match_per_example_oracle(length):
    """Criteria 1 and 3 call hma_loss_grads and attention_weights, which
    run the batched path training and scoring run."""
    rng = np.random.default_rng(length)
    params = small_params(length + 20)
    xm, xa = random_pair(rng, length)
    loss, p, grads = hma_loss_grads(params, xm, xa, 1.0)
    want_loss, want_p, want = reference.hma_loss_grads(params, xm, xa, 1.0)
    assert abs(loss - want_loss) <= 1e-12 and abs(p - want_p) <= 1e-12
    assert set(grads) == set(want)
    for k, g in grads.items():
        assert np.max(np.abs(g - want[k])) <= 1e-12 * max(1.0, np.max(np.abs(want[k])))
    _, cache = reference.hma_forward(params, xm, xa)
    for got, key in zip(attention_weights(params, xm, xa), ("lam_m", "lam_a", "beta")):
        assert got.shape == (length,)
        assert np.max(np.abs(got - cache[key])) <= 1e-12


def test_gradients_match_finite_differences_spot_check():
    rng = np.random.default_rng(21)
    params = small_params(6, hm=4, hf=3)
    xm, xa = random_pair(rng, 5)
    y = 1.0
    _, _, grads = hma_loss_grads(params, xm, xa, y)
    eps = 1e-6
    for name in ("meta.W", "att.w", "fuse.U", "evatt.u", "out.w", "out.b"):
        flat = params[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            lp, _, _ = hma_loss_grads(params, xm, xa, y)
            flat[i] = keep - eps
            lm, _, _ = hma_loss_grads(params, xm, xa, y)
            flat[i] = keep
            fd = (lp - lm) / (2 * eps)
            got = grads[name].reshape(-1)[i]
            assert got == pytest.approx(fd, abs=1e-6 * max(1.0, abs(fd)))


RAGGED = ([1], [4, 1, 13, 7, 7], [9] * 6, [2, 1, 1])


def random_items(rng, lengths):
    return [random_pair(rng, n) + (int(rng.integers(0, 2)),) for n in lengths]


@pytest.mark.parametrize("lengths", RAGGED)
def test_batched_forward_matches_per_example_forward(lengths):
    rng = np.random.default_rng(41)
    params = small_params(9)
    items = random_items(rng, lengths)
    p, _ = hma_forward_batch(params, *pad_proposals(items))
    want = np.array([reference.hma_forward(params, xm, xa)[0] for xm, xa, _ in items])
    assert np.max(np.abs(p - want)) <= 1e-12


@pytest.mark.parametrize("lengths", RAGGED)
def test_batched_gradients_match_summed_per_example_gradients(lengths):
    rng = np.random.default_rng(42)
    params = small_params(10)
    items = random_items(rng, lengths)
    loss, p, grads = hma_batch_loss_grads(params, items)
    want_loss = 0.0
    want_p = []
    want = {k: np.zeros_like(v) for k, v in params.items()}
    for xm, xa, y in items:
        l1, p1, g1 = reference.hma_loss_grads(params, xm, xa, float(y))
        want_loss += l1
        want_p.append(p1)
        for k, g in g1.items():
            want[k] += g
    assert loss == pytest.approx(want_loss, rel=1e-10)
    assert np.max(np.abs(p - want_p)) <= 1e-12
    assert set(grads) == set(want)
    for k, g in grads.items():
        assert np.max(np.abs(g - want[k])) <= 1e-10 * np.max(np.abs(want[k]))


def test_batched_gradients_match_finite_differences():
    # criterion 1's step and tolerance
    step, tol = 1e-4, 1e-4
    rng = np.random.default_rng(43)
    params = small_params(11, hm=4, hf=3)
    items = random_items(rng, [5, 1, 3])
    _, _, grads = hma_batch_loss_grads(params, items)
    worst = 0.0
    for name, g in grads.items():
        flat = params[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            lp = hma_batch_loss_grads(params, items)[0]
            flat[i] = keep - step
            lm = hma_batch_loss_grads(params, items)[0]
            flat[i] = keep
            fd = (lp - lm) / (2 * step)
            got = g.reshape(-1)[i]
            worst = max(worst, abs(got - fd) / max(abs(got), abs(fd), 1e-3))
    assert worst < tol


def test_padded_steps_get_exactly_zero_input_gradient():
    rng = np.random.default_rng(44)
    params = small_params(12)
    lengths = [6, 2, 1, 4]
    xm, xa, lens = pad_proposals(random_items(rng, lengths))
    p, cache = hma_forward_batch(params, xm, xa, lens)
    assert np.all(cache["beta"][1, 2:] == 0.0)
    _, dxm, dxa = hma_backward_batch(params, cache, p - 1.0)
    for b, n in enumerate(lengths):
        assert np.all(dxm[b, n:] == 0.0) and np.all(dxa[b, n:] == 0.0)
        assert np.all(np.any(dxm[b, :n] != 0.0, axis=1))
    # what the padding holds changes nothing
    pad = np.arange(xm.shape[1])[None, :] >= lens[:, None]
    xm[pad] = rng.normal(size=(pad.sum(), META_DIM)) * 50.0
    xa[pad] = rng.normal(size=(pad.sum(), AUDIO_DIM)) * 50.0
    p2, cache2 = hma_forward_batch(params, xm, xa, lens)
    np.testing.assert_array_equal(p2, p)
    g1, _, _ = hma_backward_batch(params, cache, p - 1.0)
    g2, _, _ = hma_backward_batch(params, cache2, p2 - 1.0)
    for k in g1:
        np.testing.assert_array_equal(g2[k], g1[k])


def test_batched_paths_reject_bad_items():
    params = small_params()
    model = HmaModel(params=params, config=HmaConfig(hidden_modality=5, hidden_fusion=4),
                     **IDENTITY_NORM)
    good = (np.zeros((2, META_DIM)), np.zeros((2, AUDIO_DIM)))
    mismatched = (np.zeros((3, META_DIM)), np.zeros((2, AUDIO_DIM)))
    empty = (np.zeros((0, META_DIM)), np.zeros((0, AUDIO_DIM)))
    for bad, message in ((mismatched, "disagree"), (empty, "no events")):
        with pytest.raises(ShapeError, match=message):
            hma_batch_loss_grads(params, [good + (1,), bad + (0,)])
        with pytest.raises(ShapeError, match=message):
            score_proposals(model, [good, bad])


def test_score_proposals_of_nothing_is_empty():
    model = HmaModel(params=small_params(),
                     config=HmaConfig(hidden_modality=5, hidden_fusion=4), **IDENTITY_NORM)
    out = score_proposals(model, [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_label_proposal_coverage_rule():
    # span of 10 events, need half inside one ground-truth action
    assert label_proposal((0, 9), [(0, 4)], 0.5) == 1
    assert label_proposal((0, 9), [(5, 14)], 0.5) == 1
    assert label_proposal((0, 9), [(6, 14)], 0.5) == 0
    assert label_proposal((0, 9), [(0, 1), (6, 14)], 0.5) == 0  # no single one suffices
    assert label_proposal((3, 3), [(0, 9)], 0.5) == 1
    assert label_proposal((4, 4), [(0, 20)], 1.0) == 1
    assert label_proposal((0, 9), [], 0.5) == 0
    assert label_proposal((0, 9), [(3, 6)], 0.4) == 1
    assert label_proposal((0, 9), [(3, 6)], 0.5) == 0
    # at every ratio, 0 included: at least ``ratio`` of the span inside one
    # ground truth, with the ground truths in start order as prepare_fold sorts them
    rng = np.random.default_rng(17)
    for ratio in (0.0, 0.3, 0.5, 1.0):
        for _ in range(300):
            s = int(rng.integers(40))
            span = (s, s + int(rng.integers(10)))
            starts = rng.integers(0, 50, size=int(rng.integers(4)))
            gts = sorted((int(a), int(a + rng.integers(12))) for a in starts)
            need = ratio * (span[1] - span[0] + 1)
            covered = any(reference.interval_overlap(span, g) >= need for g in gts)
            assert label_proposal(span, gts, ratio) == int(covered), (span, gts, ratio)


def test_checkpoint_round_trip_keeps_normalization():
    params = small_params(8, hm=6, hf=5)
    model = HmaModel(params=params,
                     config=HmaConfig(hidden_modality=6, hidden_fusion=5),
                     audio_mu=np.array([0.5, -1.0, 2.0]),
                     audio_sd=np.array([1.0, 2.0, 0.25]))
    back = HmaModel.from_checkpoint(model.to_checkpoint())
    assert back.config.hidden_modality == 6
    assert back.config.hidden_fusion == 5
    np.testing.assert_array_equal(back.audio_mu, model.audio_mu)
    np.testing.assert_array_equal(back.audio_sd, model.audio_sd)
    for k, v in params.items():
        np.testing.assert_array_equal(back.params[k], v)
    xa = np.array([[1.5, 1.0, 2.5]])
    np.testing.assert_allclose(back.normalize_audio(xa),
                               (xa - model.audio_mu) / model.audio_sd)


def _toy_items(rng, n, positive_shift=4.0):
    items = []
    for i in range(n):
        length = int(rng.integers(2, 7))
        xm = rng.normal(size=(length, META_DIM))
        xa = rng.normal(size=(length, AUDIO_DIM))
        y = i % 2
        if y:
            xa[:, 0] += positive_shift
        items.append((xm, xa, y))
    return items


def test_train_hma_separates_loud_proposals(tmp_path):
    rng = np.random.default_rng(314)
    train_items = _toy_items(rng, 30)
    val_items = _toy_items(rng, 12)
    settings = dict(hidden_modality=6, hidden_fusion=4, epochs=30, patience=30, batch=8,
                    lr=0.02)
    model = _train_hma(train_items, val_items, 2, **settings)
    assert model.best_val_f >= 0.9
    assert model.best_epoch >= 0
    assert len(model.history) >= 1
    # scoring applies the stored normalization to raw audio features
    pairs = [(xm, xa) for xm, xa, _ in val_items]
    scores = score_proposals(model, pairs)
    for got, (xm, xa) in zip(scores, pairs):
        manual, _ = reference.hma_forward(model.params,
                                          xm, (xa - model.audio_mu) / model.audio_sd)
        assert got == pytest.approx(manual, abs=1e-12)
    # every loud proposal should out-score every quiet one
    pos = [s for s, (_, _, y) in zip(scores, val_items) if y]
    neg = [s for s, (_, _, y) in zip(scores, val_items) if not y]
    assert min(pos) > max(neg)
    # a checkpoint round trip reads the trained sizes back from the arrays,
    # and the loaded model holds the architecture and no training setting
    path = str(tmp_path / "hma.ckpt")
    save_checkpoint(model.to_checkpoint(), path)
    back = HmaModel.from_checkpoint(load_checkpoint(path))
    assert back.config == model.config == _stage2(**settings).hma_config()
    assert back.params["meta.W"].shape == (24, META_DIM)
    assert back.params["audio.W"].shape == (24, AUDIO_DIM)
    assert back.audio_sd.tobytes() == model.audio_sd.tobytes()
    assert score_proposals(back, pairs).tobytes() == scores.tobytes()


def test_checkpoint_in_the_earlier_format_loads_to_the_same_model():
    """Checkpoints written before the sizes came from the arrays carry
    ``_meta.hidden_modality`` and ``_meta.hidden_fusion`` records: they are
    ignored, also where they disagree with the arrays."""
    model = HmaModel(params=small_params(8, hm=6, hf=5),
                     config=HmaConfig(hidden_modality=6, hidden_fusion=5), **IDENTITY_NORM)
    ckpt = model.to_checkpoint()
    assert not any(name.startswith("_meta.") for name in ckpt)
    want = HmaModel.from_checkpoint(ckpt)
    for hm, hf in ((6.0, 5.0), (3.0, 16.0)):
        old = dict(ckpt, **{"_meta.hidden_modality": np.array([hm]),
                            "_meta.hidden_fusion": np.array([hf])})
        back = HmaModel.from_checkpoint(old)
        assert back.config == want.config == model.config
        assert set(back.params) == set(want.params)
        for name, value in want.params.items():
            assert back.params[name].tobytes() == value.tobytes()
        assert back.audio_mu.tobytes() == want.audio_mu.tobytes()
        assert back.audio_sd.tobytes() == want.audio_sd.tobytes()


def test_train_hma_requires_both_classes():
    rng = np.random.default_rng(6)
    items = [(xm, xa, 1) for xm, xa, _ in _toy_items(rng, 6)]
    with pytest.raises(TrainingError, match="both classes"):
        _train_hma(items, items, 0, epochs=1)
