"""Per-example reference implementations of both models.

The package runs each model on left-aligned (B, T, D) batches only.  The
step-by-step code here runs one sequence at a time, with its own pooling
and softmax layers, and is what the batched paths are tested against: the
LSTM recurrence and its backward pass, the stage-1 bag scorer
(``mil_forward``/``mil_loss_grads``) and the stage-2 attention scorer
(``hma_forward``/``hma_backward``/``hma_loss_grads``).  Parameter
dictionaries are those of ``init_mil_params``/``init_hma_params``.

``overlap_match`` and ``select_threshold`` are the stage-1 threshold search
as plain loops: every prediction scans every ground truth, and every
threshold re-extracts its runs event by event.

``synth_track`` draws stream 2 of a synthetic audio spec in full, the
reference that on-demand track slices are tested against.
"""
import numpy as np

from soccersum.evaluation import fbeta, interval_overlap, precision_recall
from soccersum.neural import bce_loss, bce_sigmoid_grad, sigmoid


# ---------------------------------------------------------------------------
# LSTM, gate order (input, forget, candidate, output)

def lstm_forward(x, W, U, b):
    """Run an LSTM over x (T, D); returns (h, c, gates).

    h, c: (T, H) hidden and cell states.  gates: (T, 4H) post-activation
    gate values in (i, f, g, o) order, cached for the backward pass.
    """
    T = x.shape[0]
    H = U.shape[1]
    h = np.zeros((T, H))
    c = np.zeros((T, H))
    gates = np.zeros((T, 4 * H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        z = np.dot(W, x[t]) + np.dot(U, h_prev) + b
        i_g = 1.0 / (1.0 + np.exp(-z[:H]))
        f_g = 1.0 / (1.0 + np.exp(-z[H : 2 * H]))
        g_g = np.tanh(z[2 * H : 3 * H])
        o_g = 1.0 / (1.0 + np.exp(-z[3 * H :]))
        c_t = f_g * c_prev + i_g * g_g
        h[t] = o_g * np.tanh(c_t)
        c[t] = c_t
        gates[t, :H] = i_g
        gates[t, H : 2 * H] = f_g
        gates[t, 2 * H : 3 * H] = g_g
        gates[t, 3 * H :] = o_g
        h_prev = h[t]
        c_prev = c_t
    return h, c, gates


def lstm_backward(x, h, c, gates, W, U, dh_ext):
    """Backward pass matching lstm_forward.

    dh_ext: (T, H) gradient flowing into each hidden state from outside the
    recurrence (zeros where a state feeds nothing but the next step).
    Returns (dx, dW, dU, db).
    """
    T = x.shape[0]
    H = U.shape[1]
    D = W.shape[1]
    dx = np.zeros((T, D))
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    dz = np.zeros(4 * H)
    zeros_h = np.zeros(H)
    for t in range(T - 1, -1, -1):
        if t > 0:
            c_prev = c[t - 1]
            h_prev = h[t - 1]
        else:
            c_prev = zeros_h
            h_prev = zeros_h
        i_g = gates[t, :H]
        f_g = gates[t, H : 2 * H]
        g_g = gates[t, 2 * H : 3 * H]
        o_g = gates[t, 3 * H :]
        tc = np.tanh(c[t])
        dh = dh_ext[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o_g * (1.0 - tc * tc)
        di = dc * g_g
        dg = dc * i_g
        df = dc * c_prev
        dz[:H] = di * i_g * (1.0 - i_g)
        dz[H : 2 * H] = df * f_g * (1.0 - f_g)
        dz[2 * H : 3 * H] = dg * (1.0 - g_g * g_g)
        dz[3 * H :] = do * o_g * (1.0 - o_g)
        dW += np.outer(dz, x[t])
        dU += np.outer(dz, h_prev)
        db += dz
        dx[t] = np.dot(W.T, dz)
        dh_next = np.dot(U.T, dz)
        dc_next = dc * f_g
    return dx, dW, dU, db


# ---------------------------------------------------------------------------
# pooling and softmax layers

def maxpool_time(h: np.ndarray):
    """Coordinate-wise max over the time axis; returns (pooled, argmax).

    Ties break toward the earliest step (np.argmax convention), which is
    also where the backward pass routes the gradient.
    """
    idx = np.argmax(h, axis=0)
    return h[idx, np.arange(h.shape[1])], idx


def maxpool_time_backward(dpooled: np.ndarray, idx: np.ndarray, T: int) -> np.ndarray:
    dh = np.zeros((T, dpooled.shape[0]))
    dh[idx, np.arange(dpooled.shape[0])] = dpooled
    return dh


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def softmax_backward(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """Gradient through y = softmax(x): dx_i = s_i (ds_i - sum_j s_j ds_j)."""
    dot = float(np.dot(s, ds))
    return s * (ds - dot)


# ---------------------------------------------------------------------------
# stage 1: LSTM, max over time, sigmoid neuron

def mil_forward(params: dict, x: np.ndarray):
    """Bag score in (0, 1) for a (K, D) bag of event vectors."""
    h, c, gates = lstm_forward(x, params["lstm.W"], params["lstm.U"], params["lstm.b"])
    z, kstar = maxpool_time(h)
    logit = float(np.dot(z, params["out.w"]) + params["out.b"][0])
    p = float(sigmoid(logit))
    return p, (h, c, gates, z, kstar)


def mil_loss_grads(params: dict, x: np.ndarray, y: float):
    p, (h, c, gates, z, kstar) = mil_forward(params, x)
    loss = bce_loss(p, y)
    dlogit = bce_sigmoid_grad(p, y)
    grads = {
        "out.w": dlogit * z,
        "out.b": np.array([dlogit]),
    }
    dz = dlogit * params["out.w"]
    dh_ext = maxpool_time_backward(dz, kstar, x.shape[0])
    _, dW, dU, db = lstm_backward(x, h, c, gates, params["lstm.W"], params["lstm.U"], dh_ext)
    grads["lstm.W"] = dW
    grads["lstm.U"] = dU
    grads["lstm.b"] = db
    return loss, p, grads


# ---------------------------------------------------------------------------
# stage 1: proposals and the threshold search

def overlap_match(pred_intervals, gt_intervals, ratio=0.5):
    """(tp, fp, fn): each prediction, left to right, consumes the first
    still-free ground truth it covers by at least ``ratio``."""
    consumed = [False] * len(gt_intervals)
    tp = 0
    for pred in pred_intervals:
        need = ratio * (pred[1] - pred[0] + 1)
        for j, gt in enumerate(gt_intervals):
            if consumed[j]:
                continue
            if interval_overlap(pred, gt) >= need:
                consumed[j] = True
                tp += 1
                break
    fp = len(pred_intervals) - tp
    fn = len(gt_intervals) - tp
    return tp, fp, fn


def extract_proposals(scores, threshold, types):
    """Runs of events scoring >= threshold; a goal-shot closes its run."""
    proposals = []
    start = None
    for i, s in enumerate(scores):
        if s >= threshold:
            if start is None:
                start = i
            if types[i] == "goal-shot":
                proposals.append((start, i))
                start = None
        elif start is not None:
            proposals.append((start, i - 1))
            start = None
    if start is not None:
        proposals.append((start, len(scores) - 1))
    return proposals


def labels_to_intervals(labels):
    spans = []
    start = None
    for i, flag in enumerate(labels):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            spans.append((start, i - 1))
            start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def select_threshold(scored, beta=2.0, ratio=0.5):
    """(threshold, F-beta) of the grid search over 0.01..0.99, lowest
    threshold on ties."""
    best_t, best_f = 0.01, -1.0
    for step in range(1, 100):
        t = step / 100.0
        tp = fp = fn = 0
        for scores, labels, types in scored:
            a, b, c = overlap_match(extract_proposals(scores, t, types),
                                    labels_to_intervals(labels), ratio)
            tp += a
            fp += b
            fn += c
        f = fbeta(*precision_recall(tp, fp, fn), beta)
        if f > best_f:
            best_t, best_f = t, f
    return best_t, best_f


# ---------------------------------------------------------------------------
# stage 2: hierarchical multimodal attention

def hma_forward(params: dict, xm: np.ndarray, xa: np.ndarray):
    """Summary-membership probability for one proposal.

    xm: (L, meta_dim) metadata vectors, xa: (L, audio_dim) audio vectors,
    same event count L >= 1.  Returns (p, cache).
    """
    hm, cm, gm = lstm_forward(xm, params["meta.W"], params["meta.U"], params["meta.b"])
    ha, ca, ga = lstm_forward(xa, params["audio.W"], params["audio.U"], params["audio.b"])
    # per-event modality attention, shared projection
    em = np.tanh(hm @ params["att.w"])
    ea = np.tanh(ha @ params["att.w"])
    lam_m = sigmoid(em - ea)  # two-way softmax
    lam_a = 1.0 - lam_m
    c_seq = lam_m[:, None] * hm + lam_a[:, None] * ha
    hc, cc, gc = lstm_forward(c_seq, params["fuse.W"], params["fuse.U"], params["fuse.b"])
    # event attention over the fused sequence
    th = np.tanh(hc)
    s = th @ params["evatt.u"]
    beta = softmax(s)
    d = beta @ hc
    logit = float(np.dot(d, params["out.w"]) + params["out.b"][0])
    p = float(sigmoid(logit))
    cache = {
        "xm": xm, "xa": xa,
        "hm": hm, "cm": cm, "gm": gm,
        "ha": ha, "ca": ca, "ga": ga,
        "em": em, "ea": ea, "lam_m": lam_m, "lam_a": lam_a,
        "c_seq": c_seq, "hc": hc, "cc": cc, "gc": gc,
        "th": th, "beta": beta, "d": d, "p": p,
    }
    return p, cache


def hma_backward(params: dict, cache: dict, dlogit: float) -> dict:
    hm, ha = cache["hm"], cache["ha"]
    hc, th, beta = cache["hc"], cache["th"], cache["beta"]
    lam_m, lam_a = cache["lam_m"], cache["lam_a"]
    em, ea = cache["em"], cache["ea"]

    grads = {
        "out.w": dlogit * cache["d"],
        "out.b": np.array([dlogit]),
    }
    dd = dlogit * params["out.w"]

    # d = sum_i beta_i hc_i
    dbeta = hc @ dd
    dhc = beta[:, None] * dd[None, :]
    # beta = softmax(s), s_i = u . tanh(hc_i)
    ds = softmax_backward(beta, dbeta)
    grads["evatt.u"] = th.T @ ds
    dhc = dhc + ds[:, None] * (1.0 - th * th) * params["evatt.u"][None, :]

    dc_seq, dWf, dUf, dbf = lstm_backward(
        cache["c_seq"], hc, cache["cc"], cache["gc"],
        params["fuse.W"], params["fuse.U"], dhc,
    )
    grads["fuse.W"] = dWf
    grads["fuse.U"] = dUf
    grads["fuse.b"] = dbf

    # c_i = lam_m_i hm_i + lam_a_i ha_i
    dlam_m = np.sum(dc_seq * hm, axis=1)
    dlam_a = np.sum(dc_seq * ha, axis=1)
    dhm = lam_m[:, None] * dc_seq
    dha = lam_a[:, None] * dc_seq
    # two-way softmax over (em, ea)
    dem = lam_m * lam_a * (dlam_m - dlam_a)
    dea = -dem
    # em = tanh(hm . w), ea = tanh(ha . w), shared w
    gm_pre = dem * (1.0 - em * em)
    ga_pre = dea * (1.0 - ea * ea)
    grads["att.w"] = hm.T @ gm_pre + ha.T @ ga_pre
    dhm = dhm + gm_pre[:, None] * params["att.w"][None, :]
    dha = dha + ga_pre[:, None] * params["att.w"][None, :]

    _, dWm, dUm, dbm = lstm_backward(
        cache["xm"], hm, cache["cm"], cache["gm"],
        params["meta.W"], params["meta.U"], dhm,
    )
    grads["meta.W"] = dWm
    grads["meta.U"] = dUm
    grads["meta.b"] = dbm
    _, dWa, dUa, dba = lstm_backward(
        cache["xa"], ha, cache["ca"], cache["ga"],
        params["audio.W"], params["audio.U"], dha,
    )
    grads["audio.W"] = dWa
    grads["audio.U"] = dUa
    grads["audio.b"] = dba
    return grads


def hma_loss_grads(params: dict, xm: np.ndarray, xa: np.ndarray, y: float):
    p, cache = hma_forward(params, xm, xa)
    loss = bce_loss(p, y)
    grads = hma_backward(params, cache, bce_sigmoid_grad(p, y))
    return loss, p, grads


# ---------------------------------------------------------------------------
# synthetic audio, stream 2

def synth_track(spec, burst_times, chunk):
    """The whole track of a synth spec: keyed base-noise chunks of ``chunk``
    samples concatenated, then each keyed burst added in time order."""
    fs = spec["rate"]
    n = int(round(spec["duration"] * fs))
    parts = [np.zeros(0, dtype=np.float32)]
    for j, a in enumerate(range(0, n, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence(spec["seed"] + [0, j]))
        z = rng.standard_normal(min(chunk, n - a))
        parts.append((z * spec["base_amp"] + 0.0).astype(np.float32))
    track = np.concatenate(parts)
    if spec["gain"] > 0:
        for k, t in enumerate(sorted(burst_times)):
            a = int(round(t * fs))
            b = min(a + 2 * fs, n)
            if a < n:
                rng = np.random.default_rng(np.random.SeedSequence(spec["seed"] + [1, k]))
                track[a:b] += rng.normal(0.0, spec["base_amp"] * spec["gain"],
                                         b - a).astype(np.float32)
    return track, fs
