"""Audio descriptors against brute-force oracles.

Every spectral quantity is recomputed here from the DFT definition (explicit
complex exponential basis, quadratic cost) and every cepstral quantity from
an explicit cosine-transform double loop, so the fast implementations are
checked against independent arithmetic rather than against themselves.
"""
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import dct
from scipy.io import wavfile

from soccersum.core import DataFormatError
from soccersum.features import audio
from soccersum.features.audio import (
    AUDIO_DIM,
    dct_matrix,
    energy_entropy,
    extract_event_audio_features,
    frame_signal,
    hz_to_mel,
    load_audio,
    magnitude_spectrum,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    short_term_energy,
    spectral_centroid_spread,
    spectral_entropy,
    spectral_flux,
    spectral_rolloff,
    window_features,
    zero_crossing_rate,
)

FS = 8000
FRAME = 400  # 50 ms at 8 kHz


def naive_dft_magnitude(frames):
    """One-sided magnitude DFT straight from the definition."""
    n = frames.shape[1]
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return np.abs(frames @ basis.T)


def naive_frame_features(frames, fs, mag=None):
    """The eight per-frame descriptors, recomputed with plain loops from
    ``mag``, by default the frames' DFT from the definition."""
    n_frames, n = frames.shape
    mag = naive_dft_magnitude(frames) if mag is None else mag
    freqs = np.arange(n // 2 + 1) * fs / n
    out = np.zeros((n_frames, 8))
    prev_norm = None
    for r in range(n_frames):
        x = frames[r]
        crossings = sum(1 for i in range(1, n) if x[i] * x[i - 1] < 0)
        out[r, 0] = crossings / (n - 1)
        out[r, 1] = sum(v * v for v in x) / n
        sub_len = n // 10
        sub_e = [float(np.sum(x[j * sub_len:(j + 1) * sub_len] ** 2)) for j in range(10)]
        tot_e = sum(sub_e)
        ent = 0.0
        for e in sub_e:
            if tot_e > 0 and e > 0:
                p = e / tot_e
                ent -= p * np.log2(p)
        out[r, 2] = ent
        m = mag[r]
        msum = m.sum()
        w = m / msum if msum > 0 else np.zeros_like(m)
        c = float((w * freqs).sum())
        out[r, 3] = c
        out[r, 4] = float(np.sqrt((w * (freqs - c) ** 2).sum()))
        pw = m * m
        psum = pw.sum()
        sent = 0.0
        for v in pw:
            if psum > 0 and v > 0:
                p = v / psum
                sent -= p * np.log2(p)
        out[r, 5] = sent
        norm = m / msum if msum > 0 else np.zeros_like(m)
        out[r, 6] = 0.0 if prev_norm is None else float(((norm - prev_norm) ** 2).sum())
        prev_norm = norm
        cum = 0.0
        roll = 0.0
        for kk in range(len(m)):
            cum += m[kk]
            if cum >= 0.9 * msum:
                roll = freqs[kk]
                break
        out[r, 7] = roll
    return out, mag, freqs


def naive_mfcc(mag, fs, n_filters=26, n_mfcc=13):
    n_bins = mag.shape[1]
    nyq = fs / 2.0
    top_mel = 2595.0 * np.log10(1.0 + nyq / 700.0)
    pts = [700.0 * (10.0 ** (m / 2595.0) - 1.0)
           for m in np.linspace(0.0, top_mel, n_filters + 2)]
    freqs = np.arange(n_bins) * nyq / (n_bins - 1)
    bank = np.zeros((n_filters, n_bins))
    for fi in range(n_filters):
        lo, mid, hi = pts[fi], pts[fi + 1], pts[fi + 2]
        for b, f in enumerate(freqs):
            if lo <= f <= mid and mid > lo:
                bank[fi, b] = (f - lo) / (mid - lo)
            elif mid < f <= hi and hi > mid:
                bank[fi, b] = (hi - f) / (hi - mid)
    loge = np.log(np.maximum(mag @ bank.T, 1e-10))
    n = n_filters
    out = np.zeros((mag.shape[0], n_mfcc))
    for r in range(mag.shape[0]):
        for k in range(n_mfcc):
            s = 0.0
            for i in range(n):
                s += loge[r, i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
            scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
            out[r, k] = scale * s
    return out


def loop_spectral_rolloff(mag, freqs, fraction=0.9):
    """The per-frame binary-search rolloff that the vectorised one replaced."""
    tot = mag.sum(axis=1)
    cum = np.cumsum(mag, axis=1)
    out = np.zeros(mag.shape[0])
    for r in range(mag.shape[0]):
        if tot[r] <= 0:
            continue
        k = int(np.searchsorted(cum[r], fraction * tot[r]))
        out[r] = freqs[min(k, len(freqs) - 1)]
    return out


@pytest.fixture(scope="module")
def random_frames():
    rng = np.random.default_rng(4242)
    return rng.normal(scale=0.3, size=(100, FRAME))


def test_magnitude_spectrum_matches_naive_dft(random_frames):
    fast = magnitude_spectrum(random_frames)
    slow = naive_dft_magnitude(random_frames)
    assert fast.shape == (100, FRAME // 2 + 1)
    assert np.max(np.abs(fast - slow)) < 1e-6


def test_frame_features_match_oracle(random_frames):
    oracle, mag_o, freqs_o = naive_frame_features(random_frames, FS)
    mag = magnitude_spectrum(random_frames)
    freqs = np.fft.rfftfreq(FRAME, d=1.0 / FS)
    assert np.max(np.abs(freqs - freqs_o)) < 1e-9
    centroid, spread = spectral_centroid_spread(mag, freqs)
    got = np.column_stack([
        zero_crossing_rate(random_frames),
        short_term_energy(random_frames),
        energy_entropy(random_frames),
        centroid,
        spread,
        spectral_entropy(mag),
        spectral_flux(mag),
        spectral_rolloff(mag, freqs),
    ])
    err = np.max(np.abs(got - oracle))
    assert err < 1e-6, "worst frame-feature deviation %g" % err


def test_mfcc_matches_explicit_cosine_transform(random_frames):
    mag = magnitude_spectrum(random_frames)
    fast = mfcc(mag, FS)
    slow = naive_mfcc(mag, FS)
    assert fast.shape == (100, 13)
    assert np.max(np.abs(fast - slow)) < 1e-6


def test_mfcc_matches_scipy_dct(random_frames):
    mag = magnitude_spectrum(random_frames)
    bank = mel_filterbank(FS, mag.shape[1], 26)
    loge = np.log(np.maximum(mag @ bank.T, 1e-10))
    want = dct(loge, type=2, norm="ortho", axis=-1)[:, :13]
    assert np.max(np.abs(mfcc(mag, FS) - want)) <= 1e-12
    assert not dct_matrix(26, 13).flags.writeable


def test_rolloff_matches_search_loop(random_frames):
    mag = magnitude_spectrum(random_frames)
    mag[3] = 0.0  # silent frame
    mag[7, 1:] = 0.0  # all mass in the first bin
    mag[9, :-1] = 0.0  # all mass in the last bin
    freqs = np.fft.rfftfreq(FRAME, d=1.0 / FS)
    for fraction in (0.5, 0.9, 1.0):
        assert np.array_equal(spectral_rolloff(mag, freqs, fraction),
                              loop_spectral_rolloff(mag, freqs, fraction))
    # rows whose running sum stays below the target fall back to the last bin
    unreached = spectral_rolloff(mag, freqs, 1.5)
    assert np.array_equal(unreached, loop_spectral_rolloff(mag, freqs, 1.5))
    assert unreached[3] == 0.0 and np.all(np.delete(unreached, 3) == freqs[-1])
    rng = np.random.default_rng(11)
    rounding = rng.uniform(size=(500, 201)) * 10.0 ** rng.integers(-6, 6, size=(500, 1))
    cum_short = np.cumsum(rounding, axis=1)[:, -1] < rounding.sum(axis=1)
    assert cum_short.any()  # some rows miss fraction 1.0 by rounding alone
    assert np.array_equal(spectral_rolloff(rounding, freqs, 1.0),
                          loop_spectral_rolloff(rounding, freqs, 1.0))


def test_pure_tone_centroid_lands_on_its_bin():
    t = np.arange(2 * FS) / FS
    tone = np.sin(2 * np.pi * 1000.0 * t)
    feats = window_features(tone, FS)
    bin_width = FS / FRAME  # 20 Hz
    assert abs(feats[3] - 1000.0) <= bin_width


def naive_window_features(x, fs, mag_of=naive_dft_magnitude):
    """Frame means of the oracles over the window's 50 ms frames of an even
    number of samples at 50% overlap, zero-padded to 2 s."""
    hop = int(round(0.025 * fs))
    n, want = 2 * hop, int(round(2.0 * fs))
    x = np.concatenate([x, np.zeros(max(0, want - len(x)))])[:want]
    frames = np.stack([x[i * hop : i * hop + n] for i in range((want - n) // hop + 1)])
    per_frame, mag, _freqs = naive_frame_features(frames, fs, mag_of(frames))
    return np.column_stack([per_frame, naive_mfcc(mag, fs)]).mean(axis=0)


def _test_window(kind, fs):
    rng = np.random.default_rng(fs)
    if kind == "tone":  # 1 kHz, moved to the nearest bin centre
        step = fs / (2 * int(round(0.025 * fs)))
        return np.sin(2 * np.pi * round(1000.0 / step) * step * np.arange(2 * fs) / fs)
    if kind == "silence":
        return np.zeros(2 * fs)
    if kind == "short":
        return rng.normal(scale=0.3, size=fs // 2)
    x = rng.normal(scale=0.3, size=2 * fs)
    if kind == "half-silent":
        x[fs:] = 0.0
    return x


@pytest.mark.parametrize("kind", ["noise", "tone", "silence", "short", "half-silent"])
@pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100])
def test_window_features_match_oracle(fs, kind):
    x = _test_window(kind, fs)
    # every spectral bin of a bin-centred tone but its own holds DFT rounding
    # (1e-14 of the peak), on which the spread and the cepstrum then depend;
    # its oracle therefore reads the fast spectrum, which
    # test_magnitude_spectrum_matches_naive_dft checks against the definition
    mag_of = magnitude_spectrum if kind == "tone" else naive_dft_magnitude
    want = naive_window_features(x, fs, mag_of)
    got = window_features(x, fs)
    err = np.abs(got - want)
    assert err.max() < 1e-6, "worst deviation %g in column %d" % (err.max(), err.argmax())


def test_frames_are_even_at_every_rate(monkeypatch):
    """An even frame length puts the rfft bins on the filterbank's grid."""
    seen = []

    def spy(x, frame_len, hop):
        seen.append((frame_len, hop))
        return frame_signal(x, frame_len, hop)

    monkeypatch.setattr(audio, "frame_signal", spy)
    for fs in (8000, 16000, 22050, 44100, 48000):
        window_features(np.zeros(2 * fs), fs)
        frame_len, hop = seen[-1]
        assert frame_len == 2 * hop == 2 * int(round(0.025 * fs))
        n_bins = frame_len // 2 + 1
        grid = np.arange(n_bins) * (fs / 2.0) / (n_bins - 1)  # mel_filterbank's
        assert np.allclose(grid, np.fft.rfftfreq(frame_len, 1.0 / fs), rtol=1e-13, atol=0.0)
    assert seen[3] == (2204, 1102)  # 44.1 kHz


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_in_a_window_is_a_data_error(bad):
    track = np.random.default_rng(5).normal(scale=0.1, size=10 * FS)
    track[int(3.5 * FS)] = bad
    with pytest.raises(DataFormatError, match=r"t=3\.0 s: .*not finite"):
        extract_event_audio_features(track, FS, 3.0)
    with pytest.raises(DataFormatError, match="not finite"):
        window_features(track[3 * FS : 5 * FS], FS)
    # windows that do not reach the sample are unaffected
    assert np.isfinite(extract_event_audio_features(track, FS, 6.0)).all()
    assert np.isfinite(extract_event_audio_features(track, FS, 1.0)).all()


def test_frame_slicing():
    x = np.arange(16000.0)
    frames = frame_signal(x, FRAME, FRAME // 2)
    assert frames.shape == (79, FRAME)
    assert np.array_equal(frames[0], x[:FRAME])
    assert np.array_equal(frames[1], x[200:600])
    assert np.array_equal(frames[-1], x[15600:16000])
    assert frame_signal(np.zeros(100), FRAME, 200).shape == (0, FRAME)


def test_silence_and_uniform_energy_entropy():
    silent = np.zeros((1, FRAME))
    assert energy_entropy(silent)[0] == 0.0
    flat = np.ones((1, FRAME))
    assert energy_entropy(flat)[0] == pytest.approx(np.log2(10))


def test_entropies_of_silent_frames_warn_nothing():
    frames = np.zeros((3, FRAME))
    frames[1, : FRAME // 2] = 1.0  # half the sub-frames and bins stay empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = energy_entropy(frames)
        s = spectral_entropy(magnitude_spectrum(frames))
    assert e[0] == 0.0 and e[2] == 0.0 and e[1] == pytest.approx(np.log2(5))
    assert s[0] == 0.0 and np.isfinite(s).all()


def test_window_features_zero_pads_short_input():
    rng = np.random.default_rng(1)
    short = rng.normal(size=FS)  # one second, half the window
    padded = np.concatenate([short, np.zeros(FS)])
    assert np.allclose(window_features(short, FS), window_features(padded, FS))
    assert window_features(short, FS).shape == (AUDIO_DIM,)


def test_event_window_extraction():
    rng = np.random.default_rng(2)
    track = rng.normal(size=10 * FS)
    direct = window_features(track[3 * FS : 5 * FS], FS)
    assert np.allclose(extract_event_audio_features(track, FS, 3.0), direct)
    # an event past the end of the track yields the all-silence vector
    silence = window_features(np.zeros(2 * FS), FS)
    assert np.allclose(extract_event_audio_features(track, FS, 11.0), silence)


def test_mel_scale_round_trip():
    f = np.array([0.0, 300.0, 1000.0, 4000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f)


def test_mel_filterbank_structure():
    bank = mel_filterbank(FS, FRAME // 2 + 1, n_filters=26)
    assert bank.shape == (26, 201)
    assert np.all(bank >= 0.0) and np.all(bank <= 1.0)
    assert np.all(bank.sum(axis=1) > 0)
    peaks = bank.argmax(axis=1)
    assert np.all(np.diff(peaks) > 0)  # filter centers march up the spectrum


def test_mel_filterbank_is_cached_and_read_only():
    bank = mel_filterbank(FS, FRAME // 2 + 1, 26)
    assert mel_filterbank(FS, FRAME // 2 + 1, 26) is bank
    assert np.array_equal(bank, mel_filterbank.__wrapped__(FS, FRAME // 2 + 1, 26))
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0


def test_load_audio_formats(tmp_path):
    rng = np.random.default_rng(3)
    mono = (rng.uniform(-0.5, 0.5, size=2000) * 32768).astype(np.int16)
    wavfile.write(str(tmp_path / "mono.wav"), FS, mono)
    samples, fs = load_audio(str(tmp_path / "mono.wav"))
    assert fs == FS
    assert np.allclose(samples, mono / 32768.0)
    assert np.max(np.abs(samples)) <= 1.0

    stereo = np.stack([mono, np.zeros_like(mono)], axis=1)
    wavfile.write(str(tmp_path / "stereo.wav"), FS, stereo)
    samples, _ = load_audio(str(tmp_path / "stereo.wav"))
    assert np.allclose(samples, mono / 32768.0)

    raw = rng.normal(size=500).astype("<f4")
    raw.tofile(str(tmp_path / "x.f32"))
    samples, fs = load_audio(str(tmp_path / "x.f32"), rate=4000)
    assert fs == 4000
    assert np.allclose(samples, raw.astype(float))

    with pytest.raises(DataFormatError, match="sample rate"):
        load_audio(str(tmp_path / "x.f32"))
    with pytest.raises(DataFormatError, match="container"):
        load_audio(str(tmp_path / "x.mp3"))


def test_wav_load_makes_one_float_copy(tmp_path):
    """Loading an int16 WAV holds at most the file's samples and one
    float64 copy of them at any time."""
    n = 1_000_000
    wavfile.write(str(tmp_path / "long.wav"), FS, np.zeros(n, dtype=np.int16))
    tracemalloc.start()
    try:
        samples, _ = load_audio(str(tmp_path / "long.wav"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.dtype == np.float64 and len(samples) == n
    assert peak <= n * (2 + 8) + (1 << 20)


def test_raw_audio_is_mapped_and_gives_the_eager_descriptors(tmp_path):
    path = str(tmp_path / "match.raw")
    np.random.default_rng(4).normal(0.0, 0.1, size=7 * FS + 123).astype("<f4").tofile(path)
    samples, fs = load_audio(path, rate=FS)
    assert isinstance(samples, np.memmap) and not samples.flags.writeable
    eager = np.fromfile(path, dtype="<f4").astype(float)
    for t in (0.0, 2.5, 6.9, 7.5):
        got = extract_event_audio_features(samples, fs, t)
        assert got.tobytes() == extract_event_audio_features(eager, fs, t).tobytes()


@pytest.mark.parametrize("content", [None, b"", b"\x00" * 10],
                         ids=["missing", "empty", "partial-sample"])
def test_unreadable_raw_audio_is_a_data_error(tmp_path, content):
    path = tmp_path / "x.f32"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataFormatError, match="cannot read raw audio"):
        load_audio(str(path), rate=FS)
