"""Audio descriptors for the 2-second window following each event.

Each window is cut into 50 ms frames with 50% overlap.  Per frame we compute
eight waveform/spectral features plus 13 mel-cepstral coefficients from the
un-windowed magnitude DFT, then average every feature over the window's
frames.  Stereo input uses the first channel only.
"""
from __future__ import annotations

import functools
import struct

import numpy as np

from ..core import DataFormatError

AUDIO_FEATURE_NAMES = [
    "zcr",
    "energy",
    "energy_entropy",
    "spectral_centroid",
    "spectral_spread",
    "spectral_entropy",
    "spectral_flux",
    "spectral_rolloff",
] + ["mfcc_%02d" % i for i in range(1, 14)]

AUDIO_DIM = len(AUDIO_FEATURE_NAMES)

LOG_FLOOR = 1e-10

WINDOW_SECONDS = 2.0
FRAME_SECONDS = 0.05
FRAME_OVERLAP = 0.5


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice x into overlapping frames; a trailing partial frame is dropped."""
    if len(x) < frame_len:
        return np.empty((0, frame_len))
    n = (len(x) - frame_len) // hop + 1
    view = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:n]
    return np.ascontiguousarray(view)


def magnitude_spectrum(frames: np.ndarray) -> np.ndarray:
    """One-sided magnitude DFT per frame, no window function."""
    return np.abs(np.fft.rfft(frames, axis=-1))


def zero_crossing_rate(frames: np.ndarray) -> np.ndarray:
    # strict sign changes: adjacent samples with negative product
    prod = frames[:, 1:] * frames[:, :-1]
    return (prod < 0).sum(axis=1) / (frames.shape[1] - 1)


def short_term_energy(frames: np.ndarray) -> np.ndarray:
    return np.mean(frames * frames, axis=1)


def energy_entropy(frames: np.ndarray, n_sub: int = 10) -> np.ndarray:
    """Base-2 entropy of per-sub-frame energy shares (n_sub equal slices;
    samples past the last full slice are ignored).  Silent frames give 0."""
    L = frames.shape[1]
    sub_len = L // n_sub
    sub = frames[:, : sub_len * n_sub].reshape(frames.shape[0], n_sub, sub_len)
    e = np.sum(sub * sub, axis=2)
    tot = e.sum(axis=1, keepdims=True)
    p = np.divide(e, tot, out=np.zeros_like(e), where=tot > 0)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)


def spectral_centroid_spread(mag: np.ndarray, freqs: np.ndarray):
    """First and second central moments of the magnitude spectrum (Hz)."""
    tot = mag.sum(axis=1, keepdims=True)
    w = np.divide(mag, tot, out=np.zeros_like(mag), where=tot > 0)
    centroid = (w * freqs).sum(axis=1)
    spread = np.sqrt((w * (freqs - centroid[:, None]) ** 2).sum(axis=1))
    return centroid, spread


def spectral_entropy(mag: np.ndarray) -> np.ndarray:
    """Base-2 entropy of the normalized spectral energy distribution."""
    power = mag * mag
    tot = power.sum(axis=1, keepdims=True)
    p = np.divide(power, tot, out=np.zeros_like(power), where=tot > 0)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)


def spectral_flux(mag: np.ndarray) -> np.ndarray:
    """Squared difference of successive sum-normalized spectra; first frame 0."""
    tot = mag.sum(axis=1, keepdims=True)
    norm = np.divide(mag, tot, out=np.zeros_like(mag), where=tot > 0)
    out = np.zeros(mag.shape[0])
    if mag.shape[0] > 1:
        out[1:] = ((norm[1:] - norm[:-1]) ** 2).sum(axis=1)
    return out


def spectral_rolloff(mag: np.ndarray, freqs: np.ndarray, fraction: float = 0.9) -> np.ndarray:
    """Lowest frequency below which ``fraction`` of magnitude mass lies."""
    tot = mag.sum(axis=1)
    reached = np.cumsum(mag, axis=1) >= (fraction * tot)[:, None]
    # first bin at the target; the last bin when rounding keeps every bin below it
    k = np.where(reached.any(axis=1), reached.argmax(axis=1), len(freqs) - 1)
    return np.where(tot > 0, freqs[k], 0.0)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(fs: int, n_fft_bins: int, n_filters: int = 26) -> np.ndarray:
    """Triangular filters, equally spaced on the mel scale over 0..Nyquist.

    Returns (n_filters, n_fft_bins) weights for one-sided spectrum bins.
    Built once per argument tuple; the shared array is read-only.
    """
    nyquist = fs / 2.0
    mel_pts = np.linspace(0.0, float(hz_to_mel(nyquist)), n_filters + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.arange(n_fft_bins) * nyquist / (n_fft_bins - 1)
    bank = np.zeros((n_filters, n_fft_bins))
    for m in range(n_filters):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (freqs >= lo) & (freqs <= mid)
        falling = (freqs > mid) & (freqs <= hi)
        if mid > lo:
            bank[m, rising] = (freqs[rising] - lo) / (mid - lo)
        if hi > mid:
            bank[m, falling] = (hi - freqs[falling]) / (hi - mid)
    bank.setflags(write=False)
    return bank


@functools.lru_cache(maxsize=8)
def dct_matrix(n: int, n_out: int) -> np.ndarray:
    """First ``n_out`` rows of the orthonormal type-II DCT of length ``n``;
    ``x @ dct_matrix(n, k).T`` is ``scipy.fft.dct(x, 2, norm="ortho")[..., :k]``.
    Read-only, built once per size."""
    k = np.arange(n_out)[:, None]
    basis = np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    basis *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    basis.setflags(write=False)
    return basis


def mfcc(mag: np.ndarray, fs: int, n_filters: int = 26, n_mfcc: int = 13) -> np.ndarray:
    """Cepstral coefficients from magnitude spectra (rows = frames).

    Mel filterbank energies, natural log with a 1e-10 floor, orthonormal
    type-II cosine transform, first ``n_mfcc`` coefficients.
    """
    bank = mel_filterbank(fs, mag.shape[1], n_filters)
    energies = mag @ bank.T
    loge = np.log(np.maximum(energies, LOG_FLOOR))
    return loge @ dct_matrix(n_filters, n_mfcc).T


def window_features(samples: np.ndarray, fs: int) -> np.ndarray:
    """Mean per-frame features over one analysis window; 21-vector."""
    frame_len = int(round(FRAME_SECONDS * fs))
    hop = int(round(FRAME_SECONDS * fs * (1.0 - FRAME_OVERLAP)))
    want = int(round(WINDOW_SECONDS * fs))
    if len(samples) < want:
        samples = np.concatenate([samples, np.zeros(want - len(samples))])
    frames = frame_signal(samples[:want], frame_len, hop)
    mag = magnitude_spectrum(frames)
    freqs = np.fft.rfftfreq(frame_len, d=1.0 / fs)
    centroid, spread = spectral_centroid_spread(mag, freqs)
    feats = np.column_stack([
        zero_crossing_rate(frames),
        short_term_energy(frames),
        energy_entropy(frames),
        centroid,
        spread,
        spectral_entropy(mag),
        spectral_flux(mag),
        spectral_rolloff(mag, freqs),
        mfcc(mag, fs),
    ])
    return feats.mean(axis=0)


def extract_event_audio_features(track: np.ndarray, fs: int, event_time: float) -> np.ndarray:
    """Features for the window [t, t+2s] after an event.

    Windows running past the track end are zero-padded; an event time at or
    beyond the end therefore yields the all-silence feature vector.
    """
    start = int(round(event_time * fs))
    want = int(round(WINDOW_SECONDS * fs))
    if start >= len(track):
        seg = np.zeros(want)
    else:
        seg = np.asarray(track[max(start, 0) : start + want], dtype=float)
    return window_features(seg, fs)


def load_audio(path: str, rate: int | None = None) -> tuple[np.ndarray, int]:
    """Load mono samples in [-1, 1]; first channel of stereo.

    WAV files carry their own rate and load whole as float64, because their
    integer samples are scaled.  Raw ``.f32``/``.raw`` files (little-endian
    float32) need ``rate`` declared by the caller and are mapped read-only,
    so a window reads only its own pages.
    """
    if path.endswith(".wav"):
        from scipy.io import wavfile  # imported here: it alone costs ~0.4 s

        try:
            fs, data = wavfile.read(path)
        except (OSError, ValueError, struct.error) as exc:  # missing, unreadable or malformed
            raise DataFormatError("cannot read WAV audio %r (%s)" % (path, exc)) from None
        if data.ndim > 1:
            data = data[:, 0]
        if data.dtype == np.int16:
            samples = data / 32768.0
        elif data.dtype == np.int32:
            samples = data / 2147483648.0
        elif data.dtype == np.uint8:
            samples = (data.astype(float) - 128.0) / 128.0
        else:
            samples = data.astype(float)
        return samples.astype(float), int(fs)
    if path.endswith(".f32") or path.endswith(".raw"):
        if rate is None:
            raise DataFormatError("raw audio %r needs a declared sample rate" % path)
        try:
            return np.memmap(path, dtype="<f4", mode="r"), int(rate)
        except (OSError, ValueError) as exc:  # missing, empty, or not whole float32s
            raise DataFormatError("cannot read raw audio %r (%s)" % (path, exc)) from None
    raise DataFormatError("unsupported audio container: %r" % path)
