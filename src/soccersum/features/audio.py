"""Audio descriptors for the 2-second window following each event.

Each window is cut into 50 ms frames with 50% overlap, of an even number of
samples (2,204 at 44.1 kHz).  Per frame we compute eight waveform/spectral
features plus 13 mel-cepstral coefficients from the un-windowed magnitude
DFT, then average every feature over the window's frames.  Stereo input uses
the first channel only.
"""
from __future__ import annotations

import functools
import struct

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core import DataFormatError, naming

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
# the lowest sample rate, in Hz, whose 50 ms frames hold the 10 energy
# sub-frames of ``energy_entropy``: 10 samples at 200 Hz
MIN_RATE = 200


def check_rate(rate, what: str) -> None:
    """Raise ``DataFormatError`` naming ``what`` and ``rate`` unless
    ``rate`` is an integer of at least ``MIN_RATE``."""
    if not (isinstance(rate, int) and not isinstance(rate, bool) and rate >= MIN_RATE):
        raise DataFormatError("%s sample rate %r is not an integer of at least %d Hz"
                              % (what, rate, MIN_RATE))


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice x into overlapping frames; a trailing partial frame is dropped."""
    if len(x) < frame_len:
        return np.empty((0, frame_len))
    n = (len(x) - frame_len) // hop + 1
    step = x.strides[0]
    return as_strided(x, shape=(n, frame_len), strides=(hop * step, step)).copy()


def magnitude_spectrum(frames: np.ndarray) -> np.ndarray:
    """One-sided magnitude DFT per frame, no window function."""
    return np.abs(np.fft.rfft(frames, axis=-1))


def zero_crossing_rate(frames: np.ndarray) -> np.ndarray:
    # strict sign changes: adjacent samples with negative product
    prod = frames[:, 1:] * frames[:, :-1]
    return (prod < 0).sum(axis=1) / (frames.shape[1] - 1)


def short_term_energy(frames: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", frames, frames) / frames.shape[1]


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Rows of non-negative ``a`` scaled to unit sum; all-zero rows stay 0."""
    tot = a.sum(axis=1, keepdims=True)
    return a / np.where(tot > 0, tot, 1.0)


def _entropy(e: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each row of non-negative ``e``; all-zero rows give 0."""
    p = _unit_rows(e)
    # the floor keeps log2 finite where p is 0 and moves no sum by 1e-305;
    # 0.0 - h, not -h, gives silent rows 0.0 rather than -0.0
    return 0.0 - np.einsum("ij,ij->i", p, np.log2(np.maximum(p, np.finfo(float).tiny)))


def energy_entropy(frames: np.ndarray, n_sub: int = 10) -> np.ndarray:
    """Base-2 entropy of per-sub-frame energy shares (n_sub equal slices;
    samples past the last full slice are ignored).  Silent frames give 0."""
    L = frames.shape[1]
    sub_len = L // n_sub
    sub = frames[:, : sub_len * n_sub].reshape(frames.shape[0], n_sub, sub_len)
    return _entropy(np.einsum("ijk,ijk->ij", sub, sub))


def spectral_centroid_spread(mag: np.ndarray, freqs: np.ndarray):
    """First and second central moments of the magnitude spectrum (Hz)."""
    w = _unit_rows(mag)
    centroid = w @ freqs
    # E[f^2] - E[f]^2, clipped at 0 where rounding leaves it just below
    spread = np.sqrt(np.maximum(w @ (freqs * freqs) - centroid * centroid, 0.0))
    return centroid, spread


def spectral_entropy(mag: np.ndarray) -> np.ndarray:
    """Base-2 entropy of the normalized spectral energy distribution."""
    return _entropy(mag * mag)


def spectral_flux(mag: np.ndarray) -> np.ndarray:
    """Squared difference of successive sum-normalized spectra; first frame 0."""
    norm = _unit_rows(mag)
    out = np.zeros(mag.shape[0])
    if mag.shape[0] > 1:
        d = norm[1:] - norm[:-1]
        out[1:] = np.einsum("ij,ij->i", d, d)
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
    """Mean per-frame features over one analysis window; 21-vector.

    Raises ``DataFormatError`` when a sample the frames cover is not finite.
    """
    hop = int(round(FRAME_SECONDS * fs / 2))
    # an even frame keeps the rfft bins on the filterbank's nyquist/(n-1) grid
    frame_len = 2 * hop
    want = int(round(WINDOW_SECONDS * fs))
    if len(samples) < want:
        samples = np.concatenate([samples, np.zeros(want - len(samples))])
    frames = frame_signal(samples[:want], frame_len, hop)
    energy = short_term_energy(frames)
    # non-finite exactly where a sample is (or squares past 1e308); checked
    # before the spectrum, which would warn
    if not np.isfinite(energy).all():
        raise DataFormatError("the audio window holds a sample that is not finite")
    mag = magnitude_spectrum(frames)
    freqs = np.fft.rfftfreq(frame_len, d=1.0 / fs)
    centroid, spread = spectral_centroid_spread(mag, freqs)
    feats = np.column_stack([
        zero_crossing_rate(frames),
        energy,
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
    beyond the end therefore yields the all-silence feature vector.  A
    non-finite sample in the window is a ``DataFormatError`` naming ``t``.
    """
    start = int(round(event_time * fs))
    want = int(round(WINDOW_SECONDS * fs))
    seg = np.asarray(track[max(start, 0) : start + want], dtype=float)
    with naming("event at t=%r s", event_time):
        return window_features(seg, fs)


def load_audio(path: str, rate: int | None = None) -> tuple[np.ndarray, int]:
    """Load mono samples in [-1, 1]; first channel of stereo.

    WAV files carry their own rate and load whole as float64, because their
    integer samples are scaled.  Raw ``.f32``/``.raw`` files (little-endian
    float32) need ``rate`` declared by the caller and are mapped read-only,
    so a window reads only its own pages.  Either rate must pass
    ``check_rate``.
    """
    if path.endswith(".wav"):
        from scipy.io import wavfile  # imported here: it alone costs ~0.4 s

        try:
            fs, data = wavfile.read(path)
        except (OSError, ValueError, struct.error) as exc:  # missing, unreadable or malformed
            raise DataFormatError("cannot read WAV audio %r (%s)" % (path, exc)) from None
        check_rate(fs, "WAV audio %r" % path)
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
        return samples, fs
    if path.endswith(".f32") or path.endswith(".raw"):
        check_rate(rate, "raw audio %r" % path)
        try:
            return np.memmap(path, dtype="<f4", mode="r"), rate
        except (OSError, ValueError) as exc:  # missing, empty, or not whole float32s
            raise DataFormatError("cannot read raw audio %r (%s)" % (path, exc)) from None
    raise DataFormatError("unsupported audio container: %r" % path)
