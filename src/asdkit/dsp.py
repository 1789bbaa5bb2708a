"""Audio front-end: WAV loading, STFT, mel filterbank, log-mel features, frame stacking.

Conventions (deliberate choices, all configurable through FeatureConfig):
  * STFT: periodic Hann window, no centering/padding, power = |DFT bin|^2,
    frame count T = 1 + floor((L - n_fft) / hop).
  * Mel scale: HTK formula mel(f) = 2595 * log10(1 + f / 700), filters laid
    0 Hz .. Nyquist, plain triangles (peak 1, no area normalization).
  * log-mel uses the natural log with a 1e-12 floor on mel power, so no
    entry is -inf; a spectrogram with a non-finite entry is rejected.
Clips shorter than one FFT frame are rejected rather than padded. Everything
here is a pure function of its inputs, safe to call concurrently on
different clips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from .errors import (
    ChannelCountError,
    ConfigError,
    EmptyAudioError,
    TooShortError,
    WavFormatError,
)

LOG_FLOOR = 1e-12


@dataclass
class AudioClip:
    """Mono audio as float64 samples (16-bit PCM scaled to [-1, 1), float taken as is)."""

    samples: np.ndarray
    sample_rate_hz: int
    source_path: str | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ChannelCountError(f"expected mono samples, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise EmptyAudioError(f"zero-length audio ({self.source_path})")
        if not np.all(np.isfinite(self.samples)):
            raise WavFormatError(f"non-finite samples in {self.source_path}")
        if self.sample_rate_hz <= 0:
            raise WavFormatError(f"sample rate must be positive, got {self.sample_rate_hz}")

    @property
    def num_samples(self) -> int:
        return self.samples.size

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass
class FeatureConfig:
    """Parameters of the feature extraction pipeline.

    ``context_frames`` is the number of consecutive log-mel frames concatenated
    into one model input; feature dimension = context_frames * n_mels.
    ``normalize`` standardizes each dimension over the clip's stacked vectors
    (off by default: the baseline trains on raw log-mel).
    """

    sample_rate_hz: int = 16000
    n_fft: int = 1024
    hop_length: int = 512
    n_mels: int = 128
    context_frames: int = 5
    log_floor: float = LOG_FLOOR
    normalize: bool = False
    _mel_fb: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def feature_dim(self) -> int:
        return self.context_frames * self.n_mels

    def mel_matrix(self) -> np.ndarray:
        if self._mel_fb is None:
            self._mel_fb = mel_filterbank(self.n_mels, self.n_fft, self.sample_rate_hz)
        return self._mel_fb


def read_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM or IEEE-float WAV as float64 samples.

    16-bit samples divide by 32768, so full-scale -32768 maps to exactly -1.0.
    Float samples are taken as stored. Raises WavFormatError (a missing file
    too) / ChannelCountError / EmptyAudioError; never downmixes.
    """
    try:
        rate, data = wavfile.read(path)
    except Exception as exc:
        raise WavFormatError(f"not a readable WAV file: {path} ({exc})") from exc
    if data.ndim > 1:
        raise ChannelCountError(f"{path}: {data.shape[1]} channels, expected mono")
    if data.size == 0:
        raise EmptyAudioError(f"{path}: zero samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(f"{path}: unsupported sample encoding {data.dtype}; "
                             "expected 16-bit PCM or IEEE float")
    return AudioClip(samples=samples, sample_rate_hz=int(rate), source_path=str(path))


def wav_num_samples(path) -> int:
    """Sample count of a WAV file, read from its header.

    The data chunk is memory-mapped, not read, so this is cheap next to
    read_wav. Raises WavFormatError for a file read_wav cannot parse either.
    """
    try:
        _, data = wavfile.read(path, mmap=True)
    except Exception as exc:
        raise WavFormatError(f"not a readable WAV file: {path} ({exc})") from exc
    return int(data.shape[0])


def frame_count(n_samples: int, n_fft: int, hop_length: int) -> int:
    """Whole STFT frames in n_samples: T = 1 + (L - n_fft)//hop, 0 when L < n_fft."""
    return 1 + (n_samples - n_fft) // hop_length if n_samples >= n_fft else 0


def hann_window(n: int) -> np.ndarray:
    # periodic form: an exact-bin sine then leaks into only its two neighbours
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_power(clip: AudioClip, n_fft: int = 1024, hop_length: int = 512) -> np.ndarray:
    """Power spectrogram, shape (n_fft//2 + 1, T) with T = frame_count(L, n_fft, hop).

    Frames are windowed with a periodic Hann window; entries are |DFT bin|^2.
    No padding: a clip shorter than one frame raises TooShortError.
    """
    if n_fft <= 0 or (n_fft & (n_fft - 1)) != 0:
        raise ConfigError(f"n_fft must be a power of two, got {n_fft}")
    if hop_length <= 0 or hop_length > n_fft:
        raise ConfigError(f"hop_length must be in [1, n_fft], got {hop_length}")
    x = clip.samples
    if x.size < n_fft:
        raise TooShortError(
            f"clip has {x.size} samples, shorter than one {n_fft}-sample frame")
    num_frames = frame_count(x.size, n_fft, hop_length)
    offsets = np.arange(num_frames) * hop_length
    frames = x[offsets[:, None] + np.arange(n_fft)[None, :]]
    spectrum = np.fft.rfft(frames * hann_window(n_fft)[None, :], axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1).

    Filter centers are equally spaced on the HTK mel scale
    (2595 * log10(1 + f/700)) between 0 Hz and Nyquist. Raises ConfigError when
    n_mels is too large for the FFT resolution (some filter would not cover
    any bin).
    """
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    nyquist = sample_rate_hz / 2.0
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft)
    lower, center, upper = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    up = (bin_hz[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_hz[None, :]) / (upper - center)[:, None]
    fb = np.maximum(0.0, np.minimum(up, down))
    dead = ~(fb > 0).any(axis=1)
    if dead.any():
        raise ConfigError(
            f"{int(dead.sum())} mel filters cover no FFT bin "
            f"(n_mels={n_mels} too large for n_fft={n_fft} at {sample_rate_hz} Hz)")
    return fb


def log_mel(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """log(max(mel_fb @ power_spectrogram, floor)), shape (n_mels, T).

    ConfigError if an entry is not finite (huge float samples overflow the power)."""
    if clip.sample_rate_hz != config.sample_rate_hz:
        raise ConfigError(
            f"clip rate {clip.sample_rate_hz} Hz != configured {config.sample_rate_hz} Hz "
            f"({clip.source_path}); resampling is out of scope")
    power = stft_power(clip, config.n_fft, config.hop_length)
    mel_power = config.mel_matrix() @ power
    values = np.log(np.maximum(mel_power, config.log_floor))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"log-mel spectrogram contains non-finite entries "
                          f"({clip.source_path})")
    return values


def stack_frames(spec: np.ndarray, context_frames: int) -> np.ndarray:
    """Concatenate runs of consecutive frames into feature vectors.

    From a (F, T) log-mel matrix, returns shape (K, context_frames * F) with
    K = T - P + 1; row k is [X_k; X_{k+1}; ...; X_{k+P-1}] in frame order.
    """
    if context_frames < 1:
        raise ConfigError(f"context_frames must be >= 1, got {context_frames}")
    n_bands, n_frames = spec.shape
    if n_frames < context_frames:
        raise TooShortError(
            f"spectrogram has {n_frames} frames, need at least {context_frames}")
    k = n_frames - context_frames + 1
    cols = np.arange(context_frames)[None, :] + np.arange(k)[:, None]
    # (K, P, F) -> (K, P*F), frame-major concatenation
    return spec.T[cols].reshape(k, context_frames * n_bands)


def extract_features(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """Full pipeline clip -> stacked log-mel vectors, shape (K, feature_dim)."""
    feats = stack_frames(log_mel(clip, config), config.context_frames)
    if config.normalize:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats = (feats - mean) / np.maximum(std, 1e-8)
    return feats
