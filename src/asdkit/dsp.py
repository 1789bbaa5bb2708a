"""Audio front-end: WAV I/O, STFT, mel filterbank, log-mel features, frame stacking.

Every spectrogram here has one row per STFT frame, and stack_frames alone
stacks frames into model input vectors, as a zero-copy view.

Conventions (deliberate choices; FeatureConfig sets only the mel bands and stack):
  * STFT of SAMPLE_RATE_HZ audio: periodic Hann frames of N_FFT samples every
    HOP_LENGTH, no centering/padding, power = |DFT bin|^2, frame count
    T = 1 + floor((L - N_FFT) / HOP_LENGTH). Other rates are not resampled.
  * Mel scale: HTK formula mel(f) = 2595 * log10(1 + f / 700), filters laid
    0 Hz .. Nyquist, plain triangles (peak 1, no area normalization).
  * log-mel uses the natural log with a fixed LOG_FLOOR = 1e-12 on mel power,
    so no entry is -inf; a spectrogram with a non-finite entry is rejected.
    Its values are rounded once to float32, the model's input dtype.
Clips shorter than one STFT frame are rejected rather than padded. Everything
here is a pure function of its inputs, safe to call concurrently on
different clips.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._io import atomic_write
from .errors import (
    ChannelCountError,
    ConfigError,
    EmptyAudioError,
    TooShortError,
    WavFormatError,
)

LOG_FLOOR = 1e-12
SAMPLE_RATE_HZ = 16000  # the feature rate and the rate synth renders at
N_FFT = 1024
HOP_LENGTH = 512


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
        if self.sample_rate_hz <= 0:
            raise WavFormatError(f"sample rate must be positive, got {self.sample_rate_hz}")

    @property
    def num_samples(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the feature extraction pipeline, checked once here.

    ``context_frames`` is the number of consecutive log-mel frames concatenated
    into one model input; feature dimension = context_frames * n_mels.
    """

    n_mels: int = 128
    context_frames: int = 5

    def __post_init__(self):
        if self.context_frames < 1:
            raise ConfigError(f"context_frames must be >= 1, got {self.context_frames}")
        mel_filterbank(self.n_mels)  # every filter covers a bin

    @property
    def feature_dim(self) -> int:
        return self.context_frames * self.n_mels

    def vector_count(self, n_samples: int) -> int:
        """Stacked vectors K = T - context_frames + 1 in n_samples, 0 if none."""
        return max(frame_count(n_samples) - self.context_frames + 1, 0)


# fmt tags; an EXTENSIBLE header names its tag in the sub-format GUID instead
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the bytes after the tag in every sub-format GUID {tag-0000-0010-8000-00AA00389B71}
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_TYPES = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4"),
                 (_IEEE_FLOAT, 64): np.dtype("<f8")}


def _open_data(fh, path) -> tuple[int, np.dtype, int]:
    """Walk a WAV's chunks to its data: (sample rate, sample type, sample count).

    Leaves fh at the first sample. Only the chunk headers and the fmt chunk
    are read; a data chunk longer than the rest of the file is rejected here,
    so a header-only reader and a full reader give the same verdict.
    """
    def bad(reason):
        return WavFormatError(f"not a readable WAV file: {path} ({reason})")

    riff = fh.read(12)
    if riff[:4] in (b"RIFX", b"RF64"):
        raise bad(f"{riff[:4].decode()} files are not supported")
    if riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
        raise bad("no RIFF/WAVE header")
    fmt = None
    while True:
        head = fh.read(8)
        if len(head) < 8:
            raise bad("no fmt chunk" if fmt is None else "no data chunk")
        chunk, size = head[:4], int.from_bytes(head[4:], "little")
        if chunk == b"data":
            break
        skip = size + (size & 1)  # a chunk of odd size is followed by a pad byte
        if chunk == b"fmt ":
            fmt = fh.read(min(size, 40))
            if size < 16:
                raise bad(f"fmt chunk of {size} bytes, fewer than 16")
            if len(fmt) < min(size, 40):
                raise bad("fmt chunk cut short")
            skip -= len(fmt)
        fh.seek(skip, 1)
    if fmt is None:
        raise bad("data chunk before the fmt chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) == 40 and fmt[28:] == _GUID_TAIL:
        tag = int.from_bytes(fmt[24:28], "little")
    if channels != 1:
        raise ChannelCountError(f"{path}: {channels} channels, expected mono")
    dtype = _SAMPLE_TYPES.get((tag, bits))
    if dtype is None or block_align != dtype.itemsize:
        raise WavFormatError(f"{path}: unsupported sample encoding (format tag {tag:#06x}, "
                             f"{bits} bits, {block_align}-byte blocks); "
                             "expected 16-bit PCM or IEEE float")
    if rate == 0:
        raise bad("sample rate 0")
    present = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > present:
        raise bad(f"data chunk declares {size} bytes, {present} present")
    if size % dtype.itemsize:
        raise bad(f"data chunk of {size} bytes is not whole {dtype.itemsize}-byte samples")
    if size == 0:
        raise EmptyAudioError(f"{path}: zero samples")
    return rate, dtype, size // dtype.itemsize


def read_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM or IEEE-float (32 or 64-bit) WAV as float64 samples.

    16-bit samples are scaled by 2^-15, so full-scale -32768 maps to exactly
    -1.0. Float samples are taken as stored. Takes fmt tags 1 (PCM), 3
    (float) and WAVE_FORMAT_EXTENSIBLE with either sub-format, and skips
    chunks it does not use. Raises WavFormatError (a missing file, a cut or
    malformed header, a data chunk longer than the file, non-finite float
    samples too) /
    ChannelCountError / EmptyAudioError; never downmixes.
    """
    try:
        with open(path, "rb") as fh:
            rate, dtype, n = _open_data(fh, path)
            data = np.empty(n, dtype=dtype)
            got = fh.readinto(data)
    except OSError as exc:
        raise WavFormatError(f"not a readable WAV file: {path} ({exc})") from exc
    if got != data.nbytes:  # the file shrank while it was read
        raise WavFormatError(f"not a readable WAV file: {path} "
                             f"(data chunk declares {data.nbytes} bytes, {got} read)")
    if dtype.kind == "i":
        samples = np.multiply(data, 2.0**-15)  # exact and always finite
    else:
        samples = data.astype(np.float64, copy=False)
        if not np.all(np.isfinite(samples)):
            raise WavFormatError(f"non-finite samples in {path}")
    return AudioClip(samples=samples, sample_rate_hz=rate, source_path=str(path))


def wav_num_samples(path) -> int:
    """Sample count of a WAV file, read from its header.

    Only the chunk headers are read, so this is cheap next to read_wav. Raises
    what read_wav raises for the file, except for non-finite samples.
    """
    try:
        with open(path, "rb") as fh:
            return _open_data(fh, path)[2]
    except OSError as exc:
        raise WavFormatError(f"not a readable WAV file: {path} ({exc})") from exc


def write_wav(path, data: np.ndarray, sample_rate_hz: int) -> None:
    """Write mono int16 samples as a 16-bit PCM WAV, atomically.

    The file is the canonical 44-byte header (RIFF, a 16-byte fmt chunk and
    the data chunk's header) followed by the samples.
    """
    data = np.asarray(data)
    if data.dtype != np.int16 or data.ndim != 1:
        raise ValueError(f"write_wav takes mono int16 samples, got {data.dtype} "
                         f"of shape {data.shape}")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data.nbytes, b"WAVE",
                         b"fmt ", 16, _PCM, 1, sample_rate_hz, 2 * sample_rate_hz, 2, 16,
                         b"data", data.nbytes)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(data, dtype="<i2"))


def frame_count(n_samples: int) -> int:
    """Whole STFT frames in n_samples: T = 1 + (L - N_FFT)//HOP_LENGTH, 0 when L < N_FFT."""
    return 1 + (n_samples - N_FFT) // HOP_LENGTH if n_samples >= N_FFT else 0


def hann_window(n: int) -> np.ndarray:
    # periodic form: an exact-bin sine then leaks into only its two neighbours
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_power(clip: AudioClip) -> np.ndarray:
    """Power spectrogram, shape (T, N_FFT//2 + 1) with T = frame_count(L).

    Frames are windowed with a periodic Hann window; entries are |DFT bin|^2.
    No padding: a clip shorter than one frame raises TooShortError.
    """
    x = clip.samples
    if x.size < N_FFT:
        raise TooShortError(
            f"clip has {x.size} samples, shorter than one {N_FFT}-sample frame")
    frames = sliding_window_view(x, N_FFT)[::HOP_LENGTH]
    spectrum = np.fft.rfft(frames * hann_window(N_FFT)[None, :], axis=1)
    return spectrum.real**2 + spectrum.imag**2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank(n_mels: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, N_FFT//2 + 1), read-only.

    Filter centers are equally spaced on the HTK mel scale
    (2595 * log10(1 + f/700)) between 0 Hz and Nyquist. Raises ConfigError when
    n_mels is too large for the FFT resolution (some filter would not cover
    any bin). Cached per n_mels, hence read-only.
    """
    if not 1 <= n_mels <= N_FFT // 2 + 1:  # before the (n_mels, bins) arrays are allocated
        raise ConfigError(f"n_mels must be in [1, {N_FFT // 2 + 1}], got {n_mels}")
    nyquist = SAMPLE_RATE_HZ / 2.0
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))
    bin_hz = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE_HZ / N_FFT)
    lower, center, upper = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    up = (bin_hz[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_hz[None, :]) / (upper - center)[:, None]
    fb = np.maximum(0.0, np.minimum(up, down))
    dead = ~(fb > 0).any(axis=1)
    if dead.any():
        raise ConfigError(
            f"{int(dead.sum())} mel filters cover no FFT bin "
            f"(n_mels={n_mels} too large for n_fft={N_FFT} at {SAMPLE_RATE_HZ} Hz)")
    fb.flags.writeable = False
    return fb


def log_mel(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """log(max(mel_fb @ power', floor)), one row per frame: (T, n_mels), float32.

    Computed in float64, as (n_mels, T) whose rounding it fixes, and rounded
    once to float32, the model's input dtype: training and scoring both take
    their inputs from here. WavFormatError (a data problem) for a clip at
    another rate, and, not a numpy warning, if an entry is not finite."""
    if clip.sample_rate_hz != SAMPLE_RATE_HZ:
        raise WavFormatError(
            f"clip rate {clip.sample_rate_hz} Hz != {SAMPLE_RATE_HZ} Hz "
            f"({clip.source_path}); resampling is out of scope")
    with np.errstate(over="ignore", invalid="ignore"):
        power = stft_power(clip)
        mel_power = mel_filterbank(config.n_mels) @ power.T
        values = np.log(np.maximum(mel_power, LOG_FLOOR))
    if not np.all(np.isfinite(values)):
        raise WavFormatError(f"log-mel spectrogram contains non-finite entries "
                             f"({clip.source_path})")
    return np.ascontiguousarray(values.T, dtype=np.float32)


def stack_frames(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Runs of P = config.context_frames consecutive frames, each as one vector.

    From (T, F) frames returns shape (K, P * F) with K = T - P + 1; row k is
    [X_k, X_{k+1}, ..., X_{k+P-1}]. A read-only view of C-contiguous frames
    (others are copied first): rows overlap, and no stacked copy is built.
    """
    context_frames = config.context_frames
    n_frames, n_bands = frames.shape
    if n_frames < context_frames:
        raise TooShortError(
            f"spectrogram has {n_frames} frames, need at least {context_frames}")
    return sliding_window_view(frames.reshape(-1), context_frames * n_bands)[::n_bands]


def extract_features(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """Full pipeline clip -> stacked log-mel vectors, a (K, feature_dim) read-only view."""
    return stack_frames(log_mel(clip, config), config)
