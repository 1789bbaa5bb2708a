from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from asdkit.config import RunConfig
from asdkit.dsp import (HOP_LENGTH, LOG_FLOOR, N_FFT, AudioClip, FeatureConfig,
                        extract_features, frame_count, hann_window, hz_to_mel,
                        log_mel, mel_filterbank, mel_to_hz, read_wav,
                        stack_frames, stft_power,
                        wav_num_samples)
from asdkit.errors import (ChannelCountError, ConfigError, EmptyAudioError,
                           TooShortError, WavFormatError)

SR = 16000


def write_pcm16(path, data, sr=SR):
    wavfile.write(path, sr, np.asarray(data, dtype=np.int16))
    return path


# ---------------------------------------------------------------------------
# read_wav

def test_read_wav_pcm16_ten_seconds(tmp_path):
    path = write_pcm16(tmp_path / "c.wav", np.zeros(160000, dtype=np.int16))
    clip = read_wav(path)
    assert clip.num_samples == 160000
    assert clip.sample_rate_hz == SR
    assert clip.samples.size / clip.sample_rate_hz == pytest.approx(10.0)


def test_read_wav_full_scale_negative_maps_to_minus_one(tmp_path):
    path = write_pcm16(tmp_path / "c.wav", [-32768, 32767, 0, -16384])
    clip = read_wav(path)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == pytest.approx(32767 / 32768)
    assert clip.samples[2] == 0.0
    assert clip.samples[3] == pytest.approx(-0.5)


def test_read_wav_float32_passthrough(tmp_path):
    data = np.array([0.5, -0.25, 0.125], dtype=np.float32)
    wavfile.write(tmp_path / "f.wav", SR, data)
    clip = read_wav(tmp_path / "f.wav")
    assert np.allclose(clip.samples, data)


def test_read_wav_stereo_rejected(tmp_path):
    stereo = np.zeros((100, 2), dtype=np.int16)
    wavfile.write(tmp_path / "s.wav", SR, stereo)
    with pytest.raises(ChannelCountError):
        read_wav(tmp_path / "s.wav")


def test_read_wav_zero_length_rejected(tmp_path):
    wavfile.write(tmp_path / "z.wav", SR, np.zeros(0, dtype=np.int16))
    with pytest.raises(EmptyAudioError):
        read_wav(tmp_path / "z.wav")


def test_read_wav_garbage_rejected(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"definitely not RIFF data")
    with pytest.raises(WavFormatError):
        read_wav(bad)


def test_read_wav_unsupported_encoding_rejected(tmp_path):
    wavfile.write(tmp_path / "i32.wav", SR, np.zeros(64, dtype=np.int32))
    with pytest.raises(WavFormatError):
        read_wav(tmp_path / "i32.wav")


def test_read_wav_missing_file(tmp_path):
    for reader in (read_wav, wav_num_samples):
        with pytest.raises(WavFormatError, match="nope.wav"):
            reader(tmp_path / "nope.wav")


# ---------------------------------------------------------------------------
# stft_power

def clip_of(samples):
    return AudioClip(samples=np.asarray(samples, dtype=np.float64), sample_rate_hz=SR)


def test_stft_frame_count_formula():
    clip = clip_of(np.random.default_rng(0).standard_normal(16000))
    power = stft_power(clip)
    assert power.shape == (1 + (16000 - 1024) // 512, 513)  # one row per frame
    assert power.shape[0] == 30


@pytest.mark.parametrize("n_fft,hop", [(N_FFT, HOP_LENGTH)])
def test_frame_count_matches_stft_around_frame_boundaries(n_fft, hop):
    rng = np.random.default_rng(0)
    for frames in (1, 2, 7):
        boundary = n_fft + (frames - 1) * hop  # shortest length giving `frames`
        for length in (boundary - 1, boundary, boundary + 1):
            expected = frame_count(length)
            if length < n_fft:
                assert expected == 0
                continue
            power = stft_power(clip_of(rng.standard_normal(length)))
            assert power.shape[0] == expected
            assert expected == frames - (length < boundary)


def test_wav_num_samples_reads_header(tmp_path):
    path = write_pcm16(tmp_path / "c.wav", np.zeros(12345, dtype=np.int16))
    assert wav_num_samples(path) == read_wav(path).num_samples == 12345
    (tmp_path / "bad.wav").write_bytes(b"RIFF garbage")
    with pytest.raises(WavFormatError):
        wav_num_samples(tmp_path / "bad.wav")


def test_stft_zero_input_is_zero():
    power = stft_power(clip_of(np.zeros(4096)))
    assert np.all(power == 0.0)


def test_stft_too_short():
    with pytest.raises(TooShortError):
        stft_power(clip_of(np.ones(1000)))


@pytest.mark.parametrize("params, match", [
    # the rate, STFT size and hop are fixed constants: any value is an unknown key
    ({"n_fft": 1000, "hop_length": 500},
     r"unknown config keys: \['features.hop_length', 'features.n_fft'\]"),
    ({"hop_length": 2048}, r"unknown config keys: \['features.hop_length'\]"),
    ({"hop_length": 0}, r"unknown config keys: \['features.hop_length'\]"),
    ({"hop_length": -5}, r"unknown config keys: \['features.hop_length'\]"),
    ({"context_frames": 0}, "context_frames must be >= 1"),
    ({"sample_rate_hz": 0}, r"unknown config keys: \['features.sample_rate_hz'\]"),
    ({"n_mels": 256}, "mel filters cover no FFT bin"),
], ids=["n_fft-1000", "hop-2048", "hop-0", "hop-minus-5", "context-0", "rate-0",
        "n_mels-256"])
def test_feature_config_rejects_bad_params(params, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict({"features": params})


def test_vector_count_matches_extracted_rows():
    cfg = FeatureConfig(n_mels=32)
    rng = np.random.default_rng(1)
    for length in (1023, 1024, 1024 + 3 * 512 - 1, 1024 + 4 * 512, 16000):
        k = cfg.vector_count(length)
        if k == 0:
            with pytest.raises(TooShortError):
                extract_features(clip_of(rng.standard_normal(length)), cfg)
        else:
            assert extract_features(clip_of(rng.standard_normal(length)), cfg).shape[0] == k
    assert [cfg.vector_count(n) for n in (0, 1024 + 3 * 512, 1024 + 4 * 512)] == [0, 0, 1]


def naive_dft_power(frame):
    """O(N^2) reference DFT of one windowed frame."""
    n = frame.size
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * t / n)
    spectrum = basis @ frame
    return np.abs(spectrum) ** 2


def test_stft_matches_naive_dft_oracle():
    rng = np.random.default_rng(42)
    samples = rng.standard_normal(N_FFT * 2)
    clip = clip_of(samples)
    power = stft_power(clip)
    assert power.shape[0] == 3
    for frame_idx in range(power.shape[0]):
        start = frame_idx * HOP_LENGTH
        frame = samples[start:start + N_FFT] * hann_window(N_FFT)
        expected = naive_dft_power(frame)
        assert np.allclose(power[frame_idx], expected, rtol=1e-9, atol=1e-12)


def test_stft_exact_bin_sine_concentrates_energy():
    bin_idx = 128
    freq = bin_idx * SR / N_FFT  # whole cycles per frame at any hop: 2000 Hz
    t = np.arange(N_FFT * 4) / SR
    clip = clip_of(0.7 * np.sin(2 * np.pi * freq * t))
    power = stft_power(clip)
    assert power.shape == (7, 513)
    for row in power:
        peak = row[bin_idx]
        main_lobe = {bin_idx - 1, bin_idx, bin_idx + 1}
        others = np.array([row[i] for i in range(row.size) if i not in main_lobe])
        # >= 60 dB down in power means a 1e-6 ratio
        assert others.max() <= peak * 1e-6


def test_stft_parseval_energy():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(N_FFT * 8)
    clip = clip_of(samples / np.max(np.abs(samples)))
    power = stft_power(clip)
    window = hann_window(N_FFT)
    assert power.shape == (15, 513)
    for frame_idx in range(power.shape[0]):
        start = frame_idx * HOP_LENGTH
        frame = clip.samples[start:start + N_FFT] * window
        time_energy = np.sum(frame**2)
        row = power[frame_idx]
        spectral = (row[0] + row[-1] + 2 * row[1:-1].sum()) / N_FFT
        assert spectral == pytest.approx(time_energy, rel=0.01)


# ---------------------------------------------------------------------------
# mel filterbank

def test_mel_shape_and_positivity():
    fb = mel_filterbank(128)
    assert fb.shape == (128, 513)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)


def test_mel_centers_strictly_increasing():
    # analytic centers from the scale formula are the filter peaks
    centers = mel_to_hz(np.linspace(0.0, hz_to_mel(SR / 2), 128 + 2))[1:-1]
    assert np.all(np.diff(centers) > 0)
    fb = mel_filterbank(128)
    peak_bins = fb.argmax(axis=1)
    assert np.all(np.diff(peak_bins) >= 0)


def test_mel_too_many_bands_for_fft():
    with pytest.raises(ConfigError):
        mel_filterbank(256)


def test_mel_requires_at_least_one_band():
    with pytest.raises(ConfigError):
        mel_filterbank(0)


# ---------------------------------------------------------------------------
# log_mel

def test_log_mel_zero_clip_hits_floor():
    cfg = FeatureConfig()
    spec = log_mel(clip_of(np.zeros(4096)), cfg)
    assert spec.dtype == np.float32
    assert np.all(spec == np.float32(np.log(LOG_FLOOR)))


def test_log_mel_ten_second_shape():
    rng = np.random.default_rng(3)
    spec = log_mel(clip_of(rng.standard_normal(160000) * 0.1), FeatureConfig())
    # T = 1 + floor((160000 - 1024) / 512) rows, one per frame
    assert spec.shape == (311, 128)
    assert spec.dtype == np.float32 and spec.flags.c_contiguous


def test_log_mel_scaling_shifts_by_log4():
    rng = np.random.default_rng(5)
    samples = 0.4 * rng.standard_normal(8192)
    cfg = FeatureConfig()
    base = log_mel(clip_of(samples), cfg)
    doubled = log_mel(clip_of(samples * 2), cfg)
    above_floor = base > np.log(LOG_FLOOR) + 1.0
    assert above_floor.any()
    diff = doubled[above_floor] - base[above_floor]
    assert np.allclose(diff, np.log(4.0), atol=1e-9)


def test_log_mel_rejects_rate_mismatch():
    # a data problem, not a config one: the clip, not the run, is wrong
    clip = AudioClip(samples=np.zeros(4096), sample_rate_hz=8000)
    with pytest.raises(WavFormatError, match="clip rate 8000 Hz != 16000 Hz"):
        log_mel(clip, FeatureConfig())


def test_log_mel_rejects_overflowing_power(tmp_path):
    # finite float64 samples whose squared spectrum overflows to inf
    wavfile.write(tmp_path / "loud.wav", SR, np.full(4096, 1e200))
    clip = read_wav(tmp_path / "loud.wav")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(WavFormatError, match="non-finite"):
            log_mel(clip, FeatureConfig())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_samples_are_rejected(tmp_path, value):
    samples = np.zeros(4096)
    samples[100] = value
    wavfile.write(tmp_path / "bad.wav", SR, samples)
    with pytest.raises(WavFormatError, match="non-finite samples"):
        read_wav(tmp_path / "bad.wav")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(WavFormatError, match="non-finite"):
            log_mel(clip_of(samples), FeatureConfig())  # a directly built clip


def test_log_mel_deterministic():
    samples = np.random.default_rng(9).standard_normal(8192) * 0.2
    a = log_mel(clip_of(samples.copy()), FeatureConfig())
    b = log_mel(clip_of(samples.copy()), FeatureConfig())
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# stacking

def test_stack_boundary_single_vector():
    frames = np.random.default_rng(0).standard_normal((5, 128))
    stacked = stack_frames(frames, FeatureConfig(context_frames=5))
    assert stacked.shape == (1, 640)
    assert np.array_equal(stacked[0], frames.reshape(-1))


def test_stack_count_for_long_clip():
    frames = np.zeros((312, 128))
    assert stack_frames(frames, FeatureConfig(context_frames=5)).shape == (308, 640)


def test_stack_frame_count_identity():
    for t in range(5, 40):
        frames = np.zeros((t, 4))
        assert stack_frames(frames, FeatureConfig(context_frames=5)).shape[0] == t - 5 + 1


def test_stack_layout_against_index_oracle():
    rng = np.random.default_rng(17)
    n_frames, n_bands, context = 9, 4, 3
    frames = rng.standard_normal((n_frames, n_bands))
    stacked = stack_frames(frames, FeatureConfig(context_frames=context))
    assert stacked.shape == (n_frames - context + 1, context * n_bands)
    for k in range(n_frames - context + 1):
        for p in range(context):
            for f in range(n_bands):
                assert stacked[k, p * n_bands + f] == frames[k + p, f]


def test_stack_too_short():
    with pytest.raises(TooShortError):
        stack_frames(np.zeros((3, 8)), FeatureConfig(context_frames=5))


def test_stack_is_a_read_only_view_of_the_frames():
    frames = np.random.default_rng(2).standard_normal((12, 8)).astype(np.float32)
    stacked = stack_frames(frames, FeatureConfig(n_mels=8, context_frames=3))
    assert np.shares_memory(stacked, frames)
    assert not stacked.flags.writeable
    with pytest.raises(ValueError):
        stacked[0, 0] = 1.0
    frames[4, 2] = 7.0  # a view: every vector holding frame 4 sees the change
    assert [stacked[k, (4 - k) * 8 + 2] for k in (2, 3, 4)] == [7.0, 7.0, 7.0]


def test_extract_features_shape_and_normalize_toggle():
    rng = np.random.default_rng(21)
    clip = clip_of(0.3 * rng.standard_normal(SR))
    cfg = FeatureConfig(n_mels=32)
    feats = extract_features(clip, cfg)
    assert feats.shape[1] == cfg.feature_dim == 160
    # the toggle is gone: the baseline trains on raw, unnormalized log-mel
    assert np.array_equal(feats, stack_frames(log_mel(clip, cfg), cfg))
    with pytest.raises(TypeError):
        FeatureConfig(n_mels=32, normalize=True)


def test_mel_filterbank_is_cached_and_read_only():
    fb = mel_filterbank(32)
    assert mel_filterbank(32) is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
