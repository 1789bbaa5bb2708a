"""Synthetic machine-sound generator for desk-scale end-to-end runs.

Each synthetic "machine" is a randomized harmonic stack (3-5 partials with a
1/h amplitude falloff) amplitude-modulated at a few Hz over a pink-ish noise
bed. The target domain shifts the machine's pitch by a few percent and raises
the noise level. Anomalous clips always carry a train of transient clicks and
sometimes an additional detuned harmonic, so they are detectable both in the
waveform (spiky derivative) and in log-mel space (broadband transients).
The sound model is fixed; a spec chooses only the clip length, the machine
names and the clip counts.

Generation is fully deterministic: every clip draws from its own RNG stream
keyed by (seed, machine, split, domain, condition, index), so the same seed
reproduces a byte-identical tree no matter the generation order. Clips render
on the shared fork pool (``asdkit._pool``), one worker per CPU when the spec
holds enough audio, else in-process, and the tree is identical for any
worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _pool
from ._io import make_dir
from .config import from_mapping, read_yaml
from .dataset import DatasetManifest, MANIFEST_FILENAME, clip_record, save_manifest
from .dsp import SAMPLE_RATE_HZ, write_wav
from .errors import ConfigError

SPEC_FILENAME = "synth_spec.yaml"  # the spec echo the synth command writes beside the manifest

_SPLIT_CODE = {"train": 1, "test": 2, "supplementary": 3}
_DOMAIN_CODE = {"source": 1, "target": 2}
_COND_CODE = {"normal": 1, "anomaly": 2, "clean": 3, "noise": 4}

# the fixed sound model
_F0_RANGE_HZ = (80.0, 220.0)
_HARMONICS_RANGE = (3, 5)  # partials, inclusive
_AM_RATE_RANGE_HZ = (2.0, 8.0)
_AM_DEPTH_RANGE = (0.2, 0.5)
_SNR_DB = {"source": 24.0, "target": 18.0}  # the target domain is 6 dB noisier
_TARGET_F0_SHIFT = 0.03  # target-domain pitch shift, up or down per machine
_CLICKS_PER_SECOND = 4.0
_CLICK_AMP = 0.9
_DETUNE_PROBABILITY = 0.5
_DETUNE = 0.08  # relative pitch error of a detuned partial
_PEAK = 0.98  # clips louder than this are scaled down to it
# the largest 16-bit data chunk whose RIFF size, 36 + 2 * samples, fits a u32 (~37.3 h)
_MAX_CLIP_SAMPLES = (2**32 - 1 - 36) // 2


@dataclass
class SynthCounts:
    source_train: int = 20
    target_train: int = 2
    test_normal_source: int = 5
    test_normal_target: int = 5
    test_anomaly_source: int = 5
    test_anomaly_target: int = 5
    supplementary: int = 4


@dataclass
class SynthSpec:
    clip_seconds: float = 2.0
    machines: list[str] = field(default_factory=lambda: ["widget"])
    counts: SynthCounts = field(default_factory=SynthCounts)

    def validate(self) -> None:
        c = self.counts
        if not (math.isfinite(self.clip_seconds)
                and 1 <= self.clip_samples <= _MAX_CLIP_SAMPLES):
            raise ConfigError(f"spec.clip_seconds: {self.clip_seconds} s must give 1 to "
                              f"{_MAX_CLIP_SAMPLES} samples at {SAMPLE_RATE_HZ} Hz")
        if not self.machines:
            raise ConfigError("spec declares no machines")
        own_files = (MANIFEST_FILENAME, SPEC_FILENAME)  # written at the root via <name>.tmp
        for i, name in enumerate(self.machines):  # each names a directory under --out
            if (name in ("", ".", "..", *self.machines[:i]) or Path(name).name != name
                    or "\0" in name or name.removesuffix(".tmp") in own_files):
                raise ConfigError(f"spec.machines[{i}]: {name!r} must be one path component, "
                                  f"not '.', '..', {MANIFEST_FILENAME!r} or {SPEC_FILENAME!r}, "
                                  "and name no other machine")
        counts = [c.source_train, c.target_train, c.test_normal_source,
                  c.test_normal_target, c.test_anomaly_source,
                  c.test_anomaly_target, c.supplementary]
        if any(n < 0 for n in counts):
            raise ConfigError(f"negative clip counts: {c}")
        if sum(counts) == 0:
            raise ConfigError("spec produces zero clips")

    @property
    def clip_samples(self) -> int:
        return round(self.clip_seconds * SAMPLE_RATE_HZ)

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        spec = from_mapping(cls, data, "spec", "spec")
        spec.validate()
        return spec

    @classmethod
    def from_yaml(cls, path) -> "SynthSpec":
        return cls.from_dict(read_yaml(path, "synth spec"))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _MachineProfile:
    f0_hz: float
    harmonic_amps: np.ndarray  # amplitude per partial 1..H
    am_rate_hz: float
    am_depth: float
    target_f0_factor: float


def _machine_profile(seed: int, machine_index: int) -> _MachineProfile:
    rng = np.random.default_rng([seed, machine_index])
    f0 = rng.uniform(*_F0_RANGE_HZ)
    n_harm = int(rng.integers(_HARMONICS_RANGE[0], _HARMONICS_RANGE[1] + 1))
    amps = 0.2 / np.arange(1, n_harm + 1) * rng.uniform(0.8, 1.2, size=n_harm)
    am_rate = rng.uniform(*_AM_RATE_RANGE_HZ)
    am_depth = rng.uniform(*_AM_DEPTH_RANGE)
    shift = 1.0 + np.sign(rng.standard_normal()) * _TARGET_F0_SHIFT
    return _MachineProfile(f0_hz=f0, harmonic_amps=amps, am_rate_hz=am_rate,
                           am_depth=am_depth, target_f0_factor=shift)


def _pink_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS noise with a 1/sqrt(f) spectral tilt above 20 Hz."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE_HZ)
    spectrum *= 1.0 / np.sqrt(np.maximum(freqs, 20.0))
    noise = np.fft.irfft(spectrum, n)
    return noise / max(np.sqrt(np.mean(noise**2)), 1e-12)


def _tone(spec: SynthSpec, profile: _MachineProfile, domain: str,
          rng: np.random.Generator, detuned_harmonic: int | None = None) -> np.ndarray:
    n = spec.clip_samples
    t = np.arange(n) / SAMPLE_RATE_HZ
    f0 = profile.f0_hz * (profile.target_f0_factor if domain == "target" else 1.0)
    f0 *= 1.0 + rng.uniform(-0.005, 0.005)  # per-clip pitch jitter
    x = np.zeros(n)
    for h, amp in enumerate(profile.harmonic_amps, start=1):
        mult = float(h)
        if detuned_harmonic is not None and h == detuned_harmonic:
            mult *= 1.0 + _DETUNE
        x += amp * np.sin(2.0 * np.pi * f0 * mult * t + rng.uniform(0, 2 * np.pi))
    envelope = 1.0 + profile.am_depth * np.sin(
        2.0 * np.pi * profile.am_rate_hz * t + rng.uniform(0, 2 * np.pi))
    return x * envelope


def _add_clicks(x: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    n = x.size
    n_clicks = 1 + rng.poisson(_CLICKS_PER_SECOND * spec.clip_seconds)
    out = x.copy()
    for _ in range(n_clicks):
        pos = int(rng.uniform(0.02, 0.95) * n)
        tau = rng.uniform(0.5e-3, 2.0e-3) * SAMPLE_RATE_HZ
        length = min(int(8 * tau), n - pos)
        amp = _CLICK_AMP * rng.uniform(0.75, 1.25) * (1 if rng.random() < 0.5 else -1)
        out[pos:pos + length] += amp * np.exp(-np.arange(length) / tau)
    return out


def _clamp_peak(x: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(x))
    return x * (_PEAK / peak) if peak > _PEAK else x


def _render_clip(spec: SynthSpec, profile: _MachineProfile, domain: str,
                 condition: str, rng: np.random.Generator) -> np.ndarray:
    detune = None
    if condition == "anomaly" and rng.random() < _DETUNE_PROBABILITY:
        detune = int(rng.integers(2, len(profile.harmonic_amps) + 1))
    tone = _tone(spec, profile, domain, rng, detuned_harmonic=detune)
    tone_rms = np.sqrt(np.mean(tone**2))
    noise = _pink_noise(tone.size, rng)
    x = tone + noise * tone_rms * 10.0 ** (-_SNR_DB[domain] / 20.0)
    if condition == "anomaly":
        x = _add_clicks(x, spec, rng)
    return _clamp_peak(x)


def _render_supplementary(spec: SynthSpec, profile: _MachineProfile, kind: str,
                          rng: np.random.Generator) -> np.ndarray:
    if kind == "clean":
        return _clamp_peak(_tone(spec, profile, "source", rng))
    return _clamp_peak(
        0.05 * _pink_noise(spec.clip_samples, rng))


class _Job(NamedTuple):
    """One clip to render: its RNG key, what to render and where to write it."""

    rng_key: list[int]
    profile: _MachineProfile
    domain: str
    condition: str  # "clean"/"noise" for a supplementary clip
    path: Path  # relative to the dataset root


def _render_job(spec: SynthSpec, out: Path, job: _Job) -> None:
    """Render one clip and write it as 16-bit PCM (in a pool worker or in-process)."""
    rng = np.random.default_rng(job.rng_key)
    if job.condition in ("clean", "noise"):
        samples = _render_supplementary(spec, job.profile, job.condition, rng)
    else:
        samples = _render_clip(spec, job.profile, job.domain, job.condition, rng)
    data = np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)
    write_wav(out / job.path, data, SAMPLE_RATE_HZ)


def synth_generate(spec: SynthSpec, out_dir, seed: int) -> DatasetManifest:
    """Render the dataset tree under out_dir and write its manifest.csv.

    Deterministic per seed: repeated runs produce byte-identical trees,
    whatever the number of worker processes. The manifest holds the clips
    rendered, read from their names as scan_dataset reads them. A negative
    seed is a ConfigError, raised before out_dir is created; so is running
    out of memory, which leaves out_dir with the clips written so far.
    """
    spec.validate()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir)
    make_dir(out)
    jobs: list[_Job] = []
    c = spec.counts
    for m_idx, machine in enumerate(spec.machines):
        profile = _machine_profile(seed, m_idx)
        plan = [
            ("train", "source", "normal", c.source_train),
            ("train", "target", "normal", c.target_train),
            ("test", "source", "normal", c.test_normal_source),
            ("test", "target", "normal", c.test_normal_target),
            ("test", "source", "anomaly", c.test_anomaly_source),
            ("test", "target", "anomaly", c.test_anomaly_target),
        ]
        clips = [(split, domain, condition, i, f"{condition}_{i:04d}")
                 for split, domain, condition, count in plan for i in range(count)]
        # supplementary clips alternate clean machine sound and noise-only
        for i in range(c.supplementary):
            kind = "clean" if i % 2 == 0 else "noise"
            tail = f"normal_{i:04d}" if kind == "clean" else f"{i:04d}"  # noise: no condition
            clips.append(("supplementary", "source", kind, i, f"{tail}_aux_{kind}"))
        for split in dict.fromkeys(clip[0] for clip in clips):
            make_dir(out / machine / split)
        for split, domain, condition, i, tail in clips:
            key = [seed, m_idx, _SPLIT_CODE[split], _DOMAIN_CODE[domain],
                   _COND_CODE[condition], i]
            jobs.append(_Job(key, profile, domain, condition,
                             Path(machine, split, f"section_00_{domain}_{split}_{tail}.wav")))
    audio_s = len(jobs) * spec.clip_seconds
    try:
        for _ in _pool.run(functools.partial(_render_job, spec, out), jobs,
                           _pool.worker_count(len(jobs), audio_s)):
            pass
    except MemoryError as exc:
        raise ConfigError(f"spec.clip_seconds: clips of {spec.clip_seconds} s do not fit "
                          f"in memory; {out} is left partly written") from exc
    records = sorted((clip_record(job.path) for job in jobs), key=lambda r: r.path)
    manifest = DatasetManifest(records=records)
    save_manifest(manifest, out / MANIFEST_FILENAME)
    return manifest
