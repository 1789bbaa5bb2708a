"""Synthetic machine-sound generator for desk-scale end-to-end runs.

Each synthetic "machine" is a randomized harmonic stack (3-5 partials with a
1/h amplitude falloff) amplitude-modulated at a few Hz over a pink-ish noise
bed. The target domain shifts the machine's pitch by a few percent and raises
the noise level. Anomalous clips always carry a train of transient clicks and
sometimes an additional detuned harmonic, so they are detectable both in the
waveform (spiky derivative) and in log-mel space (broadband transients).

Generation is fully deterministic: every clip draws from its own RNG stream
keyed by (seed, machine, split, domain, condition, index), so the same seed
reproduces a byte-identical tree no matter the generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from ._io import make_dir
from .config import from_mapping, read_yaml
from .dataset import ClipRecord, DatasetManifest, save_manifest, MANIFEST_FILENAME
from .errors import ConfigError

_SPLIT_CODE = {"train": 1, "test": 2, "supplementary": 3}
_DOMAIN_CODE = {"source": 1, "target": 2}
_COND_CODE = {"normal": 1, "anomaly": 2, "clean": 3, "noise": 4}


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
    sample_rate: int = 16000
    clip_seconds: float = 2.0
    machines: list[str] = field(default_factory=lambda: ["widget"])
    counts: SynthCounts = field(default_factory=SynthCounts)
    f0_range_hz: tuple[float, float] = (80.0, 220.0)
    harmonics_range: tuple[int, int] = (3, 5)
    am_rate_range_hz: tuple[float, float] = (2.0, 8.0)
    am_depth_range: tuple[float, float] = (0.2, 0.5)
    source_snr_db: float = 24.0
    target_snr_delta_db: float = -6.0
    target_f0_shift_pct: float = 3.0
    clicks_per_second: float = 4.0
    click_amp: float = 0.9
    detune_probability: float = 0.5
    detune_pct: float = 8.0

    def validate(self) -> None:
        c = self.counts
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.clip_seconds <= 0:
            raise ConfigError(f"clip_seconds must be positive, got {self.clip_seconds}")
        if not self.machines:
            raise ConfigError("spec declares no machines")
        counts = [c.source_train, c.target_train, c.test_normal_source,
                  c.test_normal_target, c.test_anomaly_source,
                  c.test_anomaly_target, c.supplementary]
        if any(n < 0 for n in counts):
            raise ConfigError(f"negative clip counts: {c}")
        if sum(counts) == 0:
            raise ConfigError("spec produces zero clips")
        if not (self.harmonics_range[0] >= 1
                and self.harmonics_range[0] <= self.harmonics_range[1]):
            raise ConfigError(f"bad harmonics_range {self.harmonics_range}")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        spec = from_mapping(cls, data, "spec")
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


def _machine_profile(spec: SynthSpec, seed: int, machine_index: int) -> _MachineProfile:
    rng = np.random.default_rng([seed, machine_index])
    f0 = rng.uniform(*spec.f0_range_hz)
    n_harm = int(rng.integers(spec.harmonics_range[0], spec.harmonics_range[1] + 1))
    amps = 0.2 / np.arange(1, n_harm + 1) * rng.uniform(0.8, 1.2, size=n_harm)
    am_rate = rng.uniform(*spec.am_rate_range_hz)
    am_depth = rng.uniform(*spec.am_depth_range)
    shift = 1.0 + np.sign(rng.standard_normal()) * spec.target_f0_shift_pct / 100.0
    return _MachineProfile(f0_hz=f0, harmonic_amps=amps, am_rate_hz=am_rate,
                           am_depth=am_depth, target_f0_factor=shift)


def _pink_noise(n: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS noise with a 1/sqrt(f) spectral tilt above 20 Hz."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    spectrum *= 1.0 / np.sqrt(np.maximum(freqs, 20.0))
    noise = np.fft.irfft(spectrum, n)
    return noise / max(np.sqrt(np.mean(noise**2)), 1e-12)


def _tone(spec: SynthSpec, profile: _MachineProfile, domain: str,
          rng: np.random.Generator, detuned_harmonic: int | None = None) -> np.ndarray:
    n = int(round(spec.clip_seconds * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    f0 = profile.f0_hz * (profile.target_f0_factor if domain == "target" else 1.0)
    f0 *= 1.0 + rng.uniform(-0.005, 0.005)  # per-clip pitch jitter
    x = np.zeros(n)
    for h, amp in enumerate(profile.harmonic_amps, start=1):
        mult = float(h)
        if detuned_harmonic is not None and h == detuned_harmonic:
            mult *= 1.0 + spec.detune_pct / 100.0
        x += amp * np.sin(2.0 * np.pi * f0 * mult * t + rng.uniform(0, 2 * np.pi))
    envelope = 1.0 + profile.am_depth * np.sin(
        2.0 * np.pi * profile.am_rate_hz * t + rng.uniform(0, 2 * np.pi))
    return x * envelope


def _add_clicks(x: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    n = x.size
    n_clicks = 1 + rng.poisson(spec.clicks_per_second * spec.clip_seconds)
    out = x.copy()
    for _ in range(n_clicks):
        pos = int(rng.uniform(0.02, 0.95) * n)
        tau = rng.uniform(0.5e-3, 2.0e-3) * spec.sample_rate
        length = min(int(8 * tau), n - pos)
        amp = spec.click_amp * rng.uniform(0.75, 1.25) * (1 if rng.random() < 0.5 else -1)
        out[pos:pos + length] += amp * np.exp(-np.arange(length) / tau)
    return out


def _snr_db(spec: SynthSpec, domain: str) -> float:
    return spec.source_snr_db + (spec.target_snr_delta_db if domain == "target" else 0.0)


def _render_clip(spec: SynthSpec, profile: _MachineProfile, domain: str,
                 condition: str, rng: np.random.Generator) -> np.ndarray:
    detune = None
    if condition == "anomaly" and rng.random() < spec.detune_probability:
        detune = int(rng.integers(2, len(profile.harmonic_amps) + 1))
    tone = _tone(spec, profile, domain, rng, detuned_harmonic=detune)
    tone_rms = np.sqrt(np.mean(tone**2))
    noise = _pink_noise(tone.size, spec.sample_rate, rng)
    x = tone + noise * tone_rms * 10.0 ** (-_snr_db(spec, domain) / 20.0)
    if condition == "anomaly":
        x = _add_clicks(x, spec, rng)
    peak = np.max(np.abs(x))
    if peak > 0.98:
        x = x * (0.98 / peak)
    return x


def _write_pcm16(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    data = np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, sample_rate, data)


def synth_generate(spec: SynthSpec, out_dir, seed: int) -> DatasetManifest:
    """Render the dataset tree under out_dir and write its manifest.csv.

    Deterministic per seed: repeated runs produce byte-identical trees.
    """
    spec.validate()
    out = Path(out_dir)
    make_dir(out)
    records: list[ClipRecord] = []
    c = spec.counts
    for m_idx, machine in enumerate(spec.machines):
        profile = _machine_profile(spec, seed, m_idx)
        plan = [
            ("train", "source", "normal", c.source_train),
            ("train", "target", "normal", c.target_train),
            ("test", "source", "normal", c.test_normal_source),
            ("test", "target", "normal", c.test_normal_target),
            ("test", "source", "anomaly", c.test_anomaly_source),
            ("test", "target", "anomaly", c.test_anomaly_target),
        ]
        for split, domain, condition, count in plan:
            subdir = out / machine / split
            if count:
                subdir.mkdir(parents=True, exist_ok=True)
            for i in range(count):
                rng = np.random.default_rng(
                    [seed, m_idx, _SPLIT_CODE[split], _DOMAIN_CODE[domain],
                     _COND_CODE[condition], i])
                samples = _render_clip(spec, profile, domain, condition, rng)
                name = f"section_00_{domain}_{split}_{condition}_{i:04d}.wav"
                _write_pcm16(subdir / name, samples, spec.sample_rate)
                records.append(ClipRecord(
                    machine_type=machine, section="00", domain=domain,
                    split=split, condition=condition,
                    path=str(Path(machine) / split / name)))
        # supplementary clips alternate clean machine sound and noise-only
        supdir = out / machine / "supplementary"
        if c.supplementary:
            supdir.mkdir(parents=True, exist_ok=True)
        for i in range(c.supplementary):
            kind = "clean" if i % 2 == 0 else "noise"
            rng = np.random.default_rng(
                [seed, m_idx, _SPLIT_CODE["supplementary"], 1, _COND_CODE[kind], i])
            if kind == "clean":
                samples = _tone(spec, profile, "source", rng)
                name = f"section_00_source_supplementary_normal_{i:04d}_aux_clean.wav"
                condition = "normal"
            else:
                samples = 0.05 * _pink_noise(
                    int(round(spec.clip_seconds * spec.sample_rate)),
                    spec.sample_rate, rng)
                name = f"section_00_source_supplementary_{i:04d}_aux_noise.wav"
                condition = "unknown"
            peak = np.max(np.abs(samples))
            if peak > 0.98:
                samples = samples * (0.98 / peak)
            _write_pcm16(supdir / name, samples, spec.sample_rate)
            records.append(ClipRecord(
                machine_type=machine, section="00", domain="source",
                split="supplementary", condition=condition,
                path=str(Path(machine) / "supplementary" / name),
                attributes={"aux": kind}))
    records.sort(key=lambda r: r.path)
    manifest = DatasetManifest(records=records, role="development")
    save_manifest(manifest, out / MANIFEST_FILENAME)
    return manifest
