"""The WAV reader and writer in dsp, with scipy.io.wavfile as the oracle."""

from __future__ import annotations

import io
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from asdkit.dsp import read_wav, wav_num_samples, write_wav
from asdkit.errors import ChannelCountError, EmptyAudioError, WavFormatError

SR = 16000
PCM, FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# sub-format GUID {tag-0000-0010-8000-00AA00389B71} after its u32 tag
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
SRC = Path(__file__).parents[1] / "src"


def chunk(name: bytes, payload: bytes) -> bytes:
    """A RIFF chunk: id, size, payload and the pad byte an odd size needs."""
    return name + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt(tag: int, bits: int, sub_tag: int | None = None, channels: int = 1,
        rate: int = SR) -> bytes:
    """A fmt chunk; with sub_tag, a WAVE_FORMAT_EXTENSIBLE one naming it."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if sub_tag is not None:
        body += struct.pack("<HHII", 22, bits, 0x4, sub_tag) + GUID_TAIL
    return chunk(b"fmt ", body)


def pcm16(n: int = 1000) -> np.ndarray:
    x = np.random.default_rng(n).integers(-32768, 32768, n).astype(np.int16)
    x[:2] = (-32768, 32767)[:n]  # both full-scale ends
    return x


def float32(n: int = 1000) -> np.ndarray:
    return np.random.default_rng(n).standard_normal(n).astype(np.float32)


def data(samples: np.ndarray) -> bytes:
    return chunk(b"data", samples.astype(samples.dtype.newbyteorder("<")).tobytes())


def scipy_bytes(samples: np.ndarray) -> bytes:
    out = io.BytesIO()
    wavfile.write(out, SR, samples)
    return out.getvalue()


LIST_INFO = chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"asdkit")

ORACLE_FILES = {
    "int16": scipy_bytes(pcm16()),
    "float32": scipy_bytes(float32()),
    "float64": scipy_bytes(np.random.default_rng(5).standard_normal(999)),
    "extensible-pcm": riff(fmt(EXTENSIBLE, 16, PCM), data(pcm16())),
    "extensible-float": riff(fmt(EXTENSIBLE, 32, FLOAT), data(float32())),
    "list-before-data": riff(fmt(PCM, 16), LIST_INFO, data(pcm16())),
    "odd-unknown-chunk": riff(fmt(PCM, 16), chunk(b"abcd", b"xyz"), data(pcm16())),
    "chunk-after-data": riff(fmt(PCM, 16), data(pcm16(1001)), LIST_INFO),
}


@pytest.mark.parametrize("name", ORACLE_FILES)
def test_read_wav_returns_scipys_samples(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(ORACLE_FILES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about chunks it skips
        rate, expected = wavfile.read(path)
    if expected.dtype == np.int16:
        expected = expected / 32768.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clip = read_wav(path)
    assert clip.samples.dtype == np.float64
    assert np.array_equal(clip.samples, expected)
    assert clip.sample_rate_hz == rate == SR
    assert wav_num_samples(path) == expected.size


@pytest.mark.parametrize("n", [1, 2, 160000])
def test_write_wav_matches_scipy_byte_for_byte(tmp_path, n):
    samples = pcm16(n)
    write_wav(tmp_path / "clip.wav", samples, SR)
    assert (tmp_path / "clip.wav").read_bytes() == scipy_bytes(samples)
    assert not list(tmp_path.glob("*.tmp"))


def test_write_wav_rejects_what_is_not_mono_int16(tmp_path):
    for samples in (np.zeros(4), np.zeros((4, 2), dtype=np.int16)):
        with pytest.raises(ValueError, match="mono int16"):
            write_wav(tmp_path / "clip.wav", samples, SR)
    assert not list(tmp_path.iterdir())


def read_both(path):
    """Each reader's sample count, or None where it raises WavFormatError.

    Non-finite samples, which only read_wav sees, read as "non-finite".
    """
    counts = []
    for reader in (lambda p: read_wav(p).num_samples, wav_num_samples):
        try:
            counts.append(reader(path))
        except WavFormatError as exc:
            counts.append("non-finite" if "non-finite" in str(exc) else None)
    return counts


def test_cut_data_chunk_is_rejected_by_both_readers(tmp_path):
    path = tmp_path / "cut.wav"
    path.write_bytes(riff(fmt(PCM, 16), data(pcm16(20000)))[:-1000])
    for reader in (read_wav, wav_num_samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WavFormatError,
                               match="declares 40000 bytes, 39000 present"):
                reader(path)


def test_file_cut_after_its_header_was_read_is_rejected(tmp_path, monkeypatch):
    path = tmp_path / "cut.wav"
    path.write_bytes(riff(fmt(PCM, 16), data(pcm16(100)))[:-50])
    stat = os.fstat  # the header check sees the size before the cut
    monkeypatch.setattr(os, "fstat",
                        lambda fd: SimpleNamespace(st_size=stat(fd).st_size + 50))
    with pytest.raises(WavFormatError, match="declares 200 bytes, 150 read"):
        read_wav(path)


VALID = riff(fmt(PCM, 16), data(pcm16(8)))

MALFORMED = {
    "RIFX": b"RIFX" + VALID[4:],
    "RF64": b"RF64" + VALID[4:],
    "not-WAVE": VALID[:8] + b"AVI " + VALID[12:],
    "cut-header": VALID[:30],
    "no-fmt-chunk": riff(data(pcm16(8))),
    "no-data-chunk": riff(fmt(PCM, 16), LIST_INFO),
    "data-before-fmt": riff(data(pcm16(8)), fmt(PCM, 16)),
    "short-fmt-chunk": riff(chunk(b"fmt ", struct.pack("<HHIIH", PCM, 1, SR, 2 * SR, 2)),
                            data(pcm16(8))),
    "zero-rate": riff(fmt(PCM, 16, rate=0), data(pcm16(8))),
    "half-a-sample": riff(fmt(PCM, 16), chunk(b"data", b"\0\0\0")),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_wav_is_a_wav_format_error_naming_the_file(tmp_path, name):
    path = tmp_path / "bad.wav"
    path.write_bytes(MALFORMED[name])
    for reader in (read_wav, wav_num_samples):
        with pytest.raises(WavFormatError, match=r"^not a readable WAV file: .*bad\.wav \("):
            reader(path)


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                         ids=["missing", "directory"])
def test_unopenable_path_is_a_wav_format_error(tmp_path, make):
    path = tmp_path / "clip.wav"
    make(path)
    for reader in (read_wav, wav_num_samples):
        with pytest.raises(WavFormatError, match="not a readable WAV file"):
            reader(path)


@pytest.mark.parametrize("contents, error", [
    (riff(fmt(PCM, 16, channels=2), data(pcm16(8))), ChannelCountError),
    (riff(fmt(PCM, 16, channels=0), data(pcm16(8))), ChannelCountError),
    (riff(fmt(PCM, 16), chunk(b"data", b"")), EmptyAudioError),
    (riff(fmt(PCM, 8), data(np.zeros(8, dtype=np.uint8))), WavFormatError),
    (riff(fmt(PCM, 32), data(np.zeros(8, dtype=np.int32))), WavFormatError),
    (riff(fmt(FLOAT, 16), data(pcm16(8))), WavFormatError),
    (riff(fmt(EXTENSIBLE, 16, 0x0002), data(pcm16(8))), WavFormatError),  # ADPCM
], ids=["stereo", "no-channels", "empty", "pcm8", "pcm32", "float16", "extensible-adpcm"])
def test_unsupported_layout_gives_the_same_error_from_both_readers(tmp_path, contents,
                                                                   error):
    path = tmp_path / "clip.wav"
    path.write_bytes(contents)
    for reader in (read_wav, wav_num_samples):
        with pytest.raises(error):
            reader(path)


# ---------------------------------------------------------------------------
# properties: any bytes give WavFormatError or a sample count both readers agree on

HEADER = riff(fmt(EXTENSIBLE, 16, PCM), LIST_INFO, data(pcm16(8)))


def assert_one_verdict(path):
    read, counted = read_both(path)  # anything but a WavFormatError propagates
    assert read == counted or (read == "non-finite" and isinstance(counted, int))


def test_every_strict_prefix_of_a_valid_file_is_rejected(tmp_path):
    path = tmp_path / "clip.wav"
    for end in range(len(HEADER)):
        path.write_bytes(HEADER[:end])
        assert read_both(path) == [None, None], end
    path.write_bytes(HEADER)
    assert read_both(path) == [8, 8]


@given(position=st.integers(0, 63), value=st.integers(0, 255))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_flipped_header_byte_gives_one_verdict(tmp_path, position, value):
    path = tmp_path / "clip.wav"
    path.write_bytes(HEADER[:position] + bytes([value]) + HEADER[position + 1:])
    assert_one_verdict(path)


@given(contents=st.one_of(st.binary(max_size=120),
                          st.binary(max_size=120).map(lambda b: HEADER[:12] + b),
                          st.binary(max_size=120).map(lambda b: HEADER[:36] + b)))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_bytes_give_one_verdict(tmp_path, contents):
    path = tmp_path / "clip.wav"
    path.write_bytes(contents)
    assert_one_verdict(path)


def test_cli_import_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, asdkit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        check=True, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"
