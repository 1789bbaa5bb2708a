"""The README's code examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from asdkit.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def readme_python_block(section: str) -> str:
    """The first ```python block under the README heading `## <section>`."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.search(r"```python\n(.*?)```", text[start:], re.DOTALL)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def readme_shell_block(section: str) -> str:
    """The first ``` block under the README heading `## <section>`."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    match = re.search(r"```\n(.*?)```", text[start:], re.DOTALL)
    assert match, f"no code block under '## {section}'"
    return match.group(1)


def test_cli_walkthrough_parses():
    # parsed only: a renamed command, flag or mode fails here, nothing is run
    commands = [shlex.split(line)[1:] for line in
                readme_shell_block("CLI walkthrough").splitlines()
                if line.startswith("asdkit ")]
    assert [argv[0] for argv in commands] == ["synth", "train", "score", "score",
                                              "evaluate", "macs"]
    for argv in commands:
        build_parser().parse_args(argv)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    t = np.arange(2 * 16000) / 16000
    samples = 0.3 * np.sin(2 * np.pi * 440 * t) + 0.05 * rng.standard_normal(t.size)
    wavfile.write(tmp_path / "clip.wav", 16000, (samples * 32767).astype(np.int16))
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_python_block("Library use"), str(README), "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0
