from __future__ import annotations

import ast
from pathlib import Path

import pytest

import asdkit
from asdkit._io import atomic_write

SRC = Path(asdkit.__file__).parent


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_target_untouched_and_no_temp(tmp_path, existing):
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("half a row")
            raise RuntimeError("interrupted mid-write")
    assert not (tmp_path / "out.csv.tmp").exists()
    if existing:
        assert target.read_text() == "old contents\n"
    else:
        assert not target.exists()


def _file_writes(source: str) -> list[int]:
    """Line numbers of renames and write-mode opens that bypass atomic_write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name in ("replace", "rename"):
            # os.replace(a, b) or Path.replace(target); str.replace takes two args
            on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
            if on_os or (len(node.args) == 1 and not node.keywords):
                found.append(node.lineno)
        elif name == "open":
            # builtin open(file, mode); Path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[position] if len(node.args) > position else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, flagged", [
    ("os.replace(tmp, path)", True),
    ("tmp.replace(path)", True),
    ("open(p, 'w')", True),
    ("open(p, mode='wb', newline='')", True),
    ("open(p, mode)", True),
    ("Path(p).open('a')", True),
    ("p.write_bytes(b'')", True),
    ("name.replace('_', '-')", False),
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("wavfile.read(p, mmap=True)", False),
])
def test_write_detector(source, flagged):
    assert bool(_file_writes(source)) is flagged


def test_every_file_write_goes_through_atomic_write():
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name != "_io.py"
                 and (lines := _file_writes(path.read_text()))}
    assert offenders == {}
