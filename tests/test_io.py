from __future__ import annotations

import ast
import csv
import io
from pathlib import Path

import pytest

import asdkit
from asdkit._io import atomic_write, read_table, write_table
from asdkit.errors import ConfigError

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
            # os.replace(a, b), a bare replace(a, b) imported from os, or
            # Path.replace(target); str.replace takes two args, and
            # dataclasses.replace one plus keywords
            if isinstance(func, ast.Name):
                if len(node.args) == 2:
                    found.append(node.lineno)
            elif ((isinstance(func.value, ast.Name) and func.value.id == "os")
                  or (len(node.args) == 1 and not node.keywords)):
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
    ("replace(tmp, path)", True),
    ("rename(tmp, path)", True),
    ("name.replace('_', '-')", False),
    ("replace(config, seed=3)", False),
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


def test_write_table_bytes_equal_csv_writer(tmp_path):
    header = ["clip_path", "score", "note"]
    rows = [["a.wav", "0.1", ""], ["b,c.wav", "2.5", 'say "hi"'], ["d.wav", "", "x\ny"]]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    write_table(tmp_path / "t.csv", header, iter(rows))
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()


def test_read_table_rows_with_line_numbers_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n\n\n4,,6\n")
    assert read_table(path, "table", ["c", "a"]) == [
        (2, {"a": "1", "b": "2", "c": "3"}), (5, {"a": "4", "b": "", "c": "6"})]


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n1,2,3\n4,5\n", "t.csv line 3: 2 fields, the header has 3"),
    ("a,b,c\n1,2,3,4\n", "t.csv line 2: 4 fields, the header has 3"),
    ("a,c\n1,3\n", "t.csv: table needs columns ['a', 'b']"),
    ("", "t.csv: table needs columns ['a', 'b']"),
], ids=["short-row", "long-row", "missing-column", "empty-file"])
def test_read_table_rejects_a_malformed_table(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
        read_table(path, "table", ["a", "b"])


def test_read_table_of_an_unreadable_file_names_it(tmp_path):
    with pytest.raises(ConfigError, match=f"cannot read table {tmp_path}"):
        read_table(tmp_path, "table", ["a"])


def _imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_csv_is_read_and_written_only_in_io():
    users = [path.name for path in sorted(SRC.glob("*.py"))
             if "csv" in _imported_modules(path.read_text())]
    assert users == ["_io.py"]
