"""File I/O: atomic output, and the one CSV table format asdkit reads and writes.

A file is written to ``<path>.tmp`` and renamed over ``path`` only once the
write has finished, so a reader never sees a half-written file and a failed
write leaves an existing ``path`` as it was.

Every CSV table (manifest, score CSV, errors CSV, loss history, report,
reference table) is a header line, then rows with the header's field count.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from contextlib import contextmanager, suppress

import yaml

from .errors import ConfigError


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` on success.

    If the body raises, the temp file is removed. An OSError (missing
    directory, no permission, full disk) becomes a ConfigError.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def remove_stale(path) -> None:
    """Remove a previous run's output at path, if any; an OSError is a ConfigError."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ConfigError(f"cannot remove stale {path}: {exc}") from exc


def make_dir(path) -> None:
    """mkdir -p, with an OSError (say, path is a file) as a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def write_yaml(path, payload: dict) -> None:
    with atomic_write(path) as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)


def write_table(path, header, rows) -> None:
    """Write a CSV table atomically: the header, then each row of fields."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, what: str, columns) -> list[tuple[int, dict[str, str]]]:
    """The rows of a CSV table as (line number, {column: field}), blank lines skipped.

    A ConfigError names the file when it cannot be read, when its header
    lacks one of columns or names a column twice, or when a row's field
    count is not the header's.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not set(columns) <= set(header):
                raise ConfigError(f"{path}: {what} needs columns {sorted(columns)}")
            repeated = sorted(name for name, n in Counter(header).items() if n > 1)
            if repeated:
                raise ConfigError(f"{path}: {what} header repeats columns {repeated}")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ConfigError(f"{path} line {reader.line_num}: {len(fields)} "
                                      f"fields, the header has {len(header)}")
                rows.append((reader.line_num, dict(zip(header, fields))))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    return rows
