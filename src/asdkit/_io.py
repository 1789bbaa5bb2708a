"""Atomic file output: every artifact, report and config echo is written here.

A file is written to ``<path>.tmp`` and renamed over ``path`` only once the
write has finished, so a reader never sees a half-written file and a failed
write leaves an existing ``path`` as it was.
"""

from __future__ import annotations

import os
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


def write_yaml(path, payload: dict) -> None:
    with atomic_write(path) as fh:
        yaml.safe_dump(payload, fh, sort_keys=False)
