"""Crash-consistent file writes shared by every durable-artifact layer.

The paper's thesis -- reliable systems out of unreliable parts -- applies
to our own infrastructure too: a metrics export, replay manifest, or
campaign checkpoint that a crash leaves half-written is worse than one
that was never written, because downstream consumers (``replay``,
checkpoint resume, the service's result cache) would read a torn
document and either choke or, worse, trust it.  Every durable write in this repository
therefore goes through one primitive:

    write to a temp file in the same directory
    -> flush + fsync the file
    -> atomically rename over the destination
    -> fsync the directory entry

so at every instant the destination path holds either the complete old
contents or the complete new contents, never a mixture.  The rename is
atomic on POSIX and same-volume by construction (the temp file lives
next to its destination); the directory fsync makes the rename itself
durable across power loss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_dir",
]


def fsync_dir(directory: Union[str, Path]) -> None:
    """Flush a directory entry to stable storage (best-effort).

    Needed after a rename so the new directory entry survives power
    loss.  Platforms that cannot open directories (Windows) or exotic
    filesystems that refuse to fsync them degrade silently: the write
    is still atomic with respect to process crashes either way.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename).

    On any failure the destination is untouched and the temp file is
    removed; the caller sees the original exception.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, str(path))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: Union[str, Path],
    document: Any,
    indent: int = 2,
    sort_keys: bool = True,
) -> None:
    """Atomically replace ``path`` with a JSON rendering of ``document``.

    Serialisation happens *before* the temp file is opened, so an
    unserialisable document never disturbs the destination or leaves a
    temp file behind.
    """
    text = json.dumps(document, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
