"""Durable file writes: the one way a run persists bytes.

Lint rule REP016 forbids raw ``open(..., "w")`` persistence outside
``repro.io`` and ``repro.ingest``; every such write goes through
:func:`atomic_write_bytes`.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write a file so readers see the old content or the new — never half.

    The payload lands in a sibling temp file, is fsynced, and is renamed
    over the target.  ``os.replace`` is atomic on POSIX and Windows, so a
    crash at any instant leaves either the previous file or the complete
    new one.  A write, fsync or rename that raises (a full disk, say)
    removes the temp file and re-raises; the target is untouched.
    """
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with temp.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # gone already after a replace
    return path
