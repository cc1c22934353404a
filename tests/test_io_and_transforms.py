"""Durable writes: ``atomic_write_bytes`` under a failing disk."""

import errno
import os

import pytest

from repro.io import atomic_write_bytes


class TestAtomicWrite:
    def test_failed_fsync_keeps_the_old_bytes_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.bin"
        target.write_bytes(b"old")

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]
