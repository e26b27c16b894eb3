"""Append-only line files: the audit log and the file state ledger.

One handle is opened, on the first append, and kept; each line is written
with its newline in one unbuffered ``write``.  A write that fails, or writes
only part of the line, may have left a torn tail on disk, so the file
refuses every later append: a fresh owner must reopen the file and verify
its tail before anything is chained onto it.

The handle is bound to the file's inode when it opens, so a file renamed or
rotated away under a running owner keeps receiving its lines.
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import Optional


class AppendOnlyFile:
    """One kept append handle on a file of lines; nothing of what it wrote is
    kept in memory.  The handle closes when this object is collected.  Its
    owner serializes appends under its own lock."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None
        self._failure: Optional[str] = None

    def append(self, line: bytes) -> None:
        """Write ``line``, which ends in its newline, in one write.

        Raises OSError when the file cannot be opened (nothing was written,
        so a later append may try again), and on a failed or short write,
        after which every append raises.
        """
        if self._failure is not None:
            raise OSError(f"{self.path} refuses appends after a failed write ({self._failure})")
        if self._handle is None:
            self._handle = open(self.path, "ab", buffering=0)
            weakref.finalize(self, self._handle.close)
        try:
            written = self._handle.write(line)
            if written != len(line):
                raise OSError(f"short write: {written} of {len(line)} bytes")
        except OSError as exc:
            self._failure = str(exc)
            self._handle.close()
            raise
