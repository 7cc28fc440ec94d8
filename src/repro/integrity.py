"""The one integrity primitive: content digests and atomic file replace.

Every checksum the system records or verifies — memo blobs and keys,
shared-store records, sweep manifests and artifacts, profile history
records, the serving ledger — is :func:`digest`; every file the system
later reads back is rewritten through :func:`write_atomic`, so a kill
mid-write leaves the previous complete file, never a torn one.  The
``integrity-primitive`` analysis rule keeps ``hashlib`` and renames out
of every other module.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

__all__ = ["digest", "write_atomic"]


def digest(*parts: bytes, size: int = 16) -> bytes:
    """BLAKE2b digest (``size`` bytes) over ``parts`` in order."""
    h = hashlib.blake2b(digest_size=size)
    for part in parts:
        h.update(part)
    return h.digest()


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text``: write a sibling ``.tmp``, then
    rename it over the target."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
