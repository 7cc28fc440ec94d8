"""Shared cross-process memo tier: a file-backed L2 under :mod:`memo`.

The in-process memo regions die with their process, so every ``--jobs``
worker and every separate runner invocation recomputes entries its
siblings already paid for.  This module keeps a second, *shared* tier
on disk so hit rates survive process boundaries: lookups in the blob
regions fall through process-local -> shared, and misses publish the
freshly computed blob to both.

Store layout (one directory, any number of concurrent processes)::

    <dir>/segments/<writer>.seg   append-only value blobs, one writer
                                  per process (never rewritten in place)
    <dir>/index/<writer>.json     that writer's entry catalogue,
                                  republished atomically via
                                  :func:`repro.integrity.write_atomic`

* **Single-writer segments** — each process appends only to its own
  segment file, so there is no cross-process write contention and no
  file locking anywhere.
* **Lock-free readers** — a reader lists ``index/``, loads whatever
  catalogues exist, and reads blobs at the recorded offsets.  An index
  is only ever replaced by rename, so a reader sees the old complete
  catalogue or the new complete catalogue, never a torn one.
* **Checksummed entries** — every record carries the
  :func:`repro.integrity.digest` of its pickled bytes; a read re-hashes before unpickling.  A corrupted
  or truncated segment entry is *detected and dropped, never served* —
  the failure lands in :func:`integrity_counters` and the caller
  recomputes (and republishes) the value.
* **Canonical keys** — entries are addressed by
  :func:`key_digest`: the in-process memo key is normalised
  (numpy scalars to Python scalars, sequences to tuples) and pickled
  with a *pinned* protocol, so the same problem hashes identically in
  every worker regardless of interpreter defaults.

The operand-array regions (``memo.ARRAY_REGIONS`` — ``problem`` /
``format``) never reach this tier: their values are hundreds of MB and
their keys embed RNG state, so sharing them would trade a cheap local
rebuild for massive segment churn.  :func:`memo.trim` and the local
FIFO eviction only touch the in-process stores — shared segments are
reclaimed exclusively by the explicit :func:`compact`.

Control surface: ``REPRO_MEMO_SHARED`` (default **off**; ``1`` enables),
``REPRO_MEMO_SHARED_DIR`` (default ``.repro-memo`` under the working
directory), :func:`set_enabled` / :func:`set_dir` overrides, and
``python -m repro.cli memo`` for inspection/verify/compact.  Outputs
are bit-identical with the tier on or off: the shared tier serves only
pickled blobs of values the local tier would have recomputed.
"""

from __future__ import annotations

import atexit
import io
import json
import os
import pickle
import struct
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import envgates, integrity
from ..obs import tracing as _tracing

__all__ = [
    "enabled",
    "set_enabled",
    "store_dir",
    "set_dir",
    "key_digest",
    "lookup",
    "publish",
    "flush",
    "reset",
    "counters",
    "snapshot",
    "delta",
    "integrity_counters",
    "integrity_failures",
    "stats",
    "verify_store",
    "compact",
    "tamper_entry",
    "SHAREABLE_REGIONS",
]

_DEFAULT_DIR = ".repro-memo"

#: pickle protocol pinned for key canonicalisation — the key bytes (and
#: therefore the digest) must not depend on the interpreter's default
_KEY_PROTOCOL = 4

#: regions eligible for the shared tier (the checksummed blob regions;
#: the RNG-keyed operand regions are excluded by design — see module
#: docstring and docs/ROBUSTNESS.md)
SHAREABLE_REGIONS = frozenset({"stats", "latency", "trace", "suite", "plan"})

#: per-record header: magic, key digest (16 raw bytes), value digest
#: (16 raw bytes), value length
_RECORD_MAGIC = b"RMS1"
_HEADER = struct.Struct("<4s16s16sI")

#: publish the index after this many unpublished records (plus on
#: :func:`flush` and at interpreter exit)
_PUBLISH_BATCH = 32

#: minimum seconds between on-miss index rescans (concurrent producers
#: become visible at this granularity; a fresh process always scans)
_REFRESH_S = 0.25

_lock = threading.Lock()
_enabled_override: Optional[bool] = None
_dir_override: Optional[Path] = None


def enabled() -> bool:
    """Whether the shared tier is active (override > env > default off)."""
    if _enabled_override is not None:
        return _enabled_override
    return envgates.flag("REPRO_MEMO_SHARED")


def set_enabled(flag: Optional[bool]) -> None:
    """Force the tier on/off, or defer to ``REPRO_MEMO_SHARED`` (None)."""
    global _enabled_override
    _enabled_override = flag


def store_dir() -> Path:
    """The store directory (override > env > ``.repro-memo``)."""
    if _dir_override is not None:
        return _dir_override
    return Path(envgates.raw("REPRO_MEMO_SHARED_DIR") or _DEFAULT_DIR)


def set_dir(path: Optional[os.PathLike]) -> None:
    """Point the tier at ``path`` (None defers to the env/default).

    Also drops the in-memory view and writer so the next operation
    binds to the new directory.
    """
    global _dir_override
    with _lock:
        _dir_override = Path(path) if path is not None else None
        _teardown_locked()


# --------------------------------------------------------------------- #
# canonical keys
# --------------------------------------------------------------------- #
def _normalise(obj: Any) -> Any:
    """Reduce a memo key to pickle-stable primitives.

    Numpy scalars become Python scalars, sequences become tuples, and
    mappings become sorted tuples; anything else (ndarray payloads,
    live objects) raises :class:`TypeError` — such keys stay local.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, list)):
        return tuple(_normalise(x) for x in obj)
    if isinstance(obj, frozenset):
        return ("fs",) + tuple(sorted(map(repr, obj)))
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _normalise(v)) for k, v in obj.items()))
    raise TypeError(f"no canonical shared-memo key for {type(obj).__qualname__}")


def key_digest(region: str, key: Any) -> Optional[bytes]:
    """16-byte canonical digest of ``(region, key)``; ``None`` when the
    key cannot be normalised (the entry then stays process-local)."""
    try:
        norm = _normalise(key)
    except TypeError:
        return None
    return integrity.digest(pickle.dumps((region, norm), protocol=_KEY_PROTOCOL))


# --------------------------------------------------------------------- #
# state: per-process writer + read view + counters
# --------------------------------------------------------------------- #
class _Entry:
    __slots__ = ("region", "segment", "offset", "length", "digest")

    def __init__(self, region: str, segment: str, offset: int, length: int,
                 digest: bytes) -> None:
        self.region = region
        self.segment = segment
        self.offset = offset
        self.length = length
        self.digest = digest


class _Writer:
    """This process's single-writer segment + index publisher."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.writer_id = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.segment_name = f"{self.writer_id}.seg"
        self.path = root / "segments" / self.segment_name
        self.path.parent.mkdir(parents=True, exist_ok=True)
        (root / "index").mkdir(parents=True, exist_ok=True)
        self._fh: Optional[io.BufferedWriter] = None
        self._offset = 0
        #: [key_hex, region, offset, length, value_digest_hex] rows, in
        #: publish order (the on-disk index is exactly this list)
        self.entries: List[List[object]] = []
        self._unpublished = 0

    def append(self, region: str, key: bytes, blob: bytes) -> _Entry:
        if self._fh is None:
            self._fh = open(self.path, "ab")
            self._offset = self._fh.tell()
        vdigest = integrity.digest(blob)
        header = _HEADER.pack(_RECORD_MAGIC, key, vdigest, len(blob))
        self._fh.write(header)
        self._fh.write(blob)
        self._fh.flush()
        offset = self._offset + _HEADER.size
        self._offset += _HEADER.size + len(blob)
        self.entries.append(
            [key.hex(), region, offset, len(blob), vdigest.hex()])
        self._unpublished += 1
        if self._unpublished >= _PUBLISH_BATCH:
            self.publish_index()
        return _Entry(region, self.segment_name, offset, len(blob), vdigest)

    def publish_index(self) -> None:
        """Atomically replace this writer's catalogue."""
        if not self._unpublished:
            return
        doc = {"writer": self.writer_id, "segment": self.segment_name,
               "entries": self.entries}
        integrity.write_atomic(
            self.root / "index" / f"{self.writer_id}.json", json.dumps(doc))
        self._unpublished = 0

    def close(self) -> None:
        self.publish_index()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


_writer: Optional[_Writer] = None
#: key digest (bytes) -> _Entry, built from the published indexes plus
#: this process's own (possibly unpublished) appends
_view: Dict[bytes, _Entry] = {}
_view_loaded = False
_last_refresh = 0.0
#: region -> [hits, misses, integrity]
_counters: Dict[str, List[int]] = {}
_atexit_registered = False


def _teardown_locked() -> None:
    global _writer, _view_loaded, _last_refresh
    if _writer is not None:
        _writer.close()
        _writer = None
    _view.clear()
    _view_loaded = False
    _last_refresh = 0.0


def reset() -> None:
    """Close the writer, drop the read view and zero every counter.

    In-memory only — the on-disk store is untouched (tests point
    :func:`set_dir` at a fresh directory instead)."""
    with _lock:
        _teardown_locked()
        _counters.clear()


def _counter(region: str) -> List[int]:
    c = _counters.get(region)
    if c is None:
        c = _counters[region] = [0, 0, 0]
    return c


def counters() -> Dict[str, Tuple[int, int]]:
    """``{region: (hits, misses)}`` of shared-tier lookups."""
    with _lock:
        return {r: (c[0], c[1]) for r, c in sorted(_counters.items())}


def snapshot() -> Tuple[int, int]:
    """Aggregate shared ``(hits, misses)`` across all regions."""
    with _lock:
        return (sum(c[0] for c in _counters.values()),
                sum(c[1] for c in _counters.values()))


def delta(since: Tuple[int, int]) -> Tuple[int, int]:
    """Shared ``(hits, misses)`` accrued since a prior :func:`snapshot`."""
    now = snapshot()
    return now[0] - since[0], now[1] - since[1]


def integrity_counters() -> Dict[str, int]:
    """``{region: corrupt entries detected (and never served)}``."""
    with _lock:
        return {r: c[2] for r, c in sorted(_counters.items()) if c[2]}


def integrity_failures() -> int:
    """Total corrupt shared entries detected since :func:`reset`."""
    with _lock:
        return sum(c[2] for c in _counters.values())


# --------------------------------------------------------------------- #
# read view
# --------------------------------------------------------------------- #
def _load_indexes_locked(root: Path) -> None:
    """Rebuild the key -> entry view from every published catalogue.

    Later catalogue rows win on digest collision (a republished entry —
    e.g. after a detected corruption — supersedes the stale one); this
    process's own appends are layered last since they are newest.
    """
    global _view_loaded, _last_refresh
    _view.clear()
    index_dir = root / "index"
    if index_dir.is_dir():
        for path in sorted(index_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
                segment = doc["segment"]
                for key_hex, region, offset, length, vdigest_hex in doc["entries"]:
                    _view[bytes.fromhex(key_hex)] = _Entry(
                        region, segment, int(offset), int(length),
                        bytes.fromhex(vdigest_hex))
            except (OSError, ValueError, KeyError, TypeError):
                continue  # unreadable catalogue: skip, never crash a reader
    if _writer is not None:
        for key_hex, region, offset, length, vdigest_hex in _writer.entries:
            _view[bytes.fromhex(key_hex)] = _Entry(
                region, _writer.segment_name, int(offset), int(length),
                bytes.fromhex(vdigest_hex))
    _view_loaded = True
    _last_refresh = time.monotonic()


def _read_blob(root: Path, entry: _Entry) -> Optional[bytes]:
    """Read and verify one record's bytes; ``None`` on any mismatch."""
    try:
        with open(root / "segments" / entry.segment, "rb") as fh:
            fh.seek(entry.offset)
            blob = fh.read(entry.length)
    except OSError:
        return None
    if len(blob) != entry.length or integrity.digest(blob) != entry.digest:
        return None
    return blob


# --------------------------------------------------------------------- #
# the lookup / publish surface (called by memo.memoise)
# --------------------------------------------------------------------- #
def lookup(region: str, key: bytes) -> Optional[bytes]:
    """Fetch the verified blob for ``key``, or ``None`` on miss.

    Counts a shared hit/miss per call; a checksum mismatch counts as an
    integrity failure *and* a miss (the caller recomputes — a corrupt
    entry is never served) and evicts the bad entry from the view so a
    republished value can take its place.
    """
    if region not in SHAREABLE_REGIONS:
        return None
    root = store_dir()
    with _lock:
        if not _view_loaded:
            _load_indexes_locked(root)
        entry = _view.get(key)
        if entry is None and time.monotonic() - _last_refresh > _REFRESH_S:
            _load_indexes_locked(root)
            entry = _view.get(key)
        c = _counter(region)
        if entry is None or entry.region != region:
            c[1] += 1
            return None
    if _tracing.enabled():
        with _tracing.span(f"memo.shared.read.{region}", bytes=entry.length):
            blob = _read_blob(root, entry)
    else:
        blob = _read_blob(root, entry)
    with _lock:
        c = _counter(region)
        if blob is None:
            c[2] += 1  # corrupt/truncated: detected, never served
            c[1] += 1
            _view.pop(key, None)
            return None
        c[0] += 1
    return blob


def publish(region: str, key: bytes, blob: bytes) -> bool:
    """Append one pickled value to this process's segment.

    Returns ``False`` (and writes nothing) for non-shareable regions or
    when the tier is unreachable; I/O errors never propagate into the
    compute path.
    """
    if region not in SHAREABLE_REGIONS:
        return False
    with _lock:
        global _writer, _atexit_registered
        try:
            if _writer is None:
                _writer = _Writer(store_dir())
                if not _atexit_registered:
                    atexit.register(flush)
                    _atexit_registered = True
            if _tracing.enabled():
                with _tracing.span(f"memo.shared.publish.{region}",
                                   bytes=len(blob)):
                    entry = _writer.append(region, key, blob)
            else:
                entry = _writer.append(region, key, blob)
            _view[key] = entry
            return True
        except OSError:
            return False


def flush() -> None:
    """Publish any unpublished index rows (cheap no-op otherwise).

    The runner calls this as each experiment finishes and the pool
    calls it after each worker task, so sibling processes see fresh
    entries without waiting for the batch threshold or process exit.
    """
    with _lock:
        if _writer is not None:
            try:
                _writer.publish_index()
            except OSError:
                pass


# --------------------------------------------------------------------- #
# maintenance: stats / verify / compact / tamper
# --------------------------------------------------------------------- #
def stats() -> Dict[str, Any]:
    """Store-wide inventory for ``cli memo``: per-region entry counts
    and bytes (live entries only), segment/writer counts and the bytes
    segments hold on disk (dead entries included until :func:`compact`)."""
    root = store_dir()
    with _lock:
        _load_indexes_locked(root)  # fresh inventory, not the cached view
        regions: Dict[str, Dict[str, int]] = {}
        for entry in _view.values():
            row = regions.setdefault(entry.region, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += entry.length
    seg_dir = root / "segments"
    segments = sorted(seg_dir.glob("*.seg")) if seg_dir.is_dir() else []
    index_dir = root / "index"
    writers = len(list(index_dir.glob("*.json"))) if index_dir.is_dir() else 0
    return {
        "dir": str(root),
        "regions": {r: regions[r] for r in sorted(regions)},
        "live_entries": len(_view),
        "live_bytes": sum(e.length for e in _view.values()),
        "segments": len(segments),
        "segment_bytes": sum(p.stat().st_size for p in segments),
        "writers": writers,
    }


def verify_store() -> Tuple[int, int]:
    """Re-read and re-hash every live entry; ``(ok, corrupt)`` counts."""
    root = store_dir()
    with _lock:
        _load_indexes_locked(root)
        entries = list(_view.items())
    ok = corrupt = 0
    for _key, entry in entries:
        if _read_blob(root, entry) is None:
            corrupt += 1
        else:
            ok += 1
    return ok, corrupt


def compact() -> Dict[str, int]:
    """Rewrite every live, checksum-valid entry into this process's
    fresh segment and delete the superseded segment/index files.

    This is the *only* reclamation path for shared segments —
    :func:`memo.trim` and the local FIFO eviction never touch them.
    Offline maintenance: run it while no sweep is writing the store
    (``python -m repro.cli memo --compact``).
    """
    root = store_dir()
    with _lock:
        _teardown_locked()
        _load_indexes_locked(root)
        live = list(_view.items())
    old_segments = {e.segment for _k, e in live}
    kept = dropped = 0
    for key, entry in live:
        blob = _read_blob(root, entry)
        if blob is None:
            dropped += 1  # corrupt on disk: compaction discards it
            continue
        publish(entry.region, key, blob)
        kept += 1
    flush()
    with _lock:
        own = _writer.segment_name if _writer is not None else None
        own_index = _writer.writer_id if _writer is not None else None
    removed = 0
    for seg in old_segments:
        if seg == own:
            continue
        try:
            (root / "segments" / seg).unlink(missing_ok=True)
            removed += 1
        except OSError:
            pass
    index_dir = root / "index"
    if index_dir.is_dir():
        for path in index_dir.glob("*.json"):
            if own_index is not None and path.stem == own_index:
                continue
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
    # rebuild the view from what survived
    with _lock:
        _load_indexes_locked(root)
    return {"kept": kept, "dropped_corrupt": dropped,
            "removed_segments": removed}


def tamper_entry(region: str, index: int = 0, flip_byte: int = 0) -> bool:
    """Corrupt one stored blob *on disk*, leaving its digest stale.

    Fault-injection/test hook (the shared-tier analog of
    :func:`memo.tamper_entry`): flips every bit of one byte of the
    ``index``-th live entry of ``region`` inside its segment file.
    Returns ``False`` when the region has no such entry.
    """
    root = store_dir()
    flush()
    with _lock:
        _load_indexes_locked(root)
        candidates = [e for e in _view.values() if e.region == region]
    if index >= len(candidates):
        return False
    entry = candidates[index]
    path = root / "segments" / entry.segment
    try:
        with open(path, "r+b") as fh:
            pos = entry.offset + (flip_byte % entry.length)
            fh.seek(pos)
            byte = fh.read(1)
            if not byte:
                return False
            fh.seek(pos)
            fh.write(bytes([byte[0] ^ 0xFF]))
    except OSError:
        return False
    return True
