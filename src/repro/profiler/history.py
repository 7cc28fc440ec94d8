"""Append-only, schema-validated run-history store.

Every profiled run — kernel sweeps from ``cli profile``, serving
summaries from ``cli serve --profile``, experiment sweeps from the
runner's ``--profile`` — lands as one JSON line in
``results/profile_history.jsonl``.  Records are keyed by a config
digest plus the git state at capture time, and each carries a
``digest`` (:func:`repro.integrity.digest`) over its deterministic
payload, so two consecutive runs of the same config are required to
append **bit-identical** payloads — the acceptance gate
``cli profile --smoke`` enforces.

The schema is deliberately small and checked in both directions:
:func:`validate_record` rejects unknown kinds, missing fields and
wrong digests, and :func:`append_record` refuses to write anything
that does not validate.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from .. import integrity
from ..obs import metrics as obs_metrics

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "payload_digest",
    "git_state",
    "make_record",
    "validate_record",
    "append_record",
    "load_history",
    "query",
]

SCHEMA_VERSION = 1

#: record kind -> required keys of its payload field
KINDS: Dict[str, List[str]] = {
    "kernel-profile": ["kernels"],
    "serving": ["per_tenant", "ladder_occupancy"],
    "experiment-sweep": ["experiments"],
}

#: envelope keys every record carries
_ENVELOPE = ["schema", "kind", "timestamp", "git", "config", "config_digest",
             "digest"]


def _canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def payload_digest(record: Dict[str, object]) -> str:
    """Hex digest over the record's deterministic payload.

    Timestamp, git state and the digest itself are excluded, so runs of
    the same config on the same tree produce the same digest — that is
    the bit-stability contract the smoke gate checks.
    """
    payload = {k: v for k, v in record.items()
               if k not in ("timestamp", "git", "digest")}
    return integrity.digest(_canonical(payload)).hex()


def git_state(repo: Optional[Path] = None) -> Dict[str, object]:
    """Current commit + dirty flag (``unknown`` outside a work tree)."""
    cwd = str(repo) if repo else None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip())
        return {"commit": commit, "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": False}


def make_record(kind: str, config: Dict[str, object],
                payload: Dict[str, object],
                timestamp: Optional[str] = None) -> Dict[str, object]:
    """Assemble and digest one history record.

    ``payload`` supplies the kind's required fields (see :data:`KINDS`);
    ``config`` is the run configuration the config digest is taken over.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown record kind {kind!r}; valid: {sorted(KINDS)}")
    missing = [k for k in KINDS[kind] if k not in payload]
    if missing:
        raise ValueError(f"{kind} payload missing fields: {missing}")
    record: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "timestamp": timestamp or datetime.now(timezone.utc).isoformat(),
        "git": git_state(),
        "config": config,
        "config_digest": integrity.digest(_canonical(config)).hex(),
    }
    record.update(payload)
    record["digest"] = payload_digest(record)
    return record


def validate_record(record: Dict[str, object]) -> List[str]:
    """Schema problems of one record (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    for key in _ENVELOPE:
        if key not in record:
            problems.append(f"missing envelope field {key!r}")
    if problems:
        return problems
    if record["schema"] != SCHEMA_VERSION:
        problems.append(f"unsupported schema version {record['schema']!r}")
    kind = record["kind"]
    if kind not in KINDS:
        problems.append(f"unknown kind {kind!r}")
    else:
        for key in KINDS[kind]:
            if key not in record:
                problems.append(f"{kind} record missing field {key!r}")
    git = record["git"]
    if not (isinstance(git, dict) and "commit" in git and "dirty" in git):
        problems.append("git field must carry commit + dirty")
    if not problems and record["digest"] != payload_digest(record):
        problems.append("digest does not match payload")
    return problems


def append_record(path: Path, record: Dict[str, object]) -> Dict[str, object]:
    """Validate ``record`` and append it as one sorted-keys JSON line."""
    problems = validate_record(record)
    if problems:
        raise ValueError(f"refusing to append invalid record: {problems}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    obs_metrics.counter_add("profiler.history.appended")
    return record


def load_history(path: Path) -> List[Dict[str, object]]:
    """All records of a history file, oldest first (missing file = [])."""
    if not path.exists():
        return []
    records = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i + 1}: corrupt history line: {exc}") from exc
    return records


def query(records: List[Dict[str, object]],
          kind: Optional[str] = None,
          config_digest: Optional[str] = None,
          last: Optional[int] = None) -> List[Dict[str, object]]:
    """Filter history records by kind and/or config digest."""
    out = [r for r in records
           if (kind is None or r.get("kind") == kind)
           and (config_digest is None or r.get("config_digest") == config_digest)]
    if last is not None:
        out = out[-last:]
    return out
