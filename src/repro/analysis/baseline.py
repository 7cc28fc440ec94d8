"""Checked-in findings baseline: new findings fail, grandfathered burn down.

``tools/analysis_baseline.json`` holds the fingerprints of known findings.
A finding whose fingerprint (``rule|path|message`` — line-free, so
unrelated churn does not resurrect it) is in the baseline is reported as
grandfathered and does not fail the run; anything else is new and does.
Baseline entries no longer matched by any finding are *stale* — fixed
findings whose entries should be deleted (``--update-baseline`` rewrites
the file to exactly the current findings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..integrity import write_atomic
from .core import Finding

BASELINE_VERSION = 1


@dataclass
class BaselineDiff:
    """Findings split against a baseline: new, grandfathered, stale."""

    new: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)  # fingerprints


def load_baseline(path: Path) -> List[str]:
    """Fingerprints from a baseline file; a missing file is an empty baseline."""

    if not Path(path).is_file():
        return []
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: not a version-{BASELINE_VERSION} baseline file")
    out: List[str] = []
    for entry in data.get("findings", []):
        out.append(f"{entry['rule']}|{entry['path']}|{entry['message']}")
    return out


def diff_baseline(findings: List[Finding], fingerprints: List[str]) -> BaselineDiff:
    """Split ``findings`` against baseline ``fingerprints`` (see BaselineDiff)."""

    known = set(fingerprints)
    diff = BaselineDiff()
    seen: set = set()
    for finding in findings:
        fp = finding.fingerprint
        seen.add(fp)
        (diff.grandfathered if fp in known else diff.new).append(finding)
    diff.stale = sorted(known - seen)
    return diff


def write_baseline(path: Path, findings: List[Finding]) -> None:
    """Rewrite ``path`` to exactly ``findings`` (sorted, deduplicated)."""

    entries: List[Dict[str, str]] = []
    seen: set = set()
    for finding in sorted(findings, key=lambda f: f.fingerprint):
        if finding.fingerprint in seen:
            continue
        seen.add(finding.fingerprint)
        entries.append(
            {"rule": finding.rule, "path": finding.path, "message": finding.message}
        )
    payload = {"version": BASELINE_VERSION, "findings": entries}
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
