"""repro.integrity: the shared digest and the atomic file replace."""

import hashlib
import json
from pathlib import Path

import pytest

from repro import benchrecords, integrity
from repro.experiments import sharding
from repro.profiler import baseline as baseline_mod


def test_digest_is_blake2b_over_the_concatenated_parts():
    assert integrity.digest(b"ab", b"", b"c") == hashlib.blake2b(
        b"abc", digest_size=16).digest()
    assert len(integrity.digest(b"abc", size=12)) == 12


def test_write_atomic_replaces_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "doc.json"
    integrity.write_atomic(path, "old\n")
    integrity.write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def _bench_record(version: int) -> dict:
    return {"timestamp": "t", "python": "3", "machine": "m", "cpus": 1,
            "benchmark": "plan_codegen", "problem": {}, "kernels": {},
            "speedup": version, "min_simulated_speedup": 1.0, "repeats": 1,
            "outputs_identical": True}


def _write_bench(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "BENCH_simulator.json"
    benchrecords.append_bench_record(path, _bench_record(version))
    return path


def _write_manifest(tmp_path: Path, version: int) -> Path:
    sharding.write_manifest(tmp_path, {"table1": {"config": str(version)}})
    return tmp_path / sharding.MANIFEST_NAME


def _write_baseline(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "profile_baseline.json"
    baseline_mod.write_baseline(path, {
        "schema": baseline_mod.BASELINE_SCHEMA, "config": "smoke",
        "kernels": {"spmm-octet": {"time_us": version}}})
    return path


@pytest.mark.parametrize("write", [_write_bench, _write_manifest, _write_baseline],
                         ids=["append_bench_record", "write_manifest",
                              "write_baseline"])
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    path = write(tmp_path, 1)
    before = path.read_text()
    real_write_text = Path.write_text

    def torn_write_text(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write_text)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, 2)
    monkeypatch.undo()
    assert path.read_text() == before
    json.loads(path.read_text())
