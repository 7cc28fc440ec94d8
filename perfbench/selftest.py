"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` for each workload in ``BENCHMARK.json``, untraced
and traced, and checks that the last stdout line is the result object,
that every output check passed, and that the metric names and units it
prints are exactly the ``end_to_end`` (untraced) or ``per_layer``
(traced) metrics declared in ``BENCHMARK.json``.  Also checks that the
benchmark refuses to run, without printing a result, from a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> list:
    """Problems with one tiny run's result line."""
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed) if declared[k] != printed[k])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, unit mismatch {units}")
    bad = [k for k, v in result.get("metrics", {}).items()
           if not isinstance(v.get("value"), (int, float))]
    if bad:
        problems.append(f"{where}: non-numeric values {bad}")
    return problems


def check_refuses_outside_checkout(spec: dict) -> list:
    """Only BENCHMARK.json and the benchmark's paths: exit != 0, no result."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, tmp / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py printed a result outside a checkout"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_outside_checkout(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_workload(spec, w["name"], trace)
            print(f"{w['name']:<8} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
