"""``repro-bench``: benchmark the kernels on a user-supplied matrix.

Reads a DLMC ``.smtx`` topology (or generates a synthetic one), builds
the §7.1.1 benchmarks at the requested vector length, and prints a
comparison table of every applicable kernel against the dense cuBLAS
analog — the per-matrix version of Figures 17/19.

The ``sanitize`` subcommand instead runs the kernel sanitizer
(:mod:`repro.sanitizer`) over any kernel case x problem suite, and the
``faults`` subcommand runs a seeded SDC fault-injection campaign
(:mod:`repro.faults`) measuring the sanitizer's detection coverage.
The ``memo`` subcommand inspects (and verifies or compacts) the shared
cross-process memo store (:mod:`repro.perfmodel.sharedmemo`),
``merge`` combines ``--shard`` sweep outputs into one verified result
(:mod:`repro.experiments.sharding`), and ``serve`` runs the
multi-tenant serving simulator (:mod:`repro.serving`) over a named
scenario with admission control, hedged retries and graceful
degradation, and ``profile`` runs the Nsight-Compute-analog kernel
profiler (:mod:`repro.profiler`): roofline classification, ranked
bottleneck attribution, the append-only run-history store and the
checked-in perf-regression baseline.

Examples
--------
::

    repro-bench --smtx path/to/matrix.smtx --op spmm -V 4 -N 256
    repro-bench --rows 512 --cols 1024 --sparsity 0.9 --op sddmm -V 8 -K 256
    repro-bench --rows 512 --cols 1024 --sparsity 0.9 --op spmm -V 4 --profile
    repro-bench --op spmm --kernel octet --kernel fpu
    python -m repro.cli sanitize --all
    python -m repro.cli sanitize --smoke
    python -m repro.cli sanitize --kernel spmm-octet --suite full
    python -m repro.cli faults --smoke
    python -m repro.cli faults --campaign default --seed 7 -v
    python -m repro.cli obs --only fig17 --trace-out t.json
    python -m repro.cli obs --smoke
    python -m repro.cli memo --dir .repro-memo --verify
    python -m repro.cli memo --compact
    python -m repro.cli merge out-shard0 out-shard1 --out out-merged
    python -m repro.cli serve --scenario overload --requests 8000 -v
    python -m repro.cli serve --scenario steady --sweep
    python -m repro.cli serve --smoke
    python -m repro.cli profile
    python -m repro.cli profile --config fig20-k256 -v
    python -m repro.cli profile --diff spmm-octet dense-gemm
    python -m repro.cli profile --smoke --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .datasets.dlmc import generate_topology
from .formats.conversions import blocked_ell_matching, cvse_from_csr_topology
from .formats.cvse import ColumnVectorSparseMatrix
from .formats.io import read_smtx
from .kernels.cusparse import BlockedEllSpmmKernel
from .kernels.gemm import DenseGemmKernel
from .kernels.sddmm_fpu import FpuSddmmKernel
from .kernels.sddmm_octet import OctetSddmmKernel
from .kernels.sddmm_wmma import WmmaSddmmKernel
from .kernels.spmm_fpu import FpuSpmmKernel
from .kernels.spmm_octet import OctetSpmmKernel
from .kernels.spmm_wmma import WmmaSpmmKernel
from .profiler import KernelProfile, profile_kernel
from .profiler.report import format_table, guidelines_table

__all__ = ["main", "build_parser", "bench_spmm", "bench_sddmm", "EXIT_CLEAN",
           "EXIT_FINDINGS", "EXIT_USAGE"]

#: bench-table kernel names accepted by ``--kernel`` (per op)
SPMM_BENCH_KERNELS = ("octet", "wmma", "fpu", "blocked-ell")
SDDMM_BENCH_KERNELS = ("reg", "shfl", "arch", "wmma", "fpu")

#: shared exit-code convention for every checking subcommand
#: (sanitize / faults / analyze): clean, findings, bad invocation
EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


def _usage_error(exc: object) -> int:
    """The one bad-invocation path every subcommand shares: ``error: ...``
    on stderr (unknown names list the valid choices), exit 2."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _smoke_failed(what: str, failures: List[str]) -> int:
    """The one failed-smoke-gate report: a bullet per failed gate on
    stderr, exit 1."""
    print(f"\n{what} smoke FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    return EXIT_FINDINGS


def _validate_names(names, valid, what: str) -> None:
    """Reject unknown names listing the valid choices (the ``run_all
    --only`` convention)."""
    unknown = sorted(set(names) - set(valid))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}; valid choices: {sorted(valid)}")


def _sanitize_main(args) -> int:
    """``sanitize`` subcommand: exit 0 on a clean sweep, 1 on findings."""
    from .sanitizer import format_reports, sanitize

    suite = args.suite
    if args.all:
        suite = "full"
    elif args.smoke:
        suite = "smoke"
    try:
        reports = sanitize(args.kernel, suite=suite)
    except ValueError as exc:
        return _usage_error(exc)
    print(format_reports(reports, verbose=args.verbose))
    return EXIT_CLEAN if all(r.ok for r in reports) else EXIT_FINDINGS


def _faults_main(args) -> int:
    """``faults`` subcommand: exit 0 when every checker meets its
    coverage floor, 1 otherwise, 2 on unknown campaign names."""
    from .faults.campaign import run_campaign

    name = "smoke" if args.smoke else args.campaign
    try:
        result = run_campaign(name, seed=args.seed)
    except ValueError as exc:
        return _usage_error(exc)
    print(result.to_text(verbose=args.verbose))
    return EXIT_CLEAN if result.passed else EXIT_FINDINGS


def _obs_main(args) -> int:
    """``obs`` subcommand: exit 0 on success, 1 when the smoke gates
    fail or the sweep degrades, 2 on bad arguments."""
    import time as _time

    from .experiments.runner import SweepFailure, run_all
    from .obs import export_trace
    from .obs import metrics as obs_metrics
    from .obs import tracing as obs_tracing

    only = [s.strip() for s in args.only.split(",") if s.strip()] or None
    if args.smoke and only is None:
        only = ["table1"]  # fastest registered experiment

    obs_tracing.reset()
    obs_metrics.reset()
    obs_tracing.enable()
    degraded = False
    t0 = _time.perf_counter()
    try:
        run_all(quick=not args.full, only=only, jobs=args.jobs)
    except ValueError as exc:
        return _usage_error(exc)
    except SweepFailure:
        degraded = True
    wall = _time.perf_counter() - t0

    spans = obs_tracing.completed_spans()
    doc = {"traceEvents": obs_tracing.chrome_trace_events(spans),
           "displayTimeUnit": "ms"}
    # coverage: the root run_all span's share of the measured wall-clock
    root_ns = max((s["dur_ns"] for s in spans if s["name"] == "run_all"), default=0)
    coverage = root_ns / (wall * 1e9) if wall > 0 else 0.0

    if args.tree:
        print("== span tree ==")
        print(obs_tracing.render_tree(spans))
        print()
    if args.top > 0:
        rows = obs_tracing.slowest_table(args.top, spans)
        if rows:
            print(f"== slowest {len(rows)} spans ==")
            print(format_table(rows))
            print()
    snap = obs_metrics.snapshot()
    # one row per (region, tier): the local process caches always, the
    # shared cross-process tier whenever it is on or saw traffic
    from .perfmodel import sharedmemo as _sharedmemo

    show_shared = _sharedmemo.enabled() or any(
        row["shared_hits"] or row["shared_misses"]
        for row in snap["memo"].values())
    memo_rows = []
    for r, row in sorted(snap["memo"].items()):
        memo_rows.append({"Region": r, "Tier": "local", "Hits": row["hits"],
                          "Misses": row["misses"],
                          "Hit_Rate": row["hit_rate"]})
        if show_shared:
            memo_rows.append({"Region": r, "Tier": "shared",
                              "Hits": row["shared_hits"],
                              "Misses": row["shared_misses"],
                              "Hit_Rate": row["shared_hit_rate"]})
    print("== memo hit rates ==")
    print(format_table(memo_rows))
    if show_shared:
        print(f"memo.shared.hit_rate: {snap['derived']['memo.shared.hit_rate']}")
    print(f"\nspans: {len(spans)}  wall: {wall:.2f}s  "
          f"timeline coverage: {100.0 * coverage:.1f}%")

    if args.trace_out:
        export_trace(args.trace_out, spans)

    if args.smoke:
        failures = [f"chrome trace schema: {p}"
                    for p in obs_tracing.validate_chrome_trace(doc)]
        if coverage < 0.95:
            failures.append(f"span coverage: {100.0 * coverage:.1f}% < 95% "
                            f"of measured wall-clock")
        if not snap["memo"] or not snap["cache"]:
            failures.append("metrics snapshot: memo/cache tables missing")
        if failures:
            return _smoke_failed("obs", failures)
        print("obs smoke: chrome schema OK, coverage OK, metrics tables OK")
    return EXIT_FINDINGS if degraded else EXIT_CLEAN


def _memo_main(args) -> int:
    """``memo`` subcommand: exit 0, or 1 when ``--verify`` finds
    corruption."""
    from .perfmodel import sharedmemo

    if args.dir:
        sharedmemo.set_dir(args.dir)
    rc = 0
    if args.verify:
        ok, corrupt = sharedmemo.verify_store()
        print(f"verify: {ok} entr{'y' if ok == 1 else 'ies'} ok, "
              f"{corrupt} corrupt")
        rc = 1 if corrupt else 0
    if args.compact:
        summary = sharedmemo.compact()
        print(f"compact: kept {summary['kept']}, dropped "
              f"{summary['dropped_corrupt']} corrupt, removed "
              f"{summary['removed_segments']} superseded segment(s)")
    st = sharedmemo.stats()
    print(f"shared memo store: {st['dir']}")
    print(f"  segments: {st['segments']} ({st['segment_bytes']} bytes on disk)"
          f"  writers: {st['writers']}  live entries: {st['live_entries']} "
          f"({st['live_bytes']} bytes)")
    rows = [{"region": r, "entries": row["entries"], "bytes": row["bytes"]}
            for r, row in st["regions"].items()]
    print(format_table(rows) if rows else "  (no live entries)")
    return rc


def _merge_main(args) -> int:
    """``merge`` subcommand: combine the shard outputs, then re-verify
    every merged artifact.  Exit 0 merged and verified, 1 a merged
    artifact failed verification (a bug, not an input problem), 2 the
    shard outputs cannot be merged (mismatched configs, missing or
    corrupt shards)."""
    from .experiments.sharding import MergeError, merge_shards, verify_manifest

    out = Path(args.out)
    try:
        summary = merge_shards(args.shards, out)
    except MergeError as exc:
        print(f"merge refused: {exc}")
        return EXIT_USAGE
    checks = verify_manifest(out)
    print(f"merged {summary['shards']} shards -> {summary['out']} "
          f"({len(summary['experiments'])} experiments)")
    for name, ok in checks.items():
        print(f"  {name}: {'verified' if ok else 'CHECKSUM MISMATCH'}")
    return EXIT_CLEAN if checks and all(checks.values()) else EXIT_FINDINGS


def _serve_main(args) -> int:
    """``serve`` subcommand: exit 0 on a clean run, 1 when the smoke
    gates fail, 2 on unknown scenarios / bad arguments."""
    import dataclasses
    import json as _json

    from .obs import tracing as obs_tracing
    from .serving import (
        format_report,
        format_sweep,
        get_scenario,
        load_sweep,
        overload_gates,
        report,
        simulate,
        timeline_spans,
        worst_p99_slo_ratio,
    )

    name = args.scenario or ("overload" if args.smoke else "steady")
    try:
        scenario = get_scenario(name)
        if args.workers:
            if args.workers < 0:
                raise ValueError(f"--workers must be positive, got {args.workers}")
            scenario = dataclasses.replace(scenario, workers=args.workers)
        if args.load:
            if args.load < 0:
                raise ValueError(f"--load must be positive, got {args.load}")
            scenario = scenario.with_load(args.load)
        if args.requests <= 0:
            raise ValueError(f"--requests must be positive, got {args.requests}")
        result = simulate(scenario, args.requests, args.seed)
    except ValueError as exc:
        return _usage_error(exc)

    doc = report(result)
    print(format_report(result))
    if args.verbose:
        print()
        print(_json.dumps(doc, indent=2))
    if args.sweep:
        print("\ngoodput vs offered load (same seed, load is the only "
              "variable):\n")
        print(format_sweep(load_sweep(scenario, args.requests, args.seed)))

    if args.trace_out:
        spans = timeline_spans(result)
        trace_path = Path(args.trace_out)
        obs_tracing.export_chrome_trace(trace_path, spans)
        print(f"\ntrace written to {trace_path} "
              f"({len(spans)} events; load in Perfetto / chrome://tracing)")

    if args.profile:
        from . import profiler
        from .serving import profile_summary
        record = profiler.make_record(
            "serving",
            {"scenario": scenario.name, "requests": args.requests,
             "seed": args.seed, "load": scenario.load,
             "workers": scenario.workers},
            profile_summary(result))
        profiler.append_record(Path(args.history), record)
        print(f"\nhistory: appended serving record {record['digest'][:12]} "
              f"to {args.history}")

    if args.smoke:
        failures = overload_gates(doc, simulate(scenario, args.requests, args.seed))
        if failures:
            return _smoke_failed("serve", failures)
        print(f"\nserve smoke: determinism OK, corruption containment OK, "
              f"SLO OK (worst p99 {worst_p99_slo_ratio(doc):.2f}x), accounting OK")
    return EXIT_CLEAN


def _profile_main(args) -> int:
    """``profile`` subcommand: exit 0 clean, 1 on failed gates or
    regressions, 2 on unknown configs/kernels."""
    import json as _json

    from . import profiler
    from .profiler import CONFIGS, roofline_agreement, roofline_doc
    from .profiler.report import bottleneck_lines, roofline_summary

    try:
        if args.config not in CONFIGS:
            raise ValueError(f"unknown config {args.config!r}; valid "
                             f"choices: {sorted(CONFIGS)}")
        config = CONFIGS[args.config]
        profiles = profiler.profile_all(config, kernels=args.kernel,
                                        top=args.top)
    except ValueError as exc:
        return _usage_error(exc)

    print(f"profile config {config.name}: seq={config.seq} head={config.head} "
          f"V={config.v} density={config.density} seed={config.seed}\n")
    print(profiler.profile_table(profiles))
    doc = roofline_doc(profiles)
    print()
    print(roofline_summary(doc))
    if args.verbose:
        print("\nwhat to fix first:\n")
        for line in bottleneck_lines(profiles):
            print(line)

    if args.diff:
        a, b = args.diff
        try:
            _validate_names([a, b], profiles, "kernels")
        except ValueError as exc:
            return _usage_error(exc)
        print(f"\ndiff {a} vs {b}:\n")
        print(profiler.diff_kernels(profiles[a], profiles[b]))

    if args.json:
        payload = {
            "config": config.as_dict(),
            "kernels": {n: p.counters() for n, p in sorted(profiles.items())},
            "roofline": doc,
        }
        Path(args.json).write_text(
            _json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"\nprofile document written to {args.json}")

    history_path = Path(args.history)
    record = None
    if not args.no_history and args.kernel is None:
        record = profiler.make_record(
            "kernel-profile", config.as_dict(),
            {"kernels": {n: p.counters() for n, p in sorted(profiles.items())}})
        profiler.append_record(history_path, record)
        print(f"\nhistory: appended {record['digest'][:12]} to {history_path}")

    if args.diff_runs:
        try:
            records = profiler.query(profiler.load_history(history_path),
                                     kind="kernel-profile")
        except (OSError, ValueError) as exc:
            return _usage_error(exc)
        i, j = args.diff_runs
        try:
            ra, rb = records[i], records[j]
        except IndexError:
            return _usage_error(f"--diff-runs {i} {j}: history has "
                                f"{len(records)} kernel-profile record(s)")
        print(f"\ndiff history runs {i} ({ra['digest'][:12]}) vs "
              f"{j} ({rb['digest'][:12]}):\n")
        print(profiler.diff_records(ra, rb))

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        if args.kernel is not None:
            return _usage_error("--update-baseline needs a full sweep, not "
                                "a --kernel subset")
        profiler.write_baseline(
            baseline_path,
            profiler.baseline_from_profiles(profiles, config.name))
        print(f"baseline written to {baseline_path}")

    failures: List[str] = []
    if args.check or (args.smoke and baseline_path.exists()):
        if not baseline_path.exists():
            return _usage_error(f"baseline {baseline_path} does not exist "
                                f"(create it with --update-baseline)")
        try:
            baseline = profiler.load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            return _usage_error(exc)
        regressions = profiler.check_profiles(profiles, baseline,
                                              config=config.name)
        from .obs import metrics as obs_metrics
        obs_metrics.counter_add("profiler.check.regressions",
                                len(regressions))
        if regressions:
            print(f"\nbaseline check FAILED "
                  f"(tolerance {baseline.get('tolerance_pct')}%):",
                  file=sys.stderr)
            for r in regressions:
                change = (f" ({r['change_pct']:+.1f}%)"
                          if r["change_pct"] is not None else "")
                print(f"  - {r['kernel']}: {r['counter']} "
                      f"{r['baseline']} -> {r['current']}{change}",
                      file=sys.stderr)
            failures.append(f"{len(regressions)} counter regression(s) "
                            f"against {baseline_path}")
        else:
            print(f"\nbaseline check OK ({len(baseline['kernels'])} kernels "
                  f"within {baseline.get('tolerance_pct')}%)")

    if args.smoke:
        if args.kernel is None and len(profiles) != len(profiler.KERNEL_NAMES):
            failures.append(f"coverage: {len(profiles)}/"
                            f"{len(profiler.KERNEL_NAMES)} kernels profiled")
        unclassified = [n for n, p in profiles.items()
                        if p.classification not in ("compute", "memory",
                                                    "latency")]
        if unclassified:
            failures.append(f"classification: {unclassified}")
        mismatched = roofline_agreement(profiles)
        if mismatched:
            failures.append(f"roofline agreement: {mismatched} classified "
                            f"against the two-ceiling prediction")
        if record is not None:
            try:
                same = profiler.query(profiler.load_history(history_path),
                                      kind="kernel-profile",
                                      config_digest=record["config_digest"])
            except (OSError, ValueError) as exc:
                return _usage_error(exc)
            bad = profiler.validate_record(same[-1]) if same else ["missing"]
            if bad:
                failures.append(f"history: last record invalid: {bad}")
            if len(same) >= 2 and same[-1]["digest"] != same[-2]["digest"]:
                failures.append("history: consecutive same-config runs "
                                "produced different digests (bit-stability)")
        if failures:
            return _smoke_failed("profile", failures)
        print(f"\nprofile smoke: {len(profiles)} kernels classified, "
              f"roofline agreement OK, history bit-stable")
    return EXIT_FINDINGS if failures else EXIT_CLEAN


def _topology(args):
    if args.smtx:
        return read_smtx(args.smtx)
    rng = np.random.default_rng(args.seed)
    return generate_topology((args.rows, args.cols), args.sparsity, rng)


def bench_spmm(csr, v: int, n: int, only=None) -> Tuple[List[Dict[str, object]],
                                                          List[KernelProfile]]:
    """SpMM comparison rows + guideline reports for one topology.

    ``only`` restricts the table to the named kernels (see
    ``SPMM_BENCH_KERNELS``); unknown names raise ``ValueError`` listing
    the valid choices.
    """
    if only is not None:
        _validate_names(only, SPMM_BENCH_KERNELS, "kernels")
    rng = np.random.default_rng(1)
    a = cvse_from_csr_topology(csr, v, rng)
    ell = blocked_ell_matching(a, rng)
    m, k = a.shape
    dense = DenseGemmKernel()
    t_dense = dense._model.estimate(dense.stats_for_shape(m, k, n)).time_us

    kernels = (
        [("octet", "mma (octet)", OctetSpmmKernel()), ("wmma", "wmma", WmmaSpmmKernel())]
        if v >= 2
        else []
    )
    kernels.append(("fpu", "fpu (sputnik)", FpuSpmmKernel()))
    rows = [{"kernel": "cublasHgemm", "time_us": round(t_dense, 2), "speedup": 1.0}]
    reports = []
    for key, name, kern in kernels:
        if only is not None and key not in only:
            continue
        st = kern.stats_for(a, n)
        est = kern._model.estimate(st)
        rows.append({"kernel": name, "time_us": round(est.time_us, 2),
                     "speedup": round(t_dense / est.time_us, 3)})
        rep = profile_kernel(st, kern._model)
        rep.name = name
        reports.append(rep)
    if only is None or "blocked-ell" in only:
        bk = BlockedEllSpmmKernel()
        st = bk.stats_for(ell, n)
        est = bk._model.estimate(st)
        rows.append({"kernel": "blocked-ELL", "time_us": round(est.time_us, 2),
                     "speedup": round(t_dense / est.time_us, 3)})
        rep = profile_kernel(st, bk._model)
        rep.name = "blocked-ELL"
        reports.append(rep)
    return rows, reports


def bench_sddmm(csr, v: int, k: int, only=None) -> Tuple[List[Dict[str, object]],
                                                          List[KernelProfile]]:
    """SDDMM comparison rows + guideline reports for one topology.

    ``only`` restricts the table to the named kernels (see
    ``SDDMM_BENCH_KERNELS``); unknown names raise ``ValueError``.
    """
    if only is not None:
        _validate_names(only, SDDMM_BENCH_KERNELS, "kernels")
    rng = np.random.default_rng(1)
    cv = cvse_from_csr_topology(csr, v, rng)
    mask = ColumnVectorSparseMatrix(cv.shape, v, cv.row_ptr, cv.col_idx, None)
    m, n = mask.shape
    dense = DenseGemmKernel()
    t_dense = dense._model.estimate(dense.stats_for_shape(m, k, n)).time_us

    rows = [{"kernel": "cublasHgemm", "time_us": round(t_dense, 2), "speedup": 1.0}]
    reports = []
    for key, name, kern in (
        ("reg", "mma (reg)", OctetSddmmKernel(variant="reg")),
        ("shfl", "mma (shfl)", OctetSddmmKernel(variant="shfl")),
        ("arch", "mma (arch)", OctetSddmmKernel(variant="arch")),
        ("wmma", "wmma", WmmaSddmmKernel()),
        ("fpu", "fpu (sputnik)", FpuSddmmKernel()),
    ):
        if only is not None and key not in only:
            continue
        st = kern.stats_for(mask, k)
        est = kern._model.estimate(st)
        rows.append({"kernel": name, "time_us": round(est.time_us, 2),
                     "speedup": round(t_dense / est.time_us, 3)})
        rep = profile_kernel(st, kern._model)
        rep.name = name
        reports.append(rep)
    return rows, reports


def _analyze_main(args) -> int:
    """``analyze`` subcommand: exit 0 clean (new findings none), 1 on new
    findings, 2 on bad invocation."""
    from .analysis import (
        RULES,
        diff_baseline,
        load_baseline,
        run_analysis,
        to_json,
        to_sarif,
        write_baseline,
    )

    if args.list_rules:
        width = max(len(rid) for rid in RULES)
        for rid in sorted(RULES):
            spec = RULES[rid]
            print(f"{rid:<{width}}  [{spec.severity}] {spec.description}")
        return EXIT_CLEAN

    repo = args.repo
    if not (repo / "src" / "repro").is_dir():
        return _usage_error(f"{repo} has no src/repro package")
    baseline_path = args.baseline or repo / "tools" / "analysis_baseline.json"

    try:
        findings = run_analysis(repo, args.rule)
        fingerprints = load_baseline(Path(baseline_path))
    except ValueError as exc:
        return _usage_error(exc)

    if args.update_baseline:
        write_baseline(Path(baseline_path), findings)
        print(f"analyze: baseline updated with {len(findings)} finding(s) "
              f"-> {baseline_path}")
        return EXIT_CLEAN

    diff = diff_baseline(findings, fingerprints)
    grandfathered = {f.fingerprint for f in diff.grandfathered}
    for finding in diff.new:
        print(finding.render())
    for finding in diff.grandfathered:
        print(f"{finding.render()}  [grandfathered]")
    if diff.stale:
        print(f"analyze: {len(diff.stale)} stale baseline entr"
              f"{'y' if len(diff.stale) == 1 else 'ies'} — fixed findings; "
              "run --update-baseline to burn them down")

    if args.json:
        Path(args.json).write_text(to_json(findings, grandfathered))
    if args.sarif:
        Path(args.sarif).write_text(to_sarif(findings, grandfathered))

    ran = len(args.rule) if args.rule else len(RULES)
    print(f"analyze: {ran} rule(s), {len(diff.new)} new finding(s), "
          f"{len(diff.grandfathered)} grandfathered")
    return EXIT_FINDINGS if diff.new else EXIT_CLEAN


def _bench_main(args) -> int:
    """The bare ``repro-bench`` command: the per-matrix kernel table."""
    try:
        csr = _topology(args)
    except (OSError, ValueError) as exc:
        print(f"error reading matrix: {exc}", file=sys.stderr)
        return EXIT_USAGE
    v = args.vector_length
    print(
        f"matrix: {csr.shape[0]}x{csr.shape[1]} topology, sparsity {csr.sparsity:.1%}, "
        f"V={v} -> logical {csr.shape[0] * v}x{csr.shape[1]}"
    )
    try:
        if args.op == "spmm":
            rows, reports = bench_spmm(csr, v, args.N, only=args.kernel)
        else:
            rows, reports = bench_sddmm(csr, v, args.K, only=args.kernel)
    except ValueError as exc:
        return _usage_error(exc)
    if args.op == "spmm":
        print(f"\nSpMM, N={args.N} (times on the simulated V100):\n")
    else:
        print(f"\nSDDMM, K={args.K} (times on the simulated V100):\n")
    print(format_table(rows))
    if args.profile:
        print("\nfive-guideline profile (Table 2/3 layout):\n")
        print(format_table(guidelines_table(reports)))
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    """The one ``repro-bench`` command table: the bench options at top
    level, one subparser per subcommand, each bound to its handler
    through ``set_defaults(run=...)``."""
    from .analysis import RULES
    from .experiments.runner import EXPERIMENTS
    from .faults.campaign import CAMPAIGNS
    from .profiler import CONFIGS, DEFAULT_CONFIG, KERNEL_NAMES
    from .sanitizer import KERNEL_CASES, SUITES
    from .serving import SCENARIOS

    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="Compare the paper's kernels on one sparse matrix (simulated V100)",
    )
    ap.set_defaults(run=_bench_main)
    src = ap.add_argument_group("matrix source")
    src.add_argument("--smtx", type=str, default="", help="DLMC .smtx topology file")
    src.add_argument("--rows", type=int, default=512, help="synthetic topology rows")
    src.add_argument("--cols", type=int, default=1024, help="synthetic topology cols")
    src.add_argument("--sparsity", type=float, default=0.9, help="synthetic sparsity")
    src.add_argument("--seed", type=int, default=0)

    ap.add_argument("--op", choices=("spmm", "sddmm"), default="spmm")
    ap.add_argument("-V", "--vector-length", type=int, default=4, choices=(1, 2, 4, 8))
    ap.add_argument("-N", type=int, default=256, help="dense columns (SpMM)")
    ap.add_argument("-K", type=int, default=256, help="inner dimension (SDDMM)")
    ap.add_argument("--profile", action="store_true",
                    help="also print the five-guideline profile table")
    ap.add_argument("--kernel", action="append", default=None, metavar="NAME",
                    help="restrict the comparison to these kernels (repeatable); "
                         f"spmm: {SPMM_BENCH_KERNELS}, sddmm: {SDDMM_BENCH_KERNELS}")

    sub = ap.add_subparsers(title="subcommands", metavar="COMMAND")

    def command(name: str, run, description: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=description.split(";")[0],
                            description=description)
        sp.set_defaults(run=run)
        return sp

    sp = command("analyze", _analyze_main,
                 "Run the whole-repo static analysis (contract lints + "
                 "semantic passes) with baseline enforcement; see "
                 "docs/ANALYSIS.md")
    sp.add_argument("--rule", action="append", default=None, metavar="ID",
                    help="run only this rule (repeatable); "
                         f"choices: {sorted(RULES)}")
    sp.add_argument("--repo", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="repository root (default: this checkout)")
    sp.add_argument("--baseline", type=Path, default=None,
                    help="baseline file (default: <repo>/tools/"
                         "analysis_baseline.json)")
    sp.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to exactly the current "
                         "findings and exit 0")
    sp.add_argument("--json", type=str, default="", metavar="PATH",
                    help="write the findings as JSON here")
    sp.add_argument("--sarif", type=str, default="", metavar="PATH",
                    help="write a SARIF 2.1.0 report here")
    sp.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")

    sp = command("sanitize", _sanitize_main,
                 "Run the kernel sanitizer (memcheck/racecheck/synccheck/"
                 "ownership/statcheck) over kernel cases x problem suites")
    sp.add_argument("--kernel", action="append", default=None, metavar="NAME",
                    help="kernel case(s) to sanitize (repeatable); "
                         f"choices: {sorted(KERNEL_CASES)}")
    sp.add_argument("--suite", default="default",
                    help=f"problem suite; choices: {sorted(SUITES)}")
    sp.add_argument("--all", action="store_true",
                    help="every kernel case on the 'full' suite")
    sp.add_argument("--smoke", action="store_true",
                    help="every kernel case on the 'smoke' suite (CI)")
    sp.add_argument("--verbose", action="store_true",
                    help="print per-checker work counters")

    sp = command("faults", _faults_main,
                 "Run a seeded SDC fault-injection campaign and score the "
                 "sanitizer's detection coverage against the documented floors")
    sp.add_argument("--campaign", default="default",
                    help=f"campaign to run; choices: {sorted(CAMPAIGNS)}")
    sp.add_argument("--smoke", action="store_true",
                    help="the guaranteed-detection campaign (CI; floor 100%%)")
    sp.add_argument("--seed", type=int, default=1234,
                    help="campaign seed (same seed => identical findings)")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="print every injection record")

    sp = command("obs", _obs_main,
                 "Run experiments under the observability layer: structured "
                 "spans, a metrics snapshot, and a Chrome trace-event "
                 "timeline; see docs/OBSERVABILITY.md")
    sp.add_argument("--only", type=str, default="",
                    help=f"comma-separated experiment names; choices: {sorted(EXPERIMENTS)}")
    sp.add_argument("--full", action="store_true", help="use the full DLMC-style suite")
    sp.add_argument("--jobs", type=int, default=1,
                    help="fan the experiments out over N worker processes "
                         "(worker spans are stitched into one timeline)")
    sp.add_argument("--trace-out", type=str, default="",
                    help="write the Chrome trace-event JSON here (a sibling "
                         "<stem>.metrics.json carries the metrics snapshot)")
    sp.add_argument("--top", type=int, default=10,
                    help="rows in the slowest-spans table (0 disables it)")
    sp.add_argument("--tree", action="store_true",
                    help="print the nested span tree after the run")
    sp.add_argument("--smoke", action="store_true",
                    help="CI gate: one fast experiment, then validate the Chrome "
                         "trace schema and require >=95%% span coverage of the "
                         "measured wall-clock")

    sp = command("memo", _memo_main,
                 "Inspect, verify, or compact the shared cross-process "
                 "memo store (repro.perfmodel.sharedmemo)")
    sp.add_argument("--dir", type=str, default="",
                    help="store directory (default: REPRO_MEMO_SHARED_DIR "
                         "or .repro-memo)")
    sp.add_argument("--verify", action="store_true",
                    help="re-read and re-hash every live entry; exit 1 when "
                         "any is corrupt")
    sp.add_argument("--compact", action="store_true",
                    help="rewrite the live, checksum-valid entries into one "
                         "fresh segment and delete the superseded files (the "
                         "only reclamation path — run while no sweep writes "
                         "the store)")

    sp = command("merge", _merge_main,
                 "Combine N --shard sweep output directories into one "
                 "verified full-sweep result; exit 2 on mismatched shard "
                 "configurations")
    sp.add_argument("shards", nargs="+", metavar="SHARD_DIR",
                    help="output directories written by --shard I/N runs")
    sp.add_argument("--out", type=str, required=True,
                    help="directory for the merged sweep result")

    sp = command("serve", _serve_main,
                 "Run the deterministic multi-tenant serving simulator "
                 "(admission control, hedged retries, graceful "
                 "degradation) over a named scenario; see docs/SERVING.md")
    sp.add_argument("--scenario", default="",
                    help="scenario to simulate (default: steady, or overload "
                         f"under --smoke); choices: {sorted(SCENARIOS)}")
    sp.add_argument("--requests", type=int, default=8000,
                    help="requests to generate (default 8000)")
    sp.add_argument("--seed", type=int, default=0,
                    help="workload/fault seed (same seed => bit-identical "
                         "ledger digest)")
    sp.add_argument("--workers", type=int, default=0,
                    help="override the scenario's worker count (0 keeps it)")
    sp.add_argument("--load", type=float, default=0.0,
                    help="override the scenario's offered-load multiple "
                         "(0 keeps it)")
    sp.add_argument("--trace-out", type=str, default="",
                    help="write a Chrome trace-event timeline here (worker "
                         "lanes = batch executions, tenant lanes = request "
                         "lifecycles)")
    sp.add_argument("--sweep", action="store_true",
                    help="also print the goodput-vs-offered-load table "
                         "(re-simulates the scenario at each load multiple)")
    sp.add_argument("--smoke", action="store_true",
                    help="CI gate on the overload scenario: bit-identical "
                         "digest across a re-run, zero corrupt-served, "
                         "admitted p99 within every tenant SLO, and complete "
                         "typed outcome accounting")
    sp.add_argument("--profile", action="store_true",
                    help="append a per-tenant SLO-attainment + "
                         "degradation-ladder occupancy record to the "
                         "profiler's run-history store")
    sp.add_argument("--history", type=str,
                    default="results/profile_history.jsonl",
                    help="history store --profile appends to (default "
                         "results/profile_history.jsonl)")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="also print the full JSON report document")

    sp = command("profile", _profile_main,
                 "Nsight-Compute-analog profiler: derive per-kernel "
                 "counters, roofline classification and ranked bottleneck "
                 "attribution for the registered kernels; see "
                 "docs/PROFILER.md")
    sp.add_argument("--config", default=DEFAULT_CONFIG,
                    help=f"named profile config (default {DEFAULT_CONFIG}); "
                         f"choices: {sorted(CONFIGS)}")
    sp.add_argument("--kernel", action="append", default=None,
                    help="restrict to this kernel (repeatable); choices: "
                         f"{sorted(KERNEL_NAMES)}")
    sp.add_argument("--top", type=int, default=3,
                    help="bottlenecks to attribute per kernel (default 3)")
    sp.add_argument("--json", type=str, default="",
                    help="also write the full profile + roofline document "
                         "here as JSON")
    sp.add_argument("--history", type=str,
                    default="results/profile_history.jsonl",
                    help="append-only run-history store (default "
                         "results/profile_history.jsonl)")
    sp.add_argument("--no-history", action="store_true",
                    help="do not append this run to the history store")
    sp.add_argument("--baseline", type=str,
                    default="tools/profile_baseline.json",
                    help="gated-counter baseline (default "
                         "tools/profile_baseline.json)")
    sp.add_argument("--check", action="store_true",
                    help="fail (exit 1) when any kernel regresses past the "
                         "baseline tolerance on a gated counter")
    sp.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run's counters")
    sp.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                    help="diff two kernels of this config side by side")
    sp.add_argument("--diff-runs", nargs=2, type=int, metavar=("I", "J"),
                    default=None,
                    help="diff two kernel-profile history records by index "
                         "(negative indexes count from the latest)")
    sp.add_argument("--smoke", action="store_true",
                    help="CI gate: all kernels classified, roofline "
                         "agreement on the gated configs, bit-stable "
                         "history digests, baseline check when present")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="also print ranked bottleneck attribution per kernel")
    return ap


def main(argv=None) -> int:
    """``repro-bench`` entry point: parse once, run the chosen command."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
