#!/usr/bin/env python
"""CI guard against benchmark regressions.

Smoke-runs every benchmark that has a committed ``BENCH_*.json``
baseline and compares the *headline speedup ratios* of the fresh run
against ``BENCH_smoke_baseline.json``. Ratios — not absolute seconds —
are compared because they are largely machine-independent: both sides
of each ratio run on the same box in the same process, so a slow CI
runner scales numerator and denominator together.

A headline ratio fails the build when it drops below ``baseline /
TOLERANCE``. The tolerance is deliberately generous (2×): smoke
workloads are tiny, so their ratios are noisy, and this check exists to
catch *structural* regressions — an optimization accidentally disabled,
a fast path no longer taken — not percent-level drift. The full-run
floors (e.g. the 3× snapshot floor) stay enforced by the benchmarks
themselves.

Every benchmark's own oracles and exit status also propagate: an
equality-oracle failure fails this check regardless of any ratio.

Usage::

    python tools/check_bench_regression.py               # check
    python tools/check_bench_regression.py --rebaseline  # refresh
    python tools/check_bench_regression.py --only snapshot

``--rebaseline`` rewrites ``BENCH_smoke_baseline.json`` from a fresh
smoke run; commit the result whenever a deliberate change moves the
headline ratios.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BASELINE_PATH = REPO / "BENCH_smoke_baseline.json"

#: Current ratios may drop to ``baseline / TOLERANCE`` before failing.
TOLERANCE = 2.0

#: name -> (benchmark script, dotted paths of its headline ratios).
#: Each path must resolve to a number in the benchmark's JSON report.
REGISTRY: dict[str, tuple[str, tuple[str, ...]]] = {
    "columnar": ("benchmarks/bench_columnar.py",
                 ("residual_speedup",)),
    "concurrency": ("benchmarks/bench_concurrency.py",
                    ("cached_read_speedup",)),
    "interning": ("benchmarks/bench_interning.py", ("speedup",)),
    "join": ("benchmarks/bench_join.py",
             ("join_speedup", "group_agg_speedup")),
    "merge_pipeline": ("benchmarks/bench_merge_pipeline.py",
                       ("speedup_blocked",)),
    "nested": ("benchmarks/bench_nested.py",
               ("nested_residual_speedup", "group_agg_speedup")),
    "query_planner": ("benchmarks/bench_query_planner.py",
                      ("phases.point_lookup.speedup",
                       "phases.conjunctive.speedup")),
    "snapshot": ("benchmarks/bench_snapshot.py",
                 ("save_speedup", "cold_load_speedup")),
    "wal": ("benchmarks/bench_wal.py",
            ("recovery_speedup", "batch_commit_speedup",
             "group_commit_speedup")),
}


def _dig(report: dict, dotted: str) -> float:
    value: object = report
    for part in dotted.split("."):
        value = value[part]  # type: ignore[index]
    if not isinstance(value, (int, float)):
        raise TypeError(f"{dotted} is {value!r}, not a number")
    return float(value)


def _smoke_run(name: str, script: str) -> tuple[int, dict | None]:
    """Run one benchmark in smoke mode; (exit status, parsed report)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.json"
        completed = subprocess.run(
            [sys.executable, str(REPO / script), "--smoke",
             "--out", str(out)],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src")})
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout[-2000:])
            sys.stderr.write(completed.stderr[-2000:])
            return completed.returncode, None
        try:
            return 0, json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            print(f"{name}: unreadable report: {exc}", file=sys.stderr)
            return 1, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite BENCH_smoke_baseline.json from a "
                             "fresh smoke run")
    parser.add_argument("--only", choices=sorted(REGISTRY), default=None,
                        help="check a single benchmark")
    args = parser.parse_args(argv)

    selected = {args.only: REGISTRY[args.only]} if args.only else REGISTRY

    baseline: dict[str, dict[str, float]] = {}
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except OSError:
        # Missing is fine when rebaselining (--only merges into it).
        if not args.rebaseline:
            print(f"no baseline at {BASELINE_PATH}; run with "
                  f"--rebaseline first", file=sys.stderr)
            return 2
    if not args.rebaseline:
        missing = [name for name in selected if name not in baseline]
        if missing:
            print(f"baseline has no entry for: {', '.join(missing)}; "
                  f"run --rebaseline", file=sys.stderr)
            return 2

    failures = 0
    fresh: dict[str, dict[str, float]] = {}
    for name, (script, ratio_paths) in selected.items():
        status, report = _smoke_run(name, script)
        if status != 0 or report is None:
            print(f"FAIL {name}: benchmark exited with status {status} "
                  f"(oracle or harness failure)")
            failures += 1
            continue
        ratios = {path: _dig(report, path) for path in ratio_paths}
        fresh[name] = ratios
        for path, current in ratios.items():
            if args.rebaseline:
                print(f"  {name}.{path} = {current}")
                continue
            floor = baseline[name][path] / TOLERANCE
            verdict = "ok" if current >= floor else "FAIL"
            print(f"{verdict:>4} {name}.{path}: {current} "
                  f"(baseline {baseline[name][path]}, "
                  f"floor {round(floor, 2)})")
            if current < floor:
                failures += 1

    if args.rebaseline:
        if failures:
            print(f"{failures} benchmark(s) failed; baseline NOT "
                  f"written", file=sys.stderr)
            return 1
        merged = dict(baseline)
        merged.update(fresh)
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
