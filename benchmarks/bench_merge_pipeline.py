#!/usr/bin/env python
"""Benchmark S7: the blocked bulk-merge pipeline vs the pairwise fold.

The workload is ``workloads.bibgen``: 8 synthetic BibTeX sources drawn
from a 10k-entry ground-truth universe (~2.7k entries per source with
30% multi-source overlap). The same merge runs through both engine
strategies:

* ``naive`` — the pairwise per-class fold with the definitional
  :meth:`DataSet.union` scans (the engine's original shape, the
  baseline);
* ``blocked`` — the k-way signature-blocked pipeline
  (:func:`repro.store.bulk.blocked_union`).

Two contracts are enforced on every run, full and smoke:

* the blocked result is structurally equal to the naive fold;
* a differential-oracle merge on a smaller workload compares the
  blocked pipeline against the ``naive=True`` definitional fold (the
  untouched Definition 12 reference code).

The full run additionally requires ``blocked`` to beat ``naive`` by at
least ``MIN_SPEEDUP``×.

Standalone (CI smoke-runs it; pytest is not required)::

    PYTHONPATH=src python benchmarks/bench_merge_pipeline.py           # full
    PYTHONPATH=src python benchmarks/bench_merge_pipeline.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_merge_pipeline.py --out b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.merge.engine import MergeEngine  # noqa: E402
from repro.merge.spec import MergeSpec  # noqa: E402
from repro.store.bulk import blocked_union  # noqa: E402
from repro.workloads import (  # noqa: E402
    BibWorkloadSpec,
    generate_workload,
)

#: The acceptance floor: the blocked pipeline must beat the pairwise
#: naive fold by at least this factor on the full workload.
MIN_SPEEDUP = 3.0


def _merge(sources, strategy: str):
    spec = MergeSpec(default_key=frozenset({"title"}), strategy=strategy)
    engine = MergeEngine(spec)
    for index, source in enumerate(sources):
        engine.add_source(f"source{index}", source)
    start = time.perf_counter()
    result = engine.merge()
    return time.perf_counter() - start, result


def _oracle_check(entries: int, sources: int, seed: int) -> dict:
    """Differential oracle: blocked pipeline vs the ``naive=True``
    definitional fold on a small workload."""
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=sources, overlap=0.4,
        conflict_rate=0.3, partial_author_rate=0.3, seed=seed))
    reference = workload.sources[0]
    for source in workload.sources[1:]:
        reference = reference.union(source, workload.key, naive=True)
    blocked = blocked_union(workload.sources, workload.key)
    return {
        "entries": entries,
        "sources": sources,
        "result_size": len(reference),
        "matches_definitional_fold": blocked == reference,
    }


def run(entries: int, sources: int, oracle_entries: int) -> dict:
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=sources, overlap=0.3,
        conflict_rate=0.25, partial_author_rate=0.3, seed=7))

    naive_seconds, naive = _merge(workload.sources, "naive")
    blocked_seconds, blocked = _merge(workload.sources, "blocked")

    # The structural contract, enforced on every benchmark run: one
    # fold, two organizations, identical results.
    equal = {"blocked": blocked.dataset == naive.dataset}
    expected_size = workload.expected_result_size()
    return {
        "benchmark": "merge_pipeline",
        "workload": {
            "entries": entries,
            "sources": sources,
            "source_rows": [len(s) for s in workload.sources],
            "input_rows": sum(len(s) for s in workload.sources),
            "result_rows": len(naive.dataset),
            "expected_result_rows": expected_size,
        },
        "naive_seconds": round(naive_seconds, 6),
        "blocked_seconds": round(blocked_seconds, 6),
        "speedup_blocked": round(naive_seconds / blocked_seconds, 2),
        "results_equal": equal,
        "ground_truth_size_ok": len(naive.dataset) == expected_size,
        "oracle": _oracle_check(oracle_entries, min(sources, 4), seed=3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (skips the speedup "
                             "floor, keeps every equality check)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run(entries=300, sources=4, oracle_entries=80)
    else:
        report = run(entries=10_000, sources=8, oracle_entries=200)

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")

    failures = [name for name, ok in report["results_equal"].items()
                if not ok]
    if failures:
        print(f"FAIL: {', '.join(failures)} differ from the naive fold",
              file=sys.stderr)
        return 1
    if not report["oracle"]["matches_definitional_fold"]:
        print("FAIL: blocked pipeline differs from the naive=True "
              "definitional fold", file=sys.stderr)
        return 1
    if not report["ground_truth_size_ok"]:
        print("FAIL: merge result size differs from the workload's "
              "ground truth", file=sys.stderr)
        return 1
    if not args.smoke and report["speedup_blocked"] < MIN_SPEEDUP:
        print(f"FAIL: blocked speedup {report['speedup_blocked']}x is "
              f"below the {MIN_SPEEDUP}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
