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
"""

from __future__ import annotations

import sys

from _harness import main, speedup, timed
from repro.merge.engine import MergeEngine
from repro.merge.spec import MergeSpec
from repro.store.bulk import blocked_union
from repro.workloads import BibWorkloadSpec, generate_workload

#: The acceptance floor: the blocked pipeline must beat the pairwise
#: naive fold by at least this factor on the full workload.
MIN_SPEEDUP = 3.0


def _merge(sources, strategy: str):
    spec = MergeSpec(default_key=frozenset({"title"}), strategy=strategy)
    engine = MergeEngine(spec)
    for index, source in enumerate(sources):
        engine.add_source(f"source{index}", source)
    return timed(engine.merge)


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
        "speedup_blocked": speedup(naive_seconds, blocked_seconds),
        "results_equal": equal,
        "ground_truth_size_ok": len(naive.dataset) == expected_size,
        "oracle": _oracle_check(oracle_entries, min(sources, 4), seed=3),
    }


def failures(report: dict):
    """One message per failed oracle."""
    differ = [name for name, ok in report["results_equal"].items()
              if not ok]
    if differ:
        yield f"{', '.join(differ)} differ from the naive fold"
    if not report["oracle"]["matches_definitional_fold"]:
        yield ("blocked pipeline differs from the naive=True "
               "definitional fold")
    if not report["ground_truth_size_ok"]:
        yield "merge result size differs from the workload's ground truth"


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300, sources=4, oracle_entries=80),
        full=dict(entries=10_000, sources=8, oracle_entries=200),
        checks=failures,
        floors=[("blocked speedup", "speedup_blocked", MIN_SPEEDUP)]))
