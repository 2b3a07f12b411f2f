#!/usr/bin/env python
"""Benchmark: columnar bitset scans vs the compiled row scan.

The workload is one ``workloads.bibgen`` source of 10k entries with
**no attribute index**, so the planner's choice is between the new
columnar strategy (shredded per-attribute columns + tri-state bitset
evaluation, per-row checks only on maybe-sidecar and residue rows) and
the compiled row scan. Every query runs three ways — columnar
(``with_columns``), compiled row scan (no index, no columns) and the
definitional ``naive=True`` oracle — and the phases are residual-heavy
on purpose: no phase is answerable by an index probe.

* ``year_range`` — ``year >= a and year <= b`` conjunctions over the
  ordered ``year`` column (distinct bounds per query, so the per-column
  scan memo never short-circuits the measurement);
* ``disjunctive`` — top-level ``or`` of a type equality and a year
  bound, the shape the probe planner always refused;
* ``contains`` — substring selection over the ``title`` column; its
  3-digit needles hit about 120 titles each, past the columnar walk's
  hit budget, so both sides run the row loop there;
* ``contains_selective`` — 4-digit needles that hit at most
  ``SELECTIVE_HITS`` titles each, within the hit budget, so the
  columnar side walks the column's joined text. It reports its own
  speedup and stays out of ``residual_speedup``;
* ``not_exists`` — negated existence, a pure bitset complement;
* ``point_eq`` — year equalities through the column's hash eq-index.

The equality oracle is enforced on **every** run, full and smoke: each
query's columnar and row-scan results must equal its naive result, and
the sampled plans must actually report the ``columnar`` strategy. The
full run additionally requires the aggregate residual phases to beat
the compiled row scan by at least ``MIN_SPEEDUP``×.

Standalone (CI smoke-runs it; pytest is not required)::

    PYTHONPATH=src python benchmarks/bench_columnar.py           # full
    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_columnar.py --out b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.query import (  # noqa: E402
    compile_columnar,
    compile_condition,
    parse_query_spec,
)
from repro.store import ColumnStore  # noqa: E402
from repro.workloads import (  # noqa: E402
    BibWorkloadSpec,
    generate_workload,
)

#: The acceptance floor: the aggregate residual phases (everything but
#: ``point_eq``) must beat the compiled row scan by at least this
#: factor on the full workload.
MIN_SPEEDUP = 5.0

#: Phases counted into the ``residual_speedup`` headline.
RESIDUAL_PHASES = ("year_range", "disjunctive", "contains", "not_exists")

#: The most titles one ``contains_selective`` needle may hit: the
#: joined-text walk's hit budget (``_CONTAINS_HIT_BUDGET`` in
#: ``repro.store.columnar``). Titles end in a 5-digit id below 10,000,
#: so a 4-digit needle hits at most 11 of them.
SELECTIVE_HITS = 32


def _build(entries: int, seed: int):
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=1, overlap=0.0, null_rate=0.15,
        conflict_rate=0.0, partial_author_rate=0.3, seed=seed))
    dataset = workload.sources[0]
    list(dataset)  # warm the canonical-order memo outside the timings

    start = time.perf_counter()
    store = ColumnStore.build(dataset)
    build_seconds = time.perf_counter() - start
    return dataset, store, build_seconds


def _phase(dataset, store, texts: list[str]) -> dict:
    """Run every query columnar, row-scan and naive; assert equality."""
    specs = [parse_query_spec(text) for text in texts]
    # Compile both sides outside the timed regions so the measurement
    # is scan time, not one-off condition compilation.
    for spec in specs:
        compile_condition(spec.condition)
        compile_columnar(spec.condition)

    start = time.perf_counter()
    columnar = [spec.query(dataset, columns=store).run()
                for spec in specs]
    columnar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rowscan = [spec.query(dataset).run() for spec in specs]
    rowscan_seconds = time.perf_counter() - start

    start = time.perf_counter()
    naive = [spec.query(dataset).run(naive=True) for spec in specs]
    naive_seconds = time.perf_counter() - start

    mismatches = [text for text, fast, row, slow
                  in zip(texts, columnar, rowscan, naive)
                  if fast != slow or row != slow]
    plans_columnar = all(
        spec.query(dataset, columns=store).explain().strategy
        == "columnar"
        for spec in specs[:5])

    return {
        "queries": len(texts),
        "result_rows": sum(len(result) for result in columnar),
        "columnar_seconds": round(columnar_seconds, 6),
        "rowscan_seconds": round(rowscan_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": round(rowscan_seconds / columnar_seconds, 2)
        if columnar_seconds else None,
        "plans_columnar": plans_columnar,
        "mismatches": mismatches,
    }


def run(entries: int, queries: int, seed: int = 13) -> dict:
    dataset, store, build_seconds = _build(entries, seed)

    spread = max(1, queries)
    year_texts = [
        f"select * where year >= {1975 + i % 22} "
        f"and year <= {1979 + i % 22}"
        for i in range(spread)
    ]
    disjunctive_texts = [
        f'select * where type = "InProc" or year >= {1994 - i % 18}'
        for i in range(max(2, spread // 2))
    ]
    contains_texts = [
        f'select * where title contains "{i % 1000:03d}"'
        for i in range(max(2, (spread * 3) // 4))
    ]
    selective_texts = [
        f'select * where title contains "{i * 263 % 10_000:04d}"'
        for i in range(max(2, (spread * 3) // 4))
    ]
    not_exists_texts = [
        "select * where not exists year",
        "select * where not exists pages",
        'select * where type = "Article" and not exists jnl',
        "select * where not exists year or not exists pages",
    ]
    point_texts = [f"select * where year = {1975 + i % 26}"
                   for i in range(max(2, spread // 2))]

    phases = {
        "year_range": _phase(dataset, store, year_texts),
        "disjunctive": _phase(dataset, store, disjunctive_texts),
        "contains": _phase(dataset, store, contains_texts),
        "contains_selective": _phase(dataset, store, selective_texts),
        "not_exists": _phase(dataset, store, not_exists_texts),
        "point_eq": _phase(dataset, store, point_texts),
    }

    phases["contains_selective"]["max_hits"] = max(
        len(parse_query_spec(text).query(dataset, columns=store).run())
        for text in selective_texts)
    residual_columnar = sum(phases[name]["columnar_seconds"]
                            for name in RESIDUAL_PHASES)
    residual_rowscan = sum(phases[name]["rowscan_seconds"]
                           for name in RESIDUAL_PHASES)
    return {
        "benchmark": "columnar",
        "workload": {
            "entries": entries,
            "rows": store.size,
            "shredded_rows": store.shredded_count,
            "residue_rows": store.residue_count,
            "labels": list(store.labels),
            "store_build_seconds": round(build_seconds, 6),
        },
        "phases": phases,
        "residual_speedup": round(
            residual_rowscan / residual_columnar, 2)
        if residual_columnar else None,
        "plans_columnar": all(phase["plans_columnar"]
                              for phase in phases.values()),
        "oracle_equal": all(not phase["mismatches"]
                            for phase in phases.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (skips the speedup "
                             "floor, keeps the equality oracle)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run(entries=300, queries=8)
    else:
        report = run(entries=10_000, queries=40)

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")

    if not report["oracle_equal"]:
        bad = [query for phase in report["phases"].values()
               for query in phase["mismatches"]]
        print(f"FAIL: columnar/row-scan results differ from the naive "
              f"oracle for {len(bad)} "
              f"quer{'y' if len(bad) == 1 else 'ies'}", file=sys.stderr)
        return 1
    if not report["plans_columnar"]:
        print("FAIL: expected columnar-strategy plans, got scans",
              file=sys.stderr)
        return 1
    hits = report["phases"]["contains_selective"]["max_hits"]
    if hits > SELECTIVE_HITS:
        print(f"FAIL: a contains_selective needle hit {hits} titles, "
              f"past the {SELECTIVE_HITS}-hit walk budget",
              file=sys.stderr)
        return 1
    speedup = report["residual_speedup"]
    if not args.smoke and (speedup is None or speedup < MIN_SPEEDUP):
        print(f"FAIL: residual-scan speedup {speedup}x is below the "
              f"{MIN_SPEEDUP}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
