#!/usr/bin/env python
"""Benchmark: vectorized hash joins and columnar aggregation.

The workload is two ``workloads.bibgen`` sources of the same 10k-entry
universe (``entries=10_000, sources=2``) — the paper's multi-source
shape, with or-valued conflicts and ⊥/dropped fields, so join keys and
aggregated paths carry real partial information.

Two headline ratios:

* ``join_speedup`` — an equi-join of a year-range selection of source 0
  against a type selection of source 1 on ``title``, hash strategy
  (columnar build keyed from the selected rows' column values,
  column-at-a-time probe)
  vs the O(n·m) nested-loop oracle;
* ``group_agg_speedup`` — ``count/sum/min/max group by type`` plus
  ungrouped aggregates over one full source, columnar kernels (shredded
  columns + residue fold-in) vs the per-row ``path_alternatives`` path.

The equality oracle is enforced on **every** run, full and smoke: the
hash join's pairs (``maybe`` flags included) must equal the nested
loop's, and every columnar aggregate must equal its per-row oracle —
partiality-preserving results (or-values, Bounds) compared exactly.
The full run additionally enforces the speedup floors.

Standalone (CI smoke-runs it; pytest is not required)::

    PYTHONPATH=src python benchmarks/bench_join.py           # full
    PYTHONPATH=src python benchmarks/bench_join.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_join.py --out b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.query import Query, parse_query_spec  # noqa: E402
from repro.query.aggregates import (  # noqa: E402
    Count,
    Max,
    Min,
    Sum,
)
from repro.query.join import JoinQuery  # noqa: E402
from repro.store import ColumnStore  # noqa: E402
from repro.workloads import (  # noqa: E402
    BibWorkloadSpec,
    generate_workload,
)

#: Full-run acceptance floors for the two headline ratios.
MIN_JOIN_SPEEDUP = 5.0
MIN_GROUP_AGG_SPEEDUP = 3.0

LEFT_TEXT = "select * where year >= 1990 and year <= 1996"
RIGHT_TEXT = 'select * where type = "InProc"'

AGGS = {"count(*)": Count(), "sum(year)": Sum("year"),
        "min(year)": Min("year"), "max(year)": Max("year")}


def _sides(entries: int, seed: int):
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=2, overlap=0.5, null_rate=0.15,
        conflict_rate=0.2, partial_author_rate=0.3, seed=seed))
    left, right = workload.sources[0], workload.sources[1]
    list(left), list(right)  # warm canonical order outside the timings
    stores = (ColumnStore.build(left), ColumnStore.build(right))
    return (left, right), stores


def _join_phase(datasets, stores) -> dict:
    left_query = (parse_query_spec(LEFT_TEXT)
                  .query(datasets[0], columns=stores[0]))
    right_query = (parse_query_spec(RIGHT_TEXT)
                   .query(datasets[1], columns=stores[1]))
    join = JoinQuery(left_query, right_query, "title")

    # Hash runs first (cold key memo); the nested loop then probes with
    # warm per-object key extraction — the conservative direction.
    start = time.perf_counter()
    hash_rows = join.rows()
    hash_seconds = time.perf_counter() - start

    start = time.perf_counter()
    naive_rows = join.rows(naive=True)
    naive_seconds = time.perf_counter() - start

    plan = join.explain()
    return {
        "left_rows": len(left_query.rows()),
        "right_rows": len(right_query.rows()),
        "pairs": len(hash_rows),
        "maybe_pairs": sum(1 for row in hash_rows if row.maybe),
        "hash_seconds": round(hash_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": round(naive_seconds / hash_seconds, 2)
        if hash_seconds else None,
        "plan_strategy": plan.strategy,
        "oracle_equal": hash_rows == naive_rows,
    }


def _agg_phase(dataset, store) -> dict:
    query = Query(dataset).with_columns(store)

    start = time.perf_counter()
    columnar_plain = query.aggregate(**AGGS)
    columnar_grouped = query.group_aggregate("type", **AGGS)
    columnar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    perrow_plain = query.aggregate(**AGGS, naive=True)
    perrow_grouped = query.group_aggregate("type", **AGGS, naive=True)
    perrow_seconds = time.perf_counter() - start

    return {
        "rows": len(dataset),
        "groups": len(columnar_grouped),
        "columnar_seconds": round(columnar_seconds, 6),
        "perrow_seconds": round(perrow_seconds, 6),
        "speedup": round(perrow_seconds / columnar_seconds, 2)
        if columnar_seconds else None,
        "oracle_equal": (columnar_plain == perrow_plain
                         and columnar_grouped == perrow_grouped),
    }


def run(entries: int, seed: int = 13) -> dict:
    datasets, stores = _sides(entries, seed)
    join = _join_phase(datasets, stores)
    agg = _agg_phase(datasets[0], stores[0])
    return {
        "benchmark": "join",
        "workload": {
            "entries": entries,
            "sources": 2,
            "left_size": len(datasets[0]),
            "right_size": len(datasets[1]),
        },
        "join": join,
        "group_agg": agg,
        "join_speedup": join["speedup"],
        "group_agg_speedup": agg["speedup"],
        "oracle_equal": join["oracle_equal"] and agg["oracle_equal"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (skips the speedup "
                             "floors, keeps the equality oracles)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run(entries=300 if args.smoke else 10_000)

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")

    if not report["join"]["oracle_equal"]:
        print("FAIL: hash join differs from the nested-loop oracle",
              file=sys.stderr)
        return 1
    if not report["group_agg"]["oracle_equal"]:
        print("FAIL: columnar aggregates differ from the per-row "
              "oracle", file=sys.stderr)
        return 1
    if report["join"]["plan_strategy"] != "hash":
        print(f"FAIL: expected a hash-strategy join plan, got "
              f"{report['join']['plan_strategy']}", file=sys.stderr)
        return 1
    if not args.smoke:
        join_speedup = report["join_speedup"]
        if join_speedup is None or join_speedup < MIN_JOIN_SPEEDUP:
            print(f"FAIL: join speedup {join_speedup}x is below the "
                  f"{MIN_JOIN_SPEEDUP}x floor", file=sys.stderr)
            return 1
        agg_speedup = report["group_agg_speedup"]
        if agg_speedup is None or agg_speedup < MIN_GROUP_AGG_SPEEDUP:
            print(f"FAIL: group/aggregate speedup {agg_speedup}x is "
                  f"below the {MIN_GROUP_AGG_SPEEDUP}x floor",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
