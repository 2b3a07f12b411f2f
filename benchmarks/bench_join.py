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
"""

from __future__ import annotations

import sys

from _harness import main, speedup, timed
from repro.query import Query, parse_query_spec
from repro.query.aggregates import Count, Max, Min, Sum
from repro.query.join import JoinQuery
from repro.store import ColumnStore
from repro.workloads import BibWorkloadSpec, generate_workload

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
    hash_seconds, hash_rows = timed(join.rows)
    naive_seconds, naive_rows = timed(lambda: join.rows(naive=True))

    plan = join.explain()
    return {
        "left_rows": len(left_query.rows()),
        "right_rows": len(right_query.rows()),
        "pairs": len(hash_rows),
        "maybe_pairs": sum(1 for row in hash_rows if row.maybe),
        "hash_seconds": round(hash_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": speedup(naive_seconds, hash_seconds),
        "plan_strategy": plan.strategy,
        "oracle_equal": hash_rows == naive_rows,
    }


def _agg_phase(dataset, store) -> dict:
    query = Query(dataset).with_columns(store)

    def plain_and_grouped(naive: bool):
        return (query.aggregate(**AGGS, naive=naive),
                query.group_aggregate("type", **AGGS, naive=naive))

    columnar_seconds, (columnar_plain, columnar_grouped) = timed(
        lambda: plain_and_grouped(False))
    perrow_seconds, (perrow_plain, perrow_grouped) = timed(
        lambda: plain_and_grouped(True))

    return {
        "rows": len(dataset),
        "groups": len(columnar_grouped),
        "columnar_seconds": round(columnar_seconds, 6),
        "perrow_seconds": round(perrow_seconds, 6),
        "speedup": speedup(perrow_seconds, columnar_seconds),
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


def failures(report: dict):
    """One message per failed oracle."""
    if not report["join"]["oracle_equal"]:
        yield "hash join differs from the nested-loop oracle"
    if not report["group_agg"]["oracle_equal"]:
        yield "columnar aggregates differ from the per-row oracle"
    if report["join"]["plan_strategy"] != "hash":
        yield (f"expected a hash-strategy join plan, got "
               f"{report['join']['plan_strategy']}")


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300), full=dict(entries=10_000),
        checks=failures,
        floors=[("join speedup", "join_speedup", MIN_JOIN_SPEEDUP),
                ("group/aggregate speedup", "group_agg_speedup",
                 MIN_GROUP_AGG_SPEEDUP)]))
