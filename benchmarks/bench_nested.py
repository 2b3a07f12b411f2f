#!/usr/bin/env python
"""Benchmark: multi-level shredding — nested-path scans and group-by.

The workload is one ``workloads.nestedgen`` document set: 10k
publication documents whose selective attributes live 2–3 tuple-levels
deep (``author.name.last``, ``author.affil.since``), with or-values
and ⊥ at interior and leaf positions and a small opaque/loose tail.
There is **no attribute index**, so every condition pits the columnar
strategy (path-keyed columns + per-level bitsets, per-row checks only
where an irregular or opaque interior demands them) against the
compiled row scan, which must walk ``evaluate_path`` per row.

Scan phases — every query runs columnar, compiled row scan and the
definitional ``naive=True`` oracle:

* ``nested_range`` — ``author.affil.since`` bound conjunctions over an
  interior-path numeric column;
* ``nested_conj`` — type equality and nested-path equality and nested
  existence, the multi-step shape the old single-level shredder sent
  wholesale to the residue;
* ``contains`` — substring selection over ``author.affil.inst``;
* ``not_exists`` — negated nested existence, a bitset complement that
  must still respect opaque interiors;
* ``point_eq`` — ``author.name.last`` equalities through the nested
  column's hash eq-index.

The ``group_agg`` phase groups by the nested path ``author.affil.inst``
with count/sum/min/max/collect aggregates over other nested paths, and
compares the vectorized grouped kernel against the per-row oracle.

Enforced on **every** run, full and smoke: the equality oracles (each
query's columnar and row-scan results equal its naive result; grouped
aggregates equal their per-row answer), columnar-strategy plans for the
sampled nested conditions, and a residue fraction below
``MAX_RESIDUE_FRACTION``. The full run additionally requires the
aggregate residual scan phases to beat the compiled row scan by
``MIN_SPEEDUP``× and the grouped kernel to beat the per-row fold by
``MIN_GROUP_SPEEDUP``×.
"""

from __future__ import annotations

import sys

from _harness import build_store, main, scan_phase, speedup, timed
from repro.query import Collect, Count, Max, Min, Query, Sum
from repro.workloads import NestedWorkloadSpec, generate_nested_workload

#: Acceptance floors on the full workload: residual nested scans vs the
#: compiled row scan, and the vectorized grouped kernel vs the per-row
#: fold.
MIN_SPEEDUP = 5.0
MIN_GROUP_SPEEDUP = 3.0

#: Rows the shredder may demote to whole-row residue, as a fraction.
MAX_RESIDUE_FRACTION = 0.05

#: Phases counted into the ``nested_residual_speedup`` headline.
RESIDUAL_PHASES = ("nested_range", "nested_conj", "contains",
                   "not_exists")

_LAST_NAMES = ["Abiteboul", "Buneman", "Chen", "Davidson", "Eisner",
               "Fernandez", "Garcia", "Hull", "Imielinski", "Jagadish",
               "Liu", "Mendelzon"]

_GROUP_AGGS = {
    "count(*)": Count(),
    "count(author.affil.since)": Count("author.affil.since"),
    "sum(author.affil.since)": Sum("author.affil.since"),
    "min(author.affil.since)": Min("author.affil.since"),
    "max(author.affil.since)": Max("author.affil.since"),
    "collect(author.name.last)": Collect("author.name.last"),
}


def _group_phase(dataset, store, rounds: int) -> dict:
    """Grouped aggregation on a nested path, vectorized vs per-row."""
    query = Query(dataset).with_columns(store)
    group = "author.affil.inst"

    def fold(naive: bool):
        for _ in range(rounds):
            result = query.group_aggregate(group, **_GROUP_AGGS,
                                           naive=naive)
        return result

    columnar_seconds, vectorized = timed(lambda: fold(False))
    naive_seconds, per_row = timed(lambda: fold(True))

    return {
        "group": group,
        "rounds": rounds,
        "groups": len(vectorized),
        "columnar_seconds": round(columnar_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": speedup(naive_seconds, columnar_seconds),
        "oracle_equal": vectorized == per_row,
    }


def run(entries: int, queries: int, seed: int = 13,
        group_rounds: int = 5) -> dict:
    dataset = generate_nested_workload(NestedWorkloadSpec(
        entries=entries, seed=seed)).dataset
    build_seconds, store = build_store(dataset)

    spread = max(1, queries)
    range_texts = [
        f"select * where author.affil.since >= {1970 + i % 25} "
        f"and author.affil.since <= {1974 + i % 25}"
        for i in range(spread)
    ]
    conj_texts = [
        f'select * where type = "Article" '
        f'and author.name.last = "{_LAST_NAMES[i % len(_LAST_NAMES)]}" '
        f"and exists author.affil.inst"
        for i in range(max(2, spread // 2))
    ]
    contains_texts = [
        'select * where author.affil.inst contains "Uni"',
        'select * where author.affil.inst contains "Research"',
        'select * where author.affil.city contains "o"',
        'select * where author.name.first contains "a"',
    ]
    not_exists_texts = [
        "select * where not exists author.name.first",
        "select * where not exists author.affil",
        "select * where not exists author.affil.since",
        'select * where type = "InProc" and not exists author.name.last',
    ]
    point_texts = [
        f'select * where author.name.last = '
        f'"{_LAST_NAMES[i % len(_LAST_NAMES)]}"'
        for i in range(max(2, spread // 2))
    ]

    phases = {
        "nested_range": scan_phase(dataset, store, range_texts),
        "nested_conj": scan_phase(dataset, store, conj_texts),
        "contains": scan_phase(dataset, store, contains_texts),
        "not_exists": scan_phase(dataset, store, not_exists_texts),
        "point_eq": scan_phase(dataset, store, point_texts),
    }
    group_phase = _group_phase(dataset, store, group_rounds)

    residue_fraction = (store.residue_count / store.size
                        if store.size else 0.0)
    return {
        "benchmark": "nested",
        "workload": {
            "entries": entries,
            "rows": store.size,
            "shredded_rows": store.shredded_count,
            "residue_rows": store.residue_count,
            "residue_fraction": round(residue_fraction, 4),
            "path_columns": len(store.paths),
            "max_path_depth": max(
                (len(path) for path in store.paths), default=0),
            "store_build_seconds": round(build_seconds, 6),
        },
        "phases": phases,
        "group_agg": group_phase,
        "nested_residual_speedup": speedup(
            sum(phases[name]["rowscan_seconds"] for name in RESIDUAL_PHASES),
            sum(phases[name]["columnar_seconds"]
                for name in RESIDUAL_PHASES)),
        "group_agg_speedup": group_phase["speedup"],
        "plans_columnar": all(phase["plans_columnar"]
                              for phase in phases.values()),
        "residue_ok": residue_fraction < MAX_RESIDUE_FRACTION,
        "oracle_equal": (all(not phase["mismatches"]
                             for phase in phases.values())
                         and group_phase["oracle_equal"]),
    }


def failures(report: dict):
    """One message per failed oracle."""
    if not report["oracle_equal"]:
        bad = [query for phase in report["phases"].values()
               for query in phase["mismatches"]]
        yield (f"columnar/row-scan or grouped results differ from "
               f"the naive oracle ({len(bad)} scan mismatches)")
    if not report["plans_columnar"]:
        yield ("expected columnar-strategy plans for nested-path "
               "conditions, got scans")
    if not report["residue_ok"]:
        yield (f"residue fraction "
               f"{report['workload']['residue_fraction']} is above the "
               f"{MAX_RESIDUE_FRACTION} ceiling")


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300, queries=8, group_rounds=2),
        full=dict(entries=10_000, queries=40), checks=failures,
        floors=[("nested residual-scan speedup",
                 "nested_residual_speedup", MIN_SPEEDUP),
                ("nested group-by speedup", "group_agg_speedup",
                 MIN_GROUP_SPEEDUP)]))
