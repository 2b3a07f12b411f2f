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
"""

from __future__ import annotations

import sys

from _harness import build_store, main, scan_phase, speedup
from repro.query import parse_query_spec
from repro.workloads import BibWorkloadSpec, generate_workload

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


def run(entries: int, queries: int, seed: int = 13) -> dict:
    dataset = generate_workload(BibWorkloadSpec(
        entries=entries, sources=1, overlap=0.0, null_rate=0.15,
        conflict_rate=0.0, partial_author_rate=0.3, seed=seed)).sources[0]
    build_seconds, store = build_store(dataset)

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
        "year_range": scan_phase(dataset, store, year_texts),
        "disjunctive": scan_phase(dataset, store, disjunctive_texts),
        "contains": scan_phase(dataset, store, contains_texts),
        "contains_selective": scan_phase(dataset, store, selective_texts),
        "not_exists": scan_phase(dataset, store, not_exists_texts),
        "point_eq": scan_phase(dataset, store, point_texts),
    }

    phases["contains_selective"]["max_hits"] = max(
        len(parse_query_spec(text).query(dataset, columns=store).run())
        for text in selective_texts)
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
        "residual_speedup": speedup(
            sum(phases[name]["rowscan_seconds"] for name in RESIDUAL_PHASES),
            sum(phases[name]["columnar_seconds"]
                for name in RESIDUAL_PHASES)),
        "plans_columnar": all(phase["plans_columnar"]
                              for phase in phases.values()),
        "oracle_equal": all(not phase["mismatches"]
                            for phase in phases.values()),
    }


def failures(report: dict):
    """One message per failed oracle."""
    if not report["oracle_equal"]:
        bad = [query for phase in report["phases"].values()
               for query in phase["mismatches"]]
        yield (f"columnar/row-scan results differ from the naive "
               f"oracle for {len(bad)} "
               f"quer{'y' if len(bad) == 1 else 'ies'}")
    if not report["plans_columnar"]:
        yield "expected columnar-strategy plans, got scans"
    hits = report["phases"]["contains_selective"]["max_hits"]
    if hits > SELECTIVE_HITS:
        yield (f"a contains_selective needle hit {hits} titles, "
               f"past the {SELECTIVE_HITS}-hit walk budget")


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300, queries=8),
        full=dict(entries=10_000, queries=40), checks=failures,
        floors=[("residual-scan speedup", "residual_speedup",
                 MIN_SPEEDUP)]))
