#!/usr/bin/env python
"""Benchmark: the query planner vs the definitional full scan.

The workload is one ``workloads.bibgen`` source of 10k entries loaded
into a :class:`~repro.store.database.Database` whose column indexes on
``type``, ``title``, ``year`` and ``author`` are built up front
(``index_paths``). Three query phases run through the textual query
API, every query twice — once planned (columnar bitset scan over the
column eq-index and possible-value index + order/limit pushdown) and
once with ``naive=True`` (the untouched full scan over
``Condition.matches`` followed by sort and slice):

* ``point_lookup`` — equality selection on the unique ``title`` key,
  one query per sampled title (the indexed-selection headline number);
* ``conjunctive`` — ``type``/``year`` conjunctions with a ``contains``
  leaf, intersected as bitsets;
* ``order_limit`` — a selective condition with ``order by``/``limit``
  pushed down to a bounded heap selection.

The plan-vs-scan oracle is enforced on **every** run, full and smoke:
each executed query's planned result must equal its naive result, and
the sampled point-lookup and conjunctive plans must be ``columnar`` —
a silent fall-back to the row scan fails the run. The full run
additionally requires the planned point lookups to beat the scan by at
least ``MIN_SPEEDUP``×.
"""

from __future__ import annotations

import random
import sys

from _harness import main, speedup, timed
from repro.store.database import Database
from repro.workloads import BibWorkloadSpec, generate_workload

#: The acceptance floor: planned point lookups must beat the naive full
#: scan by at least this factor on the full workload.
MIN_SPEEDUP = 5.0

#: Attribute paths whose column indexes the database builds up front.
INDEX_PATHS = ("type", "title", "year", "author")


def _build_database(entries: int, seed: int) -> tuple[Database, list]:
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=1, overlap=0.0, null_rate=0.1,
        conflict_rate=0.0, partial_author_rate=0.3, seed=seed))
    database = Database(workload.sources[0], index_paths=INDEX_PATHS)
    held = [entry for entry in workload.universe if entry.holders]
    return database, held


def _phase(database: Database, texts: list[str]) -> dict:
    """Run every query planned and naive; assert equality per query."""
    mismatches = []

    planned_seconds, planned = timed(
        lambda: [database.query(text) for text in texts])
    naive_seconds, naive = timed(
        lambda: [database.query(text, naive=True) for text in texts])

    for text, fast, slow in zip(texts, planned, naive):
        if fast != slow:
            mismatches.append(text)

    return {
        "queries": len(texts),
        "result_rows": sum(len(result) for result in planned),
        "planned_seconds": round(planned_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": speedup(naive_seconds, planned_seconds),
        "mismatches": mismatches,
    }


def run(entries: int, lookups: int, seed: int = 11) -> dict:
    database, universe = _build_database(entries, seed)
    rng = random.Random(seed)

    titles = rng.sample([entry.title for entry in universe],
                        min(lookups, len(universe)))
    point_texts = [f'select * where title = "{title}"'
                   for title in titles]
    conjunctive_texts = [
        f'select * where type = "Article" and year = {year} '
        f'and author contains "Liu"'
        for year in range(1975, 1975 + min(20, max(1, lookups // 5)))
    ]
    order_texts = [
        'select * where type = "InProc" order by year limit 10',
        'select * where type = "Article" and year >= 1990 '
        'order by title desc limit 5',
    ]

    # Warm the snapshot and parse caches outside the timed regions.
    database.query('select * where exists type limit 1')

    phases = {
        "point_lookup": _phase(database, point_texts),
        "conjunctive": _phase(database, conjunctive_texts),
        "order_limit": _phase(database, order_texts),
    }

    plans_columnar = all(
        database.explain(text).strategy == "columnar"
        for text in point_texts[:5] + conjunctive_texts[:5]
    )
    return {
        "benchmark": "query_planner",
        "workload": {
            "entries": entries,
            "database_rows": len(database),
            "index_paths": list(INDEX_PATHS),
        },
        "phases": phases,
        "plans_columnar": plans_columnar,
        "oracle_equal": all(not phase["mismatches"]
                            for phase in phases.values()),
    }


def failures(report: dict):
    """One message per failed oracle."""
    if not report["oracle_equal"]:
        bad = [query for phase in report["phases"].values()
               for query in phase["mismatches"]]
        yield (f"planned results differ from the naive scan for "
               f"{len(bad)} quer{'y' if len(bad) == 1 else 'ies'}")
    if not report["plans_columnar"]:
        yield ("expected columnar plans for the lookup queries, "
               "got row scans")


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300, lookups=20),
        full=dict(entries=10_000, lookups=100), checks=failures,
        floors=[("point-lookup speedup", "phases.point_lookup.speedup",
                 MIN_SPEEDUP)]))
