#!/usr/bin/env python
"""Benchmark: the concurrent serving layer — the query-result cache.

The workload is one ``workloads.bibgen`` source of 10k entries loaded
into a :class:`~repro.store.database.Database`. Two phases:

* ``cached_read`` — a mixed batch of textual queries (equality, range,
  substring and negated leaves) runs in a loop against two databases
  built from the same snapshot, one with the epoch-invalidated result
  cache and one with the cache disabled. The headline ``cached_read_speedup`` is
  uncached seconds / cached seconds; every cached result is checked
  against a fresh ``naive=True`` scan at the same generation.
* ``concurrent_readers`` — reader threads hammer the cached queries
  while one writer inserts *footprint-disjoint* data (tuples whose
  attributes share no path with any cached query). Precise invalidation
  must re-tag the surviving entries instead of evicting them: the phase
  records the cache hit rate under write pressure and asserts
  ``retags > 0`` with zero stale reads (every sampled read compares a
  pinned :class:`~repro.store.database.DatabaseView` result against its
  own naive scan).

All equality oracles run on **every** invocation, full and smoke.

Standalone (CI smoke-runs it; pytest is not required)::

    PYTHONPATH=src python benchmarks/bench_concurrency.py           # full
    PYTHONPATH=src python benchmarks/bench_concurrency.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_concurrency.py --out b.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.builder import data, tup  # noqa: E402
from repro.store.database import Database  # noqa: E402
from repro.workloads import (  # noqa: E402
    BibWorkloadSpec,
    generate_workload,
)

#: Full-run floor: cached re-reads must beat uncached execution by this.
MIN_CACHED_SPEEDUP = 5.0

#: Attribute paths whose column indexes both databases build up front.
INDEX_PATHS = ("type", "year")

#: The cached query mix: all of it profiles as *positive*
#: (re-taggable) except the final negated query.
CACHED_QUERIES = (
    'select * where type = "Article" and year >= 1990',
    'select title where title contains "Revisited"',
    'select * where author contains "Liu" order by title limit 10',
    'select title, year where exists jnl order by year desc limit 20',
    'select * where pages contains "3" and type = "InProc"',
    'select * where not exists year',
)


def _build_dataset(entries: int, seed: int):
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=1, overlap=0.0, null_rate=0.1,
        conflict_rate=0.0, partial_author_rate=0.3, seed=seed))
    return workload.sources[0]


def _phase_cached_read(dataset, repeats: int) -> dict:
    cached_db = Database(dataset, index_paths=INDEX_PATHS)
    uncached_db = Database(dataset, index_paths=INDEX_PATHS,
                           result_cache_size=0)
    mismatches: list[str] = []

    # Warm: the first execution of each query populates the cache (and
    # the parse cache on both sides, keeping the loop comparison fair).
    for text in CACHED_QUERIES:
        if cached_db.query(text) != cached_db.query(text, naive=True):
            mismatches.append(text)
        uncached_db.query(text)

    start = time.perf_counter()
    for _ in range(repeats):
        for text in CACHED_QUERIES:
            cached_db.query(text)
    cached_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeats):
        for text in CACHED_QUERIES:
            uncached_db.query(text)
    uncached_seconds = time.perf_counter() - start

    stats = cached_db.cache_stats()
    return {
        "queries": len(CACHED_QUERIES),
        "repeats": repeats,
        "cached_seconds": round(cached_seconds, 6),
        "uncached_seconds": round(uncached_seconds, 6),
        "speedup": round(uncached_seconds / cached_seconds, 2)
        if cached_seconds else None,
        "cache_hits": stats["hits"],
        "mismatches": mismatches,
    }


def _phase_concurrent_readers(dataset, readers: int, writes: int,
                              reads_per_thread: int) -> dict:
    database = Database(dataset, index_paths=INDEX_PATHS)
    for text in CACHED_QUERIES:
        database.query(text)
    before = database.cache_stats()
    mismatches: list[str] = []
    mismatch_lock = threading.Lock()
    stop = threading.Event()

    def writer() -> None:
        # Footprint-disjoint inserts: no cached query mentions "note"
        # or "shelf", so precise invalidation re-tags instead of
        # evicting (except the negated query, which must evict).
        for step in range(writes):
            database.insert(data(
                f"bench-note-{step}",
                tup(note=f"entry {step}", shelf=step % 7)))
            time.sleep(0)
        stop.set()

    def reader(seed: int) -> None:
        count = 0
        while count < reads_per_thread or not stop.is_set():
            text = CACHED_QUERIES[(seed + count) % len(CACHED_QUERIES)]
            view = database.view()
            result = view.query(text)
            if count % 16 == 0:  # sampled oracle: pinned view vs naive
                if result != view.query(text, naive=True):
                    with mismatch_lock:
                        mismatches.append(
                            f"{text} @gen {view.generation}")
            count += 1
            if count >= reads_per_thread and stop.is_set():
                break

    threads = [threading.Thread(target=reader, args=(index,))
               for index in range(readers)]
    writer_thread = threading.Thread(target=writer)
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    writer_thread.start()
    writer_thread.join()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    after = database.cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total_reads = hits + misses
    return {
        "readers": readers,
        "writes": writes,
        "reads": total_reads,
        "seconds": round(elapsed, 6),
        "reads_per_second": round(total_reads / elapsed, 1)
        if elapsed else None,
        "hit_rate": round(hits / total_reads, 4) if total_reads else None,
        "retags": after["retags"] - before["retags"],
        "mismatches": mismatches,
    }


def run(entries: int, *, repeats: int, readers: int, writes: int,
        reads_per_thread: int, seed: int = 23) -> dict:
    dataset = _build_dataset(entries, seed)
    phases = {
        "cached_read": _phase_cached_read(dataset, repeats),
        "concurrent_readers": _phase_concurrent_readers(
            dataset, readers, writes, reads_per_thread),
    }
    return {
        "benchmark": "concurrency",
        "workload": {
            "entries": entries,
            "dataset_rows": len(dataset),
            "index_paths": list(INDEX_PATHS),
        },
        "phases": phases,
        "cached_read_speedup": phases["cached_read"]["speedup"],
        "oracle_equal": all(not phase["mismatches"]
                            for phase in phases.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (skips the speedup "
                             "floor, keeps every equality oracle)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run(entries=300, repeats=10, readers=2, writes=20,
                     reads_per_thread=40)
    else:
        report = run(entries=10_000, repeats=20, readers=4, writes=200,
                     reads_per_thread=300)

    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")

    failures = 0
    if not report["oracle_equal"]:
        bad = [entry for phase in report["phases"].values()
               for entry in phase["mismatches"]]
        print(f"FAIL: {len(bad)} read(s) differ from the naive scan at "
              f"the same generation: {bad[:5]}", file=sys.stderr)
        failures += 1
    concurrent = report["phases"]["concurrent_readers"]
    if concurrent["retags"] < 1:
        print("FAIL: footprint-disjoint writes never re-tagged a cache "
              "entry — precise invalidation is not engaging",
              file=sys.stderr)
        failures += 1
    if not args.smoke:
        cached = report["cached_read_speedup"]
        if cached is None or cached < MIN_CACHED_SPEEDUP:
            print(f"FAIL: cached-read speedup {cached}x is below the "
                  f"{MIN_CACHED_SPEEDUP}x floor", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
