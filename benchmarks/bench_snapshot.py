#!/usr/bin/env python
"""Benchmark: binary snapshot codec vs the tagged-JSON persistence path.

The workload is one ``workloads.bibgen`` source of 10k entries loaded
into a :class:`~repro.store.database.Database` with column indexes
built up front on ``type``, ``title``, ``year`` and ``author`` (they
are not persisted) and a warmed ``{type, title}`` key index. Three
phases compare the two on-disk formats:

* ``save`` — ``Database.save`` to JSON vs binary (same fsync path);
* ``cold_load`` — ``Database.load`` timed inside a fresh interpreter
  per run (a service restart *is* a new process), so both formats pay
  full reconstruction from an empty intern pool; the binary path
  additionally restores the persisted key index instead of
  rebuilding it;
* ``load_query`` — cold load plus the first point query, the
  "time to first answer" a service restart actually cares about.

Save/load phases interleave the two formats round-robin and report the
fastest of ``REPEAT`` runs each, so a scheduler hiccup on a shared
machine cannot masquerade as a codec regression.

Equality oracles run on **every** run, full and smoke:

* the binary-loaded database equals the JSON-loaded one (same data);
* the binary load restores the ``{type, title}`` key index without
  computing a single key signature, and the restored index (buckets,
  scan list, never list) equals one rebuilt from the data;
* the binary-loaded database answers queries identically to a freshly
  built one and to the naive scan.

The full run additionally requires binary save and cold load to beat
JSON by at least ``MIN_SPEEDUP``× each.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import tempfile
from pathlib import Path

from _harness import SRC, best_of, cold, main, speedup
from repro.store import index as key_index
from repro.store.database import Database
from repro.workloads import BibWorkloadSpec, generate_workload

#: The acceptance floor: binary save and cold load must each beat the
#: JSON path by at least this factor on the full workload.
MIN_SPEEDUP = 3.0

#: Attribute paths whose column indexes the database builds up front.
INDEX_PATHS = ("type", "title", "year", "author")

#: The key whose index is warmed before saving.
KEY = frozenset({"type", "title"})


#: Each timed phase runs this many times and reports the fastest —
#: the min damps scheduler and page-cache noise on shared machines.
REPEAT = 3


#: Run in a fresh interpreter per cold-load measurement: a service
#: restart *is* a new process, and a subprocess keeps one format's
#: heap from skewing the other's garbage-collection behaviour.
_COLD_LOAD_SNIPPET = """\
import sys, time
sys.path.insert(0, {src!r})
from repro.store.database import Database
start = time.perf_counter()
Database.load({path!r})
print(time.perf_counter() - start)
"""


def _cold_load_seconds(path: Path) -> float:
    script = _COLD_LOAD_SNIPPET.format(src=SRC, path=str(path))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True)
    return float(completed.stdout.strip())


def _self_timed(action):
    """A ``best_of`` timer for an action that returns its own seconds."""
    return action(), None


def _signature_calls(action):
    """``(action(), key signatures it computed)``: a load that restores
    the persisted key index computes none, a rebuild one per datum."""
    original = key_index.signature
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    key_index.signature = counting
    try:
        result = action()
    finally:
        key_index.signature = original
    return result, calls


def _key_index_contents(index) -> tuple:
    """Buckets, scan list and never list, independent of list order."""
    return ({sig: frozenset(bucket) for sig, bucket in index.buckets.items()},
            frozenset(index.scan_list), frozenset(index.never_list))


def _build_database(entries: int, seed: int) -> Database:
    workload = generate_workload(BibWorkloadSpec(
        entries=entries, sources=1, overlap=0.0, null_rate=0.1,
        conflict_rate=0.0, partial_author_rate=0.3, seed=seed))
    database = Database(workload.sources[0], index_paths=INDEX_PATHS)
    probe = next(iter(database.snapshot()))
    database.compatible_with(probe, KEY)  # warm the key index
    return database


def run(entries: int, seed: int = 19) -> dict:
    database = _build_database(entries, seed)
    sample_title = None
    for datum in database.snapshot():
        title = datum.object.get("title")
        if title is not None and hasattr(title, "value"):
            sample_title = title.value
            break
    query_text = f'select * where title = "{sample_title}"'

    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "snapshot.json"
        binary_path = Path(tmp) / "snapshot.bin"

        (json_save_seconds, _), (binary_save_seconds, _) = best_of(
            [lambda: database.save(json_path, format="json"),
             lambda: database.save(binary_path, format="binary")],
            repeat=REPEAT, before=gc.collect)

        # Cold loads are timed *inside* a fresh interpreter each (see
        # _COLD_LOAD_SNIPPET), interleaved json/binary like the other
        # phases; the best of REPEAT runs per format is reported.
        (json_load_seconds, _), (binary_load_seconds, _) = best_of(
            [lambda: _cold_load_seconds(json_path),
             lambda: _cold_load_seconds(binary_path)],
            repeat=REPEAT, timer=_self_timed)

        # Untimed in-process loads feed the equality oracles below.
        cold()
        from_json = Database.load(json_path)
        cold()
        from_binary, load_signatures = _signature_calls(
            lambda: Database.load(binary_path))

        def _json_load_query():
            fresh = Database.load(json_path)
            fresh.query(query_text)

        def _binary_load_query():
            warm = Database.load(binary_path)
            warm.query(query_text)

        (json_query_seconds, _), (binary_query_seconds, _) = best_of(
            [_json_load_query, _binary_load_query], repeat=REPEAT,
            before=cold)

        sizes = {
            "json_bytes": json_path.stat().st_size,
            "binary_bytes": binary_path.stat().st_size,
        }

    # Oracles (every run): same data both ways, the key index restored
    # (not rebuilt) and equal to a rebuild, and the same answers as a
    # freshly built database.
    datasets_equal = from_binary.snapshot() == from_json.snapshot() \
        == database.snapshot()
    restored = from_binary._key_indexes.get(KEY)
    index_warm = restored is not None and load_signatures == 0
    indexes_equal = restored is not None and (
        _key_index_contents(restored)
        == _key_index_contents(key_index.KeyIndex(from_binary._data, KEY)))
    rebuilt = Database(from_binary.snapshot(), index_paths=INDEX_PATHS)
    queries_equal = all(
        from_binary.query(text) == rebuilt.query(text)
        == from_binary.query(text, naive=True)
        for text in (query_text,
                     'select * where type = "Article" and year >= 1990',
                     'select * where exists author'))

    return {
        "benchmark": "snapshot",
        "workload": {
            "entries": entries,
            "database_rows": len(database),
            "index_paths": list(INDEX_PATHS),
            "key": sorted(KEY),
        },
        "sizes": sizes,
        "save": {
            "json_seconds": round(json_save_seconds, 6),
            "binary_seconds": round(binary_save_seconds, 6),
        },
        "cold_load": {
            "json_seconds": round(json_load_seconds, 6),
            "binary_seconds": round(binary_load_seconds, 6),
        },
        "load_query": {
            "json_seconds": round(json_query_seconds, 6),
            "binary_seconds": round(binary_query_seconds, 6),
        },
        "save_speedup": speedup(json_save_seconds, binary_save_seconds),
        "cold_load_speedup": speedup(json_load_seconds,
                                     binary_load_seconds),
        "query_load_speedup": speedup(json_query_seconds,
                                      binary_query_seconds),
        "size_ratio": round(sizes["json_bytes"] / sizes["binary_bytes"],
                            2),
        "datasets_equal": datasets_equal,
        "indexes_equal": indexes_equal,
        "queries_equal": queries_equal,
        "index_warm": index_warm,
    }


def failures(report: dict):
    """One message per failed oracle."""
    if not report["datasets_equal"]:
        yield "binary-loaded database differs from the JSON-loaded one"
    if not report["indexes_equal"]:
        yield "restored key index differs from a rebuilt one"
    if not report["queries_equal"]:
        yield "binary-loaded database answers queries differently"
    if not report["index_warm"]:
        yield "binary load did not restore the persisted key index"


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entries=300), full=dict(entries=10_000),
        checks=failures,
        floors=[(ratio, ratio, MIN_SPEEDUP)
                for ratio in ("save_speedup", "cold_load_speedup")]))
