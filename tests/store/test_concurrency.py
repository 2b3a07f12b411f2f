"""Tests for the concurrent serving layer: MVCC generation snapshots,
the epoch-invalidated result cache and the shared LRU core.

The crown jewels are the interleaving suites at the bottom: reader
threads race a writer and every observed result must be bit-identical
to a ``naive=True`` full scan at the generation it claims to be from —
the zero-stale-reads, zero-torn-reads contract.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import cset, data, orv, tup
from repro.core.data import DataSet
from repro.core.objects import BOTTOM
from repro.store import Database, LRUCache, QueryResultCache
from repro.store.cache import PRECISION_CAP


def entry(uid: int, **fields) -> "object":
    fields.setdefault("type", "Article")
    fields.setdefault("title", f"Title {uid:04d}")
    return data(f"m{uid}", tup(**fields))


def fill(count: int, **fields) -> list:
    return [entry(uid, **fields) for uid in range(count)]


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------

class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 7) == 7

    def test_eviction_is_lru_not_fifo(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # promote: "b" is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_get_or_add_caches_one_value(self):
        cache = LRUCache(4)
        calls = []
        first = cache.get_or_add("k", lambda: calls.append(1) or "v1")
        second = cache.get_or_add("k", lambda: calls.append(2) or "v2")
        assert first == second == "v1"
        assert calls == [1]

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.get_or_add("a", lambda: 5) == 5
        assert len(cache) == 0


class TestParsedQueryLRU:
    def test_parsed_specs_are_cached_by_identity(self):
        db = Database(fill(3))
        text = 'select * where type = "Article"'
        assert db._parsed(text) is db._parsed(text)

    def test_hit_promotes_over_eviction(self):
        from repro.store import database as database_module

        db = Database(fill(3))
        hot = 'select * where type = "Article"'
        spec = db._parsed(hot)
        for index in range(database_module._QUERY_CACHE_SIZE):
            db._parsed(f'select * where year = {index}')
            db._parsed(hot)       # keep promoting the hot query
        assert db._parsed(hot) is spec


# ---------------------------------------------------------------------------
# Generations and views
# ---------------------------------------------------------------------------

class TestGenerations:
    def test_every_mutation_bumps_once(self):
        db = Database()
        assert db.generation == 0
        first = entry(1)
        db.insert(first)
        assert db.generation == 1
        db.insert(first)                  # duplicate: no-op, no bump
        assert db.generation == 1
        db.insert_all(fill(10))
        assert db.generation == 2         # one bump for the whole batch
        db.remove(first)
        assert db.generation == 3
        # Binding a nonexistent attribute to ⊥ changes nothing: no bump.
        db.set_attribute("m2", "year", BOTTOM)
        assert db.generation == 3

    def test_insert_all_counts_new_only(self):
        db = Database(fill(5))
        assert db.insert_all(fill(8)) == 3
        assert db.generation == 1

    def test_snapshot_identity_per_generation(self):
        db = Database(fill(3))
        first = db.snapshot()
        assert db.snapshot() is first
        db.create_index("type")           # same generation, same snapshot
        assert db.snapshot() is first
        db.insert(entry(99))
        assert db.snapshot() is not first

    def test_view_pins_generation(self):
        db = Database(fill(4))
        view = db.view()
        pinned = view.snapshot()
        db.insert_all(fill(8))
        assert view.generation == 0
        assert db.generation == 1
        assert len(view) == 4
        assert view.snapshot() is pinned
        assert len(db) == 8
        assert view.query('select * where type = "Article"') == pinned

    def test_view_by_marker_is_pinned(self):
        db = Database(fill(2))
        view = db.view()
        db.remove(entry(0))
        assert len(view.by_marker("m0")) == 1
        assert len(db.by_marker("m0")) == 0

    def test_update_is_one_atomic_batch(self):
        db = Database(fill(4, author="Bob"))
        generation = db.generation
        changed = db.update("m1", lambda datum: entry(1, author="Alice"))
        assert changed == 1
        assert db.generation == generation + 1


# ---------------------------------------------------------------------------
# Result cache: epochs, retags, precise invalidation
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_hit_requires_exact_generation(self):
        cache = QueryResultCache(8)
        cache.store("q", 3, "result", frozenset(), True)
        assert cache.lookup("q", 3) == "result"
        assert cache.lookup("q", 2) is None
        assert cache.lookup("q", 4) is None

    def test_laggard_store_never_clobbers_newer(self):
        cache = QueryResultCache(8)
        cache.store("q", 5, "new", frozenset(), True)
        cache.store("q", 4, "old", frozenset(), True)
        assert cache.lookup("q", 5) == "new"
        assert cache.lookup("q", 4) is None

    def test_disjoint_write_retags(self):
        db = Database(fill(20, year=1980), index_paths=["type"])
        text = 'select * where year >= 1975'
        result = db.query(text)
        db.insert(entry(999, type="Venue", title="No Year Here"))
        stats = db.cache_stats()
        assert stats["retags"] == 1
        # The retagged entry serves the new generation without rerun.
        hits_before = stats["hits"]
        assert db.query(text) == result
        assert db.cache_stats()["hits"] == hits_before + 1
        assert db.query(text, naive=True) == result

    def test_footprint_write_evicts(self):
        db = Database(fill(20, year=1980))
        text = 'select * where year >= 1975'
        db.query(text)
        db.insert(entry(999, year=2001))
        stats = db.cache_stats()
        assert stats["retags"] == 0
        assert stats["entries"] == 0
        assert len(db.query(text)) == 21
        assert db.query(text) == db.query(text, naive=True)

    def test_select_all_always_evicts(self):
        db = Database(fill(5))
        db.query("select *")
        db.insert(entry(77, type="Unrelated"))
        assert db.cache_stats()["entries"] == 0
        assert len(db.query("select *")) == 6

    def test_negated_condition_always_evicts(self):
        # not exists(year) matches data *lacking* the path, so a write
        # that never touches "year" can still change the result.
        db = Database(fill(5, year=1990))
        text = "select * where not exists year"
        assert len(db.query(text)) == 0
        db.insert(entry(50, type="Venue", title="No Year"))
        assert db.cache_stats()["entries"] == 0
        assert len(db.query(text)) == 1
        assert db.query(text) == db.query(text, naive=True)

    def test_indexed_touch_information_is_used(self):
        # Write touches an *indexed* footprint path: evict, no delta walk.
        db = Database(fill(10, year=1980), index_paths=["year"])
        text = "select * where year = 1980"
        db.query(text)
        db.insert(entry(100, year=1980))
        assert db.cache_stats()["entries"] == 0
        assert len(db.query(text)) == 11

    def test_large_delta_falls_back_conservatively(self):
        db = Database(fill(4, year=1980))
        text = 'select * where year >= 1975'
        db.query(text)
        # A batch beyond PRECISION_CAP of footprint-disjoint data: the
        # commit skips the per-datum walk and conservatively evicts.
        batch = [entry(1000 + uid, type="Venue", title=f"V{uid}")
                 for uid in range(PRECISION_CAP + 1)]
        db.insert_all(batch)
        assert db.cache_stats()["retags"] == 0
        assert db.query(text) == db.query(text, naive=True)

    def test_cache_disabled(self):
        db = Database(fill(5), result_cache_size=0)
        text = 'select * where type = "Article"'
        assert db.query(text) == db.query(text)
        assert db.cache_stats()["entries"] == 0
        assert db.cache_stats()["hits"] == 0

    def test_naive_bypasses_cache(self):
        db = Database(fill(5))
        text = 'select * where type = "Article"'
        db.query(text, naive=True)
        assert db.cache_stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Threaded interleaving: zero stale reads, zero torn reads
# ---------------------------------------------------------------------------

QUERIES = (
    'select * where type = "Article"',
    'select * where year >= 1985',
    'select title where year >= 1980 order by year limit 7',
    'select * where title contains "1"',
    'select * where not exists year',
    'select *',
)


@pytest.mark.stress
class TestThreadedInterleaving:
    def test_readers_race_merge_writer(self):
        db = Database(fill(60, year=1980), index_paths=["type", "year"])
        errors: list[str] = []
        stop = threading.Event()

        def reader(worker: int) -> None:
            while not stop.is_set():
                view = db.view()
                for text in QUERIES:
                    got = view.query(text)
                    expected = view.query(text, naive=True)
                    if got != expected:
                        errors.append(
                            f"reader {worker}: stale/torn result for "
                            f"{text!r} at generation {view.generation}")
                        return

        def writer() -> None:
            for round_index in range(15):
                batch = [entry(1000 + 100 * round_index + uid,
                               year=1985 + round_index)
                         for uid in range(5)]
                db.merge_in(DataSet(batch), {"type", "title"})
                db.insert(entry(5000 + round_index, type="Venue",
                                title=f"Venue {round_index}"))
                db.remove(entry(1000 + 100 * round_index,
                                year=1985 + round_index))
            stop.set()

        threads = [threading.Thread(target=reader, args=(index,))
                   for index in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert not writer_thread.is_alive()

    def test_cached_reads_race_disjoint_writer(self):
        # Writers only add footprint-disjoint data, so cached entries
        # survive by re-tagging — and must still be exactly right.
        db = Database(fill(50, year=1980), index_paths=["year"])
        text = 'select * where year >= 1975'
        errors: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                view = db.view()
                if view.query(text) != view.query(text, naive=True):
                    errors.append("stale cached read")
                    return

        def writer() -> None:
            for index in range(40):
                db.insert(entry(9000 + index, type="Venue",
                                title=f"V{index}"))
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[0]
        assert db.cache_stats()["retags"] > 0

    def test_carried_scan_memos_race_writer(self):
        writes = 300
        # Every write carries the head generation's column indexes and
        # scan memos into the next one while readers of the head keep
        # inserting (and, at the cap, clearing) memo entries. Fresh
        # constants keep the memos churning; a switch interval of 1 µs
        # puts thread switches inside the writer's carry, and a paced
        # writer lets the readers fill each generation's memos.
        rows = [entry(uid, year=1900 + uid % 97) for uid in range(150)]
        rows += [entry(500 + uid, year=orv(1950 + uid, 1990 + uid),
                       title=cset(f"Alt {uid:03d}", f"Other {uid:03d}"))
                 for uid in range(30)]
        db = Database(rows, result_cache_size=0)
        db.query("select * where year >= 1900")  # build the columns
        errors: list[str] = []
        stop = threading.Event()

        def reader(worker: int) -> None:
            rng = random.Random(worker)
            try:
                reads = 0
                while not stop.is_set():
                    view = db.view()
                    for text in (
                            f"select * where year >= "
                            f"{rng.randrange(1850, 2100)}",
                            f"select * where year < "
                            f"{rng.randrange(1850, 2100)}",
                            f'select * where title contains '
                            f'"{rng.randrange(1000):03d}"'):
                        got = view.query(text)
                        reads += 1
                        if (reads % 7 == 0
                                and got != view.query(text, naive=True)):
                            errors.append(
                                f"reader {worker}: wrong result for "
                                f"{text!r} at generation "
                                f"{view.generation}")
                            return
            except Exception as exc:  # a failed read fails the test
                errors.append(f"reader {worker}: {exc!r}")

        def writer() -> None:
            try:
                for index in range(writes):
                    db.insert(entry(2000 + index,
                                    year=1900 + index % 150,
                                    title=f"Title w{index:03d}"))
                    if index % 3 == 0:
                        db.insert(entry(
                            3000 + index,
                            year=orv(1960 + index, 2000 + index),
                            title=cset(f"Alt w{index:03d}")))
                    if index % 4 == 0:
                        db.remove(entry(index, year=1900 + index % 97))
                    time.sleep(0.001)
            except Exception as exc:  # a failed write fails the test
                errors.append(f"writer: {exc!r}")
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(4)]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=120)
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not writer_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert db.generation > writes


    def test_shared_value_memo_races_writer(self, monkeypatch):
        from repro.query import aggregates

        writes = 120
        # Every generation's ``year`` column shares one value memo with
        # its predecessors, which readers of several generations fill
        # without a lock. A cap of 16 values makes readers clear it
        # under each other; a switch interval of 1 µs puts thread
        # switches between a reader's lookup and its fill.
        monkeypatch.setattr(aggregates, "_CONTRIBUTION_CAP", 16)
        rows = [entry(uid, type=("Article", "Book")[uid % 2],
                      year=orv(1950 + uid % 40, 1990 + uid % 23))
                for uid in range(80)]
        rows += [entry(100 + uid, year=orv(1960 + uid, BOTTOM))
                 for uid in range(20)]
        rows += [entry(200 + uid, year=1900 + uid) for uid in range(40)]
        db = Database(rows, result_cache_size=0)
        db.query("select count(*) group by type")  # build the columns
        errors: list[str] = []
        stop = threading.Event()

        def reader(worker: int) -> None:
            rng = random.Random(worker)
            try:
                while not stop.is_set():
                    view = db.view()
                    low = rng.randrange(1890, 2010)
                    text = (f"select count(*), min(year), max(year) "
                            f"where year >= {low} group by type")
                    if view.query(text) != view.query(text, naive=True):
                        errors.append(
                            f"reader {worker}: wrong result for "
                            f"{text!r} at generation {view.generation}")
                        return
            except Exception as exc:  # a failed read fails the test
                errors.append(f"reader {worker}: {exc!r}")

        def writer() -> None:
            try:
                for index in range(writes):
                    db.insert(entry(1000 + index,
                                    year=orv(1900 + index,
                                             2000 + index % 17)))
                    if index % 5 == 0:
                        db.remove(entry(200 + index % 40,
                                        year=1900 + index % 40))
                    time.sleep(0.001)
            except Exception as exc:  # a failed write fails the test
                errors.append(f"writer: {exc!r}")
            finally:
                stop.set()

        readers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(readers)]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=120)
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not writer_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert db.generation > writes
        memo = db._state.columns().column(("year",)).value_memo
        # The cap check and the insert take no lock, so each reader may
        # add one value past the cap after another's check.
        assert 0 < len(memo) <= 16 + readers
        for value, contributions in memo.items():
            for kind, contribution in contributions.items():
                assert contribution == aggregates._value_contribution(
                    kind, value)


    def test_identity_memo_races_merge_writer(self, monkeypatch):
        import importlib

        intern_module = importlib.import_module("repro.core.intern")
        writes = 60
        # Readers fill the one identity memo with path alternatives,
        # structural keys and join keys while the writer fills it with
        # compatibility, ∪K and signature entries. A cap of 64 makes
        # every thread clear it under the others; a switch interval of
        # 1 µs puts thread switches between a lookup and its insert.
        cap = 64
        monkeypatch.setattr(intern_module, "MEMO_CAP", cap)
        rows = [entry(uid, type=("Article", "Book")[uid % 2],
                      title=f"Title {uid % 30:04d}",
                      year=orv(1950 + uid % 40, 1990 + uid % 23))
                for uid in range(60)]
        rows += [entry(100 + uid, type="Book",
                       title=cset(f"Title {uid:04d}", f"Alt {uid:04d}"),
                       year=1900 + uid)
                 for uid in range(20)]
        db = Database(rows, result_cache_size=0)
        db.query("select count(*) group by type")  # build the columns
        errors: list[str] = []
        sizes: list[int] = []
        snapshots: list[dict] = []
        stop = threading.Event()

        def observe() -> None:
            snapshot = intern_module.MEMO.copy()  # one C call: atomic
            sizes.append(len(snapshot))
            snapshots.append(snapshot)

        def reader(worker: int) -> None:
            rng = random.Random(worker)
            try:
                while not stop.is_set():
                    view = db.view()
                    low = rng.randrange(1890, 2010)
                    for text in (
                            f"select count(*), min(year), max(year) "
                            f"where year >= {low} group by type",
                            f"select title where year >= {low} "
                            f"order by year limit 5"):
                        if view.query(text) != view.query(text,
                                                          naive=True):
                            errors.append(
                                f"reader {worker}: wrong result for "
                                f"{text!r} at generation "
                                f"{view.generation}")
                            return
                    join, _, _ = db._join_query(
                        view._state, 'select * where type = "Article"',
                        'select * where type = "Book"', "title")
                    if join.rows() != join.rows(naive=True):
                        errors.append(
                            f"reader {worker}: wrong join at "
                            f"generation {view.generation}")
                        return
                    observe()
            except Exception as exc:  # a failed read fails the test
                errors.append(f"reader {worker}: {exc!r}")

        def writer() -> None:
            try:
                for index in range(writes):
                    batch = [entry(uid, type=("Article", "Book")[uid % 2],
                                   title=f"Title {uid % 30:04d}",
                                   year=1900 + index)
                             for uid in range(index % 7, 60, 7)]
                    db.merge_in(DataSet(batch), {"type", "title"})
                    observe()
                    time.sleep(0.001)
            except Exception as exc:  # a failed write fails the test
                errors.append(f"writer: {exc!r}")
            finally:
                stop.set()

        readers = 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(readers)]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=120)
            stop.set()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not writer_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert db.generation >= writes
        # The cap check and the insert take no lock, so each thread may
        # add one entry past the cap after another's check.
        assert sizes and max(sizes) <= cap + readers + 1
        # The oracles above key rows through the memo too, so check
        # every entry the threads saw against the definitional code, on
        # a memo emptied first so no answer is read back from it. The
        # pool still pins every id a key holds.
        objects = {id(obj): obj for obj in intern_module._DEFAULT_POOL._table}
        objects[id(BOTTOM)] = BOTTOM
        entries = {}
        for snapshot in snapshots:
            entries.update(snapshot)
        intern_module.MEMO.clear()
        for key, value in entries.items():
            assert value == memo_free_answer(key, objects), key


def memo_free_answer(key, objects):
    """What the producer of an identity-memo ``key`` answers, from the
    definitional code; ``objects`` maps the key's ids to objects."""
    from repro.core.compatibility import compatible
    from repro.core.informativeness import less_informative
    from repro.core.operations import difference, intersection, union
    from repro.core.order import _structural_key
    from repro.query.aggregates import _alts_for
    from repro.query.join import _keys_of
    from repro.store.index import _signature_impl

    if not isinstance(key, tuple):
        return _structural_key(objects[key])
    if key[0] == "less_informative":
        return less_informative(objects[key[1]], objects[key[2]],
                                naive=True)
    tag, *ids, argument = key
    operands = [objects[ident] for ident in ids]
    if tag in ("compatible", "union", "intersection", "difference"):
        producer = {"compatible": compatible, "union": union,
                    "intersection": intersection,
                    "difference": difference}[tag]
        return producer(*operands, argument, naive=True)
    producer = {"signature": _signature_impl, "alternatives": _alts_for,
                "join_keys": _keys_of}[tag]
    return producer(*operands, argument)


# ---------------------------------------------------------------------------
# Hypothesis: random write/query interleavings across threads
# ---------------------------------------------------------------------------

write_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "remove", "batch", "venue"]),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=12)


@pytest.mark.stress
@settings(max_examples=20, deadline=None)
@given(ops=write_ops, query_picks=st.lists(
    st.integers(min_value=0, max_value=len(QUERIES) - 1),
    min_size=1, max_size=6))
def test_random_interleaving_never_reads_stale(ops, query_picks):
    """Random writes race cached queries across threads; every cached
    result equals a fresh naive scan at the same generation."""
    db = Database(fill(15, year=1980), index_paths=["type"])
    errors: list[str] = []
    stop = threading.Event()

    def reader() -> None:
        while not stop.is_set():
            view = db.view()
            for pick in query_picks:
                text = QUERIES[pick]
                if view.query(text) != view.query(text, naive=True):
                    errors.append(
                        f"stale result for {text!r} at generation "
                        f"{view.generation}")
                    return

    def writer() -> None:
        for op, uid in ops:
            if op == "insert":
                db.insert(entry(100 + uid, year=1985))
            elif op == "remove":
                db.remove(entry(uid, year=1980))
            elif op == "batch":
                db.insert_all(fill(uid, year=1990))
            else:
                db.insert(entry(200 + uid, type="Venue",
                                title=f"V{uid}"))
        stop.set()

    reader_thread = threading.Thread(target=reader)
    writer_thread = threading.Thread(target=writer)
    reader_thread.start()
    writer_thread.start()
    writer_thread.join(timeout=60)
    stop.set()
    reader_thread.join(timeout=60)
    assert not errors, errors[0]
