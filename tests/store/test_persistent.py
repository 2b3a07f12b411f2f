"""Tests for the persistent collections under a published generation
(:mod:`repro.store.persistent`) and for the store built on them.

The model-based properties edit random *earlier* versions, so one
parent gets several successors (what an aborted group-commit batch
leaves behind), and check every version, old ones included, against
builtin ``dict``/``set``/``list`` models. The stress suite races
readers of pinned views against a committing writer; the commit-cost
pin keeps a one-row write proportional to the delta.
"""

import gc
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import cset, data, orv, tup
from repro.core.compatibility import check_key, compatible_data
from repro.core.data import DataSet
from repro.query.parser import parse_query_spec
from repro.store import Database
from repro.store.persistent import (
    BUCKET_LOAD,
    PAGE_SIZE,
    PagedList,
    PMap,
    PSet,
)


# ---------------------------------------------------------------------------
# The read protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_map_reads_like_a_dict(self):
        source = {("k", i): i * i for i in range(100)}
        pmap = PMap(source)
        assert len(pmap) == 100
        assert pmap[("k", 7)] == 49
        assert pmap.get(("k", 7)) == 49
        assert pmap.get("missing") is None
        assert pmap.get("missing", 3) == 3
        assert ("k", 99) in pmap and "missing" not in pmap
        assert set(pmap) == set(source)
        assert dict(pmap.items()) == source
        assert sorted(pmap.values()) == sorted(source.values())
        assert pmap.values_at([("k", 2), ("k", 3)]) == [4, 9]
        assert pmap == source and PMap() == {}
        with pytest.raises(KeyError):
            pmap["missing"]

    def test_set_reads_like_a_frozenset(self):
        pset = PSet(range(50))
        assert len(pset) == 50 and 7 in pset and 50 not in pset
        assert set(pset) == set(range(50))
        assert pset == frozenset(range(50))
        assert frozenset(range(50)) == pset
        assert pset != frozenset(range(49))

    def test_paged_list_reads_like_a_list(self):
        items = list(range(3 * PAGE_SIZE + 5))
        paged = PagedList(items)
        assert len(paged) == len(items)
        assert list(paged) == items
        assert paged[0] == 0 and paged[-1] == items[-1]
        assert paged[PAGE_SIZE] == PAGE_SIZE
        assert paged.gather([1, PAGE_SIZE - 1, PAGE_SIZE, len(items) - 1]) \
            == [1, PAGE_SIZE - 1, PAGE_SIZE, len(items) - 1]
        assert paged.gather([]) == []
        with pytest.raises(IndexError):
            paged[len(items)]

    def test_an_empty_edit_returns_the_parent(self):
        pmap = PMap({1: 2})
        assert pmap.edit().finish() is pmap
        pset = PSet({1})
        assert pset.edit().finish() is pset
        paged = PagedList([1])
        assert paged.extended([]) is paged

    def test_finished_editor_never_writes_the_published_map(self):
        editor = PMap({1: "a"}).edit()
        editor[2] = "b"
        first = editor.finish()
        editor[3] = "c"
        second = editor.finish()
        assert first == {1: "a", 2: "b"}
        assert second == {1: "a", 2: "b", 3: "c"}


class TestGrowth:
    def test_table_doubles_and_old_versions_keep_theirs(self):
        versions = [PMap()]
        sizes = []
        for batch in range(12):
            editor = versions[-1].edit()
            for key in range(batch * 100, (batch + 1) * 100):
                editor[key] = -key
            versions.append(editor.finish())
            sizes.append(len(versions[-1]._table))
        # 1,200 keys at <= BUCKET_LOAD per bucket: several doublings.
        assert sizes[-1] >= 1200 // BUCKET_LOAD
        assert len(set(sizes)) >= 4
        for count, version in enumerate(versions):
            assert len(version) == count * 100
            assert dict(version.items()) == {
                key: -key for key in range(count * 100)}
            assert len(version._table) * BUCKET_LOAD >= len(version)

    @pytest.mark.parametrize("head", [0, 3])
    @pytest.mark.parametrize("start", [PAGE_SIZE - 2, PAGE_SIZE - 1,
                                       PAGE_SIZE, PAGE_SIZE + 1])
    @pytest.mark.parametrize("count", [1, 2, PAGE_SIZE, PAGE_SIZE + 1])
    def test_appends_around_a_page_end(self, head, start, count):
        # ``start`` appended entries after a ``head``-long built list.
        base = PagedList(range(head)).extended(range(head, head + start))
        end = head + start
        grown = base.extended(range(end, end + count))
        sibling = base.extended(["x"] * count)
        assert list(base) == list(range(end))
        assert list(grown) == list(range(end + count))
        assert list(sibling) == list(range(end)) + ["x"] * count
        positions = list(range(0, end + count, 7)) + [end - 1, end]
        assert grown.gather(sorted(set(positions))) == sorted(set(positions))
        assert [grown[i] for i in (end - 1, end, -1)] == [
            end - 1, end, end + count - 1]
        # The head and the full pages are shared, never copied.
        assert grown._head is base._head
        for page in range(start // PAGE_SIZE):
            assert grown._pages[page] is base._pages[page]


# ---------------------------------------------------------------------------
# Model-based properties: edits of random earlier versions
# ---------------------------------------------------------------------------

KEYS = st.one_of(st.integers(min_value=0, max_value=3000),
                 st.text(alphabet="abc", max_size=3))


def _check_map(version: PMap, model: dict, probes) -> None:
    assert len(version) == len(model)
    assert dict(version.items()) == model
    assert sorted(map(repr, version)) == sorted(map(repr, model))
    for key in probes:
        assert (key in version) == (key in model)
        assert version.get(key, "absent") == model.get(key, "absent")
        if key in model:
            assert version[key] == model[key]


#: ``(key, value)`` pairs with repeated keys, for the direct-fill
#: constructors; paired with a size hint that may fall short of the
#: distinct count (the table then respreads).
PAIRS = st.lists(st.tuples(KEYS, st.integers()), max_size=400)
HINTS = st.integers(min_value=0, max_value=800)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_map_versions_match_dict_models(draw):
    pairs = draw.draw(PAIRS)
    versions = [(PMap(), {}),
                (PMap.from_items(pairs, draw.draw(HINTS)), dict(pairs))]
    for _ in range(draw.draw(st.integers(min_value=1, max_value=10))):
        parent, model = versions[draw.draw(
            st.integers(min_value=0, max_value=len(versions) - 1))]
        removals = draw.draw(st.lists(KEYS, max_size=40))
        removals += draw.draw(st.lists(st.sampled_from(sorted(
            model, key=repr) or [0]), max_size=40))
        additions = draw.draw(st.dictionaries(KEYS, st.integers(),
                                              max_size=400))
        editor = parent.edit()
        expected = dict(model)
        for key in removals:
            if key in editor:
                del editor[key]
                del expected[key]
        for key, value in additions.items():
            editor[key] = value
            expected[key] = value
        child = editor.finish()
        _check_map(child, expected, removals + list(additions))
        versions.append((child, expected))
    probes = draw.draw(st.lists(KEYS, max_size=30))
    for version, model in versions:
        _check_map(version, model, probes + list(model))


@settings(max_examples=40, deadline=None)
@given(PAIRS, HINTS)
def test_grouped_map_matches_a_dict_of_sets(pairs, hint):
    model: dict = {}
    for key, value in pairs:
        model.setdefault(key, set()).add(value)
    grouped = PMap.grouped(pairs, hint)
    _check_map(grouped, model, [key for key, _ in pairs])
    assert len(grouped._table) * BUCKET_LOAD >= len(grouped)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_set_versions_match_set_models(draw):
    versions = [(PSet(), frozenset())]
    for _ in range(draw.draw(st.integers(min_value=1, max_value=10))):
        parent, model = versions[draw.draw(
            st.integers(min_value=0, max_value=len(versions) - 1))]
        removals = draw.draw(st.lists(KEYS, max_size=40))
        removals += draw.draw(st.lists(st.sampled_from(sorted(
            model, key=repr) or [0]), max_size=40))
        additions = draw.draw(st.lists(KEYS, max_size=400))
        editor = parent.edit()
        for item in removals:
            editor.discard(item)
        for item in additions:
            editor.add(item)
        expected = (model - frozenset(removals)) | frozenset(additions)
        child = editor.finish()
        versions.append((child, expected))
        assert child == expected and len(child) == len(expected)
    probes = draw.draw(st.lists(KEYS, max_size=30))
    for version, model in versions:
        assert len(version) == len(model)
        assert set(version) == model
        for item in probes + list(model):
            assert (item in version) == (item in model)


#: Append sizes that land one before, exactly on and one past a page
#: end from an empty or page-aligned list, plus arbitrary ones.
APPENDS = st.one_of(
    st.sampled_from([PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 1, 2]),
    st.integers(min_value=0, max_value=2 * PAGE_SIZE))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_paged_versions_match_list_models(draw):
    head = [("head", index) for index in range(draw.draw(APPENDS))]
    versions = [(PagedList(head), list(head))]
    for step in range(draw.draw(st.integers(min_value=1, max_value=8))):
        parent, model = versions[draw.draw(
            st.integers(min_value=0, max_value=len(versions) - 1))]
        items = [(step, index)
                 for index in range(draw.draw(APPENDS))]
        child = parent.extended(items)
        versions.append((child, model + items))
    for version, model in versions:
        assert len(version) == len(model)
        assert list(version) == model
        if model:
            picks = sorted(draw.draw(st.lists(
                st.integers(min_value=0, max_value=len(model) - 1),
                max_size=50)))
            assert version.gather(picks) == [model[i] for i in picks]
            for position in (0, len(model) - 1, PAGE_SIZE - 1, PAGE_SIZE):
                if position < len(model):
                    assert version[position] == model[position]


# ---------------------------------------------------------------------------
# The store on top: commit cost and lazy reads
# ---------------------------------------------------------------------------

def entry(uid: int, **fields):
    fields.setdefault("type", ("Article", "InProc", "Book")[uid % 3])
    fields.setdefault("title", f"Title {uid:06d}")
    fields.setdefault("year", 1950 + uid % 60)
    fields.setdefault("author", cset(f"A{uid % 97}", f"B{uid % 89}")
                      if uid % 4 == 0 else f"A{uid % 97}")
    return data(f"m{uid}", tup(**fields))


def warm_store(size: int) -> Database:
    """A store with its columns and a key index built, one write in."""
    db = Database([entry(uid) for uid in range(size)])
    db.query("select * where year >= 1990")
    db.compatible_with(entry(1), ["title"])
    db.insert(entry(size + 1))
    return db


class TestCommitCost:
    def test_insert_peak_follows_the_delta(self):
        # The parent design copied every whole-store structure per
        # commit: its peak grew 9.6x from 2,000 to 20,000 rows.
        peaks = []
        for size in (2000, 20000):
            db = warm_store(size)
            gc.collect()
            tracemalloc.start()
            try:
                db.insert(entry(size + 2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 3 * peaks[0], peaks

    def test_columnar_read_after_a_write_leaves_the_dataset_unbuilt(self):
        db = warm_store(300)
        db.insert(entry(1000))
        view = db.view()
        view.query("select * where year >= 2000")
        assert view._state._dataset is None
        view.query("select count(*) where year >= 2000 group by type")
        assert view._state._dataset is None
        assert len(view.snapshot()) == len(view)


# ---------------------------------------------------------------------------
# Readers during commits
# ---------------------------------------------------------------------------

KEY = ("title",)


@pytest.mark.stress
def test_pinned_readers_during_merge_commits():
    commits = 150
    rows = [entry(uid) for uid in range(200)]
    db = Database(rows, result_cache_size=0)
    db.query("select * where year >= 1990")  # build the columns
    model = DataSet(db.snapshot())
    history = {db.generation: model}
    observed: list[tuple] = []
    errors: list[str] = []
    stop = threading.Event()
    markers = [datum.marker for datum in rows[:20]]
    text = "select * where year >= 1980 and year <= 1990"

    def reader(worker: int) -> None:
        rng = random.Random(worker)
        try:
            while not stop.is_set() and len(observed) < 2000:
                view = db.view()
                probe = entry(rng.randrange(260))
                marker = rng.choice(markers)
                observed.append((
                    view.generation, len(view), frozenset(view),
                    marker, view.by_marker(marker),
                    probe, view.compatible_with(probe, KEY),
                    view.query(text)))
        except Exception as exc:  # a failed read fails the test
            errors.append(f"reader {worker}: {exc!r}")

    def writer() -> None:
        nonlocal model
        rng = random.Random(99)
        try:
            for index in range(commits):
                batch = []
                for _ in range(rng.randint(1, 4)):
                    uid = rng.randrange(260)
                    batch.append(entry(uid, year=orv(1900 + index,
                                                     1950 + uid % 60)))
                source = DataSet(batch)
                db.merge_in(source, KEY)
                model = model.union(source, KEY)
                history[db.generation] = model
        except Exception as exc:  # a failed write fails the test
            errors.append(f"writer: {exc!r}")
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(index,))
                   for index in range(3)]
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
    assert len(history) > commits // 2
    checked = check_key(KEY)
    spec = parse_query_spec(text)
    generations = set()
    for (generation, size, contents, marker, by_marker, probe,
         compatible, result) in observed:
        expected = history[generation]
        generations.add(generation)
        assert size == len(expected)
        assert contents == frozenset(expected)
        assert by_marker == DataSet(datum for datum in expected
                                    if marker in datum.markers)
        assert compatible == DataSet(
            datum for datum in expected
            if compatible_data(probe, datum, checked))
        assert result == spec.query(expected).run(naive=True)
    assert len(generations) > 1
