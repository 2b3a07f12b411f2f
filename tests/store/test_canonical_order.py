"""The canonical data order (DESIGN.md decision D1).

Data ``m : O`` compare by the marker part's structural key, then by the
object's. :func:`repro.core.order.sort_data` (full sorts) and
:class:`repro.core.order.DataKey` (bisection and the join's sort) key an
object only among data whose marker keys tie. Every check here compares
them with the two-key sort they replaced, kept below as the oracle, on
inputs full of marker ties, or-markers and ``⊥`` markers.
"""

import os
import subprocess
import sys
import textwrap
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.data import Data, DataSet
from repro.core.intern import intern_data
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    Tuple,
)
from repro.core.order import DataKey, sort_data, structural_key
from repro.properties import ObjectGenerator
from repro.store import Database, columnar
from repro.store.columnar import ColumnStore


def two_key(datum: Data) -> tuple:
    """The oracle: the full two-part key every datum used to get."""
    return (structural_key(datum.marker), structural_key(datum.object))


# Four marker names and ⊥ for up to 30 data: most markers tie.
NAMES = ("m1", "m2", "m3", "m4")
marker_parts = st.one_of(
    st.sampled_from(NAMES).map(Marker),
    st.lists(st.sampled_from(NAMES), min_size=2, max_size=3,
             unique=True).map(lambda names: OrValue(map(Marker, names))),
    st.just(BOTTOM),
)
atoms = st.builds(Atom, st.one_of(st.integers(min_value=-3, max_value=3),
                                  st.sampled_from(["a", "b", ""]),
                                  st.booleans()))
objects = st.recursive(
    st.one_of(st.just(BOTTOM), atoms),
    lambda children: st.one_of(
        st.dictionaries(st.sampled_from(["A", "B", "C"]), children,
                        max_size=3).map(Tuple),
        st.lists(children, max_size=3).map(CompleteSet),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: OrValue.of(*items))),
    max_leaves=8)
data_lists = st.lists(st.builds(Data, marker_parts, objects),
                      max_size=30, unique=True)


@settings(max_examples=150, deadline=None)
@given(data_lists, st.booleans())
def test_sort_data_and_data_key_equal_the_two_key_sort(items, interned):
    if interned:
        items = [intern_data(datum) for datum in items]
    expected = sorted(items, key=two_key)
    assert sort_data(items) == expected
    assert sort_data(reversed(items)) == expected
    assert sorted(items, key=DataKey) == expected
    assert list(DataSet(items)) == expected
    # The join orders row pairs by (left, right): tuples of key objects.
    pairs = [(left, right) for left in items[:6] for right in items[:6]]
    assert sorted(pairs, key=lambda pair: tuple(map(DataKey, pair))) \
        == sorted(pairs, key=lambda pair: tuple(map(two_key, pair)))


@settings(max_examples=60, deadline=None)
@given(data_lists, data_lists, st.data())
def test_in_canonical_order_on_a_patched_store(base, extra, draw):
    store = ColumnStore.build(DataSet(base))
    removed = draw.draw(st.lists(st.sampled_from(base), max_size=10)) \
        if base else []
    patched = store.patched(removed, extra)
    live = (set(base) - set(removed)) | set(extra)
    rows = list(patched.rows)
    positions = [index for index, datum in enumerate(rows)
                 if datum in live]
    assert len(positions) == len(live)
    subset = draw.draw(st.lists(st.sampled_from(positions), unique=True)
                       .map(sorted)) if positions else []
    for chosen in (positions, subset):
        got_positions, got_rows = patched.in_canonical_order(chosen)
        assert got_rows == sorted((rows[index] for index in chosen),
                                  key=two_key)
        assert [rows[index] for index in got_positions] == got_rows
        assert sorted(got_positions) == chosen


def _tied_data(seed: int, count: int) -> list[Data]:
    """Generated objects under few markers: plain, or-markers and ⊥."""
    generator = ObjectGenerator(seed=seed)
    parts = [Marker("a"), Marker("b"), BOTTOM,
             OrValue([Marker("a"), Marker("c")])]
    return list(dict.fromkeys(
        Data(parts[index % len(parts)], generator.object())
        for index in range(count)))


def test_compacting_rebuild_sorts_like_the_two_key_sort():
    for seed in range(20):
        base = _tied_data(seed, 40)
        added = _tied_data(seed + 100, 6)
        store = ColumnStore.build(DataSet(base))
        # A threshold of 0 rebuilds once more rows are dead than alive.
        with mock.patch.object(columnar, "_REBUILD_DEAD", 0):
            rebuilt = store.patched(base[:30], added)
        live = (set(base) - set(base[:30])) | set(added)
        assert rebuilt.size == len(live), seed
        assert rebuilt.sorted_prefix == rebuilt.size
        assert list(rebuilt.rows) == sorted(live, key=two_key), seed


def test_marker_ties_iterate_alike_under_two_hash_seeds():
    # Set order follows the string-hash seed; the canonical order of
    # data that tie on their marker must not.
    script = textwrap.dedent("""
        from repro.core.data import Data, DataSet
        from repro.core.objects import BOTTOM, Atom, Marker, OrValue, Tuple
        parts = [Marker("m"), BOTTOM, OrValue([Marker("a"), Marker("b")])]
        data = DataSet(
            Data(parts[index % 3], Tuple({"title": Atom(f"t{index}"),
                                          "n": Atom(index)}))
            for index in range(30))
        print([repr(datum) for datum in data._data])
        print([repr(datum) for datum in data])
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines())
    (raw_1, ordered_1), (raw_2, ordered_2) = outputs
    assert raw_1 != raw_2  # the seeds do reorder the set itself
    assert ordered_1 == ordered_2


def _entry(index: int) -> Data:
    return Data(f"E{index}", Tuple({
        "type": Atom("Article" if index % 2 else "Book"),
        "title": Atom(f"Title {index // 2 % 20}"),
        "year": Atom(1990 + index % 17),
    }))


def test_distinct_markers_key_no_object(tmp_path):
    path = tmp_path / "store.db"
    Database([_entry(index) for index in range(120)]).save(
        path, format="binary")
    db = Database.load(path)
    real = structural_key
    keyed = []

    def counted(obj):
        keyed.append(obj)
        return real(obj)

    # Every module holding the function by name, so no caller escapes.
    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("repro")
               and getattr(module, "structural_key", None) is real]
    with ExitStack() as stack:
        for module in holders:
            stack.enter_context(
                mock.patch.object(module, "structural_key", counted))
        assert len(db.query('select * where type = "Article"')) == 60
        assert len(db.query('select * where type = "Book" '
                            'order by year desc limit 5')) == 5
        assert db.join_query('select * where type = "Article"',
                             'select * where type = "Book"', "title")
    assert keyed, "the canonical order keys the markers"
    assert all(type(obj) is Marker for obj in keyed), \
        sorted({type(obj).__name__ for obj in keyed})
