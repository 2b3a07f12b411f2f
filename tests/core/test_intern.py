"""Tests for the hash-consing intern pool and its cache contracts."""

import importlib

import pytest

from repro.core.builder import dataset, iobj, obj, tup
from repro.core.compatibility import compatible
from repro.core.data import Data, DataSet
from repro.core.informativeness import less_informative
from repro.core.intern import (
    MEMO,
    InternPool,
    clear_pool,
    equal,
    intern,
    intern_data,
    intern_dataset,
    intern_stats,
    is_interned,
)
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    Tuple,
)
from repro.core.operations import difference, intersection, union
from repro.core.order import _structural_key, structural_key
from repro.query import Query
from repro.query.aggregates import _alts_for, path_alternatives
from repro.query.join import _keys_of, join_keys
from repro.store.index import _signature_impl, signature

# ``repro.core.intern`` the attribute is the function; this is the module.
intern_module = importlib.import_module("repro.core.intern")


def nested(title="Oracle"):
    return Tuple({
        "type": Atom("Article"),
        "title": Atom(title),
        "author": PartialSet([Atom("Bob"), Atom("Alice")]),
        "tags": CompleteSet([Atom("db"), Atom("ssd")]),
    })


class TestCanonicalization:
    def test_structurally_equal_objects_intern_to_one_identity(self):
        first = intern(nested())
        second = intern(nested())
        assert first is second

    def test_field_order_does_not_matter(self):
        forward = intern(Tuple({"a": Atom(1), "b": Atom(2)}))
        backward = intern(Tuple({"b": Atom(2), "a": Atom(1)}))
        assert forward is backward

    def test_children_are_canonical_too(self):
        container = intern(nested())
        assert is_interned(container.get("author"))
        assert intern(PartialSet([Atom("Bob"), Atom("Alice")])) \
            is container.get("author")

    def test_interning_is_idempotent_and_identity_preserving(self):
        canonical = intern(nested())
        assert intern(canonical) is canonical

    def test_bottom_is_its_own_canonical_form(self):
        assert intern(BOTTOM) is BOTTOM
        assert is_interned(BOTTOM)

    def test_every_kind_round_trips(self):
        samples = [Atom("x"), Atom(1), Atom(True), Marker("m"),
                   OrValue.of(Atom(1), Atom(2)),
                   PartialSet([Atom("x")]), CompleteSet([]),
                   Tuple({"A": Marker("m")})]
        for sample in samples:
            canonical = intern(sample)
            assert canonical == sample
            assert is_interned(canonical)

    def test_iobj_builder_interns(self):
        value = {"type": "Article", "title": "Oracle"}
        assert iobj(value) is iobj(value)
        assert iobj(value) == obj(value)
        assert is_interned(iobj(value))


class TestEqualFastPath:
    def test_identity_wins(self):
        canonical = intern(nested())
        assert equal(canonical, canonical)

    def test_distinct_interned_objects_are_unequal_without_deep_compare(self):
        assert not equal(intern(nested("A")), intern(nested("B")))

    def test_falls_back_to_deep_equality_for_raw_objects(self):
        assert equal(nested(), nested())
        assert not equal(nested("A"), nested("B"))
        assert equal(intern(nested()), nested())


class TestDataInterning:
    def test_intern_data_canonicalizes_marker_and_object(self):
        datum = intern_data(Data(Marker("B80"), nested()))
        assert is_interned(datum.marker)
        assert is_interned(datum.object)
        assert datum.object is intern(nested())

    def test_intern_data_reuses_already_canonical_datum(self):
        datum = intern_data(Data(Marker("B80"), nested()))
        assert intern_data(datum) is datum

    def test_intern_dataset(self):
        source = DataSet([Data(Marker("m1"), nested()),
                          Data(Marker("m2"), nested("Ingres"))])
        canonical = intern_dataset(source)
        assert canonical == source
        assert all(is_interned(d.object) for d in canonical)


class TestPoolLifecycle:
    def test_stats_track_hits_and_misses(self):
        clear_pool()
        base = intern_stats()
        intern(nested())
        after_miss = intern_stats()
        assert after_miss["misses"] > base["misses"]
        intern(nested())
        assert intern_stats()["hits"] > after_miss["hits"]

    def test_clear_pool_unregisters_objects(self):
        canonical = intern(nested())
        assert is_interned(canonical)
        clear_pool()
        assert not is_interned(canonical)

    def test_private_pool_is_independent(self):
        pool = InternPool()
        canonical = pool.intern(nested())
        assert pool.intern(nested()) is canonical
        # The default-pool predicate does not know private pools.
        clear_pool()
        assert not is_interned(canonical)


class TestMemoSafetyAfterClear:
    K = frozenset({"A", "B"})

    def test_memoized_answers_survive_pool_clears(self):
        # Fill memos via interned operands, clear everything, re-intern
        # (ids may or may not be recycled) and check answers still match
        # the naive oracle — clear_pool must have dropped the memo.
        first, second = intern(nested("A")), intern(nested("B"))
        less_informative(first, second)
        compatible(first, second, self.K)
        union(first, second, self.K)
        clear_pool()
        first, second = intern(nested("B")), intern(nested("A"))
        assert less_informative(first, second) == \
            less_informative(first, second, naive=True)
        assert compatible(first, second, self.K) == \
            compatible(first, second, self.K, naive=True)
        assert union(first, second, self.K) == \
            union(first, second, self.K, naive=True)


class TestIdentityMemo:
    """The one identity memo every fast path keeps its answers in."""

    K = frozenset({"A", "B"})
    STEPS = ("author",)

    def producers(self, first, second):
        """Every memoized fast path, once over ``(first, second)``."""
        datum = Data(Marker("m"), first)
        return [
            less_informative(first, second),
            less_informative(second, first),
            compatible(first, second, self.K),
            union(first, second, self.K),
            intersection(first, second, self.K),
            difference(first, second, self.K),
            structural_key(first),
            signature(datum, self.K),
            path_alternatives(first, self.STEPS),
            join_keys(first, self.STEPS),
        ]

    def oracles(self, first, second):
        """The same answers from the definitional code, memo-free."""
        datum = Data(Marker("m"), first)
        return [
            less_informative(first, second, naive=True),
            less_informative(second, first, naive=True),
            compatible(first, second, self.K, naive=True),
            union(first, second, self.K, naive=True),
            intersection(first, second, self.K, naive=True),
            difference(first, second, self.K, naive=True),
            _structural_key(first),
            _signature_impl(datum.object, self.K),
            _alts_for(first, self.STEPS),
            _keys_of(first, self.STEPS),
        ]

    def pair(self):
        first = Tuple({"A": Atom("k"), "B": Atom("t"),
                       "author": OrValue.of(Atom("Bob"), Atom("Ann"))})
        second = Tuple({"A": Atom("k"), "B": Atom("t"),
                        "author": PartialSet([Atom("Eve")])})
        return first, second

    def test_clear_pool_empties_the_memo(self):
        first, second = map(intern, self.pair())
        self.producers(first, second)
        assert intern_stats()["memo"] == len(MEMO) > 0
        clear_pool()
        assert intern_stats()["memo"] == len(MEMO) == 0

    def test_memo_never_passes_its_cap(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(intern_module, "MEMO_CAP", cap)
        clear_pool()
        raw = [(Tuple({"A": Atom(f"k{i % 3}"), "B": Atom("t"),
                       "author": PartialSet([Atom(i), Atom(i + 1)])}),
                Tuple({"A": Atom(f"k{i % 2}"), "B": Atom("t"),
                       "author": OrValue.of(Atom(i), Atom("x"))}))
               for i in range(40)]
        for first, second in raw:
            expected = self.oracles(first, second)
            assert self.producers(intern(first), intern(second)) == \
                expected
            assert 0 < len(MEMO) <= cap
        # A join keys far more interned rows than the cap holds.
        left = intern_dataset(dataset(
            *[(f"L{i}", tup(k=f"k{i % 50}", n=i)) for i in range(200)]))
        right = intern_dataset(dataset(
            *[(f"R{i}", tup(k=f"k{i % 50}")) for i in range(200)]))
        join = Query(left).join(right, on="k")
        rows = join.rows()
        assert len(rows) == 4 * 200
        assert 0 < len(MEMO) <= cap
        assert rows == join.rows(naive=True)

    def test_producers_keys_never_collide(self):
        # One interned pair through every producer twice: the second
        # round answers from the memo, so a key two producers share
        # would hand one of them the other's answer.
        clear_pool()
        first, second = self.pair()
        expected = self.oracles(first, second)
        canonical = intern(first), intern(second)
        assert self.producers(*canonical) == expected
        filled = len(MEMO)
        assert self.producers(*canonical) == expected
        assert len(MEMO) == filled


class TestRejections:
    def test_non_model_values_are_rejected(self):
        with pytest.raises(TypeError):
            intern("not an object")
