"""Tests for the persistent Database."""

import json

import pytest

from repro.core.builder import data, dataset, orv, marker, tup
from repro.core.data import Data
from repro.core.errors import CodecError
from repro.core.objects import Marker
from repro.store import Database


def sample_data():
    return [
        data("B80", tup(type="Article", title="Oracle", author="Bob")),
        data("S78", tup(type="Article", title="Ingres", jnl="TODS")),
    ]


class TestCollectionBasics:
    def test_insert_and_len(self):
        db = Database()
        first, second = sample_data()
        assert db.insert(first)
        assert not db.insert(first)  # duplicate
        assert db.insert(second)
        assert len(db) == 2
        assert first in db

    def test_insert_all(self):
        db = Database()
        assert db.insert_all(sample_data() + sample_data()) == 2

    def test_remove(self):
        db = Database(sample_data())
        first, _ = sample_data()
        assert db.remove(first)
        assert not db.remove(first)
        assert len(db) == 1

    def test_snapshot_is_immutable_view(self):
        db = Database(sample_data())
        snap = db.snapshot()
        db.insert(data("X", tup(type="t", title="new")))
        assert len(snap) == 2
        assert len(db) == 3

    def test_iteration_deterministic(self):
        db = Database(sample_data())
        assert list(db) == list(db)


class TestMarkerIndex:
    def test_by_marker(self):
        db = Database(sample_data())
        found = db.by_marker("B80")
        assert len(found) == 1
        assert db.by_marker(Marker("nope")) == dataset()

    def test_or_marked_data_found_by_each_marker(self):
        merged = Data(orv(marker("a"), marker("b")), tup(x=1))
        db = Database([merged])
        assert len(db.by_marker("a")) == 1
        assert len(db.by_marker("b")) == 1

    def test_marker_index_maintained_on_remove(self):
        db = Database(sample_data())
        first, _ = sample_data()
        db.remove(first)
        assert db.by_marker("B80") == dataset()


class TestCompatLookupAndMerge:
    K = {"type", "title"}

    def test_compatible_with(self):
        db = Database(sample_data())
        probe = data("x", tup(type="Article", title="Oracle", year=1980))
        found = db.compatible_with(probe, self.K)
        assert len(found) == 1

    def test_key_index_invalidated_by_updates(self):
        db = Database(sample_data())
        probe = data("x", tup(type="Article", title="Datalog"))
        assert len(db.compatible_with(probe, self.K)) == 0
        db.insert(data("A78", tup(type="Article", title="Datalog")))
        assert len(db.compatible_with(probe, self.K)) == 1

    def test_key_index_invalidated_by_remove(self):
        # Regression: a lazily built KeyIndex must not serve stale
        # entries after a remove.
        db = Database(sample_data())
        first, _ = sample_data()
        probe = data("x", tup(type="Article", title="Oracle", year=1980))
        assert len(db.compatible_with(probe, self.K)) == 1  # builds index
        assert db.remove(first)
        assert len(db.compatible_with(probe, self.K)) == 0
        # Re-inserting rebuilds again, from another lazily built index.
        assert db.insert(first)
        assert len(db.compatible_with(probe, self.K)) == 1

    def test_interning_preserves_lookup_semantics(self):
        interned = Database(sample_data())
        raw = Database(sample_data(), intern_objects=False)
        probe = data("x", tup(type="Article", title="Oracle", year=1980))
        assert interned.snapshot() == raw.snapshot()
        assert interned.compatible_with(probe, self.K) == \
            raw.compatible_with(probe, self.K)
        first, _ = sample_data()
        assert interned.remove(first)  # equality-based, not identity
        assert len(interned) == len(raw) - 1

    def test_merge_in_equals_definition12(self):
        from tests.core.test_data import example6_sources

        s1, s2 = example6_sources()
        db = Database(s1)
        size = db.merge_in(s2, self.K)
        assert size == 8
        assert db.snapshot() == s1.union(s2, self.K)

    def test_merge_in_updates_marker_index(self):
        from tests.core.test_data import example6_sources

        s1, s2 = example6_sources()
        db = Database(s1)
        db.merge_in(s2, self.K)
        # B80 merged into B80|B82 but stays findable by either marker.
        assert len(db.by_marker("B80")) == 1
        assert len(db.by_marker("B82")) == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        db = Database(sample_data())
        path = tmp_path / "store" / "library.json"
        db.save(path)
        loaded = Database.load(path)
        assert loaded.snapshot() == db.snapshot()

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        db = Database(sample_data())
        path = tmp_path / "db.json"
        db.save(path)
        db.save(path)  # overwrite
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CodecError):
            Database.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro-database", "version": 99, "dataset": {}}))
        with pytest.raises(CodecError):
            Database.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CodecError):
            Database.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CodecError):
            Database.load(tmp_path / "nope.json")

    def test_round_trip_preserves_rich_objects(self, tmp_path):
        from repro.core.builder import cset, pset

        rich = Database([
            data("k", tup(type="t", title="x", a=pset("p"),
                          b=cset(1, 2), c=orv("u", "v"))),
            Data(orv(marker("m"), marker("n")), tup(type="t", title="y")),
        ])
        path = tmp_path / "rich.json"
        rich.save(path)
        assert Database.load(path).snapshot() == rich.snapshot()


class TestUpdates:
    def test_update_rewrites_matching_data(self):
        from repro.core.objects import Atom

        db = Database(sample_data())
        changed = db.update(
            "B80",
            lambda d: Data(d.marker,
                           d.object.with_field("year", Atom(1980))))
        assert changed == 1
        assert db.by_marker("B80").find("B80").object["year"] == Atom(1980)
        assert len(db) == 2

    def test_update_noop_counts_zero(self):
        db = Database(sample_data())
        assert db.update("B80", lambda d: d) == 0

    def test_update_unknown_marker(self):
        db = Database(sample_data())
        assert db.update("zzz", lambda d: d) == 0

    def test_update_bad_transform_rejected(self):
        from repro.core.errors import CodecError

        db = Database(sample_data())
        with pytest.raises(CodecError):
            db.update("B80", lambda d: "not a datum")

    def test_set_attribute(self):
        from repro.core.objects import Atom

        db = Database(sample_data())
        assert db.set_attribute("B80", "year", Atom(1980)) == 1
        assert db.by_marker("B80").find("B80").object["year"] == Atom(1980)

    def test_set_attribute_bottom_removes(self):
        from repro.core.objects import BOTTOM

        db = Database(sample_data())
        assert db.set_attribute("B80", "author", BOTTOM) == 1
        assert "author" not in db.by_marker("B80").find("B80").object

    def test_set_attribute_on_non_tuple_is_noop(self):
        from repro.core.objects import Atom

        db = Database([data("x", Atom(1))])
        assert db.set_attribute("x", "a", Atom(2)) == 0

    def test_update_maintains_marker_index(self):
        from repro.core.objects import Atom

        db = Database(sample_data())
        db.update("B80", lambda d: Data("B80x", d.object))
        assert len(db.by_marker("B80")) == 0
        assert len(db.by_marker("B80x")) == 1


class TestQueryConvenience:
    def test_textual_query_on_database(self):
        db = Database(sample_data())
        result = db.query('select title where exists jnl')
        assert len(result) == 1

    def test_bad_query_raises(self):
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            Database(sample_data()).query("not a query")


class TestIncrementalIndexes:
    """Live key indexes must be patched, never silently stale."""

    K = frozenset({"type", "title"})

    def _live_index_matches_rebuild(self, db):
        live = db._key_index(self.K)
        rebuilt = Database(db.snapshot())._key_index(self.K)
        assert sorted(map(repr, live.everything())) == \
            sorted(map(repr, rebuilt.everything()))

    def test_insert_and_remove_patch_live_indexes(self):
        from repro.properties import ObjectGenerator

        db = Database(sample_data())
        probe = data("p", tup(type="Article", title="Oracle"))
        assert len(db.compatible_with(probe, self.K)) == 1  # builds index
        extra = data("N99", tup(type="Article", title="Oracle",
                                note="new"))
        db.insert(extra)
        assert extra in db.compatible_with(probe, self.K)
        db.remove(extra)
        assert extra not in db.compatible_with(probe, self.K)
        self._live_index_matches_rebuild(db)

    def test_merge_in_equals_dataset_union(self):
        from repro.properties import ObjectGenerator

        for seed in range(10):
            generator = ObjectGenerator(seed=seed)
            base, source = generator.dataset(9), generator.dataset(9)
            key = frozenset({"A", "B"})
            db = Database(base)
            db._key_index(key)  # force a live index before the merge
            db.merge_in(source, key)
            assert db.snapshot() == base.union(source, key), seed

    def test_merge_in_never_sorts(self, monkeypatch):
        # Interning the source and the ∪K step only fill sets: neither
        # may iterate a DataSet in canonical (structural_key) order.
        from importlib import import_module

        from repro.properties import ObjectGenerator

        # import_module: the repro.core package re-exports a function
        # named ``data`` that shadows the submodule as an attribute.
        modules = [import_module(f"repro.core.{name}")
                   for name in ("order", "data")]
        real = modules[0].structural_key
        calls = []

        def counted(obj):
            calls.append(obj)
            return real(obj)

        key = frozenset({"A", "B"})
        for seed in range(10):
            generator = ObjectGenerator(seed=seed)
            base, source = generator.dataset(9), generator.dataset(9)
            expected = base.union(source, key, naive=True)
            db = Database(base)
            with monkeypatch.context() as patch:
                for module in modules:
                    patch.setattr(module, "structural_key", counted)
                db.merge_in(source, key)
            assert calls == [], seed
            assert db.snapshot() == expected, seed

    def test_merge_in_patches_live_indexes(self):
        db = Database(sample_data())
        probe = data("p", tup(type="Article", title="Oracle"))
        db.compatible_with(probe, self.K)
        db.merge_in(dataset(
            ("X1", tup(type="Article", title="Oracle", year=1979)),
            ("X2", tup(type="Book", title="Dragon"))), self.K)
        merged = db.compatible_with(probe, self.K)
        assert len(merged) == 1
        (entry,) = merged
        assert entry.markers >= {Marker("B80"), Marker("X1")}
        self._live_index_matches_rebuild(db)

    def test_merge_in_patches_marker_index(self):
        db = Database(sample_data())
        db.merge_in(dataset(
            ("X1", tup(type="Article", title="Oracle", year=1979))),
            self.K)
        assert len(db.by_marker("X1")) == 1
        merged = db.by_marker("B80")
        assert len(merged) == 1
        assert merged == db.by_marker("X1")

    def test_uninterned_database_merge_in(self):
        db = Database(sample_data(), intern_objects=False)
        db.merge_in(dataset(
            ("X1", tup(type="Article", title="Oracle", year=1979))),
            self.K)
        assert len(db) == 2
