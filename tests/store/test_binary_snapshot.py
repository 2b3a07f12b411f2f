"""Binary database snapshots: warm key indexes, digest validation,
fsync, and the older container versions.

The binary container must (a) round-trip the dataset exactly as the
JSON format does, (b) restore the persisted key indexes when the
content digest matches — giving cold loads the same merge behaviour as
the live database — and (c) fall back to rebuilding when the key
section is damaged, never to wrong answers. Version 1 and 2 files,
which also carry an attribute-index section, still load their data.
The durability tests pin the fsync-before-replace contract for both
formats.
"""

import os
from pathlib import Path

import pytest

from repro.core.builder import cset, data, orv, pset, tup
from repro.core.errors import CodecError
from repro.store import Database
from repro.store.database import _BINARY_MAGIC


def build_database(entries=40, index_paths=("type", "title", "year")):
    rows = [
        data(f"m{i}", tup(type="Article", title=f"T{i % 15}",
                          year=1980 + i % 10, author=f"A{i % 4}",
                          tags=pset(f"t{i % 3}", "common"),
                          status=orv("draft", "final"),
                          committee=cset("x", "y")))
        for i in range(entries)
    ]
    database = Database(rows, index_paths=index_paths)
    # Touch a key lookup so a KeyIndex exists to persist.
    database.compatible_with(rows[0], {"type", "title"})
    return database


def key_index_contents(index):
    """A key index's buckets, scan list and never list, order-free."""
    return ({sig: frozenset(bucket) for sig, bucket in index.buckets.items()},
            frozenset(index.scan_list), frozenset(index.never_list))


class TestBinaryRoundTrip:
    def test_matches_json_loaded_database(self, tmp_path):
        database = build_database()
        binary_path = tmp_path / "db.bin"
        json_path = tmp_path / "db.json"
        database.save(binary_path, format="binary")
        database.save(json_path, format="json")
        from_binary = Database.load(binary_path)
        from_json = Database.load(json_path)
        assert from_binary.snapshot() == from_json.snapshot() \
            == database.snapshot()

    def test_format_autodetected(self, tmp_path):
        database = build_database(entries=5)
        path = tmp_path / "db.snapshot"  # no format-revealing suffix
        database.save(path, format="binary")
        assert path.read_bytes()[:4] == _BINARY_MAGIC
        assert Database.load(path).snapshot() == database.snapshot()
        database.save(path, format="json")
        assert Database.load(path).snapshot() == database.snapshot()

    def test_forced_format_mismatch_rejected(self, tmp_path):
        database = build_database(entries=3)
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        with pytest.raises(CodecError):
            Database.load(path, format="json")

    def test_unknown_format_rejected(self, tmp_path):
        database = build_database(entries=3)
        with pytest.raises(CodecError, match="unknown database format"):
            database.save(tmp_path / "db.x", format="pickle")
        database.save(tmp_path / "db.bin", format="binary")
        with pytest.raises(CodecError, match="unknown database format"):
            Database.load(tmp_path / "db.bin", format="pickle")

    def test_non_interned_database_round_trips(self, tmp_path):
        rows = [data(f"m{i}", tup(type="t", title=f"x{i}"))
                for i in range(10)]
        database = Database(rows, intern_objects=False)
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        loaded = Database.load(path)
        assert loaded.snapshot() == database.snapshot()
        assert loaded._intern is False

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.bin"
        Database().save(path, format="binary")
        assert len(Database.load(path)) == 0


class TestWarmIndexes:
    def test_loaded_queries_equal_rebuilt(self, tmp_path):
        database = build_database()
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        loaded = Database.load(path)
        rebuilt = Database(loaded.snapshot(),
                           index_paths=("type", "title", "year"))
        for text in ('select * where title = "T3"',
                     'select * where year >= 1985 and type = "Article"',
                     'select * where exists tags'):
            assert loaded.query(text) == rebuilt.query(text)
            assert loaded.query(text) == loaded.query(text, naive=True)
        assert loaded.explain(
            'select * where title = "T3"').strategy == "columnar"

    def test_key_indexes_restored(self, tmp_path):
        database = build_database()
        key = frozenset({"type", "title"})
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        loaded = Database.load(path)
        assert key in loaded._key_indexes
        original = database._key_indexes[key]
        restored = loaded._key_indexes[key]
        assert len(restored) == len(original)
        assert set(restored.buckets) == set(original.buckets)
        for sig, bucket in original.buckets.items():
            assert set(restored.buckets[sig]) == set(bucket)
        # The restored index must behave identically on lookups.
        probe = data("p", tup(type="Article", title="T3", extra=1))
        assert loaded.compatible_with(probe, key) == \
            database.compatible_with(probe, key)

    def test_restored_index_stays_maintainable(self, tmp_path):
        database = build_database()
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        loaded = Database.load(path)
        fresh = data("new", tup(type="Article", title="Fresh",
                                year=2000))
        loaded.insert(fresh)
        assert loaded.query('select * where title = "Fresh"') == \
            loaded.query('select * where title = "Fresh"', naive=True)
        loaded.remove(fresh)
        assert len(loaded.query('select * where title = "Fresh"')) == 0

    def test_digest_mismatch_rebuilds_indexes(self, tmp_path):
        import re

        database = build_database()
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        raw = path.read_bytes()
        # The stored digest is the only 64-char lowercase-hex run in
        # the file; flip one of its characters so it stays parseable
        # but no longer matches the dataset section.
        match = re.search(rb"[0-9a-f]{64}", raw)
        assert match is not None
        position = match.start()
        flipped = b"0" if raw[position:position + 1] != b"0" else b"1"
        broken = tmp_path / "broken.bin"
        broken.write_bytes(raw[:position] + flipped
                           + raw[position + 1:])
        loaded = Database.load(broken)
        # Key indexes were rebuilt, not restored — same data, same
        # answers.
        assert loaded.snapshot() == database.snapshot()
        key = frozenset({"type", "title"})
        assert set(loaded._key_indexes) == {key}
        assert key_index_contents(loaded._key_indexes[key]) == \
            key_index_contents(database._key_indexes[key])
        for text in ('select * where title = "T3"',
                     'select * where exists tags'):
            assert loaded.query(text) == loaded.query(text, naive=True)
            assert loaded.query(text) == database.query(text)

    def test_truncated_index_section_rebuilds(self, tmp_path):
        database = build_database()
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        raw = path.read_bytes()
        truncated = tmp_path / "truncated.bin"
        truncated.write_bytes(raw[:len(raw) - 20])
        loaded = Database.load(truncated)
        assert loaded.snapshot() == database.snapshot()

    def test_truncated_dataset_section_raises(self, tmp_path):
        database = build_database()
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        raw = path.read_bytes()
        stub = tmp_path / "stub.bin"
        stub.write_bytes(raw[:40])
        with pytest.raises(CodecError):
            Database.load(stub)


#: A container-v2 snapshot and its JSON twin, written by the last
#: version-2 writer (commit e8c599c) from ``build_database()`` plus one
#: insert: generation 1, 41 rows, an attribute-index section over
#: ``type``/``title``/``year`` and a key section holding the
#: ``{type, title}`` key index.
V2_SNAPSHOT = Path(__file__).parent / "data" / "container_v2.bin"
V2_JSON_TWIN = Path(__file__).parent / "data" / "container_v2.json"


class TestContainerV2:
    def test_loads_to_the_json_twin(self):
        loaded = Database.load(V2_SNAPSHOT)
        twin = Database.load(V2_JSON_TWIN)
        assert V2_SNAPSHOT.read_bytes()[4] == 2
        assert loaded.snapshot() == twin.snapshot()
        assert loaded.generation == twin.generation == 1
        assert len(loaded) == 41
        # The old index sections are skipped; key indexes rebuild
        # lazily on first use.
        assert loaded._key_indexes == {}

    @pytest.mark.parametrize("text", [
        'select * where title = "T3"',
        'select * where year >= 1985 and year < 1990',
        'select * where exists tags',
    ])
    def test_queries_equal_naive(self, text):
        loaded = Database.load(V2_SNAPSHOT)
        assert loaded.query(text)
        assert loaded.query(text) == loaded.query(text, naive=True)

    def test_compatible_with_equals_fresh_store(self):
        loaded = Database.load(V2_SNAPSHOT)
        fresh = Database(Database.load(V2_JSON_TWIN).snapshot())
        key = {"type", "title"}
        for probe in (data("p", tup(type="Article", title="T3", extra=1)),
                      data("q", tup(type="Article", title="Nope"))):
            assert loaded.compatible_with(probe, key) == \
                fresh.compatible_with(probe, key)
        assert loaded.compatible_with(
            data("p", tup(type="Article", title="T3")), key)

    def test_truncation_inside_old_index_sections_loads(self, tmp_path):
        import re

        raw = V2_SNAPSHOT.read_bytes()
        digest = re.search(rb"[0-9a-f]{64}", raw)
        assert digest is not None
        expected = Database.load(V2_JSON_TWIN).snapshot()
        # Cut inside the attribute section, inside the key section and
        # right after the digest.
        for cut in (digest.end(), digest.end() + 7,
                    (digest.end() + len(raw)) // 2, len(raw) - 3):
            truncated = tmp_path / f"cut{cut}.bin"
            truncated.write_bytes(raw[:cut])
            assert Database.load(truncated).snapshot() == expected


class TestBinaryVersioning:
    def test_container_version_rejected(self, tmp_path):
        database = build_database(entries=3)
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        raw = bytearray(path.read_bytes())
        assert raw[4] == 3  # container version varint
        raw[4] = 99
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CodecError, match="version"):
            Database.load(bad)

    def test_codec_version_rejected(self, tmp_path):
        database = build_database(entries=3)
        path = tmp_path / "db.bin"
        database.save(path, format="binary")
        raw = bytearray(path.read_bytes())
        raw[5] = 99  # embedded codec version varint
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CodecError, match="codec version"):
            Database.load(bad)

    def test_not_a_database_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"RPDBgarbage")
        with pytest.raises(CodecError):
            Database.load(path)


class TestDurability:
    @pytest.mark.parametrize("format", ["json", "binary"])
    def test_save_fsyncs_file_before_replace(self, tmp_path,
                                             monkeypatch, format):
        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def record_fsync(descriptor):
            events.append("fsync")
            return real_fsync(descriptor)

        def record_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        build_database(entries=3).save(tmp_path / "db", format=format)
        assert "fsync" in events
        assert events.index("fsync") < events.index("replace")

    @pytest.mark.parametrize("format", ["json", "binary"])
    def test_failed_save_leaves_no_temp_file(self, tmp_path,
                                             monkeypatch, format):
        def explode(descriptor):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", explode)
        database = build_database(entries=3)
        with pytest.raises(OSError):
            database.save(tmp_path / "db", format=format)
        assert [p for p in tmp_path.iterdir()
                if p.suffix == ".tmp"] == []
