"""WAL format version 2: one value table per log file.

A frame writes a node that an earlier durable frame defined as a log
ref and defines only what the log has not seen (``repro.store.wal``).
These tests pin the contracts that sharing rests on:

* the writer's :class:`~repro.store.wal.LogTable` mirrors, entry for
  entry, the table replay of the log file rebuilds;
* nodes enter it only once their batch is on disk, so a failed append
  leaves nothing behind that a later frame could reference;
* compaction re-encodes the frames it keeps, and a body encoded
  against the replaced table is re-encoded before it is appended;
* a frame that references past the table ends the valid prefix;
* the table holds its nodes, so clearing the intern pool cannot let an
  id name another object;
* version-1 logs (a committed fixture written by the previous format)
  still replay, and the first open for writing leaves a version-2 log.
"""

import gc
import shutil
from pathlib import Path

import pytest

from repro.binary_codec import pack_uvarint
from repro.core.builder import cset, data, orv, pset, tup
from repro.core.data import Data, DataSet
from repro.core.intern import clear_pool
from repro.core.objects import Atom
from repro.store import Database, WriteAheadLog, scan_wal
from repro.store.wal import (
    WAL_VERSION,
    encode_frame_body,
    frame_from_body,
    wal_path,
)

from tests.store.test_wal import append_frame

K = ("type", "title")


def entry(i: int, marker: str = "s", **extra) -> Data:
    fields = dict(type="Article", title=f"T{i}", year=1980 + i % 7,
                  tags=pset("t", f"x{i % 3}"),
                  authors=cset("A", f"B{i % 4}"))
    fields.update(extra)
    return data(f"{marker}{i}", tup(**fields))


def source(lo: int, hi: int, marker: str = "s", **extra) -> DataSet:
    return DataSet(entry(i, marker, **extra) for i in range(lo, hi))


def open_store(path: Path) -> Database:
    return Database.open(path, auto_compact=False)


def assert_table_mirrors_log(db: Database) -> None:
    """The writer's log table is exactly the one replay rebuilds."""
    scan = scan_wal(db.wal.path, intern=True)
    assert scan.version == WAL_VERSION
    assert scan.valid_length == scan.file_size
    assert len(scan.table) == len(db.wal.table)
    for replayed, held in zip(scan.table, db.wal.table.nodes):
        assert replayed == held


def close_and_reopen(db: Database, path: Path) -> None:
    """Close ``db`` and assert its log replays to its live contents."""
    live, generation = db.snapshot(), db.generation
    db.close()
    with open_store(path) as reopened:
        assert reopened.generation == generation
        assert reopened.snapshot() == live
        assert_table_mirrors_log(reopened)


def frame_sizes(path: Path) -> list[int]:
    scan = scan_wal(wal_path(path), intern=True)
    bounds = scan.offsets + [scan.valid_length]
    return [end - start for start, end in zip(bounds, bounds[1:])]


class TestSharedTable:
    def test_union_results_reference_logged_children(self, tmp_path):
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.merge_in(source(0, 30), K)
        first = len(db.wal.table)
        db.merge_in(source(0, 30, marker="u", venue=orv("EDBT", "VLDB")),
                    K)
        assert_table_mirrors_log(db)
        scan = scan_wal(wal_path(path), intern=True)
        second = scan.frames[1]
        assert len(second.removed) == len(second.added) == 30
        defined = scan.table[first:]
        removed_nodes = {id(part) for datum in second.removed
                         for part in (datum.marker, datum.object)}
        assert not any(id(node) in removed_nodes for node in defined)
        # Standalone, the step re-encodes every removed datum and every
        # child the unions share; against the log table it does not.
        standalone = encode_frame_body(second.removed, second.added)
        assert len(defined) * 2 < len(standalone.defined)
        assert frame_sizes(path)[1] < len(standalone)
        close_and_reopen(db, path)

    def test_removal_defines_no_node(self, tmp_path):
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.insert_all(source(0, 5))
        size = len(db.wal.table)
        db.remove(entry(3))
        assert len(db.wal.table) == size
        # One datum record: a tag and two log refs, in a frame whose
        # body also states the table size and the two diff counts.
        assert frame_sizes(path)[1] < 20
        close_and_reopen(db, path)

    def test_nodes_enter_the_table_only_when_durable(self, tmp_path):
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.insert(entry(1))
        size = len(db.wal.table)
        body = encode_frame_body((), (db._canonical(entry(2)),),
                                 table=db.wal.table)
        assert body.defined
        assert len(db.wal.table) == size  # encoding changes nothing
        db.wal.append_batch([(2, body)])
        assert len(db.wal.table) == size + len(body.defined)
        db.close()

    def test_concurrent_encodes_number_their_own_nodes(self, tmp_path):
        # Two bodies encoded against the same table size: the second
        # cannot reference the first's nodes, and replay places each
        # frame's nodes after the ones before it.
        path = tmp_path / "db.bin"
        log = WriteAheadLog(wal_path(path))
        append_frame(log, 1, (), (entry(1),))
        shared = entry(2)
        first = encode_frame_body((), (shared,), table=log.table)
        second = encode_frame_body((shared,), (entry(3),),
                                   table=log.table)
        log.append_batch([(2, first), (3, second)])
        log.close()
        scan = scan_wal(wal_path(path), intern=True)
        assert [f.generation for f in scan.frames] == [1, 2, 3]
        assert scan.frames[2].removed == (shared,)
        assert scan.frames[2].added == (entry(3),)
        assert len(scan.table) == len(log.table)


class TestRecoveryBounds:
    def build(self, path: Path) -> int:
        db = open_store(path)
        db.insert_all(source(0, 4))
        db.merge_in(source(0, 4, marker="u", note="n"), K)
        size = len(db.wal.table)
        db.close()
        return size

    @pytest.mark.parametrize("kind", ["seen", "record"])
    def test_reference_past_the_table_ends_the_prefix(self, tmp_path,
                                                      kind):
        path = tmp_path / "db.bin"
        size = self.build(path)
        intact = wal_path(path).read_bytes()
        if kind == "seen":
            # A frame claiming to have read more entries than the
            # frames before it defined.
            body = (pack_uvarint(size + 5) + pack_uvarint(0)
                    + pack_uvarint(0))
        else:
            # A datum record whose refs point past everything defined.
            body = (pack_uvarint(size) + pack_uvarint(0) + pack_uvarint(1)
                    + bytes((0x10,)) + pack_uvarint(size + 3)
                    + pack_uvarint(size + 4))
        later = frame_from_body(4, encode_frame_body((), (entry(9),)))
        wal_path(path).write_bytes(intact + frame_from_body(3, body)
                                   + later)
        scan = scan_wal(wal_path(path), intern=True)
        assert [f.generation for f in scan.frames] == [1, 2]
        assert scan.valid_length == len(intact)
        assert len(scan.table) == size
        with open_store(path) as db:
            assert db.generation == 2
            assert wal_path(path).stat().st_size == len(intact)
            db.insert(entry(9))
            assert_table_mirrors_log(db)


class TestCompaction:
    def commits_during_snapshot(self, db, monkeypatch, rows):
        """Commit ``rows`` while compaction writes its snapshot, so the
        compaction keeps them as its tail."""
        write = db._write_snapshot_temp

        def write_with_commits(state, target, fmt):
            if rows:
                db.insert_all(rows)
            return write(state, target, fmt)

        monkeypatch.setattr(db, "_write_snapshot_temp",
                            write_with_commits)

    def test_kept_tail_is_re_encoded(self, tmp_path, monkeypatch):
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.merge_in(source(0, 20), K)
        db.merge_in(source(0, 20, marker="u", note="n"), K)
        self.commits_during_snapshot(db, monkeypatch, list(source(40, 60)))
        old_table = db.wal.table
        db.compact()
        assert db.wal.table is not old_table
        scan = scan_wal(wal_path(path), intern=True)
        assert scan.base_generation == 2
        assert [f.generation for f in scan.frames] == [3]
        assert_table_mirrors_log(db)
        db.merge_in(source(40, 60, marker="v", note="m"), K)
        close_and_reopen(db, path)

    def test_body_encoded_before_the_swap(self, tmp_path):
        """A precomputed body, encoded against the table compaction
        replaces, committed after the swap: appended as encoded, its
        log refs would point past the new, empty table. The log
        re-encodes it first."""
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.insert_all(source(0, 6))
        victims = list(db.snapshot())[:3]
        replacements = [db._canonical(Data(v.marker,
                                           v.object.with_field(
                                               "rev", Atom(1))))
                        for v in victims]
        pre = db._precompute(victims, replacements)
        stale = pre[3]
        assert stale.table is db.wal.table
        db.compact()
        assert stale.table is not db.wal.table
        assert len(db.wal.table) == 0
        with db._lock:
            outcome = db._apply_locked(victims, replacements, pre)
        db._finish(outcome)
        assert set(replacements) <= set(db.snapshot())
        assert_table_mirrors_log(db)
        close_and_reopen(db, path)

    def test_stale_refs_that_land_in_range(self, tmp_path):
        """The silent case: the kept tail's re-encode makes the new
        table longer than the one the body read, so its log refs would
        resolve, to other nodes. Re-encoded, the frame replays as the
        diff it was built from."""
        path = tmp_path / "db.wal"
        log = WriteAheadLog(path)
        small = [entry(1), entry(2)]
        append_frame(log, 1, (), small)
        seen = len(log.table)
        stale = encode_frame_body((small[0],), (entry(3, note="n"),),
                                  table=log.table)
        log.keep_tail()
        append_frame(log, 2, (), list(source(10, 40)))
        temp, table = log.rewrite_temp(1)
        log.swap(temp, 1, table)
        assert len(log.table) > seen
        log.append_batch([(3, stale)])
        log.close()
        scan = scan_wal(path, intern=True)
        assert [f.generation for f in scan.frames] == [2, 3]
        assert scan.frames[1].removed == (small[0],)
        assert scan.frames[1].added == (entry(3, note="n"),)
        assert len(scan.table) == len(log.table)


class TestFailuresAndPool:
    def test_failed_batch_then_commit_reopens_equal(self, tmp_path,
                                                    monkeypatch):
        import os as os_module

        path = tmp_path / "db.bin"
        db = open_store(path)
        db.insert_all(source(0, 5))
        size = len(db.wal.table)
        real_fsync = os_module.fsync
        calls = {"n": 0}

        def failing_fsync(descriptor):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk full")
            return real_fsync(descriptor)

        monkeypatch.setattr("repro.store.wal.os.fsync", failing_fsync)
        fresh = entry(50, note=orv("a", "b"))
        with pytest.raises(OSError):
            db.insert(fresh)
        monkeypatch.undo()
        # The failed frame's nodes never reached the table, so the
        # retry defines them again instead of referencing them.
        assert len(db.wal.table) == size
        assert fresh not in db
        assert db.insert(fresh)
        assert_table_mirrors_log(db)
        close_and_reopen(db, path)

    def test_clear_pool_between_commits(self, tmp_path):
        path = tmp_path / "db.bin"
        db = open_store(path)
        db.insert_all(source(0, 10))
        clear_pool()
        gc.collect()
        # Fresh objects, some of which may take the addresses of
        # objects the clear released: the table's ids stay its own.
        db.merge_in(source(0, 10, marker="u", note="n"), K)
        clear_pool()
        gc.collect()
        db.insert_all(source(20, 30))
        table = db.wal.table
        for node_id, ref in table.refs.items():
            assert id(table.nodes[ref]) == node_id
        assert_table_mirrors_log(db)
        close_and_reopen(db, path)


FIXTURES = Path(__file__).parent / "data"


@pytest.fixture
def v1_store(tmp_path):
    """A copy of the version-1 fixture: a binary snapshot at generation
    2 and a version-1 log of generations 3–7, written by the previous
    format (insert_all, merge_in, compact, merge_in, insert, update,
    remove, apply_many over partial values: ⊥ in an or-value, partial
    and complete sets). ``wal_v1_gen4.json`` and ``wal_v1_final.json``
    record its contents at generations 4 and 7."""
    path = tmp_path / "wal_v1.db"
    shutil.copyfile(FIXTURES / "wal_v1.db", path)
    shutil.copyfile(FIXTURES / "wal_v1.db.wal", wal_path(path))
    return path


class TestVersion1Log:
    def test_fixture_is_a_version_1_log(self, v1_store):
        blob = wal_path(v1_store).read_bytes()
        assert blob[4] == 1
        scan = scan_wal(wal_path(v1_store), intern=True)
        assert scan.version == 1
        assert scan.base_generation == 2
        assert [f.generation for f in scan.frames] == [3, 4, 5, 6, 7]
        assert scan.valid_length == scan.file_size
        assert scan.table == []

    def test_opens_to_the_recorded_contents(self, v1_store):
        recorded = Database.load(FIXTURES / "wal_v1_final.json")
        with open_store(v1_store) as db:
            assert db.generation == recorded.generation == 7
            assert db.snapshot() == recorded.snapshot()

    def test_recover_to_a_mid_log_generation(self, v1_store):
        before = wal_path(v1_store).read_bytes()
        recorded = Database.load(FIXTURES / "wal_v1_gen4.json")
        recovered = Database.recover_to(v1_store, 4)
        assert recovered.generation == recorded.generation == 4
        assert recovered.snapshot() == recorded.snapshot()
        assert Database.recover_to(v1_store).snapshot() == \
            Database.load(FIXTURES / "wal_v1_final.json").snapshot()
        # Reading never rewrites the log.
        assert wal_path(v1_store).read_bytes() == before

    def test_first_write_leaves_a_version_2_log(self, v1_store):
        db = open_store(v1_store)
        db.merge_in(DataSet([data("w", tup(type="Article", title="T1",
                                           pages=orv(10, 12)))]), K)
        assert db.generation == 8
        scan = scan_wal(wal_path(v1_store), intern=True)
        assert scan.version == WAL_VERSION
        assert [f.generation for f in scan.frames] == [3, 4, 5, 6, 7, 8]
        assert_table_mirrors_log(db)
        close_and_reopen(db, v1_store)
        with open_store(v1_store) as reopened:
            assert Database.recover_to(v1_store, 4).snapshot() == \
                Database.load(FIXTURES / "wal_v1_gen4.json").snapshot()
            assert reopened.generation == 8
