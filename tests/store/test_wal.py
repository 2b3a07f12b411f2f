"""Write-ahead log unit tests: frames, scanning, repair, durable opens.

The crash suite (``test_crash_recovery``) proves the protocol survives
real process deaths and the property suite (``test_wal_faults``) sweeps
arbitrary corruption; this file pins the individual contracts those
rely on — frame round-trips through the binary codec, the scanner's
prefix semantics, in-place tail repair, the contiguous-generation
append invariant, compaction's observable effects and point-in-time
recovery's boundaries.
"""

import pytest

from repro.core.builder import bottom, data, orv, pset, tup
from repro.core.data import DataSet
from repro.core.errors import CodecError
from repro.store import Database, WriteAheadLog, scan_wal
from repro.store.wal import encode_frame_body, frame_from_body, wal_path

from tests.harness.crashsim import apply_commit, expected_states


def append_frame(log, generation, removed, added):
    """Durably log one commit as a one-frame batch, its body encoded
    against the log table: what a lone writer's commit appends."""
    log.append_batch([(generation, encode_frame_body(
        tuple(removed), tuple(added), table=log.table))])


def sample_diff():
    """A diff exercising the paper's partial-information values."""
    removed = (data("m1", tup(kind="row", note=bottom)),)
    added = (data("m1", tup(kind="row", status=orv("draft", "final"),
                            tags=pset("a", "b"))),
             data("m2", tup(kind="row", seq=2)))
    return removed, added


class TestFrameCodec:
    def test_round_trip_through_scan(self, tmp_path):
        removed, added = sample_diff()
        with WriteAheadLog(tmp_path / "db.wal",
                           base_generation=4) as log:
            append_frame(log, 5, removed, added)
            append_frame(log, 6, (), (data("m3", tup(seq=3)),))
        scan = scan_wal(tmp_path / "db.wal")
        assert scan.header_valid
        assert scan.base_generation == 4
        assert [frame.generation for frame in scan.frames] == [5, 6]
        assert scan.frames[0].removed == removed
        assert scan.frames[0].added == added
        assert scan.valid_length == scan.file_size
        assert scan.last_generation == 6

    def test_each_frame_is_self_contained(self):
        # Without a log table a frame defines every node it needs, so
        # encoding it alone yields the same bytes every time (frames
        # that share the log's table are in test_wal_table.py).
        removed, added = sample_diff()
        assert frame_from_body(1, encode_frame_body(removed, added)) == \
            frame_from_body(1, encode_frame_body(removed, added))

    def test_append_requires_contiguous_generation(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal", base_generation=3)
        with pytest.raises(CodecError, match="non-contiguous"):
            append_frame(log, 3, (), ())  # duplicate of the base
        with pytest.raises(CodecError, match="non-contiguous"):
            append_frame(log, 5, (), ())  # skips generation 4
        append_frame(log, 4, (), (data("m", tup(x=1)),))
        log.close()

    def test_append_after_close_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        log.close()
        assert log.closed
        with pytest.raises(CodecError, match="closed"):
            append_frame(log, 1, (), ())


class TestScanSemantics:
    def test_missing_file(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.wal")
        assert not scan.exists
        assert not scan.header_valid
        assert scan.frames == []
        assert scan.last_generation == 0

    def test_frameless_log(self, tmp_path):
        WriteAheadLog(tmp_path / "db.wal", base_generation=7).close()
        scan = scan_wal(tmp_path / "db.wal")
        assert scan.exists and scan.header_valid
        assert scan.frames == []
        assert scan.last_generation == 7

    def test_corrupt_header_yields_empty_prefix(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            append_frame(log, 1, (), (data("m", tup(x=1)),))
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF  # break the magic
        path.write_bytes(bytes(blob))
        scan = scan_wal(path)
        assert scan.exists and not scan.header_valid
        assert scan.frames == []
        assert scan.valid_length == 0

    def test_duplicated_frame_ends_prefix(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            append_frame(log, 1, (), (data("m1", tup(x=1)),))
            first_end = log.size
            append_frame(log, 2, (), (data("m2", tup(x=2)),))
        blob = path.read_bytes()
        scan = scan_wal(path)
        frame_one = blob[scan.offsets[0]:first_end]
        path.write_bytes(blob + frame_one)  # replay frame 1 at the end
        replayed = scan_wal(path)
        assert [f.generation for f in replayed.frames] == [1, 2]
        assert replayed.valid_length == len(blob)

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "db.wal"
        with WriteAheadLog(path) as log:
            append_frame(log, 1, (), (data("m1", tup(x=1)),))
            intact = log.size
        with open(path, "ab") as tear:
            tear.write(b"\x7f torn frame bytes")
        log = WriteAheadLog(path)
        assert log.size == intact
        assert path.stat().st_size == intact  # repaired in place
        append_frame(log, 2, (), (data("m2", tup(x=2)),))
        log.close()
        scan = scan_wal(path)
        assert [f.generation for f in scan.frames] == [1, 2]

    def test_failed_append_truncates_partial_frame(self, tmp_path,
                                                   monkeypatch):
        import os as os_module
        path = tmp_path / "db.wal"
        log = WriteAheadLog(path)
        append_frame(log, 1, (), (data("m1", tup(x=1)),))
        intact = log.size

        calls = {"n": 0}
        real_fsync = os_module.fsync

        def failing_fsync(descriptor):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk full")
            return real_fsync(descriptor)

        monkeypatch.setattr("repro.store.wal.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            append_frame(log, 2, (), (data("m2", tup(x=2)),))
        monkeypatch.undo()
        assert log.size == intact
        assert log.last_generation == 1
        append_frame(log, 2, (), (data("m2", tup(x=2)),))  # retry succeeds
        log.close()
        scan = scan_wal(path)
        assert [f.generation for f in scan.frames] == [1, 2]


class TestDurableDatabase:
    def drive(self, path, commits, **kwargs):
        db = Database.open(path, auto_compact=False, **kwargs)
        for k in range(db.generation + 1, commits + 1):
            apply_commit(db, k)
        return db

    def test_reopen_replays_to_last_commit(self, tmp_path):
        path = tmp_path / "db.bin"
        states = expected_states(6)
        self.drive(path, 6).close()
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.generation == 6
            assert reopened.snapshot() == states[6]
            assert reopened.wal is not None
            assert reopened.wal.last_generation == 6
        finally:
            reopened.close()

    def test_replay_keeps_indexes_warm_and_correct(self, tmp_path):
        path = tmp_path / "db.bin"
        # Eight commits leave the rewritten m7 live (every third commit
        # deletes), so the title column exists to be warmed.
        db = self.drive(path, 8, index_paths=("title",))
        db.close()
        reopened = Database.open(path, index_paths=("title",),
                                 auto_compact=False)
        try:
            # Open built the title column's indexes before any query.
            column = reopened._state._columns.column(("title",))
            assert column._eq_index is not None
            for text in ('select * where exists title',
                         'select * where title = "T7"'):
                assert len(reopened.query(text)) == 1
                assert reopened.query(text) == reopened.query(text,
                                                              naive=True)
        finally:
            reopened.close()

    def test_fsync_disabled_still_replays(self, tmp_path):
        path = tmp_path / "db.bin"
        self.drive(path, 4, fsync=False).close()
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.generation == 4
            assert reopened.snapshot() == expected_states(4)[4]
        finally:
            reopened.close()

    def test_load_reads_the_snapshot_without_a_log(self, tmp_path):
        path = tmp_path / "db.bin"
        db = self.drive(path, 3)
        db.compact()
        db.close()
        plain = Database.load(path)
        assert plain.wal is None
        assert plain.generation == 3

    @pytest.mark.parametrize("fmt", ["binary", "json"])
    def test_reopen_honours_result_cache_size(self, tmp_path, fmt):
        path = tmp_path / "db.bin"
        db = self.drive(path, 3)
        db.save(path, format=fmt)
        db.close()
        text = "select * where exists title"
        with Database.open(path, auto_compact=False,
                           result_cache_size=0) as reopened:
            assert reopened.cache_stats()["capacity"] == 0
            assert reopened.query(text) == reopened.query(text)
            assert reopened.cache_stats()["hits"] == 0
        with Database.open(path, auto_compact=False,
                           result_cache_size=7) as reopened:
            assert reopened.cache_stats()["capacity"] == 7

    def test_compact_truncates_log_and_preserves_state(self, tmp_path):
        path = tmp_path / "db.bin"
        states = expected_states(8)
        db = self.drive(path, 5)
        db.compact()
        scan = scan_wal(wal_path(path))
        assert scan.base_generation == 5
        assert scan.frames == []
        for k in range(6, 9):
            apply_commit(db, k)
        db.close()
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.generation == 8
            assert reopened.snapshot() == states[8]
        finally:
            reopened.close()
        tail = scan_wal(wal_path(path))
        assert tail.base_generation == 5
        assert [f.generation for f in tail.frames] == [6, 7, 8]

    def test_auto_compact_triggers_past_threshold(self, tmp_path):
        path = tmp_path / "db.bin"
        db = Database.open(path, compact_bytes=1, auto_compact=True)
        try:
            db.insert(data("m1", tup(kind="row", seq=1)))
            thread = db._compact_thread
            assert thread is not None
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert path.exists()
            scan = scan_wal(wal_path(path))
            assert scan.base_generation == db.generation
        finally:
            db.close()

    def test_compact_requires_durable(self):
        with pytest.raises(CodecError, match="durable"):
            Database().compact()

    def test_stale_log_is_rebased_not_replayed(self, tmp_path):
        # An out-of-band snapshot ahead of every frame: the log's
        # content is already reflected, so reopening discards it and
        # chains appends from the snapshot's generation.
        path = tmp_path / "db.bin"
        db = self.drive(path, 3)
        db.close()
        stashed = wal_path(path).read_bytes()
        db = self.drive(path, 5)
        db.compact()  # snapshot at generation 5, log emptied
        db.close()
        wal_path(path).write_bytes(stashed)  # frames 1..3 reappear
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.generation == 5
            assert reopened.snapshot() == expected_states(5)[5]
            assert reopened.wal.base_generation == 5
            apply_commit(reopened, 6)
            assert reopened.generation == 6
        finally:
            reopened.close()

    def test_log_ahead_of_snapshot_rejected(self, tmp_path):
        path = tmp_path / "db.bin"
        WriteAheadLog(wal_path(path), base_generation=7).close()
        with pytest.raises(CodecError, match="ahead of the snapshot"):
            Database.open(path)

    def test_close_is_idempotent_and_detaches_log(self, tmp_path):
        path = tmp_path / "db.bin"
        db = self.drive(path, 2)
        log = db.wal
        db.close()
        db.close()
        assert log.closed


class TestRecoverTo:
    def test_every_logged_generation_is_recoverable(self, tmp_path):
        path = tmp_path / "db.bin"
        commits = 6
        states = expected_states(commits)
        db = Database.open(path, auto_compact=False)
        for k in range(1, commits + 1):
            apply_commit(db, k)
        db.close()
        for generation in range(0, commits + 1):
            recovered = Database.recover_to(path, generation)
            assert recovered.generation == generation
            assert recovered.snapshot() == states[generation]
            assert recovered.wal is None  # no history forking

    def test_default_is_latest(self, tmp_path):
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        for k in range(1, 5):
            apply_commit(db, k)
        db.close()
        assert Database.recover_to(path).generation == 4

    def test_bounds_are_enforced(self, tmp_path):
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        for k in range(1, 5):
            apply_commit(db, k)
        db.compact()
        apply_commit(db, 5)
        db.close()
        with pytest.raises(CodecError, match="predates the snapshot"):
            Database.recover_to(path, 2)  # compaction discarded it
        with pytest.raises(CodecError, match="never logged"):
            Database.recover_to(path, 9)
        assert Database.recover_to(path, 4).generation == 4
        assert Database.recover_to(path, 5).generation == 5

    def test_recovered_save_does_not_fork_history(self, tmp_path):
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        for k in range(1, 4):
            apply_commit(db, k)
        db.close()
        historical = Database.recover_to(path, 2)
        side = tmp_path / "as-of-2.bin"
        historical.save(side, format="binary")
        assert Database.load(side).snapshot() == expected_states(2)[2]
        # The durable store is untouched.
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.generation == 3
        finally:
            reopened.close()


class TestReplayEquivalence:
    def test_replay_equals_direct_application(self, tmp_path):
        """Recovery is replay: scanning the log and folding its frames
        over the snapshot yields the reopened database's DataSet."""
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        for k in range(1, 8):
            apply_commit(db, k)
        db.close()
        scan = scan_wal(wal_path(path), intern=True)
        contents = set()
        for frame in scan.frames:
            contents.difference_update(frame.removed)
            contents.update(frame.added)
        reopened = Database.open(path, auto_compact=False)
        try:
            assert reopened.snapshot() == DataSet(contents)
        finally:
            reopened.close()
