"""Group-commit suite: frame-body codec, batched appends, the
leader/follower committer, ``apply_many`` and multi-writer durability.

The correctness spine is **batch-boundary equivalence**: however the
committer happens to slice a run of commits into batches, the log's
bytes — and therefore recovery — are identical to appending every
frame individually. Hypothesis sweeps arbitrary partitions of a commit
run (`test_any_batch_partition_is_byte_identical`) to pin that down;
the ``stress``-marked tests then drive real thread interleavings
through ``Database.open`` and assert every generation a reader ever
pinned is recoverable from disk, and that group commit actually
coalesced fsyncs (``sync_batches < frames_appended``).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import data, tup
from repro.core.errors import CodecError
from repro.store import Database, scan_wal
from repro.store.wal import (
    CommitTicket,
    GroupCommitter,
    WriteAheadLog,
    encode_frame_body,
    frame_from_body,
    wal_path,
)

from tests.store.test_wal import append_frame


def row(i: int):
    return data(f"r{i}", tup(kind="row", seq=i))


def rows(n: int):
    return [row(i) for i in range(1, n + 1)]


def hooks(**overrides):
    """The three hooks a store passes its committer, as no-ops unless
    overridden."""
    return {"commit_lock": threading.Lock(),
            "on_durable": lambda batch: None,
            "on_abort": lambda batch, exc: None, **overrides}


class TestFrameBodySplit:
    def test_stamped_body_equals_whole_frame_encoding(self, tmp_path):
        # The log appends exactly the stamped body after its header.
        removed = (row(1),)
        added = (row(2), row(3))
        body = encode_frame_body(removed, added)
        log = WriteAheadLog(tmp_path / "db.wal", base_generation=6)
        header = log.size
        log.append_batch([(7, body)])
        log.close()
        blob = (tmp_path / "db.wal").read_bytes()
        assert blob[header:] == frame_from_body(7, body)
        frame = scan_wal(tmp_path / "db.wal", intern=True).frames[0]
        assert (frame.generation, frame.removed, frame.added) == \
            (7, removed, added)

    def test_same_body_stamps_any_generation(self):
        # The point of the split: encode once outside the lock, learn
        # the generation later.
        body = encode_frame_body((), (row(1),))
        assert frame_from_body(1, body) != frame_from_body(2, body)
        assert frame_from_body(3, body) == frame_from_body(
            3, encode_frame_body((), (row(1),)))


class TestAppendBatch:
    def test_empty_batch_is_a_no_op(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        size = log.size
        log.append_batch([])
        assert log.size == size
        assert log.sync_batches == 0
        log.close()

    def test_batch_appends_all_frames_in_one_sync(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        log.append_batch([
            (g, encode_frame_body((), (row(g),))) for g in (1, 2, 3)])
        assert log.last_generation == 3
        assert log.frames_appended == 3
        assert log.sync_batches == 1
        log.close()
        scan = scan_wal(tmp_path / "db.wal", intern=True)
        assert [f.generation for f in scan.frames] == [1, 2, 3]
        assert [f.added for f in scan.frames] == [
            (row(1),), (row(2),), (row(3),)]

    def test_rejects_non_contiguous_batch(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        with pytest.raises(CodecError, match="non-contiguous"):
            log.append_batch([
                (1, encode_frame_body((), (row(1),))),
                (3, encode_frame_body((), (row(3),)))])
        # Nothing may have reached the log.
        assert log.last_generation == 0
        assert log.frames_appended == 0
        log.close()
        assert scan_wal(tmp_path / "db.wal", intern=True).frames == []

    def test_rejects_batch_not_chaining_from_head(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        append_frame(log, 1, (), (row(1),))
        with pytest.raises(CodecError, match="non-contiguous"):
            log.append_batch([(3, encode_frame_body((), (row(3),)))])
        log.close()

    def test_closed_log_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        log.close()
        with pytest.raises(CodecError, match="closed"):
            log.append_batch([(1, encode_frame_body((), (row(1),)))])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_any_batch_partition_is_byte_identical(self, tmp_path_factory,
                                                   data_strategy):
        """Slicing a commit run into arbitrary batches changes nothing:
        the log bytes equal the one-frame-per-append log, so recovery
        cannot tell group-commit boundaries ever existed."""
        commits = data_strategy.draw(st.integers(1, 10), label="commits")
        cuts = data_strategy.draw(
            st.sets(st.integers(1, max(1, commits - 1))), label="cuts")
        frames = [(g, encode_frame_body((), (row(g),)))
                  for g in range(1, commits + 1)]
        base = tmp_path_factory.mktemp("walgroup")
        single = WriteAheadLog(base / "single.wal")
        for frame in frames:
            single.append_batch([frame])
        single.close()
        batched = WriteAheadLog(base / "batched.wal")
        bounds = sorted(cuts | {0, commits})
        for lo, hi in zip(bounds, bounds[1:]):
            batched.append_batch(frames[lo:hi])
        batched.close()
        assert ((base / "batched.wal").read_bytes()
                == (base / "single.wal").read_bytes())
        left = scan_wal(base / "single.wal", intern=True)
        right = scan_wal(base / "batched.wal", intern=True)
        assert left.valid_length == right.valid_length
        assert [f.generation for f in left.frames] == \
            [f.generation for f in right.frames]


class TestGroupCommitter:
    def test_single_ticket_commits_durably(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        lock = threading.Lock()
        published = []

        def on_durable(batch):
            assert lock.locked()  # appended and published in one hold
            published.extend(batch)

        committer = GroupCommitter(log, **hooks(commit_lock=lock,
                                                on_durable=on_durable))
        ticket = CommitTicket(1, encode_frame_body((), (row(1),),
                                                   table=log.table))
        committer.register(ticket)
        committer.commit(ticket)
        assert ticket.done and ticket.error is None
        assert published == [ticket]
        assert log.last_generation == 1
        log.close()

    def test_append_failure_fails_whole_batch_and_pending(self,
                                                          tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        log.close()  # every append will now raise
        lock = threading.Lock()
        published = []
        aborted = []

        def on_abort(batch, exc):
            assert not lock.locked()  # free to take the writer lock
            aborted.extend(batch)

        committer = GroupCommitter(log, **hooks(
            commit_lock=lock, on_durable=published.extend,
            on_abort=on_abort))
        first = CommitTicket(1, encode_frame_body((), (row(1),)))
        second = CommitTicket(2, encode_frame_body((), (row(2),)))
        committer.register(first)
        committer.register(second)
        with pytest.raises(CodecError, match="closed"):
            committer.commit(first)
        assert first.error is second.error
        with pytest.raises(CodecError, match="closed"):
            committer.commit(second)
        assert aborted == [first, second]
        assert published == []

    def test_commit_interval_is_clamped(self, tmp_path):
        log = WriteAheadLog(tmp_path / "db.wal")
        committer = GroupCommitter(log, commit_interval=99.0, **hooks())
        assert committer._interval == 1.0
        assert GroupCommitter(log, commit_interval=-3,
                              **hooks())._interval == 0.0
        log.close()


class TestApplyMany:
    def test_bulk_batch_is_one_generation_one_frame(self, tmp_path):
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        try:
            assert db.apply_many(added=rows(5)) == (0, 5)
            assert db.generation == 1
            assert db.apply_many(removed=[row(1), row(2)],
                                 added=[row(6)]) == (2, 1)
            assert db.generation == 2
        finally:
            db.close()
        scan = scan_wal(wal_path(path), intern=True)
        assert [f.generation for f in scan.frames] == [1, 2]
        assert len(scan.frames[0].added) == 5
        assert set(scan.frames[1].removed) == {row(1), row(2)}
        reopened = Database.open(path, auto_compact=False)
        try:
            assert set(reopened.snapshot()) == {row(3), row(4), row(5),
                                                row(6)}
        finally:
            reopened.close()

    def test_net_noop_batch_publishes_nothing(self, tmp_path):
        db = Database.open(tmp_path / "db.bin", auto_compact=False)
        try:
            db.apply_many(added=rows(3))
            generation = db.generation
            # Already-present adds and absent removals net to nothing.
            assert db.apply_many(removed=[row(9)],
                                 added=rows(3)) == (0, 0)
            assert db.generation == generation
        finally:
            db.close()

    def test_transient_database_supports_apply_many(self):
        db = Database()
        assert db.apply_many(added=rows(2)) == (0, 2)
        assert db.apply_many(removed=[row(1)],
                             added=[row(3)]) == (1, 1)
        assert db.generation == 2
        assert set(db.snapshot()) == {row(2), row(3)}

    def test_datum_in_both_sides_nets_to_an_upsert(self):
        # A datum listed as removed *and* added stays: the removal
        # side of the diff skips anything the add side reasserts.
        db = Database()
        assert db.apply_many(removed=[row(1)],
                             added=rows(2)) == (0, 2)
        assert set(db.snapshot()) == {row(1), row(2)}


class TestModeEquivalence:
    def test_group_commit_agrees_with_the_transient_oracle(self,
                                                           tmp_path):
        """The equality oracle: the same workload through a durable
        group-commit store and a plain in-memory store must land on
        identical contents and generations, live and reopened."""
        path = tmp_path / "db.bin"
        oracle = Database()
        db = Database.open(path, auto_compact=False)
        try:
            for store in (oracle, db):
                for r in rows(6):
                    assert store.insert(r)
                assert store.remove(row(2))
                store.apply_many(removed=[row(3)], added=[row(7)])
            assert db.generation == oracle.generation
            assert db.snapshot() == oracle.snapshot()
        finally:
            db.close()
        with Database.open(path, auto_compact=False) as reopened:
            assert reopened.generation == oracle.generation
            assert reopened.snapshot() == oracle.snapshot()

    def test_sequential_commits_are_one_batch_each(self, tmp_path,
                                                   monkeypatch):
        """One writer at a time leads its own one-frame batch: every
        commit is appended and fsynced alone before it returns."""
        import os as os_module

        db = Database.open(tmp_path / "db.bin", auto_compact=False)
        fsyncs = []
        real_fsync = os_module.fsync

        def counting_fsync(descriptor):
            fsyncs.append(descriptor)
            return real_fsync(descriptor)

        monkeypatch.setattr("repro.store.wal.os.fsync", counting_fsync)
        try:
            for r in rows(4):
                assert db.insert(r)
            db.insert_all(rows(6))
            db.apply_many(removed=[row(1)], added=[row(7)])
            assert db.remove(row(2))
            commits = db.generation
            assert commits == 7
            assert db.wal.frames_appended == commits
            assert db.wal.sync_batches == commits
            assert len(fsyncs) == commits
            assert db._committer.max_batch == 1
        finally:
            monkeypatch.undo()
            db.close()


@pytest.mark.stress
class TestMultiWriterDurability:
    WRITERS = 8
    PER_WRITER = 12

    def _writer_row(self, writer: int, i: int):
        return data(f"w{writer}r{i}",
                    tup(kind="stress", writer=writer, seq=i))

    def test_every_pinned_view_generation_is_recoverable(self,
                                                         tmp_path):
        """N concurrent writers, with every thread pinning a view
        after each commit: each pinned generation must later be
        recoverable from disk — the fsync-before-publish invariant,
        observed per batch through real interleavings."""
        path = tmp_path / "db.bin"
        db = Database.open(path, auto_compact=False)
        pinned: list[int] = []
        pin_lock = threading.Lock()
        barrier = threading.Barrier(self.WRITERS)
        failures: list[BaseException] = []

        def work(writer: int) -> None:
            try:
                barrier.wait()
                for i in range(1, self.PER_WRITER + 1):
                    assert db.insert(self._writer_row(writer, i))
                    generation = db.view().generation
                    with pin_lock:
                        pinned.append(generation)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(1, self.WRITERS + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        total = self.WRITERS * self.PER_WRITER
        assert db.generation == total
        log = db.wal
        assert log.frames_appended == total
        db.close()
        # Every generation a reader ever pinned must recover from the
        # log alone — insert-only distinct rows make the check exact:
        # generation g holds exactly g rows.
        for generation in sorted(set(pinned)):
            recovered = Database.recover_to(path, generation)
            assert recovered.generation == generation
            assert len(recovered) == generation

    def test_group_commit_coalesces_fsyncs(self, tmp_path):
        """With a leader linger, concurrent writers must share
        batches: strictly fewer sync batches than frames."""
        db = Database.open(tmp_path / "db.bin", auto_compact=False,
                           commit_interval=0.02)
        barrier = threading.Barrier(self.WRITERS)
        failures: list[BaseException] = []

        def work(writer: int) -> None:
            try:
                barrier.wait()
                for i in range(1, self.PER_WRITER + 1):
                    assert db.insert(self._writer_row(writer, i))
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(1, self.WRITERS + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        log = db.wal
        total = self.WRITERS * self.PER_WRITER
        try:
            assert log.frames_appended == total
            assert log.sync_batches < total, (
                f"{log.sync_batches} batches for {total} frames: "
                "no coalescing happened")
            assert db._committer.max_batch > 1
        finally:
            db.close()
