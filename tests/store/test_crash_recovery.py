"""SIGKILL crash-recovery suite: every commit-path window, real deaths.

Each test launches the deterministic workload of
``tests/harness/crashsim.py`` in a subprocess with one instrumented
crash point armed (``REPRO_WAL_CRASH``), waits for the SIGKILL, then
reopens the database in-process and asserts the recovered state *is* a
state the workload actually committed — computed independently by
replaying the same deterministic commits in memory, never read back
from the wreckage.

The per-point generation bounds pin the commit protocol's ordering
guarantees:

* ``pre-append`` / ``mid-append`` — the frame never (fully) reached
  the log, so recovery lands exactly one generation back;
* ``pre-fsync`` — the frame was written and flushed but not fsynced;
  after a process kill the page cache survives, so recovery may land
  on either side (a power loss could lose it — both are committed
  states, which is all the contract promises);
* ``post-fsync`` — the frame is durable even though the in-memory
  publish never happened: recovery must land *on* it;
* ``compact-pre-snapshot-swap`` / ``compact-pre-wal-swap`` — a death
  between compaction's two atomic replaces must be invisible:
  snapshot-then-log ordering plus idempotent replay land on the
  pinned generation either way.

The group-commit windows run the *concurrent* workload (N writer
threads, multi-frame batches formed by a ``commit_interval`` leader
linger) and assert the committed-prefix property instead of an exact
generation — a batch leader can die before its batch's fsync
(``pre-fsync``), after the fsync but before any follower learned of it
(``post-fsync``), mid-way through writing the batch
(``batch-mid-write``), or with the batch torn (``mid-append``); in
every case recovery must land on a state where each writer's surviving
rows are a prefix of its insert sequence and the generation equals the
surviving row count. The same window under the merge workload, whose
batched frames reference nodes earlier frames logged, must land on a
fold of each writer's committed merges.

Every test finishes by driving the recovered store to the workload's
final state, proving recovery returns a *live* database, not a relic.
"""

import signal

import pytest

from repro.store import Database, scan_wal
from repro.store.wal import wal_path

from tests.harness.crashsim import (
    check_concurrent_recovery,
    check_merge_recovery,
    concurrent_rows,
    expected_states,
    merged_row,
    run_concurrent_process,
    run_concurrent_workload,
    run_workload,
    run_workload_process,
)

pytestmark = [
    pytest.mark.crash,
    pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                       reason="requires SIGKILL"),
]

COMMITS = 7


def reopen_and_check(db_path, commits=COMMITS):
    """Reopen after a crash; assert prefix-consistency; return gen."""
    states = expected_states(commits)
    db = Database.open(db_path, auto_compact=False)
    try:
        generation = db.generation
        assert 0 <= generation <= commits
        assert db.snapshot() == states[generation]
    finally:
        db.close()
    return generation


def finish_and_check(db_path, commits=COMMITS):
    """The recovered store must accept the remaining commits."""
    run_workload(db_path, commits)
    states = expected_states(commits)
    db = Database.open(db_path, auto_compact=False)
    try:
        assert db.generation == commits
        assert db.snapshot() == states[commits]
    finally:
        db.close()


def crash_at(db_path, point, occurrence, compact_at=None):
    result = run_workload_process(db_path, COMMITS, crash_point=point,
                                  occurrence=occurrence,
                                  compact_at=compact_at)
    assert result.returncode == -signal.SIGKILL, (
        f"child survived crash point {point!r}: "
        f"rc={result.returncode}\n{result.stdout}\n{result.stderr}")
    return result


class TestCommitPathCrashes:
    @pytest.mark.parametrize("occurrence", [1, 3, 6])
    @pytest.mark.parametrize("point", ["pre-append", "mid-append"])
    def test_frame_not_logged_loses_exactly_one_commit(
            self, tmp_path, point, occurrence):
        db_path = tmp_path / "db.bin"
        crash_at(db_path, point, occurrence)
        generation = reopen_and_check(db_path)
        assert generation == occurrence - 1
        finish_and_check(db_path)

    @pytest.mark.parametrize("occurrence", [1, 4])
    def test_pre_fsync_lands_on_either_side(self, tmp_path, occurrence):
        db_path = tmp_path / "db.bin"
        crash_at(db_path, "pre-fsync", occurrence)
        generation = reopen_and_check(db_path)
        assert generation in (occurrence - 1, occurrence)
        finish_and_check(db_path)

    @pytest.mark.parametrize("occurrence", [1, 5])
    def test_post_fsync_commit_survives_unpublished(self, tmp_path,
                                                    occurrence):
        db_path = tmp_path / "db.bin"
        crash_at(db_path, "post-fsync", occurrence)
        generation = reopen_and_check(db_path)
        assert generation == occurrence
        finish_and_check(db_path)


class TestCompactionCrashes:
    COMPACT_AT = 4

    @pytest.mark.parametrize("point", ["compact-pre-snapshot-swap",
                                       "compact-pre-wal-swap"])
    def test_death_between_replaces_is_invisible(self, tmp_path, point):
        db_path = tmp_path / "db.bin"
        crash_at(db_path, point, 1, compact_at=self.COMPACT_AT)
        generation = reopen_and_check(db_path)
        assert generation == self.COMPACT_AT
        # A half-finished compaction must not wedge the next one.
        db = Database.open(db_path, auto_compact=False)
        try:
            db.compact()
            scan = scan_wal(wal_path(db_path))
            assert scan.base_generation == self.COMPACT_AT
            assert scan.frames == []
        finally:
            db.close()
        reopen_and_check(db_path)
        finish_and_check(db_path)

    def test_crash_after_successful_compaction(self, tmp_path):
        db_path = tmp_path / "db.bin"
        crash_at(db_path, "post-fsync", 6, compact_at=self.COMPACT_AT)
        generation = reopen_and_check(db_path)
        assert generation == 6
        scan = scan_wal(wal_path(db_path))
        assert scan.base_generation == self.COMPACT_AT
        finish_and_check(db_path)


class TestNoCrashControl:
    def test_workload_completes_cleanly(self, tmp_path):
        db_path = tmp_path / "db.bin"
        result = run_workload_process(db_path, COMMITS)
        assert result.returncode == 0, result.stderr
        assert reopen_and_check(db_path) == COMMITS


WRITERS = 4
PER_WRITER = 5


class TestGroupCommitCrashes:
    """Leader/follower crash windows under the concurrent workload."""

    def _recover_and_finish(self, db_path):
        """Committed-prefix assertion, then drive to completion."""
        db = Database.open(db_path, auto_compact=False)
        try:
            check_concurrent_recovery(db, WRITERS, PER_WRITER)
            survived = db.generation
        finally:
            db.close()
        run_concurrent_workload(db_path, WRITERS, PER_WRITER)
        db = Database.open(db_path, auto_compact=False)
        try:
            assert db.generation == WRITERS * PER_WRITER
            assert set(db.snapshot()) == concurrent_rows(
                WRITERS, PER_WRITER)
        finally:
            db.close()
        return survived

    @pytest.mark.parametrize("point,occurrence", [
        ("pre-append", 1), ("pre-append", 2),
        ("mid-append", 1), ("mid-append", 2),
        ("pre-fsync", 1), ("pre-fsync", 2),
        ("post-fsync", 1), ("post-fsync", 2),
    ])
    def test_leader_death_leaves_committed_prefix(self, tmp_path,
                                                  point, occurrence):
        db_path = tmp_path / "db.bin"
        result = run_concurrent_process(
            db_path, WRITERS, PER_WRITER, crash_point=point,
            occurrence=occurrence)
        assert result.returncode == -signal.SIGKILL, (
            f"child survived crash point {point!r}: "
            f"rc={result.returncode}\n{result.stdout}\n{result.stderr}")
        self._recover_and_finish(db_path)

    def test_leader_death_mid_batch(self, tmp_path):
        """``batch-mid-write`` only arms on a multi-frame batch, which
        the scheduler does not strictly guarantee — retry the child a
        few times until one forms (the ``commit_interval`` linger makes
        the first attempt overwhelmingly likely to suffice)."""
        for attempt in range(6):
            db_path = tmp_path / f"db{attempt}.bin"
            result = run_concurrent_process(
                db_path, WRITERS, PER_WRITER,
                crash_point="batch-mid-write", commit_interval=0.05)
            if result.returncode == -signal.SIGKILL:
                survived = self._recover_and_finish(db_path)
                # The leader died with at least its batch's first
                # frame flushed and the rest unwritten: recovery
                # landed strictly inside the workload.
                assert 0 < survived < WRITERS * PER_WRITER
                return
            assert result.returncode == 0, result.stderr
        pytest.fail("no multi-frame batch formed in 6 attempts")

    def test_leader_death_mid_batch_of_shared_frames(self, tmp_path):
        """``batch-mid-write`` under the merge workload: the batch's
        frames remove data earlier frames logged and add unions of
        their children, so they reference the log table. Recovery must
        land on a committed prefix whose every frame resolved."""
        for attempt in range(6):
            db_path = tmp_path / f"db{attempt}.bin"
            result = run_concurrent_process(
                db_path, WRITERS, PER_WRITER, merge=True,
                crash_point="batch-mid-write", commit_interval=0.05)
            if result.returncode == -signal.SIGKILL:
                break
            assert result.returncode == 0, result.stderr
        else:
            pytest.fail("no multi-frame batch formed in 6 attempts")
        db = Database.open(db_path, auto_compact=False)
        try:
            check_merge_recovery(db, WRITERS, PER_WRITER)
            survived = db.generation
        finally:
            db.close()
        assert 0 < survived < WRITERS * PER_WRITER
        run_concurrent_workload(db_path, WRITERS, PER_WRITER, merge=True)
        db = Database.open(db_path, auto_compact=False)
        try:
            assert db.generation == WRITERS * PER_WRITER
            assert set(db.snapshot()) == {
                merged_row(writer, PER_WRITER)
                for writer in range(1, WRITERS + 1)}
        finally:
            db.close()

    def test_concurrent_workload_completes_cleanly(self, tmp_path):
        db_path = tmp_path / "db.bin"
        result = run_concurrent_process(db_path, WRITERS, PER_WRITER)
        assert result.returncode == 0, result.stderr
        db = Database.open(db_path, auto_compact=False)
        try:
            assert db.generation == WRITERS * PER_WRITER
            assert set(db.snapshot()) == concurrent_rows(
                WRITERS, PER_WRITER)
        finally:
            db.close()
