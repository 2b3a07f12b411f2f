#!/usr/bin/env python
"""Benchmark: write-ahead-log durability — commit overhead & recovery.

Four phases measure what incremental durability costs and what
compaction buys:

* ``commit_latency`` — per-commit wall time for the same insert
  workload against a transient :class:`Database`, a durable store
  (``Database.open``, fsync per commit) and a durable store with
  ``fsync=False``; ``commit_overhead_x`` (durable / transient) is
  reported for the record but *not* gated — it measures the disk, not
  the code;
* ``batch_commit`` — N durable single-datum commits (N frames, N
  fsyncs) vs one durable ``insert_all`` batch (one frame, one fsync);
  the ratio is ``batch_commit_speedup``, the amortization the batch
  commit path exists to provide;
* ``recovery`` — ``Database.open`` replay time at growing log lengths
  (a quarter, half and the full log), pinned cold (fresh intern pool)
  each run;
* ``compaction`` — reopening the full-log store vs reopening an
  identical store after ``compact()``; the ratio is
  ``recovery_speedup``, the restart-latency payoff of folding the log
  into the snapshot;
* ``multi_writer`` — N concurrent writer threads × M commits each
  against a group-commit store (leader batches frames, one fsync per
  batch) vs the same writers on the same kind of store with every
  commit taken inside a benchmark-side lock, so each commit leads its
  own one-frame batch and pays its own fsync (the serialized
  baseline); the headline ``group_commit_speedup`` is the median
  ratio over interleaved serialized/group measurement pairs — the
  fsync amortization the committer protocol exists to provide.

Correctness oracles run on **every** run, full and smoke: the reopened
store equals the live one, the compacted store equals the uncompacted
one, replaying a log prefix lands on exactly that generation,
point-in-time recovery reproduces the state the workload recorded
mid-build, both multi-writer stores land on exactly the state a
sequential oracle commits — live and after reopening from disk — and
the serialized baseline retires one fsynced batch per commit.
``recovery_speedup``, ``batch_commit_speedup`` and
``group_commit_speedup`` are gated by
``tools/check_bench_regression.py``; the full run additionally
enforces mild absolute floors.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from _harness import best_of, cold, main, speedup
from repro.core.builder import data, tup
from repro.core.intern import intern_data
from repro.store.database import Database
from repro.store.wal import scan_wal, wal_path

#: Full-run acceptance floors for the gated headline ratios.
MIN_RECOVERY_SPEEDUP = 1.2
MIN_BATCH_SPEEDUP = 3.0
MIN_GROUP_SPEEDUP = 2.0

#: Multi-writer phase shape (the acceptance bar is 8 writers).
WRITERS = 8

#: Leader linger for the group-commit store. Without it, batch size
#: self-balances around fsync_time / per-commit CPU (≈4 on this class
#: of machine); a sub-millisecond linger lets the whole writer pool
#: pile into each batch, which is what the knob exists for.
COMMIT_INTERVAL = 0.0003

#: Each timed phase runs this many times and reports the fastest —
#: the min damps scheduler and page-cache noise on shared machines.
REPEAT = 3

#: Interleaved serialized/group measurement pairs in the multi-writer
#: phase. The disk's fsync cost drifts over a run's lifetime, so a
#: min-of-N per mode can compare a cheap-fsync serialized epoch
#: against an expensive-fsync group epoch; pairing the two drives
#: back-to-back correlates the drift out and the median of the
#: per-pair ratios damps outlier pairs.
ROUNDS = 5


def _row(i: int):
    return data(f"m{i}", tup(type="Article", title=f"T{i % 50}",
                             year=1980 + i % 40, author=f"A{i % 17}",
                             pages=i))


def _commit_row(i: int):
    """A deliberately small datum for the multi-writer phase: the
    phase measures the commit protocol, so per-row encoding CPU is
    kept minimal (it is identical in both modes either way)."""
    return data(f"w{i}", tup(kind="commit", seq=i))


def _phase_commit_latency(commits: int) -> dict:
    """Per-commit wall time: transient vs durable vs fsync-less."""
    rows = [_row(i) for i in range(commits)]

    def transient():
        db = Database()
        for row in rows:
            db.insert(row)
        return db

    def durable(fsync: bool):
        tmp = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            db = Database.open(tmp / "db.bin", auto_compact=False,
                               fsync=fsync)
            for row in rows:
                db.insert(row)
            db.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    [(transient_seconds, _)] = best_of([transient], repeat=REPEAT,
                                       before=cold)
    [(durable_seconds, _)] = best_of([lambda: durable(True)],
                                     repeat=REPEAT, before=cold)
    [(nofsync_seconds, _)] = best_of([lambda: durable(False)],
                                     repeat=REPEAT, before=cold)
    return {
        "commits": commits,
        "transient_us_per_commit": round(
            transient_seconds / commits * 1e6, 2),
        "durable_us_per_commit": round(
            durable_seconds / commits * 1e6, 2),
        "durable_nofsync_us_per_commit": round(
            nofsync_seconds / commits * 1e6, 2),
        "commit_overhead_x": speedup(durable_seconds, transient_seconds),
    }


def _phase_batch_commit(commits: int) -> dict:
    """N one-datum frames + N fsyncs vs one frame + one fsync."""
    rows = [_row(i) for i in range(commits)]

    def individual():
        tmp = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            db = Database.open(tmp / "db.bin", auto_compact=False)
            for row in rows:
                db.insert(row)
            count = len(db)
            db.close()
            return count
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def batch():
        tmp = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            db = Database.open(tmp / "db.bin", auto_compact=False)
            db.insert_all(rows)
            count = len(db)
            db.close()
            return count
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    [(individual_seconds, individual_count)] = best_of(
        [individual], repeat=REPEAT, before=cold)
    [(batch_seconds, batch_count)] = best_of([batch], repeat=REPEAT,
                                             before=cold)
    assert individual_count == batch_count == len(rows)
    return {
        "commits": commits,
        "individual_seconds": round(individual_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "batch_commit_speedup": speedup(individual_seconds,
                                        batch_seconds),
    }


def _phase_multi_writer(writers: int, per_writer: int,
                        ) -> tuple[dict, list[str]]:
    """N threads × M commits each: group commit vs serialized fsync.

    Both stores run the identical concurrent insert workload through
    the same commit path. The serialized side takes a benchmark-side
    lock around each commit, so no two commits ever share a batch: one
    ``write`` and one ``fsync`` per commit, which its oracle checks
    (``sync_batches`` equals the commit count). The equality oracle
    holds each final state — live and reopened from disk — to the
    sequential reference, so the speedup can never come from dropping
    or tearing a commit.

    Rows are pre-interned outside the timed section and the intern
    pool is deliberately left warm: both modes commit identical
    canonical rows, so the ratio isolates the commit protocol instead
    of hash-consing cost.
    """
    total = writers * per_writer
    per_thread = [[intern_data(_commit_row(w * per_writer + i))
                   for i in range(per_writer)]
                  for w in range(writers)]
    reference = Database()
    for rows in per_thread:
        for row in rows:
            reference.insert(row)
    reference_state = reference.snapshot()
    failures: list[str] = []

    def drive(serialized: bool) -> tuple[float, int]:
        label = "serialized" if serialized else "group"
        tmp = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
        try:
            db = Database.open(
                tmp / "db.bin", auto_compact=False,
                commit_interval=0.0 if serialized else COMMIT_INTERVAL)
            barrier = threading.Barrier(writers + 1)
            errors: list[BaseException] = []
            one_at_a_time = threading.Lock()

            def insert_alone(row) -> None:
                with one_at_a_time:
                    db.insert(row)

            commit = insert_alone if serialized else db.insert

            def work(rows) -> None:
                try:
                    barrier.wait()
                    for row in rows:
                        commit(row)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(rows,))
                       for rows in per_thread]
            for thread in threads:
                thread.start()
            barrier.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            if errors:
                failures.append(f"{label} writer raised: {errors[0]!r}")
            if db.generation != total:
                failures.append(
                    f"{label} store ended at generation "
                    f"{db.generation}, not {total}")
            if db.snapshot() != reference_state:
                failures.append(
                    f"{label} store differs from the sequential "
                    f"reference")
            sync_batches = db.wal.sync_batches
            if serialized and sync_batches != total:
                failures.append(
                    f"serialized store retired {sync_batches} batches "
                    f"for {total} commits")
            db.close()
            reopened = Database.open(tmp / "db.bin",
                                     auto_compact=False)
            if reopened.generation != total or \
                    reopened.snapshot() != reference_state:
                failures.append(
                    f"reopened {label} store differs from the "
                    f"sequential reference")
            reopened.close()
            return elapsed, sync_batches
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # Interleaved pairs: each round times the *threaded section* only
    # (drive's own timer) for both modes back-to-back, so slow-fsync
    # epochs hit both sides of every ratio (see ROUNDS).
    serialized_times: list[float] = []
    group_times: list[float] = []
    batch_counts: list[int] = []
    ratios: list[float] = []
    for _ in range(ROUNDS):
        gc.collect()
        serialized_elapsed, _ = drive(True)
        group_elapsed, sync_batches = drive(False)
        serialized_times.append(serialized_elapsed)
        group_times.append(group_elapsed)
        batch_counts.append(sync_batches)
        if group_elapsed:
            ratios.append(serialized_elapsed / group_elapsed)
    group_batches = int(statistics.median(batch_counts))
    return {
        "writers": writers,
        "per_writer": per_writer,
        "commits": total,
        "commit_interval": COMMIT_INTERVAL,
        "rounds": ROUNDS,
        "serialized_seconds": round(
            statistics.median(serialized_times), 6),
        "group_seconds": round(statistics.median(group_times), 6),
        "group_sync_batches": group_batches,
        "group_mean_batch": round(total / group_batches, 2)
        if group_batches else None,
        "group_commit_speedup": round(statistics.median(ratios), 2)
        if ratios else None,
    }, failures


def _timed_open(path: Path) -> tuple[float, int]:
    """Cold ``Database.open`` wall time and the landed generation."""

    def action():
        db = Database.open(path, auto_compact=False)
        try:
            return db.generation
        finally:
            db.close()

    return best_of([action], repeat=REPEAT, before=cold)[0]


def run(commits: int, per_writer: int) -> dict:
    report: dict = {"benchmark": "wal",
                    "workload": {"commits": commits,
                                 "writers": WRITERS,
                                 "per_writer": per_writer}}
    oracle_failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as tmp:
        base = Path(tmp)
        full_path = base / "full" / "db.bin"
        full_path.parent.mkdir()

        # Build the reference store one commit at a time, recording
        # the mid-build state point-in-time recovery must reproduce.
        db = Database.open(full_path, auto_compact=False)
        checkpoint_generation = commits // 2
        checkpoint_state = None
        for i in range(commits):
            db.insert(_row(i))
            if db.generation == checkpoint_generation:
                checkpoint_state = db.snapshot()
        live_state = db.snapshot()
        db.close()

        log_bytes = wal_path(full_path).read_bytes()
        scan = scan_wal(wal_path(full_path))
        bounds = scan.offsets + [scan.valid_length]
        assert len(scan.frames) == commits

        # recovery: replay time at a quarter, half and the full log.
        recovery = []
        for fraction, count in (("quarter", commits // 4),
                                ("half", commits // 2),
                                ("full", commits)):
            prefix_path = base / f"replay-{fraction}" / "db.bin"
            prefix_path.parent.mkdir()
            wal_path(prefix_path).write_bytes(log_bytes[:bounds[count]])
            seconds, generation = _timed_open(prefix_path)
            if generation != count:
                oracle_failures.append(
                    f"replaying {count} frames landed on generation "
                    f"{generation}")
            recovery.append({"frames": count,
                             "open_seconds": round(seconds, 6)})
        full_open_seconds = recovery[-1]["open_seconds"]

        # compaction: an identical store, log folded into the snapshot.
        compact_path = base / "compacted" / "db.bin"
        compact_path.parent.mkdir()
        wal_path(compact_path).write_bytes(log_bytes)
        compacted = Database.open(compact_path, auto_compact=False)
        compacted.compact()
        compacted_state = compacted.snapshot()
        compacted.close()
        compacted_open_seconds, compacted_generation = _timed_open(
            compact_path)
        if compacted_generation != commits:
            oracle_failures.append(
                f"compacted store reopened at generation "
                f"{compacted_generation}, not {commits}")

        # Oracles: reopen equals live equals compacted; point-in-time
        # recovery reproduces the recorded mid-build state.
        reopened = Database.open(full_path, auto_compact=False)
        if reopened.snapshot() != live_state:
            oracle_failures.append(
                "reopened store differs from the live one")
        reopened.close()
        if compacted_state != live_state:
            oracle_failures.append(
                "compacted store differs from the uncompacted one")
        historical = Database.recover_to(full_path,
                                         checkpoint_generation)
        if checkpoint_state is None or \
                historical.snapshot() != checkpoint_state:
            oracle_failures.append(
                f"recover_to({checkpoint_generation}) differs from the "
                f"recorded mid-build state")

        report["commit_latency"] = _phase_commit_latency(commits)
        report["batch_commit"] = _phase_batch_commit(commits)
        multi_writer, multi_failures = _phase_multi_writer(
            WRITERS, per_writer)
        oracle_failures.extend(multi_failures)
        report["multi_writer"] = multi_writer
        report["recovery"] = recovery
        report["compaction"] = {
            "full_wal_open_seconds": full_open_seconds,
            "compacted_open_seconds": round(compacted_open_seconds, 6),
            "wal_bytes": len(log_bytes),
            "snapshot_bytes": compact_path.stat().st_size,
        }

    report["recovery_speedup"] = speedup(full_open_seconds,
                                         compacted_open_seconds)
    report["batch_commit_speedup"] = \
        report["batch_commit"]["batch_commit_speedup"]
    report["group_commit_speedup"] = \
        report["multi_writer"]["group_commit_speedup"]
    report["commit_overhead_x"] = \
        report["commit_latency"]["commit_overhead_x"]
    report["oracle_failures"] = oracle_failures
    report["oracles_ok"] = not oracle_failures
    return report


def failures(report: dict):
    """One message per failed oracle."""
    yield from report["oracle_failures"]


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(commits=80, per_writer=8),
        full=dict(commits=600, per_writer=30), checks=failures,
        floors=[(ratio, ratio, floor) for ratio, floor in (
            ("recovery_speedup", MIN_RECOVERY_SPEEDUP),
            ("batch_commit_speedup", MIN_BATCH_SPEEDUP),
            ("group_commit_speedup", MIN_GROUP_SPEEDUP))]))
