"""Crash-simulation fixture: kill a durable workload, then recover.

Durability claims are only as strong as the deaths they survive, so
this harness runs a deterministic mutation workload against
``Database.open`` in a *separate process* and SIGKILLs it at an
instrumented commit-path crash point (``REPRO_WAL_CRASH``, see
``repro.store.wal``) — a real process death, not a raised exception, so
no ``finally`` block or atexit handler can paper over a broken fsync
ordering.

The workload is shared, deterministic code: commit ``k`` inserts,
updates or removes depending on ``k % 3``, so the parent process can
compute the exact expected ``DataSet`` for *every* generation
(:func:`expected_states`) without reading anything back from the child.
A recovery assertion is then simply ``reopened.snapshot() ==
expected_states(n)[reopened.generation]`` — the reopened database must
equal a state the workload actually committed, never a torn hybrid.

Run directly (``python tests/harness/crashsim.py <db-path> <commits>
[compact-at]``) the module executes the workload and exits 0; the test
suite launches it via :func:`run_workload_process` with a crash point
armed and asserts on the SIGKILL and on what recovery finds.

**Concurrent mode** drives the group-commit protocol instead: N
writer threads insert disjoint deterministic rows through one durable
database opened with a small ``commit_interval``, so batches with
several frames actually form and the leader/follower crash windows
(``batch-mid-write``, the batched ``pre-fsync``/``post-fsync``) are
exercised by real multi-writer batches. Each thread inserts its row
``i+1`` only after row ``i``'s commit returned — i.e. after its frame
was fsynced — so in any recovered prefix every thread's surviving rows
form a prefix of its sequence, and (rows being insert-only and
distinct) the recovered generation always equals the recovered row
count: the committed-prefix assertion
(:func:`check_concurrent_recovery`) needs no log read-back.

In **merge** mode each writer instead ∪K-merges its rows, one at a
time, into the one datum it owns (:data:`MERGE_KEY` pairs every row
of a writer): each frame removes a datum an earlier frame logged and
adds a union sharing its children, so the frames of a batch reference
the log table rather than re-encode it. A writer's datum after ``k``
surviving merges is :func:`merged_row` ``(writer, k)``, and the
generation is the sum of the ``k`` (:func:`check_merge_recovery`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:  # direct invocation: make repro importable
    sys.path.insert(0, str(_SRC))

from repro.core.builder import data, tup  # noqa: E402
from repro.core.data import DataSet  # noqa: E402
from repro.core.objects import Atom  # noqa: E402
from repro.store import Database  # noqa: E402
from repro.store.wal import CRASH_ENV  # noqa: E402


def apply_commit(db: Database, k: int) -> None:
    """Apply deterministic commit ``k`` (1-based); bumps exactly one
    generation.

    The cycle exercises every frame shape: ``k % 3 == 1`` inserts a
    fresh datum (add-only frame), ``k % 3 == 2`` rewrites the previous
    commit's datum (remove+add frame), ``k % 3 == 0`` deletes the datum
    the cycle rewrote (remove-only frame).
    """
    phase = k % 3
    if phase == 1:
        assert db.insert(
            data(f"m{k}", tup(kind="row", seq=k, title=f"T{k}")))
    elif phase == 2:
        marker = f"m{k - 1}"
        changed = db.update(
            marker,
            lambda _d: data(marker,
                            tup(kind="row", seq=k, title=f"T{k - 1}",
                                rev=1)))
        assert changed == 1
    else:
        victims = list(db.by_marker(f"m{k - 2}"))
        assert len(victims) == 1
        assert db.remove(victims[0])


def expected_states(commits: int):
    """``states[g]`` = the exact DataSet after commit ``g`` (0-based
    entry is the empty initial state)."""
    db = Database()
    states = [db.snapshot()]
    for k in range(1, commits + 1):
        apply_commit(db, k)
        states.append(db.snapshot())
    return states


def run_workload(path: str | Path, commits: int,
                 compact_at: int | None = None) -> None:
    """Open ``path`` durably and apply commits up to ``commits``.

    Resumes from the database's current generation, so a recovered
    store can be driven to completion by simply calling this again.
    """
    db = Database.open(Path(path), auto_compact=False)
    try:
        for k in range(db.generation + 1, commits + 1):
            apply_commit(db, k)
            if compact_at is not None and k == compact_at:
                db.compact()
    finally:
        db.close()


def run_workload_process(path: str | Path, commits: int, *,
                         crash_point: str | None = None,
                         occurrence: int = 1,
                         compact_at: int | None = None,
                         timeout: float = 120.0):
    """Run the workload in a child process, optionally armed to crash.

    Returns the :class:`subprocess.CompletedProcess`; the caller
    asserts on ``returncode`` (``-SIGKILL`` when armed, ``0`` when
    not) and then reopens ``path`` to inspect what survived.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if crash_point is None:
        env.pop(CRASH_ENV, None)
    else:
        env[CRASH_ENV] = (crash_point if occurrence == 1
                          else f"{crash_point}:{occurrence}")
    argv = [sys.executable, str(Path(__file__).resolve()), str(path),
            str(commits)]
    if compact_at is not None:
        argv.append(str(compact_at))
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)


def concurrent_row(writer: int, i: int):
    """Writer ``writer``'s ``i``-th (1-based) deterministic row."""
    return data(f"w{writer}r{i}",
                tup(kind="crow", writer=writer, seq=i))


def concurrent_rows(writers: int, per_writer: int):
    """Every row the full concurrent workload commits."""
    return {concurrent_row(w, i)
            for w in range(1, writers + 1)
            for i in range(1, per_writer + 1)}


#: Merge mode's key: every row of one writer is compatible with its
#: other rows and with no other writer's.
MERGE_KEY = ("kind", "writer")


def merged_row(writer: int, merges: int):
    """Writer ``writer``'s datum after its first ``merges`` merges."""
    merged = concurrent_row(writer, 1)
    for i in range(2, merges + 1):
        merged = merged.union(concurrent_row(writer, i), MERGE_KEY)
    return merged


def _merges_done(present, writer: int) -> int:
    """How many of ``writer``'s merges a store holds (its datum's
    marker parts: one per merged row)."""
    for datum in present:
        if datum.object.get("writer") == Atom(writer):
            return len(datum.markers)
    return 0


def run_concurrent_workload(path: str | Path, writers: int,
                            per_writer: int, *,
                            commit_interval: float = 0.02,
                            merge: bool = False) -> None:
    """N threads insert (or, with ``merge``, ∪K-merge) disjoint rows
    through one group-commit store.

    ``commit_interval`` makes each batch leader linger, so concurrent
    registrations pile into real multi-frame batches. Resumable like
    :func:`run_workload`: each thread skips the prefix of its rows
    that already survived, so calling this again after a crash drives
    the store to the complete final state.
    """
    db = Database.open(Path(path), auto_compact=False,
                       commit_interval=commit_interval)
    try:
        present = db.snapshot()
        barrier = threading.Barrier(writers)
        failures: list[BaseException] = []

        def work(writer: int) -> None:
            try:
                if merge:
                    start = _merges_done(present, writer) + 1
                else:
                    start = 1
                    while (start <= per_writer
                           and concurrent_row(writer, start) in present):
                        start += 1
                barrier.wait()
                for i in range(start, per_writer + 1):
                    if merge:
                        db.merge_in(DataSet([concurrent_row(writer, i)]),
                                    MERGE_KEY)
                    else:
                        assert db.insert(concurrent_row(writer, i))
            except BaseException as exc:  # pragma: no cover - crash kills us
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(1, writers + 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
    finally:
        db.close()


def run_concurrent_process(path: str | Path, writers: int,
                           per_writer: int, *,
                           crash_point: str | None = None,
                           occurrence: int = 1,
                           commit_interval: float = 0.02,
                           merge: bool = False,
                           timeout: float = 120.0):
    """Run the concurrent workload in a child, optionally crash-armed.

    Same contract as :func:`run_workload_process`. Note that a crash
    point that only arms on multi-frame batches (``batch-mid-write``)
    may never fire if the scheduler keeps every batch to one frame;
    callers should retry on a clean exit in that case.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if crash_point is None:
        env.pop(CRASH_ENV, None)
    else:
        env[CRASH_ENV] = (crash_point if occurrence == 1
                          else f"{crash_point}:{occurrence}")
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--concurrent-merge" if merge else "--concurrent", str(path),
            str(writers), str(per_writer), str(commit_interval)]
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)


def check_concurrent_recovery(db: Database, writers: int,
                              per_writer: int) -> None:
    """Assert ``db`` recovered to a committed prefix of the concurrent
    workload: generation == row count, rows ⊆ the full set, and every
    writer's surviving rows a prefix of its sequence."""
    rows = set(db.snapshot())
    assert len(rows) == db.generation, (
        f"generation {db.generation} != {len(rows)} recovered rows")
    assert rows <= concurrent_rows(writers, per_writer)
    for writer in range(1, writers + 1):
        flags = [concurrent_row(writer, i) in rows
                 for i in range(1, per_writer + 1)]
        boundary = sum(flags)
        assert all(flags[:boundary]) and not any(flags[boundary:]), (
            f"writer {writer}'s surviving rows are not a prefix: "
            f"{flags}")


def check_merge_recovery(db: Database, writers: int,
                         per_writer: int) -> None:
    """Assert ``db`` recovered to a committed prefix of the merge
    workload: each writer's datum is the fold of a prefix of its rows,
    and the generation counts every surviving merge."""
    rows = set(db.snapshot())
    total = 0
    for writer in range(1, writers + 1):
        merges = _merges_done(rows, writer)
        assert 0 <= merges <= per_writer
        if merges:
            assert merged_row(writer, merges) in rows, (
                f"writer {writer}'s datum is not a fold of a prefix of "
                f"its rows")
        total += merges
    assert len(rows) == sum(1 for writer in range(1, writers + 1)
                            if _merges_done(rows, writer))
    assert db.generation == total, (
        f"generation {db.generation} != {total} surviving merges")


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("--concurrent", "--concurrent-merge"):
        if len(argv) < 4:
            print(f"usage: crashsim.py {argv[0]} <db-path> <writers> "
                  "<per-writer> [interval]", file=sys.stderr)
            return 2
        interval = float(argv[4]) if len(argv) > 4 else 0.02
        run_concurrent_workload(argv[1], int(argv[2]), int(argv[3]),
                                commit_interval=interval,
                                merge=argv[0] == "--concurrent-merge")
        return 0
    if len(argv) < 2:
        print("usage: crashsim.py <db-path> <commits> [compact-at]",
              file=sys.stderr)
        return 2
    compact_at = int(argv[2]) if len(argv) > 2 else None
    run_workload(argv[0], int(argv[1]), compact_at)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
