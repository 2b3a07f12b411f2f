"""Fault-injection property suite for the write-ahead log.

The recovery contract (``repro.store.wal``) is: scanning arbitrary
bytes never raises, and recovery is *exactly* the longest intact frame
prefix — never one frame short (data loss), never one frame long (a
torn hybrid). These properties sweep that contract with Hypothesis
over a pristine multi-frame log produced by a real durable workload:

* flip any single byte → the frame containing it, and everything
  after, drop; everything before survives bit-exact;
* truncate at any byte position → frames wholly before the cut
  survive; a cut inside the header empties the log;
* duplicate any frame at any frame boundary → the contiguous-
  generation invariant ends the prefix at the first replayed frame.

Each example cross-checks three layers: the scanner's frame list, the
byte offset where validity ends, and the *state* equivalence — folding
the surviving frames equals the deterministic workload's recorded
DataSet for that generation, so prefix recovery is semantic, not just
structural. A final property drives the full ``Database.open`` path
over truncated logs and asserts the reopened store lands on the same
prefix state.

The same three sweeps run again over a log whose frames share the log
table heavily (``SHARED``): ∪K merges whose results keep the children
of the data they replace, removals of logged data and updates. There a
frame's bytes hold refs into earlier frames, so a surviving prefix must
also leave replay's table exactly as the writer built it.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import cset, data, orv, pset, tup
from repro.core.data import DataSet
from repro.store import Database, scan_wal
from repro.store.wal import wal_path

from tests.harness.crashsim import apply_commit, expected_states

COMMITS = 8

_SCRATCH = Path(tempfile.mkdtemp(prefix="repro-wal-faults-"))
atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)


def _build_pristine_log() -> bytes:
    path = _SCRATCH / "seed.bin"
    db = Database.open(path, auto_compact=False)
    for k in range(1, COMMITS + 1):
        apply_commit(db, k)
    db.close()
    return wal_path(path).read_bytes()


BLOB = _build_pristine_log()
STATES = expected_states(COMMITS)

_pristine_path = _SCRATCH / "pristine.wal"
_pristine_path.write_bytes(BLOB)
_PRISTINE = scan_wal(_pristine_path, intern=True)
assert _PRISTINE.header_valid and len(_PRISTINE.frames) == COMMITS
assert _PRISTINE.valid_length == len(BLOB)

#: ``BOUNDS[i]`` is where frame ``i`` starts; ``BOUNDS[i+1]`` where it
#: ends (length varint + payload + CRC). ``BOUNDS[0]`` ends the header.
BOUNDS = _PRISTINE.offsets + [_PRISTINE.valid_length]
HEADER_END = BOUNDS[0]


def _scan_bytes(blob: bytes):
    scratch = _SCRATCH / "scratch.wal"
    scratch.write_bytes(blob)
    return scan_wal(scratch, intern=True)


def _intact_prefix_before(position: int) -> int:
    """How many frames survive damage at byte ``position``."""
    if position < HEADER_END:
        return 0
    return sum(1 for i in range(COMMITS) if BOUNDS[i + 1] <= position)


def _fold(frames) -> DataSet:
    contents: set = set()
    for frame in frames:
        contents.difference_update(frame.removed)
        contents.update(frame.added)
    return DataSet(contents)


def _assert_prefix(scan, count: int) -> None:
    """The scan is exactly the first ``count`` pristine frames."""
    assert [f.generation for f in scan.frames] == \
        list(range(1, count + 1))
    assert _fold(scan.frames) == STATES[count]
    if scan.header_valid:
        assert scan.valid_length == BOUNDS[count]
    else:
        assert count == 0 and scan.valid_length == 0


@settings(max_examples=120, deadline=None)
@given(position=st.integers(0, len(BLOB) - 1),
       mask=st.integers(1, 255))
def test_byte_flip_recovers_longest_intact_prefix(position, mask):
    corrupted = bytearray(BLOB)
    corrupted[position] ^= mask
    scan = _scan_bytes(bytes(corrupted))
    if position < HEADER_END:
        assert not scan.header_valid
    _assert_prefix(scan, _intact_prefix_before(position))


@settings(max_examples=120, deadline=None)
@given(cut=st.integers(0, len(BLOB)))
def test_truncation_recovers_frames_before_the_cut(cut):
    scan = _scan_bytes(BLOB[:cut])
    _assert_prefix(scan, _intact_prefix_before(cut))


@settings(max_examples=100, deadline=None)
@given(source=st.integers(0, COMMITS - 1),
       slot=st.integers(0, COMMITS))
def test_duplicated_frame_ends_the_prefix(source, slot):
    """Splice a copy of frame ``source`` in at frame boundary ``slot``.

    The copy claims generation ``source + 1``; the slot expects
    ``slot + 1``. Only a copy landing exactly where its generation
    belongs is accepted (it *is* that frame), and then the displaced
    original repeats the generation and ends the prefix — recovery
    never applies a frame twice.
    """
    frame_bytes = BLOB[BOUNDS[source]:BOUNDS[source + 1]]
    at = BOUNDS[slot]
    spliced = BLOB[:at] + frame_bytes + BLOB[at:]
    scan = _scan_bytes(spliced)
    if source == slot:
        expected = slot + 1  # the copy is accepted in its own slot
    else:
        expected = min(slot, COMMITS)
    assert [f.generation for f in scan.frames] == \
        list(range(1, expected + 1))
    assert _fold(scan.frames) == STATES[expected]


@settings(max_examples=25, deadline=None)
@given(cut=st.integers(0, len(BLOB)))
def test_database_open_lands_on_the_prefix_state(cut):
    """End to end: a durable open over a damaged log equals the
    deterministic workload's state at the surviving generation."""
    db_path = _SCRATCH / "recover.bin"
    if db_path.exists():
        db_path.unlink()
    wal_path(db_path).write_bytes(BLOB[:cut])
    count = _intact_prefix_before(cut)
    db = Database.open(db_path, auto_compact=False)
    try:
        assert db.generation == count
        assert db.snapshot() == STATES[count]
        assert db.wal.last_generation == count
    finally:
        db.close()


# -- a log whose frames reference earlier frames ---------------------------

SHARED_KEY = ("type", "title")


def _entry(i: int, marker: str, **extra):
    fields = dict(type="Article", title=f"T{i}", year=1980 + i % 5,
                  tags=pset("t", f"x{i % 3}"),
                  authors=cset("A", f"B{i % 2}"))
    fields.update(extra)
    return data(f"{marker}{i}", tup(**fields))


def _source(lo: int, hi: int, marker: str, **extra) -> DataSet:
    return DataSet(_entry(i, marker, **extra) for i in range(lo, hi))


def _build_shared_log():
    """Eight commits that mostly reference what earlier frames logged;
    returns the log bytes, the contents after every generation and the
    writer's final log table."""
    path = _SCRATCH / "shared.bin"
    db = Database.open(path, auto_compact=False)
    states = [db.snapshot()]
    steps = [
        lambda: db.merge_in(_source(0, 8, "s"), SHARED_KEY),
        lambda: db.merge_in(_source(0, 8, "u", venue=orv("EDBT", "VLDB")),
                            SHARED_KEY),
        lambda: db.apply_many(removed=list(db.by_marker("s1"))
                              + list(db.by_marker("s2"))),
        lambda: db.merge_in(_source(3, 10, "v", status=orv("draft",
                                                           "final")),
                            SHARED_KEY),
        lambda: db.set_attribute("s4", "pages", data("p", 12).object),
        lambda: db.insert_all(_source(20, 24, "w")),
        lambda: db.merge_in(_source(20, 24, "x", venue=orv("EDBT",
                                                           "VLDB")),
                            SHARED_KEY),
        lambda: db.apply_many(removed=list(db.by_marker("w21")),
                              added=[_entry(30, "y")]),
    ]
    for step in steps:
        step()
        states.append(db.snapshot())
    table = list(db.wal.table.nodes)
    db.close()
    return wal_path(path).read_bytes(), states, table


SHARED_BLOB, SHARED_STATES, SHARED_TABLE = _build_shared_log()
_SHARED = _scan_bytes(SHARED_BLOB)
assert len(_SHARED.frames) == COMMITS
assert len(_SHARED.table) == len(SHARED_TABLE)
SHARED_BOUNDS = _SHARED.offsets + [_SHARED.valid_length]
#: How many log-table entries replay holds after each frame.
SHARED_TABLE_SIZES = [0]
for _frame_end in SHARED_BOUNDS[1:]:
    _partial = _scan_bytes(SHARED_BLOB[:_frame_end])
    SHARED_TABLE_SIZES.append(len(_partial.table))
assert SHARED_TABLE_SIZES[-1] == len(SHARED_TABLE)
# The frames after the first define far less than the first did.
assert SHARED_TABLE_SIZES[2] - SHARED_TABLE_SIZES[1] < \
    SHARED_TABLE_SIZES[1]


def _shared_prefix_before(position: int) -> int:
    if position < SHARED_BOUNDS[0]:
        return 0
    return sum(1 for i in range(COMMITS)
               if SHARED_BOUNDS[i + 1] <= position)


def _assert_shared_prefix(scan, count: int) -> None:
    assert [f.generation for f in scan.frames] == \
        list(range(1, count + 1))
    assert _fold(scan.frames) == SHARED_STATES[count]
    assert len(scan.table) == SHARED_TABLE_SIZES[count]
    assert scan.table == SHARED_TABLE[:SHARED_TABLE_SIZES[count]]
    if scan.header_valid:
        assert scan.valid_length == SHARED_BOUNDS[count]
    else:
        assert count == 0 and scan.valid_length == 0


@settings(max_examples=120, deadline=None)
@given(position=st.integers(0, len(SHARED_BLOB) - 1),
       mask=st.integers(1, 255))
def test_shared_byte_flip_recovers_longest_intact_prefix(position, mask):
    corrupted = bytearray(SHARED_BLOB)
    corrupted[position] ^= mask
    scan = _scan_bytes(bytes(corrupted))
    if position < SHARED_BOUNDS[0]:
        assert not scan.header_valid
    _assert_shared_prefix(scan, _shared_prefix_before(position))


@settings(max_examples=120, deadline=None)
@given(cut=st.integers(0, len(SHARED_BLOB)))
def test_shared_truncation_recovers_frames_before_the_cut(cut):
    scan = _scan_bytes(SHARED_BLOB[:cut])
    _assert_shared_prefix(scan, _shared_prefix_before(cut))


@settings(max_examples=100, deadline=None)
@given(source=st.integers(0, COMMITS - 1),
       slot=st.integers(0, COMMITS))
def test_shared_duplicated_frame_ends_the_prefix(source, slot):
    """A copy of a frame that references the log table, spliced in at
    any boundary: accepted only in its own slot, where it resolves
    exactly as the original did."""
    frame_bytes = SHARED_BLOB[SHARED_BOUNDS[source]:
                              SHARED_BOUNDS[source + 1]]
    at = SHARED_BOUNDS[slot]
    scan = _scan_bytes(SHARED_BLOB[:at] + frame_bytes + SHARED_BLOB[at:])
    expected = slot + 1 if source == slot else min(slot, COMMITS)
    assert [f.generation for f in scan.frames] == \
        list(range(1, expected + 1))
    assert _fold(scan.frames) == SHARED_STATES[expected]
    assert len(scan.table) == SHARED_TABLE_SIZES[expected]


@settings(max_examples=25, deadline=None)
@given(cut=st.integers(0, len(SHARED_BLOB)))
def test_shared_database_open_lands_on_the_prefix_state(cut):
    db_path = _SCRATCH / "shared-recover.bin"
    if db_path.exists():
        db_path.unlink()
    wal_path(db_path).write_bytes(SHARED_BLOB[:cut])
    count = _shared_prefix_before(cut)
    db = Database.open(db_path, auto_compact=False)
    try:
        assert db.generation == count
        assert db.snapshot() == SHARED_STATES[count]
        # One more commit over the repaired prefix still replays.
        db.merge_in(_source(0, 3, "z", note="n"), SHARED_KEY)
        expected = db.snapshot()
    finally:
        db.close()
    reopened = Database.open(db_path, auto_compact=False)
    try:
        assert reopened.snapshot() == expected
    finally:
        reopened.close()
