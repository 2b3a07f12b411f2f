"""Write-ahead log: incremental durability for :class:`Database`.

Full-snapshot persistence (``Database.save``) makes every commit after
the last save volatile; this module closes that gap. Every committed
write batch — the net ``(removed, added)`` diff the single batch
``_apply`` path already computes, plus its generation number — is
appended to an on-disk log *before* the new MVCC state is published,
so a crash at any instant loses at most the one commit whose frame
never reached the disk. Reopening replays log-on-top-of-snapshot and
lands on exactly the last durably committed generation: the paper's
partial-information values (⊥, or-values, partial sets) ride through
unchanged because frames carry full :class:`~repro.core.data.Data`
values in the :mod:`repro.binary_codec` wire format.

On-disk layout (all integers are LEB128 varints)::

    wal     := header frame*
    header  := magic "RPWL", varint version, varint base-generation,
               varint flags, crc32(header bytes) LE32
    frame   := varint len(payload), payload, crc32(payload) LE32
    payload := varint generation, body
    body    := binary-codec stream (no stream header):
               varint seen,
               varint n-removed, n-removed datum records,
               varint n-added,   n-added   datum records

``base-generation`` is the generation of the snapshot the log applies
on top of; frame generations are the contiguous run ``base+1, base+2,
…``.

**One value table per log (format version 2).** The frames share one
codec value table, the *log table*: replay appends each frame's own
node frames to it in frame order. A frame therefore writes a node that
an earlier frame defined as a varint ref — a removed datum, or the
children a ∪K result shares with the datum it replaces, cost a ref,
not a re-encode — and defines only what the log has not seen. A body
is encoded before its place in the log is known (group commit encodes
it outside the writer lock), so it has two reference spaces, split by
``seen``, the log-table size its encode read:

* a ref below ``seen`` is a log ref, to a node of a frame that was
  durable when the encode started;
* ref ``seen + i`` is the frame's own ``i``-th node, which replay
  places at (table size when the frame is replayed) ``+ i``.

The writer mirrors the log table in :class:`LogTable` (``id(node)`` →
log ref, holding every node). A frame's nodes enter it only after the
frame's batch is fsynced, so no body can reference a frame that is
not on disk; an encode takes the table's size once, so entries that
land while it runs count as absent. Compaction re-encodes the frames
it keeps through a fresh table, and :meth:`WriteAheadLog.append_batch`
re-encodes a body whose table compaction replaced before appending it.
Version-1 logs (every frame a self-contained stream with its own
table) still replay; a log opened for writing is rewritten as version 2
first, so version 2 is the only format ever appended.

**Recovery is never fatal.** :func:`scan_wal` accepts arbitrary bytes
and returns the longest intact frame prefix: it stops at the first
frame whose length field is malformed, whose CRC-32 does not match,
whose payload does not decode or references past the log table, or
whose generation breaks the contiguous run (a duplicated or replayed
frame ends the valid prefix exactly like a torn one). Refs only point
backwards, so a damaged frame never spoils an earlier one. A corrupt
header yields an empty prefix — recovery then falls back to the
snapshot alone. Opening a :class:`WriteAheadLog` for writing truncates
the invalid tail so the next append extends a fully valid log.

**Group commit.** Every durable commit reaches the log through
:class:`GroupCommitter`, so concurrent committers do not each pay an
fsync: it implements the classic leader/follower protocol, and a lone
writer leads its own one-frame batch. Every writer registers its
pre-encoded frame body (in generation order, under the owning store's
writer lock) and then blocks on the commit barrier; the first one in
elects itself *leader*, drains the whole queue, writes every queued
frame with **one** ``write`` and **one** ``fsync``
(:meth:`WriteAheadLog.append_batch`), publishes the batch through the
``on_durable`` callback, and only then releases the followers. An optional bounded ``commit_interval`` makes the leader
linger before draining, coalescing even writers that would not
otherwise overlap. The fsync-before-publish invariant holds per
batch: no follower returns — and no reader can pin a batched
generation — before the batch's single fsync has retired.

**Crash-point instrumentation.** The commit and compaction paths call
:func:`_maybe_crash` at named points (``pre-append``, ``mid-append``,
``batch-mid-write``, ``pre-fsync``, ``post-fsync``,
``compact-pre-snapshot-swap``, ``compact-pre-wal-swap``). When the
``REPRO_WAL_CRASH`` environment variable names a point (optionally
``point:N`` for the N-th hit), the process SIGKILLs itself there — no
cleanup handlers, no flushes — so the crash-simulation harness
(``tests/harness/crashsim.py``) can exercise every ordering window of
the commit protocol with a real process death. ``mid-append``
additionally writes only half the batch first, simulating a torn
write; ``batch-mid-write`` arms only for multi-frame batches and
kills the leader after the batch's first frame is fully written, so
recovery must land on a committed prefix *inside* the batch.
"""

from __future__ import annotations

import io
import os
import signal
import tempfile
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.binary_codec import Decoder, Encoder, ValueTable, pack_uvarint
from repro.core.data import Data
from repro.core.errors import CodecError
from repro.core.objects import SSObject
from repro.store.fsutil import fsync_directory

__all__ = ["WriteAheadLog", "WalFrame", "WalScan", "LogTable", "FrameBody",
           "scan_wal", "wal_path", "encode_frame_body",
           "frame_from_body", "decode_frame_payload",
           "CommitTicket", "GroupCommitter"]

#: Magic prefix of a write-ahead log file.
WAL_MAGIC = b"RPWL"

#: Log format version written; bumped on incompatible changes.
WAL_VERSION = 2

#: Log format versions this build replays (1: one table per frame).
_WAL_READABLE = (1, 2)

#: Header flag: frames were written from an interning database.
_FLAG_INTERNED = 1

#: Environment variable arming a crash point: ``"point"`` or
#: ``"point:N"`` (SIGKILL on the N-th hit; default the first).
CRASH_ENV = "REPRO_WAL_CRASH"

#: Per-point hit counters for ``point:N`` crash specs.
_crash_hits: dict[str, int] = {}


def _crash_armed(point: str) -> bool:
    """Whether this hit of ``point`` is the one the environment arms."""
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return False
    name, _, nth = spec.partition(":")
    if name != point:
        return False
    hits = _crash_hits.get(point, 0) + 1
    _crash_hits[point] = hits
    return hits == (int(nth) if nth else 1)


def _kill_self() -> None:
    """Die instantly — no atexit, no buffers, no finally blocks."""
    if hasattr(signal, "SIGKILL"):
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(137)  # non-POSIX fallback; still skips cleanup


def _maybe_crash(point: str) -> None:
    if _crash_armed(point):
        _kill_self()


def wal_path(snapshot_path: str | Path) -> Path:
    """The log path paired with a snapshot path (``<snapshot>.wal``)."""
    return Path(str(snapshot_path) + ".wal")


class WalFrame:
    """One committed write batch: generation plus its net diff."""

    __slots__ = ("generation", "removed", "added")

    def __init__(self, generation: int, removed: tuple[Data, ...],
                 added: tuple[Data, ...]):
        self.generation = generation
        self.removed = removed
        self.added = added

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WalFrame(generation={self.generation}, "
                f"-{len(self.removed)}/+{len(self.added)})")


class WalScan:
    """The result of :func:`scan_wal`: the longest intact prefix.

    ``valid_length`` is the byte offset at which validity ends —
    everything past it is a torn or corrupt tail (or, for an invalid
    header, the whole file). ``offsets[i]`` is the byte offset at which
    ``frames[i]`` starts, so callers can map byte positions to frames.
    ``version`` is the header's format version (``None`` without a
    valid header) and ``table`` the log table the intact frames built,
    in ref order (empty for a version-1 log).
    """

    __slots__ = ("exists", "header_valid", "version", "base_generation",
                 "interned", "frames", "offsets", "valid_length",
                 "file_size", "table")

    def __init__(self, *, exists: bool, header_valid: bool,
                 base_generation: int | None, interned: bool,
                 frames: list[WalFrame], offsets: list[int],
                 valid_length: int, file_size: int,
                 version: int | None = None,
                 table: list[SSObject] | None = None):
        self.exists = exists
        self.header_valid = header_valid
        self.version = version
        self.base_generation = base_generation
        self.interned = interned
        self.frames = frames
        self.offsets = offsets
        self.valid_length = valid_length
        self.file_size = file_size
        self.table = [] if table is None else table

    @property
    def last_generation(self) -> int:
        """The generation recovery lands on (base if no frames)."""
        if self.frames:
            return self.frames[-1].generation
        return self.base_generation or 0


class LogTable(ValueTable):
    """The log table as the writer holds it: ``nodes[r]`` is the node
    at log ref ``r`` and ``refs`` maps ``id(node)`` to its ref.

    It mirrors what replay of the log file rebuilds, entry for entry,
    and grows only by the nodes of frames already on disk. Holding
    every node keeps each id in ``refs`` bound to its node even when
    the intern pool is cleared. ``interned`` is the log's interning
    flag: hash-consed frames never hold two distinct structurally
    equal objects, so their encode dedups by identity alone.
    """

    __slots__ = ("interned",)

    def __init__(self, nodes: Iterable[SSObject] = (), *,
                 interned: bool):
        super().__init__(nodes)
        self.interned = interned


class FrameBody(bytes):
    """An encoded frame body: the bytes :func:`frame_from_body` stamps
    with a generation, plus what the log needs to append them.

    ``table`` is the :class:`LogTable` the body's log refs point into
    (``None``: the body references no table and defines every node it
    needs), ``defined`` the nodes the body appends to the table, in
    order, and ``removed``/``added`` the diff, kept so that the log can
    re-encode a body whose table compaction has replaced.
    """

    table: LogTable | None
    defined: list[SSObject]
    removed: Sequence[Data]
    added: Sequence[Data]


def _uvarint_at(blob: bytes, pos: int) -> tuple[int, int] | None:
    """Decode a varint at ``pos``; ``None`` when malformed/truncated."""
    value = 0
    shift = 0
    size = len(blob)
    while pos < size:
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            return None
    return None


def encode_frame_body(removed: Sequence[Data], added: Sequence[Data], *,
                      table: LogTable | None = None) -> FrameBody:
    """Serialize a commit's diff — everything but the generation.

    The body is the expensive part of a frame (one codec ``write_datum``
    per datum); the generation varint that precedes it in the payload
    is independent of the codec's value table, so a writer can encode
    its body *before* it knows which generation the commit will land
    on — i.e. outside the store's writer lock — and stamp the
    generation on later with :func:`frame_from_body`.

    Against ``table`` (the log's :class:`LogTable`), a node the table
    held when the encode started is written as its log ref and only
    the rest is defined; without one the body starts from an empty
    table.
    """
    buffer = io.BytesIO()
    encoder = Encoder(buffer, header=False, table=table,
                      dedup_shapes=table is None or not table.interned)
    encoder.write_uvarint(encoder.base_size)
    encoder.write_uvarint(len(removed))
    for datum in removed:
        encoder.write_datum(datum)
    encoder.write_uvarint(len(added))
    for datum in added:
        encoder.write_datum(datum)
    encoder.flush()
    body = FrameBody(buffer.getvalue())
    body.table = table
    body.defined = encoder.defined
    body.removed = removed
    body.added = added
    return body


def frame_from_body(generation: int, body: bytes) -> bytes:
    """Stamp a generation onto a pre-encoded body: the complete
    length-prefixed, CRC-checked frame ready for the log."""
    payload = pack_uvarint(generation) + body
    return (pack_uvarint(len(payload)) + payload
            + zlib.crc32(payload).to_bytes(4, "little"))


class _FrameTable:
    """The log table as one frame numbers it.

    The frame's encode read the table's first ``seen`` entries; by
    the time the frame is replayed, frames that became durable
    meanwhile may have added more. A ref below ``seen`` reads
    the log table; ref ``seen + i`` reads the frame's own ``i``-th
    node, which this view collects in ``local`` instead of the table.
    """

    __slots__ = ("_log", "_seen", "local")

    def __init__(self, log: Sequence[SSObject], seen: int):
        self._log = log
        self._seen = seen
        self.local: list[SSObject] = []

    def __len__(self) -> int:
        return self._seen + len(self.local)

    def __getitem__(self, ref: int) -> SSObject:
        if ref < self._seen:
            return self._log[ref]
        return self.local[ref - self._seen]

    def append(self, node: SSObject) -> None:
        self.local.append(node)


def _frame_prefix(payload: bytes) -> tuple[int, int, int]:
    """``(generation, seen, body offset)`` of a version-2 payload."""
    at = _uvarint_at(payload, 0)
    if at is not None:
        generation, pos = at
        at = _uvarint_at(payload, pos)
        if at is not None:
            return generation, at[0], at[1]
    raise CodecError("truncated WAL frame header")


def _read_diff(generation: int, payload: bytes, pos: int, *,
               intern: bool, table=None) -> WalFrame:
    """The removed and added records of a payload from ``pos`` on."""
    stream = io.BytesIO(payload)
    stream.seek(pos)
    decoder = Decoder(stream, header=False, intern=intern, table=table)
    removed = tuple(decoder.read_datum()
                    for _ in range(decoder.read_uvarint()))
    added = tuple(decoder.read_datum()
                  for _ in range(decoder.read_uvarint()))
    return WalFrame(generation, removed, added)


def decode_frame_payload(payload: bytes, *, intern: bool,
                         table: list[SSObject] | None = None) -> WalFrame:
    """Parse one frame payload; raises :class:`CodecError` on damage.

    ``table`` is the log table replay has built from the frames before
    this one (default: none, for a frame that starts from an empty
    table); the frame's own nodes are appended to it. A frame that
    references past the table is damage too, and on any error
    ``table`` is left as it was.
    """
    generation, seen, pos = _frame_prefix(payload)
    if table is None:
        table = []
    mark = len(table)
    if seen == mark:
        # The common case: every earlier frame was durable when this
        # one was encoded, so its own nodes land where it numbered
        # them and decode straight into the table.
        try:
            return _read_diff(generation, payload, pos, intern=intern,
                              table=table)
        except CodecError:
            del table[mark:]
            raise
    if seen > mark:
        raise CodecError(
            f"WAL frame {generation} references {seen} log-table "
            f"entries, but only {mark} precede it")
    view = _FrameTable(table, seen)
    frame = _read_diff(generation, payload, pos, intern=intern, table=view)
    table.extend(view.local)
    return frame


def _decode_v1_payload(payload: bytes, *, intern: bool) -> WalFrame:
    """Parse a version-1 payload: a stream with its own value table."""
    at = _uvarint_at(payload, 0)
    if at is None:
        raise CodecError("truncated WAL frame header")
    return _read_diff(at[0], payload, at[1], intern=intern)


def _frame_at(blob: bytes, pos: int) -> tuple[bytes, int] | None:
    """``(payload, end)`` of the length-prefixed, CRC-checked frame
    starting at ``pos``; ``None`` when it is torn or corrupt."""
    at = _uvarint_at(blob, pos)
    if at is None:
        return None
    length, pos = at
    end = pos + length
    if end + 4 > len(blob):
        return None
    payload = blob[pos:end]
    if zlib.crc32(payload) != int.from_bytes(blob[end:end + 4], "little"):
        return None
    return payload, end + 4


def _header_bytes(base_generation: int, interned: bool) -> bytes:
    body = (WAL_MAGIC + pack_uvarint(WAL_VERSION)
            + pack_uvarint(base_generation)
            + pack_uvarint(_FLAG_INTERNED if interned else 0))
    return body + zlib.crc32(body).to_bytes(4, "little")


def _parse_header(blob: bytes) -> tuple[int, int, bool, int] | None:
    """``(version, base_generation, interned, end_offset)``; ``None``
    if bad."""
    if blob[:len(WAL_MAGIC)] != WAL_MAGIC:
        return None
    at = _uvarint_at(blob, len(WAL_MAGIC))
    if at is None or at[0] not in _WAL_READABLE:
        return None
    version = at[0]
    at = _uvarint_at(blob, at[1])
    if at is None:
        return None
    base, pos = at
    at = _uvarint_at(blob, pos)
    if at is None:
        return None
    flags, pos = at
    if pos + 4 > len(blob):
        return None
    if zlib.crc32(blob[:pos]) != int.from_bytes(blob[pos:pos + 4],
                                                "little"):
        return None
    return version, base, bool(flags & _FLAG_INTERNED), pos + 4


def scan_wal(path: str | Path, *, intern: bool = False) -> WalScan:
    """Read a log, returning its longest intact frame prefix.

    Never raises on damaged content: any malformed length, CRC
    mismatch, undecodable payload, reference past the log table or
    non-contiguous generation ends the valid prefix at the previous
    frame boundary. A missing file or a corrupt header yields an empty
    prefix (``header_valid`` tells the two apart from a merely
    frameless log).
    """
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return WalScan(exists=False, header_valid=False,
                       base_generation=None, interned=intern,
                       frames=[], offsets=[], valid_length=0,
                       file_size=0)
    parsed = _parse_header(blob)
    if parsed is None:
        return WalScan(exists=True, header_valid=False,
                       base_generation=None, interned=intern,
                       frames=[], offsets=[], valid_length=0,
                       file_size=len(blob))
    version, base, interned_flag, pos = parsed
    table: list[SSObject] = []
    frames: list[WalFrame] = []
    offsets: list[int] = []
    valid_length = pos
    expected = base + 1
    size = len(blob)
    while pos < size:
        found = _frame_at(blob, pos)
        if found is None:
            break
        payload, end = found
        at = _uvarint_at(payload, 0)
        if at is None or at[0] != expected:
            # A duplicated, replayed or reordered frame: the log's
            # contiguous-generation invariant is broken, so the valid
            # prefix ends here exactly as it would at a torn write.
            break
        try:
            if version == 1:
                frame = _decode_v1_payload(payload, intern=intern)
            else:
                frame = decode_frame_payload(payload, intern=intern,
                                             table=table)
        except CodecError:
            break
        frames.append(frame)
        offsets.append(pos)
        expected += 1
        pos = valid_length = end
    return WalScan(exists=True, header_valid=True, version=version,
                   base_generation=base, interned=interned_flag,
                   frames=frames, offsets=offsets,
                   valid_length=valid_length, file_size=len(blob),
                   table=table)


class WriteAheadLog:
    """An append-only commit log paired with one snapshot file.

    Opening repairs the log in place: a torn or corrupt tail found by
    :func:`scan_wal` is truncated away, a missing or header-corrupt
    file is recreated fresh at ``base_generation``, and a version-1 log
    is rewritten as version 2 (its intact frames re-encoded through one
    table). Appends are serialized by the owning
    :class:`~repro.store.database.Database` (its publish lock, held by
    the :class:`GroupCommitter` batch leader); each append is flushed
    and fsynced before it returns, so a frame that was appended is a
    frame recovery will see. ``table`` is the writer's
    :class:`LogTable`, rebuilt on open from the nodes replay decoded.

    **Durability contract of ``fsync=False``.** Every append still
    ``flush()``-es each frame's bytes into the operating system's page
    cache before returning — only the ``fsync`` syscall is skipped. A
    frame that was appended therefore survives *process death* (crash,
    SIGKILL, uncaught exception): the kernel owns the bytes and will
    write them back regardless of what the process does next. What it
    does **not** survive is the machine dying — power loss, kernel
    panic — before the kernel's own writeback runs. Use it when the
    failure domain you care about is the process, not the host.
    """

    def __init__(self, path: str | Path, *, base_generation: int = 0,
                 interned: bool = True, fsync: bool = True,
                 scan: WalScan | None = None):
        self._path = Path(path)
        self._fsync = fsync
        self._handle = None
        #: Frames appended / fsync batches retired since opening: the
        #: observable record of how much coalescing group commit won
        #: (``frames_appended / sync_batches`` is the mean batch size).
        self.frames_appended = 0
        self.sync_batches = 0
        #: ``(generation, removed, added)`` of every frame appended
        #: since :meth:`keep_tail`: what a compaction re-encodes.
        self._tail: list[tuple[int, Sequence[Data], Sequence[Data]]] \
            | None = None
        if scan is None:
            scan = scan_wal(self._path, intern=interned)
        if scan.exists and scan.header_valid:
            self.interned = scan.interned
            self.base_generation = scan.base_generation or 0
            self.last_generation = scan.last_generation
            if scan.version != WAL_VERSION:
                # Never append to an old format: rewrite the intact
                # prefix as version 2 (dropping any torn tail with it).
                self._adopt(*self._write_log(
                    self.base_generation,
                    [(frame.generation, frame.removed, frame.added)
                     for frame in scan.frames]))
                return
            if scan.valid_length < scan.file_size:
                # Torn/corrupt tail: truncate so appends extend a
                # fully valid log instead of burying frames behind
                # garbage the scanner would stop at.
                with open(self._path, "r+b") as repair:
                    repair.truncate(scan.valid_length)
                    repair.flush()
                    os.fsync(repair.fileno())
            self.size = scan.valid_length
            self.table = LogTable(scan.table, interned=self.interned)
            self._handle = open(self._path, "ab")
        else:
            self.interned = interned
            self._create(base_generation)

    def _create(self, base_generation: int) -> None:
        """(Re)write an empty log durably: header only."""
        self._adopt(*self._write_log(base_generation, ()))
        self.base_generation = base_generation
        self.last_generation = base_generation

    def _write_log(self, base_generation: int,
                   frames: Iterable[tuple[int, Sequence[Data],
                                          Sequence[Data]]],
                   ) -> tuple[str, LogTable]:
        """An fsynced temp file holding ``header(base)`` plus
        ``frames`` encoded through one fresh table; returns the temp
        name and that table."""
        table = LogTable(interned=self.interned)
        parts = [_header_bytes(base_generation, self.interned)]
        for generation, removed, added in frames:
            body = encode_frame_body(removed, added, table=table)
            table.extend(body.defined)
            parts.append(frame_from_body(generation, body))
        return self._write_temp(b"".join(parts)), table

    def _write_temp(self, content: bytes) -> str:
        """Write ``content`` to an fsynced temp file in the log's
        directory; returns its name (caller replaces or unlinks)."""
        descriptor, temp_name = tempfile.mkstemp(
            dir=self._path.parent, prefix=self._path.name, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(content)
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        return temp_name

    def _adopt(self, temp_name: str, table: LogTable) -> None:
        """Atomically replace the log with a :meth:`_write_log` file
        and take its table."""
        size = os.path.getsize(temp_name)
        os.replace(temp_name, self._path)
        fsync_directory(self._path.parent)
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self._path, "ab")
        self.size = size
        self.table = table

    @property
    def path(self) -> Path:
        return self._path

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append_batch(self, frames: Sequence[tuple[int, FrameBody]],
                     ) -> None:
        """Durably log a batch of commits: one ``write``, one
        ``flush``, one ``fsync``, however many commits ride along; it
        must precede the MVCC publish of their generations.

        ``frames`` is ``(generation, body)`` pairs in the contiguous
        generation order the log requires, each body from
        :func:`encode_frame_body`; this stamps every body with its
        generation (:func:`frame_from_body`). This is the group-commit
        amortization point: a leader draining N queued committers pays
        the syscall pair once instead of N times. Only once the fsync
        has retired do the batch's nodes enter :attr:`table`. Any
        write or fsync error truncates the partial batch away, so the
        log never buries garbage mid-file, and leaves the table as it
        was. (``fsync=False`` skips only the fsync — the flush still
        happens, see the class docs.)
        """
        handle = self._handle
        if handle is None:
            raise CodecError("write-ahead log is closed")
        if not frames:
            return
        expected = self.last_generation + 1
        for generation, _ in frames:
            if generation != expected:
                raise CodecError(
                    f"non-contiguous WAL append: generation "
                    f"{generation} after {expected - 1}")
            expected += 1
        table = self.table
        # A body encoded against a table compaction has replaced would
        # land its log refs on other entries of this one: re-encode it.
        bodies = [body if body.table is None or body.table is table
                  else encode_frame_body(body.removed, body.added,
                                         table=table)
                  for _, body in frames]
        staged = [frame_from_body(generation, body)
                  for (generation, _), body in zip(frames, bodies)]
        blob = b"".join(staged)
        _maybe_crash("pre-append")
        if _crash_armed("mid-append"):
            # Torn-write simulation: half the batch reaches the OS,
            # then the process dies. Recovery must truncate the torn
            # frame (and keep any fully-written frames before it).
            handle.write(blob[:max(1, len(blob) // 2)])
            handle.flush()
            _kill_self()
        if len(frames) > 1 and _crash_armed("batch-mid-write"):
            # Leader death mid-batch: the batch's first frame is fully
            # written and flushed, the rest never happen. Recovery
            # must land on a committed prefix *inside* the batch.
            handle.write(staged[0])
            handle.flush()
            _kill_self()
        try:
            handle.write(blob)
            handle.flush()
            _maybe_crash("pre-fsync")
            if self._fsync:
                os.fsync(handle.fileno())
            _maybe_crash("post-fsync")
        except BaseException:
            try:
                handle.truncate(self.size)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                pass
            raise
        self.size += len(blob)
        self.last_generation = frames[-1][0]
        self.frames_appended += len(frames)
        self.sync_batches += 1
        tail = self._tail
        for (generation, _), body in zip(frames, bodies):
            table.extend(body.defined)
            if tail is not None:
                tail.append((generation, body.removed, body.added))

    def keep_tail(self) -> None:
        """Keep the diff of every frame appended from now on.

        The compaction protocol calls this when it pins the state its
        snapshot will hold; the frames appended after that are the
        tail :meth:`rewrite_temp` carries into the new log.
        """
        self._tail = []

    def drop_tail(self) -> None:
        """Stop keeping appended diffs (after a swap or a failure)."""
        self._tail = None

    def rewrite_temp(self, base_generation: int) -> tuple[str, LogTable]:
        """An fsynced temp file holding ``header(base)`` and the kept
        tail, re-encoded through a fresh table, plus that table; the
        compaction protocol swaps it in *after* the new snapshot is in
        place. The tail cannot be copied as bytes: its frames
        reference entries of the frames compaction discards."""
        return self._write_log(base_generation, self._tail or ())

    def swap(self, temp_name: str, base_generation: int,
             table: LogTable) -> None:
        """Atomically adopt a :meth:`rewrite_temp` file as the log.

        ``last_generation`` is unchanged: the tail frames carried over
        keep the log's head exactly where the writer lock last left it.
        """
        self._adopt(temp_name, table)
        self.base_generation = base_generation
        self._tail = None

    def rebase(self, generation: int) -> None:
        """Reset to an empty log at ``generation`` (frames discarded).

        Used when a snapshot is ahead of every logged frame — the
        frames are already reflected in it, and the next append must
        chain from the snapshot's generation.
        """
        self._create(generation)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CommitTicket:
    """One writer's place in the group-commit queue.

    Created under the owning store's writer lock once the commit's
    generation is assigned and its frame encoded; carries everything
    the batch leader needs to make the commit durable and visible:
    the ``frame`` for :meth:`WriteAheadLog.append_batch` (a
    :class:`FrameBody` the log stamps with ``generation``), the
    ``state`` to publish once the batch's fsync retires, and an opaque
    ``cache_step`` the store uses to advance its query-result cache in
    generation order. ``done``/``error`` are written by the leader
    under the committer's condition lock and read by the follower
    after it is released.
    """

    __slots__ = ("generation", "frame", "state", "cache_step",
                 "done", "error")

    def __init__(self, generation: int, frame: FrameBody, state=None,
                 cache_step=None):
        self.generation = generation
        self.frame = frame
        self.state = state
        self.cache_step = cache_step
        self.done = False
        self.error: BaseException | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = ("done" if self.done else
                  "failed" if self.error else "pending")
        return f"CommitTicket(generation={self.generation}, {status})"


class GroupCommitter:
    """Leader/follower group commit over one :class:`WriteAheadLog`.

    Writers :meth:`register` their ticket (in generation order, under
    the store's writer lock) and then call :meth:`commit`, which
    blocks until the ticket's durability point. The first committer to
    find no leader active elects itself leader; it drains every queued
    ticket, appends them all with a single
    :meth:`WriteAheadLog.append_batch` (one ``write``, one ``fsync``),
    invokes ``on_durable(batch)`` so the store can publish the batch's
    final MVCC state, and only then wakes the followers. Writers that
    arrive while a batch is in flight queue up and form the *next*
    batch — under contention the fsync cost amortizes across the whole
    queue, which is the point.

    ``commit_interval`` (seconds, clamped to at most 1.0) makes a
    fresh leader linger before draining so even non-overlapping
    writers coalesce; zero (the default) drains immediately.

    ``commit_lock`` is held across *append + on_durable*: the owning
    store passes its publish lock here so the pair "(log contents,
    published state)" mutates atomically with respect to compaction's
    pin-and-swap sections.

    If the batch append fails, the leader calls ``on_abort(batch,
    exc)`` — *outside* ``commit_lock``, so the store may take its own
    writer lock to reset its head chain without deadlocking — and
    every ticket in the batch re-raises the append error from its
    :meth:`commit` call.
    """

    def __init__(self, log: WriteAheadLog, *,
                 commit_lock: threading.Lock,
                 on_durable: Callable[[list[CommitTicket]], None],
                 on_abort: Callable[[list[CommitTicket], BaseException],
                                    None],
                 commit_interval: float = 0.0):
        self._log = log
        self._interval = min(max(commit_interval, 0.0), 1.0)
        self._commit_lock = commit_lock
        self._on_durable = on_durable
        self._on_abort = on_abort
        self._cond = threading.Condition()
        self._queue: list[CommitTicket] = []
        self._leader_active = False
        #: The largest batch retired so far: the committer's own view
        #: of how much coalescing happened (``WriteAheadLog`` counts
        #: the frames and fsynced batches).
        self.max_batch = 0

    def register(self, ticket: CommitTicket) -> None:
        """Enqueue a ticket for the next batch.

        Callers must serialize registration (the store's writer lock
        does) so tickets arrive in generation order — the order
        :meth:`WriteAheadLog.append_batch` requires.
        """
        with self._cond:
            self._queue.append(ticket)

    def commit(self, ticket: CommitTicket) -> None:
        """Block until ``ticket`` is durable (or its batch failed).

        Exactly one concurrent caller acts as leader at a time; the
        rest wait on the condition. Re-raises the batch's append error
        on failure.
        """
        while True:
            with self._cond:
                if ticket.done or ticket.error is not None:
                    break
                if self._leader_active:
                    self._cond.wait()
                    continue
                self._leader_active = True
            try:
                self._lead()
            finally:
                with self._cond:
                    self._leader_active = False
                    self._cond.notify_all()
        if ticket.error is not None:
            raise ticket.error

    def _lead(self) -> None:
        """Drain the queue and retire one batch as its leader."""
        if self._interval > 0.0:
            # Linger so non-overlapping writers can still coalesce.
            time.sleep(self._interval)
        with self._cond:
            batch = self._queue
            self._queue = []
        if not batch:
            return
        try:
            with self._commit_lock:
                self._log.append_batch(
                    [(t.generation, t.frame) for t in batch])
                self._on_durable(batch)
        except BaseException as exc:
            # Outside commit_lock by now: the abort hook may take the
            # store's writer lock to reset its head chain.
            self._on_abort(batch, exc)
            self.fail(batch, exc)
            return
        self.max_batch = max(self.max_batch, len(batch))
        with self._cond:
            for t in batch:
                t.done = True
            self._cond.notify_all()

    def drain_pending(self) -> list[CommitTicket]:
        """Remove and return every queued-but-unbatched ticket.

        The store's abort hook uses this: once a batch append fails,
        tickets queued behind it were built on a head chain that no
        longer exists, so they must fail too rather than be appended
        with generations recovery would never reconstruct.
        """
        with self._cond:
            doomed = self._queue
            self._queue = []
        return doomed

    def fail(self, tickets: Sequence[CommitTicket],
             error: BaseException) -> None:
        """Mark ``tickets`` failed with ``error`` and wake waiters."""
        if not tickets:
            return
        with self._cond:
            for t in tickets:
                t.error = error
            self._cond.notify_all()
