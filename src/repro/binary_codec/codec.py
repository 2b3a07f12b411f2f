"""Length-prefixed binary codec for model objects, data and data sets.

Where the tagged-JSON codec (:mod:`repro.json_codec`) spells every node
out per occurrence, this codec writes a *value table*: each structurally
distinct subobject is encoded exactly once, and every later occurrence
is a varint back-reference to its table slot. The sharing that
hash-consing creates (:mod:`repro.core.intern`) therefore costs bytes
once instead of per occurrence — the B80|B82-style shared marker parts
and repeated author sets a merged store is full of collapse into single
table entries on the wire, and decoding reconstructs each distinct node
once and *shares* it, so a decoded snapshot is born with the same
pointer sharing the intern pool would have given it.

Wire format (all integers are unsigned LEB128 varints, strings are a
varint byte length followed by UTF-8)::

    stream       := magic "RSSB", varint version, frame*
    frame        := node | record
    node         := BOTTOM
                  | ATOM_STR  string          | ATOM_INT  zigzag-varint
                  | ATOM_FLOAT 8 bytes LE     | ATOM_TRUE | ATOM_FALSE
                  | MARKER string
                  | OR    count, ref*         | PSET  count, ref*
                  | CSET  count, ref*         | TUPLE count, (label, ref)*
    record       := DATUM marker-ref, object-ref
                  | OBJECT ref
                  | END

Each ``node`` frame appends one object to the value table; its index is
the number of nodes defined so far. A ``ref`` is a varint index into the
table and must point *backwards* (children are always defined before
their parents), so decoding is a single forward pass with no recursion
and no lookahead.

**Iterative by construction.** Both directions run on explicit stacks
or flat loops: the encoder walks structure with a worklist and emits
children before parents; the decoder never descends at all, because a
node frame only mentions already-decoded children. Neither path ever
needs the big-stack retry thread of :mod:`repro.core.guard`, so
arbitrarily deep snapshots (≥600 nesting levels and far beyond)
(de)serialize on the default interpreter stack. The decoder forces each
node's structural hash as it is built — children first — so later set
membership and equality checks on decoded values are shallow too.

**Streaming.** :class:`Encoder` / :class:`Decoder` wrap binary file
objects and move one datum at a time (:meth:`Encoder.write_datum`,
:meth:`Decoder.iter_data`), so persisting a store never materializes a
second in-memory copy of the payload the way ``json.dumps`` of one
giant payload does. Both ends can feed a running content digest
(``hasher=``) for the index-validation scheme in
:class:`repro.store.database.Database`.

**Shared tables.** A :class:`ValueTable` carries a value table from
one stream to the next: an :class:`Encoder` started from it writes a
node the table holds as its ref and numbers its own nodes after the
table's, and a :class:`Decoder` started from a decoded table appends
to it. The write-ahead log (:mod:`repro.store.wal`) shares one table
across its frames.

``intern=True`` on the decoding entry points interns every node as its
table slot is filled: repeated structure resolves to canonical pool
objects with O(1) identity hits, and the memoized ``⊴``/compatibility
fast paths apply to loaded data immediately.
"""

from __future__ import annotations

import io
import struct
from typing import IO, Any, Iterable, Iterator

from repro.core.data import Data, DataSet
from repro.core.errors import CodecError, ModelError
# Bound method of the process-wide pool (cleared in place, never
# rebound), saving a wrapper frame on the per-node decode path.
from repro.core.intern import _DEFAULT_POOL as _POOL

_adopt_object = _POOL.adopt
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
)

__all__ = [
    "MAGIC", "VERSION", "Encoder", "Decoder", "ValueTable", "pack_uvarint",
    "dump_object", "load_object", "dump_data", "load_data",
    "dump_dataset", "load_dataset",
    "dumps_object", "loads_object", "dumps_data", "loads_data",
    "dumps_dataset", "loads_dataset",
]

#: Stream magic; a binary stream that does not start with it is rejected.
MAGIC = b"RSSB"

#: Wire format version; bumped on incompatible changes.
VERSION = 1

# -- node frame tags (define value-table entries) ---------------------------
_T_BOTTOM = 0x00
_T_ATOM_STR = 0x01
_T_ATOM_INT = 0x02
_T_ATOM_FLOAT = 0x03
_T_ATOM_TRUE = 0x04
_T_ATOM_FALSE = 0x05
_T_MARKER = 0x06
_T_OR = 0x07
_T_PSET = 0x08
_T_CSET = 0x09
_T_TUPLE = 0x0A

# -- record frame tags ------------------------------------------------------
_T_DATUM = 0x10
_T_OBJECT = 0x11
_T_END = 0x1F

_FLOAT_STRUCT = struct.Struct("<d")

# Single-byte frame prefixes, prebuilt once (hot in _emit_node).
_B_BOTTOM = bytes((_T_BOTTOM,))
_B_ATOM_STR = bytes((_T_ATOM_STR,))
_B_ATOM_INT = bytes((_T_ATOM_INT,))
_B_ATOM_FLOAT = bytes((_T_ATOM_FLOAT,))
_B_ATOM_TRUE = bytes((_T_ATOM_TRUE,))
_B_ATOM_FALSE = bytes((_T_ATOM_FALSE,))
_B_MARKER = bytes((_T_MARKER,))
_B_TUPLE = bytes((_T_TUPLE,))
_B_DATUM = bytes((_T_DATUM,))
_B_OBJECT = bytes((_T_OBJECT,))
_B_END = bytes((_T_END,))

#: Writer buffer flush threshold.
_FLUSH_BYTES = 1 << 16

#: Reader refill chunk size.
_CHUNK_BYTES = 1 << 20


#: Single-byte varints, precomputed — the overwhelming majority of
#: varints on a real stream (tags, small refs, lengths) fit in one byte.
_UVARINT1 = [bytes((value,)) for value in range(0x80)]


def _pack_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0x80:
        return _UVARINT1[value]
    if value < 0x200000:  # two or three bytes: every ref of a log table
        if value < 0x4000:
            return bytes((value & 0x7F | 0x80, value >> 7))
        return bytes((value & 0x7F | 0x80, (value >> 7) & 0x7F | 0x80,
                      value >> 14))
    out = bytearray()
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return bytes(out)


def pack_uvarint(value: int) -> bytes:
    """Public varint packer for container formats framing the codec —
    lets them pre-pack values they write many times over."""
    return _pack_uvarint(value)


class _Writer:
    """Buffered byte sink with an optional running digest."""

    __slots__ = ("_stream", "_buf", "_hasher")

    def __init__(self, stream: IO[bytes], hasher: Any = None):
        self._stream = stream
        self._buf = bytearray()
        self._hasher = hasher

    def write(self, data: bytes) -> None:
        buf = self._buf
        buf += data
        if len(buf) >= _FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            chunk = bytes(self._buf)
            if self._hasher is not None:
                self._hasher.update(chunk)
            self._stream.write(chunk)
            self._buf.clear()

    def hexdigest(self) -> str:
        """Digest of every byte written so far (flushes first)."""
        if self._hasher is None:
            raise CodecError("writer has no hasher attached")
        self.flush()
        return self._hasher.hexdigest()


class _Reader:
    """Buffered byte source that tracks a digest of *consumed* bytes.

    The reader may read ahead from the underlying stream, but the
    digest covers exactly the bytes the decoder has logically consumed,
    so a digest taken at a frame boundary matches the writer's digest
    at the same boundary even when the boundary falls mid-chunk.
    """

    __slots__ = ("_stream", "_chunk", "_pos", "_hasher", "_hashed")

    def __init__(self, stream: IO[bytes], hasher: Any = None):
        self._stream = stream
        self._chunk = b""
        self._pos = 0
        self._hasher = hasher
        self._hashed = 0

    def _refill(self, need: int) -> None:
        """Ensure at least ``need`` unread bytes are buffered."""
        if self._hasher is not None and self._hashed < self._pos:
            self._hasher.update(self._chunk[self._hashed:self._pos])
        remainder = self._chunk[self._pos:]
        parts = [remainder]
        have = len(remainder)
        while have < need:
            piece = self._stream.read(max(_CHUNK_BYTES, need - have))
            if not piece:
                break
            parts.append(piece)
            have += len(piece)
        self._chunk = b"".join(parts)
        self._pos = 0
        self._hashed = 0
        if have < need:
            raise CodecError(
                "truncated binary stream: unexpected end of input")

    def read_exact(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._chunk):
            self._refill(count)
            end = count
        data = self._chunk[self._pos:end]
        self._pos = end
        return data

    def read_byte(self) -> int:
        pos = self._pos
        if pos >= len(self._chunk):
            self._refill(1)
            pos = 0
        value = self._chunk[pos]
        self._pos = pos + 1
        return value

    def try_read_byte(self) -> int | None:
        """Like :meth:`read_byte` but ``None`` at clean end of input."""
        if self._pos >= len(self._chunk):
            try:
                self._refill(1)
            except CodecError:
                return None
        value = self._chunk[self._pos]
        self._pos += 1
        return value

    def read_uvarint(self) -> int:
        # Fast path: the whole varint is already buffered.
        pos = self._pos
        chunk = self._chunk
        size = len(chunk)
        if pos < size:
            byte = chunk[pos]
            pos += 1
            if byte < 0x80:
                self._pos = pos
                return byte
            value = byte & 0x7F
            shift = 7
            while pos < size:
                byte = chunk[pos]
                pos += 1
                if byte < 0x80:
                    self._pos = pos
                    return value | (byte << shift)
                value |= (byte & 0x7F) << shift
                shift += 7
                if shift > 10_000:
                    raise CodecError("malformed varint: unterminated")
        # Slow path: the varint crosses a chunk boundary. Nothing has
        # been consumed yet (only the local pos moved), so restart from
        # the varint's first byte with the refilling reader.
        value = 0
        shift = 0
        while True:
            byte = self.read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 10_000:
                raise CodecError("malformed varint: unterminated")

    def read_uvarint_seq(self, count: int) -> list[int]:
        """Read ``count`` consecutive varints in one buffered sweep."""
        out: list[int] = []
        append = out.append
        chunk = self._chunk
        pos = self._pos
        size = len(chunk)
        remaining = count
        while remaining > 0:
            remaining -= 1
            start = pos
            if pos < size:
                byte = chunk[pos]
                pos += 1
                if byte < 0x80:
                    append(byte)
                    continue
                value = byte & 0x7F
                shift = 7
                done = False
                while pos < size:
                    byte = chunk[pos]
                    pos += 1
                    if byte < 0x80:
                        value |= byte << shift
                        done = True
                        break
                    value |= (byte & 0x7F) << shift
                    shift += 7
                    if shift > 10_000:
                        raise CodecError(
                            "malformed varint: unterminated")
                if done:
                    append(value)
                    continue
            # Varint crosses the buffer end: rewind to its first byte
            # and take the refilling path, then resync the local view.
            self._pos = start
            append(self.read_uvarint())
            chunk = self._chunk
            pos = self._pos
            size = len(chunk)
        self._pos = pos
        return out

    def read_lp_bytes(self) -> bytes:
        """Read a length-prefixed byte string (varint length + bytes)."""
        # Fast path: one-byte length and the payload fully buffered.
        chunk = self._chunk
        pos = self._pos
        if pos < len(chunk):
            length = chunk[pos]
            if length < 0x80:
                end = pos + 1 + length
                if end <= len(chunk):
                    self._pos = end
                    return chunk[pos + 1:end]
        return self.read_exact(self.read_uvarint())

    def hexdigest(self) -> str:
        """Digest of every byte consumed so far."""
        if self._hasher is None:
            raise CodecError("reader has no hasher attached")
        if self._hashed < self._pos:
            self._hasher.update(self._chunk[self._hashed:self._pos])
            self._hashed = self._pos
        return self._hasher.hexdigest()


def _node_children(obj: SSObject) -> Iterable[SSObject]:
    """The direct children of a node, in raw (unsorted) order.

    Raw container order keeps the walk free of ``structural_key``
    sorting, which recurses and would reintroduce the depth limit this
    codec exists to avoid. Sets are order-free on the wire (refs are
    sorted numerically for stable output within a session).
    """
    if isinstance(obj, OrValue):
        return obj.disjuncts
    if isinstance(obj, (PartialSet, CompleteSet)):
        return obj.elements
    if isinstance(obj, Tuple):
        return [value for _, value in obj.items()]
    return ()


class ValueTable:
    """A value table that outlives one stream.

    A sequence of streams (the frames of a write-ahead log) can share
    one table: each stream starts from the nodes the earlier ones
    defined and appends its own. ``nodes[r]`` is the node at ref ``r``;
    ``refs`` maps ``id(node)`` to its first ref. The table holds a
    strong reference to every node, so an id in ``refs`` always names
    the live node at that ref and can never be reused by another
    object while the table exists.

    Readers take ``len(table)`` once and treat refs at or past it as
    absent, so a writer may :meth:`extend` the table while streams
    encode against it.
    """

    __slots__ = ("nodes", "refs")

    def __init__(self, nodes: Iterable[SSObject] = ()):
        self.nodes: list[SSObject] = []
        self.refs: dict[int, int] = {}
        self.extend(nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def extend(self, nodes: Iterable[SSObject]) -> None:
        """Append the nodes a stream defined, in its table order."""
        refs = self.refs
        table = self.nodes
        for node in nodes:
            refs.setdefault(id(node), len(table))
            table.append(node)


class Encoder:
    """Streaming encoder over a binary file object.

    One encoder owns one value table: everything written through it
    shares back-references, so interleaving many data (or whole data
    sets) into one stream dedups across all of them. Objects are
    deduplicated twice over — by identity (O(1) for hash-consed
    structure) and by shape (structurally equal objects from different
    pools still collapse to one table entry).

    Given a :class:`ValueTable`, the stream starts from that table's
    first ``base_size`` nodes: a node the table holds is written as its
    ref and its structure is not walked, and the stream's own nodes
    take refs ``base_size``, ``base_size + 1``, … in the order
    :attr:`defined` lists them. The table itself is never changed; the
    caller extends it with :attr:`defined` once the stream is kept.
    """

    def __init__(self, stream: IO[bytes], *, hasher: Any = None,
                 header: bool = True, dedup_shapes: bool = True,
                 table: ValueTable | None = None):
        self._writer = _Writer(stream, hasher)
        #: id(obj) -> table ref; ``defined``, ``_aliases`` and the
        #: shared table pin the ids.
        self._by_id: dict[int, int] = {}
        #: structural shape key -> table ref (see _shape_key).
        self._by_shape: dict[tuple, int] = {}
        #: label -> length-prefixed UTF-8 bytes (labels repeat heavily).
        self._labels: dict[str, bytes] = {}
        #: packed[r] == _pack_uvarint(r) for every table ref used so
        #: far — shared substructure makes refs far hotter than values.
        self._packed: dict[int, bytes] = {}
        #: The nodes this stream emitted, in ref order from base_size.
        self.defined: list[SSObject] = []
        #: Objects whose shape matched an emitted node (ids pinned).
        self._aliases: list[SSObject] = []
        self._table = table
        #: How many nodes of ``table`` this stream may reference.
        self.base_size = 0 if table is None else len(table.nodes)
        self._count = self.base_size
        #: Hash-consed input never has two distinct structurally equal
        #: objects, so a caller feeding interned structure only can turn
        #: the by-shape table off and rely on identity dedup alone —
        #: same wire bytes, minus the shape-key bookkeeping.
        self._dedup_shapes = dedup_shapes
        if header:
            self._writer.write(MAGIC + _pack_uvarint(VERSION))

    # -- the value table ----------------------------------------------------

    def _shape_key(self, node: SSObject) -> tuple:
        """A flat, ref-based stand-in for structural equality.

        Children are already canonicalized to table refs, so two nodes
        get equal keys iff they are structurally equal — without any
        deep hashing or deep ``==`` on the objects themselves.
        """
        if node is BOTTOM:
            return ("b",)
        if isinstance(node, Atom):
            return ("a", type(node.value).__name__, node.value)
        if isinstance(node, Marker):
            return ("m", node.name)
        by_id = self._by_id
        if isinstance(node, OrValue):
            return ("o", frozenset(by_id[id(d)] for d in node.disjuncts))
        if isinstance(node, PartialSet):
            return ("p", frozenset(by_id[id(e)] for e in node.elements))
        if isinstance(node, CompleteSet):
            return ("c", frozenset(by_id[id(e)] for e in node.elements))
        if isinstance(node, Tuple):
            return ("t", tuple((label, by_id[id(value)])
                               for label, value in node.items()))
        raise CodecError(f"cannot encode {type(node).__name__}")

    def _emit_node(self, node: SSObject) -> int:
        """Write one node frame; children must already hold refs."""
        write = self._writer.write
        by_id = self._by_id
        packed = self._packed
        if isinstance(node, Atom):
            value = node.value
            if isinstance(value, str):
                raw = value.encode("utf-8")
                write(_B_ATOM_STR + _pack_uvarint(len(raw)) + raw)
            elif value is True:
                write(_B_ATOM_TRUE)
            elif value is False:
                write(_B_ATOM_FALSE)
            elif isinstance(value, int):
                zig = value * 2 if value >= 0 else -value * 2 - 1
                write(_B_ATOM_INT + _pack_uvarint(zig))
            else:
                write(_B_ATOM_FLOAT + _FLOAT_STRUCT.pack(value))
        elif isinstance(node, Tuple):
            fields = node.items()
            labels = self._labels
            parts = [_B_TUPLE, _pack_uvarint(len(fields))]
            for label, value in fields:
                encoded = labels.get(label)
                if encoded is None:
                    raw = label.encode("utf-8")
                    encoded = labels[label] = _pack_uvarint(len(raw)) + raw
                parts.append(encoded)
                parts.append(packed[by_id[id(value)]])
            write(b"".join(parts))
        elif isinstance(node, Marker):
            raw = node.name.encode("utf-8")
            write(_B_MARKER + _pack_uvarint(len(raw)) + raw)
        elif isinstance(node, (OrValue, PartialSet, CompleteSet)):
            if isinstance(node, OrValue):
                tag, children = _T_OR, node.disjuncts
            elif isinstance(node, PartialSet):
                tag, children = _T_PSET, node.elements
            else:
                tag, children = _T_CSET, node.elements
            refs = sorted(by_id[id(child)] for child in children)
            write(bytes((tag,)) + _pack_uvarint(len(refs))
                  + b"".join([packed[r] for r in refs]))
        elif node is BOTTOM:
            write(_B_BOTTOM)
        else:
            raise CodecError(f"cannot encode {type(node).__name__}")
        ref = self._count
        self._count = ref + 1
        packed[ref] = _pack_uvarint(ref)
        self.defined.append(node)
        return ref

    def _table_ref(self, obj: SSObject) -> int | None:
        """``obj``'s ref in the shared table, or ``None`` when the
        table does not hold it within the stream's ``base_size``."""
        ref = self._table.refs.get(id(obj))
        if ref is None or ref >= self.base_size:
            return None
        self._by_id[id(obj)] = ref
        self._packed[ref] = _pack_uvarint(ref)
        return ref

    def _ref(self, obj: SSObject) -> int:
        """Intern ``obj`` into the value table, emitting any frames its
        unseen substructure needs, and return its ref.

        The walk is an explicit post-order worklist: a node is emitted
        only once every child holds a ref, so refs always point
        backwards and the stack depth is bounded by nesting, not by the
        interpreter's recursion limit. A node the shared table holds
        ends the walk there.
        """
        by_id = self._by_id
        ref = by_id.get(id(obj))
        if ref is not None:
            return ref
        if not isinstance(obj, SSObject):
            raise CodecError(
                f"binary codec takes model objects, got "
                f"{type(obj).__name__}")
        table_ref = None if self._table is None else self._table_ref
        if table_ref is not None:
            ref = table_ref(obj)
            if ref is not None:
                return ref
        if isinstance(obj, (Atom, Marker)) or obj is BOTTOM:
            # Leaf fast path: no children to schedule, emit directly.
            return self._admit(obj)
        admit = self._admit
        stack = [obj]
        while stack:
            node = stack[-1]
            if id(node) in by_id:
                stack.pop()
                continue
            pending = None
            for child in _node_children(node):
                if id(child) not in by_id and (
                        table_ref is None or table_ref(child) is None):
                    if isinstance(child, (Atom, Marker)):
                        admit(child)  # leaves need no scheduling
                    else:
                        if pending is None:
                            pending = []
                        pending.append(child)
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            admit(node)
        return by_id[id(obj)]

    def _admit(self, node: SSObject) -> int:
        """Emit (or dedup) one node whose children all hold refs."""
        if self._dedup_shapes:
            shape = self._shape_key(node)
            slot = self._by_shape.get(shape)
            if slot is None:
                slot = self._emit_node(node)
                self._by_shape[shape] = slot
            else:
                self._aliases.append(node)
        else:
            slot = self._emit_node(node)
        self._by_id[id(node)] = slot
        return slot

    def ref_of(self, obj: SSObject) -> int:
        """The table ref of an already-encoded (sub)object.

        Raises :class:`CodecError` when the object has not been written
        through this encoder — container formats use this to reference
        subobjects (index entries) after the node stream is closed,
        when emitting new frames would corrupt the framing.
        """
        ref = self._by_id.get(id(obj))
        if ref is None:
            ref = self._by_shape.get(self._try_shape(obj))
        if ref is None:
            raise CodecError(
                "object was never encoded through this encoder")
        return ref

    def _try_shape(self, obj: SSObject) -> tuple:
        try:
            return self._shape_key(obj)
        except (KeyError, CodecError):
            return ("missing",)

    # -- record frames ------------------------------------------------------

    def write_object(self, obj: SSObject) -> int:
        """Write one standalone object record; returns its table ref."""
        ref = self._ref(obj)
        self._writer.write(_B_OBJECT + self._packed[ref])
        return ref

    def write_datum(self, datum: Data) -> None:
        """Write one datum record (marker ref + object ref)."""
        if not isinstance(datum, Data):
            raise CodecError(
                f"write_datum takes Data, got {type(datum).__name__}")
        marker_ref = self._ref(datum.marker)
        object_ref = self._ref(datum.object)
        packed = self._packed
        self._writer.write(_B_DATUM + packed[marker_ref]
                           + packed[object_ref])

    def write_dataset(self, dataset: Iterable[Data]) -> int:
        """Write every datum of a data set followed by ``END``; returns
        the number of data written.

        Iterates the raw element set when given a :class:`DataSet` —
        canonical (sorted) order would recurse through
        ``structural_key`` and costs O(n log n) deep comparisons the
        wire format does not need.
        """
        if isinstance(dataset, DataSet):
            items: Iterable[Data] = dataset._data
        else:
            items = dataset
        count = 0
        for datum in items:
            self.write_datum(datum)
            count += 1
        self.write_end()
        return count

    def write_end(self) -> None:
        """Write an ``END`` frame (closes a dataset section)."""
        self._writer.write(_B_END)

    # -- container-format helpers -------------------------------------------

    def write_uvarint(self, value: int) -> None:
        """Write a raw varint (for container formats framing the codec)."""
        self._writer.write(_pack_uvarint(value))

    def write_uvarint_seq(self, values: Iterable[int]) -> None:
        """Write consecutive varints as one buffered chunk."""
        self._writer.write(b"".join(map(_pack_uvarint, values)))

    def write_ref(self, obj: SSObject) -> None:
        """Write the table ref of an already-encoded object (varint)."""
        self._writer.write(self._packed[self.ref_of(obj)])

    def write_bytes(self, data: bytes) -> None:
        """Write raw bytes (container magics and fixed fields)."""
        self._writer.write(data)

    def write_string(self, text: str) -> None:
        """Write a length-prefixed UTF-8 string."""
        raw = text.encode("utf-8")
        self._writer.write(_pack_uvarint(len(raw)) + raw)

    def flush(self) -> None:
        """Flush buffered bytes to the underlying stream."""
        self._writer.flush()

    def hexdigest(self) -> str:
        """Digest of all bytes written so far (requires ``hasher=``)."""
        return self._writer.hexdigest()


class Decoder:
    """Streaming decoder over a binary file object.

    A single forward pass: node frames fill the value table bottom-up
    (each node's structural hash is forced as it is built, and
    ``intern=True`` canonicalizes it into the intern pool immediately),
    record frames surface objects and data. Malformed input — bad
    magic, unknown tags, forward refs, truncation — raises
    :class:`~repro.core.errors.CodecError`.

    ``table`` starts the stream from the nodes an earlier stream
    decoded: any list-like with ``len``, indexing (``IndexError`` past
    the end) and ``append``. The stream's own nodes are appended to it.
    """

    def __init__(self, stream: IO[bytes], *, intern: bool = False,
                 hasher: Any = None, header: bool = True,
                 table: Any = None):
        self._reader = _Reader(stream, hasher)
        self._intern = intern
        self._table: list[SSObject] = [] if table is None else table
        self._label_cache: dict[bytes, str] = {}
        self._ended = False
        if header:
            magic = self._reader.read_exact(len(MAGIC))
            if magic != MAGIC:
                raise CodecError(
                    f"not a repro binary stream (bad magic {magic!r})")
            version = self._reader.read_uvarint()
            if version != VERSION:
                raise CodecError(
                    f"unsupported binary codec version {version!r} "
                    f"(this build reads version {VERSION})")

    @property
    def ended(self) -> bool:
        """Whether the last ``None`` from :meth:`next_record` came from
        an explicit ``END`` frame rather than plain end of input.

        Container formats that frame a dataset section with ``END``
        check this to tell a complete section from a truncated file
        whose bytes happen to stop at a frame boundary.
        """
        return self._ended

    @property
    def intern(self) -> bool:
        """Whether decoded nodes are canonicalized into the intern pool.

        Writable so container formats that carry the flag in their own
        header (read through this decoder) can set it after parsing the
        header, before the first node frame arrives.
        """
        return self._intern

    @intern.setter
    def intern(self, flag: bool) -> None:
        self._intern = bool(flag)

    # -- the value table ----------------------------------------------------

    def _resolve(self, ref: int) -> SSObject:
        table = self._table
        if ref >= len(table):
            raise CodecError(
                f"invalid back-reference {ref} (only {len(table)} nodes "
                f"defined)")
        return table[ref]

    def node(self, ref: int) -> SSObject:
        """Resolve a table ref (for container formats storing refs)."""
        return self._resolve(ref)

    def _read_refs(self) -> list[SSObject]:
        reader = self._reader
        count = reader.read_uvarint()
        refs = reader.read_uvarint_seq(count)
        table = self._table
        try:
            return [table[ref] for ref in refs]
        except IndexError:
            bad = next(ref for ref in refs if ref >= len(table))
            raise CodecError(
                f"invalid back-reference {bad} (only {len(table)} nodes "
                f"defined)") from None

    def _read_node(self, tag: int) -> None:
        # Tags are dispatched roughly by frequency on real workloads:
        # string atoms and tuples dominate, ⊥ and bools are rare.
        reader = self._reader
        try:
            if tag == _T_ATOM_STR:
                node: SSObject = Atom(self._read_string())
            elif tag == _T_TUPLE:
                count = reader.read_uvarint()
                fields = []
                table = self._table
                read_label = self._read_label
                read_uvarint = reader.read_uvarint
                previous = ""
                normal = True
                try:
                    for _ in range(count):
                        label = read_label()
                        value = table[read_uvarint()]
                        if label <= previous or value is BOTTOM:
                            normal = False
                        fields.append((label, value))
                        previous = label
                except IndexError:
                    raise CodecError(
                        f"invalid back-reference (only {len(table)} "
                        f"nodes defined)") from None
                if normal:
                    # Encoder output: labels strictly increasing (hence
                    # distinct, non-empty) and no ⊥ values — already the
                    # constructor's normal form, so skip re-validation.
                    node = Tuple._from_sorted_fields(tuple(fields))
                else:
                    node = Tuple(fields)
            elif tag == _T_MARKER:
                node = Marker(self._read_string())
            elif tag == _T_ATOM_INT:
                zig = reader.read_uvarint()
                node = Atom(zig // 2 if zig % 2 == 0 else -(zig + 1) // 2)
            elif tag == _T_PSET:
                # Table entries are validated model objects, so the
                # element check of the public constructor is redundant.
                node = PartialSet._from_elements(
                    frozenset(self._read_refs()))
            elif tag == _T_CSET:
                node = CompleteSet._from_elements(
                    frozenset(self._read_refs()))
            elif tag == _T_OR:
                children = self._read_refs()
                flat = frozenset(children)
                if len(flat) >= 2 and not any(
                        isinstance(child, OrValue) for child in flat):
                    node = OrValue._from_disjuncts(flat)
                else:
                    # Degenerate or nested-or frames go through the
                    # validating constructor (raises, or flattens).
                    node = OrValue(children)
            elif tag == _T_ATOM_FLOAT:
                node = Atom(_FLOAT_STRUCT.unpack(reader.read_exact(8))[0])
            elif tag == _T_ATOM_TRUE:
                node = Atom(True)
            elif tag == _T_ATOM_FALSE:
                node = Atom(False)
            elif tag == _T_BOTTOM:
                node = BOTTOM
            else:
                raise CodecError(f"unknown frame tag 0x{tag:02x}")
        except ModelError as exc:
            raise CodecError(f"invalid node in binary stream: {exc}") \
                from exc
        if self._intern:
            # Children come from the table, so they are canonical
            # already — adopt() skips the rebuild walk intern() pays.
            node = _adopt_object(node)
        else:
            # Force the structural hash bottom-up: children are hashed
            # already, so this never recurses more than one level and
            # every later set/dict operation on the node is shallow.
            hash(node)
        self._table.append(node)

    def _read_string(self) -> str:
        raw = self._reader.read_lp_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in binary stream: {exc}") \
                from exc

    def _read_label(self) -> str:
        """Read a tuple label, sharing one ``str`` per distinct label.

        Labels repeat across almost every tuple frame; the cache skips
        the repeated UTF-8 decode and gives all decoded tuples
        pointer-identical label strings, which speeds up the label
        comparisons ``Tuple`` construction and field lookups do.
        """
        raw = self._reader.read_lp_bytes()
        label = self._label_cache.get(raw)
        if label is None:
            try:
                label = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(
                    f"invalid UTF-8 in binary stream: {exc}") from exc
            self._label_cache[raw] = label
        return label

    # -- record frames ------------------------------------------------------

    def next_record(self) -> tuple[str, Any] | None:
        """Advance to the next record frame.

        Returns ``("object", obj)`` or ``("datum", datum)``; ``None``
        at an ``END`` frame or at a clean end of input.
        """
        reader = self._reader
        self._ended = False
        read_node = self._read_node
        while True:
            # Inline tag fetch: one byte, almost always buffered.
            pos = reader._pos
            chunk = reader._chunk
            if pos < len(chunk):
                tag = chunk[pos]
                reader._pos = pos + 1
            else:
                tag = reader.try_read_byte()
                if tag is None:
                    return None
            if tag < _T_DATUM:  # node frames dominate real streams
                read_node(tag)
                continue
            if tag == _T_DATUM:
                table = self._table
                try:
                    marker = table[reader.read_uvarint()]
                    obj = table[reader.read_uvarint()]
                except IndexError:
                    raise CodecError(
                        f"invalid back-reference (only {len(table)} "
                        f"nodes defined)") from None
                try:
                    return "datum", Data(marker, obj)
                except ModelError as exc:
                    raise CodecError(f"invalid datum: {exc}") from exc
            if tag == _T_END:
                self._ended = True
                return None
            if tag == _T_OBJECT:
                return "object", self._resolve(reader.read_uvarint())
            read_node(tag)  # raises "unknown frame tag"

    def read_object(self) -> SSObject:
        """Read the next record, which must be a standalone object."""
        record = self.next_record()
        if record is None or record[0] != "object":
            raise CodecError("expected an object record")
        return record[1]

    def read_datum(self) -> Data:
        """Read the next record, which must be a datum."""
        record = self.next_record()
        if record is None or record[0] != "datum":
            raise CodecError("expected a datum record")
        return record[1]

    def iter_data(self) -> Iterator[Data]:
        """Yield data until the closing ``END`` frame."""
        while True:
            record = self.next_record()
            if record is None:
                return
            if record[0] != "datum":
                raise CodecError("expected a datum record in data stream")
            yield record[1]

    # -- container-format helpers -------------------------------------------

    def read_uvarint(self) -> int:
        """Read a raw varint written by :meth:`Encoder.write_uvarint`."""
        return self._reader.read_uvarint()

    def read_uvarint_seq(self, count: int) -> list[int]:
        """Read ``count`` varints written by
        :meth:`Encoder.write_uvarint_seq` (or individually)."""
        return self._reader.read_uvarint_seq(count)

    def read_bytes(self, count: int) -> bytes:
        """Read raw bytes written by :meth:`Encoder.write_bytes`."""
        return self._reader.read_exact(count)

    def read_string(self) -> str:
        """Read a string written by :meth:`Encoder.write_string`."""
        return self._read_string()

    def read_label(self) -> str:
        """Read a string written by :meth:`Encoder.write_string`,
        sharing one ``str`` object per distinct value.

        For container formats reading small repetitive vocabularies
        (index paths, signature labels): skips the repeated UTF-8
        decode and returns pointer-identical strings. The wire format
        is identical to :meth:`read_string`.
        """
        return self._read_label()

    def hexdigest(self) -> str:
        """Digest of all bytes consumed so far (requires ``hasher=``)."""
        return self._reader.hexdigest()


# ---------------------------------------------------------------------------
# File-object entry points
# ---------------------------------------------------------------------------

def dump_object(obj: SSObject, stream: IO[bytes]) -> None:
    """Write one object to a binary file object."""
    encoder = Encoder(stream)
    encoder.write_object(obj)
    encoder.flush()


def load_object(stream: IO[bytes], *, intern: bool = False) -> SSObject:
    """Read one object written by :func:`dump_object`."""
    return Decoder(stream, intern=intern).read_object()


def dump_data(datum: Data, stream: IO[bytes]) -> None:
    """Write one datum to a binary file object."""
    encoder = Encoder(stream)
    encoder.write_datum(datum)
    encoder.flush()


def load_data(stream: IO[bytes], *, intern: bool = False) -> Data:
    """Read one datum written by :func:`dump_data`."""
    return Decoder(stream, intern=intern).read_datum()


def dump_dataset(dataset: DataSet | Iterable[Data],
                 stream: IO[bytes]) -> None:
    """Stream a whole data set to a binary file object, one datum at a
    time, sharing one value table across all of them."""
    encoder = Encoder(stream)
    encoder.write_dataset(dataset)
    encoder.flush()


def load_dataset(stream: IO[bytes], *, intern: bool = False) -> DataSet:
    """Read a data set written by :func:`dump_dataset`."""
    decoder = Decoder(stream, intern=intern)
    return DataSet(decoder.iter_data())


# ---------------------------------------------------------------------------
# Bytes-level entry points
# ---------------------------------------------------------------------------

def dumps_object(obj: SSObject) -> bytes:
    """Serialize one object to bytes."""
    buffer = io.BytesIO()
    dump_object(obj, buffer)
    return buffer.getvalue()


def loads_object(payload: bytes, *, intern: bool = False) -> SSObject:
    """Parse bytes produced by :func:`dumps_object`."""
    return load_object(io.BytesIO(payload), intern=intern)


def dumps_data(datum: Data) -> bytes:
    """Serialize one datum to bytes."""
    buffer = io.BytesIO()
    dump_data(datum, buffer)
    return buffer.getvalue()


def loads_data(payload: bytes, *, intern: bool = False) -> Data:
    """Parse bytes produced by :func:`dumps_data`."""
    return load_data(io.BytesIO(payload), intern=intern)


def dumps_dataset(dataset: DataSet | Iterable[Data]) -> bytes:
    """Serialize a data set to bytes."""
    buffer = io.BytesIO()
    dump_dataset(dataset, buffer)
    return buffer.getvalue()


def loads_dataset(payload: bytes, *, intern: bool = False) -> DataSet:
    """Parse bytes produced by :func:`dumps_dataset`."""
    return load_dataset(io.BytesIO(payload), intern=intern)
