"""Unit tests for the columnar shredding layer.

Covers the multi-level shred classification rules (scalar / irregular
sidecar / tuple-interior / opaque / row-fallback residue / field-less
tops), the path-keyed columns and per-level bitset semantics, the
bitset plumbing, copy-on-write ``patched()`` including tombstones,
resurrection, the compacting drift rebuild and the indexes and scan
memos it carries into the next generation, the column-shard wire
format with nested re-materialization, and the ≥600-deep
pathological-nesting regression the binary codec set the precedent
for: analysis is iterative (and guarded), so deep objects classify
without blowing the recursion limit — tuple chains past the
shred-depth cap truncate into opaque entries instead of overflowing.
"""

import io

from repro.binary_codec import Decoder, Encoder
from repro.core.builder import atom, cset, orv, pset, tup
from repro.core.data import Data, DataSet
from repro.core.objects import Atom, Marker, Tuple
from repro.query import Contains, Eq, Exists, Ge, Query
from repro.store.columnar import (
    Column,
    ColumnStore,
    bit_positions,
    read_column_shard,
    write_column_shard,
)


def datum(name, obj):
    return Data(Marker(name), obj)


def flat(name, **fields):
    return datum(name, tup(**fields))


def library():
    return DataSet([
        flat("a1", type="Article", year=1999, title="foo bar"),
        flat("a2", type="Article", year=2005, title="baz"),
        flat("b1", type="Book", title="no year"),
        datum("or1", tup(type=atom("Article"),
                         year=orv(1990, 1991), title=atom("maybe"))),
        datum("set1", tup(type=atom("Article"),
                          author=cset("ann", "bob"), year=atom(2001))),
        datum("res1", tup(type=atom("Article"),
                          venue=tup(name="EDBT", year=2000))),
        datum("top1", atom("loose atom")),
    ])


class TestBitPositions:
    def test_empty(self):
        assert bit_positions(0) == []

    def test_byte_boundaries(self):
        bits = (1 << 0) | (1 << 7) | (1 << 8) | (1 << 63) | (1 << 64)
        assert bit_positions(bits) == [0, 7, 8, 63, 64]

    def test_round_trip(self):
        positions = [0, 3, 17, 255, 256, 1000]
        bits = 0
        for position in positions:
            bits |= 1 << position
        assert bit_positions(bits) == positions


class TestBuildClassification:
    def test_scalar_rows_shred(self):
        store = ColumnStore.build(library())
        assert store.size == 7
        # Every row — the nested-tuple one included — is answerable by
        # the path columns; nothing falls to the residue.
        assert store.shredded_count == 7
        assert store.residue_count == 0
        assert "year" in store.labels and "author" in store.labels

    def test_nested_tuple_shreds_into_path_columns(self):
        store = ColumnStore.build(DataSet([
            datum("r", tup(type=atom("Article"),
                           venue=tup(name="EDBT"))),
        ]))
        assert store.shredded_count == 1
        assert store.residue_count == 0
        assert "venue" in store.labels
        assert "venue.name" in store.labels
        # The interior is definite: the path column answers exactly.
        true_bits, maybe_bits = store.leaf_eq(("venue", "name"),
                                              Atom("EDBT"))
        assert true_bits == 1 and maybe_bits == 0
        # The intermediate itself exists definitely (it is a value).
        true_bits, maybe_bits = store.leaf_exists(("venue",))
        assert true_bits == 1 and maybe_bits == 0

    def test_tuple_inside_set_is_opaque(self):
        store = ColumnStore.build(DataSet([
            datum("r", tup(parts=cset(tup(x=atom(1))))),
        ]))
        # The row shreds; the set-of-tuples entry is opaque, so the
        # exact path is per-row and every descendant is a maybe.
        assert store.residue_count == 0
        assert store.shredded_count == 1
        true_bits, maybe_bits = store.leaf_exists(("parts",))
        assert true_bits == 1 and maybe_bits == 0
        true_bits, maybe_bits = store.leaf_eq(("parts", "x"), Atom(1))
        assert true_bits == 0 and maybe_bits == 1

    def test_tuple_subclass_is_residue(self):
        class OddTuple(Tuple):
            pass

        store = ColumnStore.build(
            [datum("r", OddTuple({"a": atom(1)}))], ordered=False)
        assert store.residue_count == 1

    def test_top_level_leaves_shred_fieldless(self):
        store = ColumnStore.build(DataSet([
            datum("a", atom(1)),
            datum("m", Marker("loose")),
            datum("s", pset(1, 2)),
        ]))
        assert store.shredded_count == 3
        assert store.labels == ()

    def test_top_level_set_with_tuple_is_residue(self):
        store = ColumnStore.build(DataSet([
            datum("s", cset(tup(x=atom(1)))),
        ]))
        assert store.residue_count == 1

    def test_or_value_field_resolves_from_possible_values(self):
        store = ColumnStore.build(DataSet([
            datum("d", tup(year=orv(1990, 1991))),
        ]))
        # The entry is irregular, but eq is existential over reached
        # values, so the possible-value sidecar answers exactly: 1990
        # is a possible value (definite hit), 1992 is not (definite
        # miss) — no per-row maybe either way.
        column = store.column(("year",))
        assert column.irregular != 0
        assert store.leaf_eq(("year",), Atom(1990)) == (1, 0)
        assert store.leaf_eq(("year",), Atom(1992)) == (0, 0)
        assert store.leaf_ordered(("year",), "ge", 1991) == (1, 0)
        assert store.leaf_ordered(("year",), "gt", 1991) == (0, 0)

    def test_marker_valued_field_stays_per_row(self):
        store = ColumnStore.build(DataSet([
            datum("d", tup(ref=orv(Marker("m1"), 7))),
        ]))
        # A non-atomic possible value (the marker) keeps the row in
        # the maybe set for value predicates — unless an atom
        # alternative already decides the leaf definitively.
        true_bits, maybe_bits = store.leaf_eq(("ref",), Atom(8))
        assert true_bits == 0 and maybe_bits == 1
        true_bits, maybe_bits = store.leaf_eq(("ref",), Atom(7))
        assert true_bits == 1 and maybe_bits == 0

    def test_empty_set_field_reads_as_absent(self):
        data = DataSet([datum("d", tup(tags=cset(), type=atom("X")))])
        store = ColumnStore.build(data)
        true_bits, maybe_bits = store.leaf_exists(("tags",))
        assert true_bits == 0 and maybe_bits == 0
        # The naive evaluator agrees: an empty set reaches nothing.
        query = Query(data).where(Exists("tags")).with_columns(store)
        assert query.run() == query.run(naive=True)

    def test_exists_is_exact_on_irregular_rows(self):
        store = ColumnStore.build(DataSet([
            datum("d", tup(author=cset("ann", "bob"))),
        ]))
        true_bits, maybe_bits = store.leaf_exists(("author",))
        assert true_bits != 0 and maybe_bits == 0

    def test_strict_atom_typing_in_eq_index(self):
        data = DataSet([
            datum("i", tup(v=atom(1))),
            datum("b", tup(v=atom(True))),
            datum("f", tup(v=Atom(1.0))),
        ])
        store = ColumnStore.build(data)
        for value in (1, True, 1.0):
            true_bits, _ = store.leaf_eq(("v",), Atom(value))
            assert true_bits.bit_count() == 1
            query = Query(data).where(Eq("v", value)).with_columns(store)
            assert query.run() == query.run(naive=True)

    def test_multi_step_paths_answer_from_path_columns(self):
        data = library()
        store = ColumnStore.build(data)
        query = (Query(data).where(Exists("venue.name"))
                 .with_columns(store))
        # The nested-venue row answers definitively from the
        # ("venue", "name") column; every other row is a definite miss.
        assert query.run() == query.run(naive=True)
        assert len(query.run()) == 1
        true_bits, maybe_bits = store.leaf_exists(("venue", "name"))
        assert true_bits.bit_count() == 1 and maybe_bits == 0

    def test_missing_leaf_vs_missing_intermediate(self):
        data = DataSet([
            datum("full", tup(author=tup(name=tup(last=atom("Smith"))))),
            datum("noleaf", tup(author=tup(name=tup(first=atom("Al"))))),
            datum("nomid", tup(author=tup(affil=atom("MIT")))),
            datum("orint", tup(author=orv(tup(name=tup(last=atom("Li"))),
                                          tup(name=tup(last=atom("Wu")))))),
        ])
        store = ColumnStore.build(data)
        # A missing leaf, a missing intermediate and an or-valued
        # intermediate leave three different bit patterns: the first
        # two are definite misses, the or-valued one is a maybe.
        true_bits, maybe_bits = store.leaf_exists(
            ("author", "name", "last"))
        assert true_bits.bit_count() == 1          # only "full"
        assert maybe_bits.bit_count() == 1         # only "orint"
        query = (Query(data).where(Eq("author.name.last", "Smith"))
                 .with_columns(store))
        assert query.run() == query.run(naive=True)
        assert len(query.run()) == 1


class TestIndexBuild:
    """The eq-index and the possible-value index hold one bitset per
    type-strict key over exactly the positions that reach it, for keys
    seen once, keys seen again and keys reached twice from one
    entry."""

    def test_eq_index_unique_repeated_and_type_strict_keys(self):
        values = ["t0", 1, True, "t1", 1.0, "1", None, 1, "t0", True,
                  "t2"]
        column = Column(values, 0, 0, 0, 0, {})
        assert column.eq_index() == {
            (str, "t0"): 1 << 0 | 1 << 8,
            (int, 1): 1 << 1 | 1 << 7,
            (bool, True): 1 << 2 | 1 << 9,
            (str, "t1"): 1 << 3,
            (float, 1.0): 1 << 4,
            (str, "1"): 1 << 5,
            (str, "t2"): 1 << 10,
        }
        assert column.distinct_count() == 7
        assert column.eq_bits(1) == 1 << 1 | 1 << 7
        assert column.eq_bits(True) == 1 << 2 | 1 << 9
        assert column.eq_bits(1.0) == 1 << 4

    def test_possible_index_counts_an_entry_once_per_key(self):
        extras = {
            # "a" is reached twice from entry 0 (the atom and the
            # or-value's disjunct), and again at 2; "z" only twice
            # from entry 1.
            0: cset("a", orv("a", "b")),
            1: cset("z", orv("z", "y")),
            2: orv("a", 1, True),
            3: orv(1.0, "1"),
            4: pset("c", Marker("m")),
        }
        column = Column([None] * 5, 0b11111, 0b11111, 0, 0, extras)
        buckets, fallback = column.possible_index()
        assert buckets == {
            (str, "a"): 1 << 0 | 1 << 2,
            (str, "b"): 1 << 0,
            (str, "z"): 1 << 1,
            (str, "y"): 1 << 1,
            (int, 1): 1 << 2,
            (bool, True): 1 << 2,
            (float, 1.0): 1 << 3,
            (str, "1"): 1 << 3,
            (str, "c"): 1 << 4,
        }
        assert fallback == 1 << 4


class TestPatched:
    def test_remove_tombstones(self):
        data = list(library())
        store = ColumnStore.build(DataSet(data))
        patched = store.patched([data[0]], [])
        assert patched.size == store.size
        assert patched.alive_count == store.alive_count - 1
        query_data = DataSet(data[1:])
        query = (Query(query_data).where(Eq("type", "Article"))
                 .with_columns(patched))
        assert query.run() == query.run(naive=True)

    def test_readd_resurrects_position(self):
        data = list(library())
        store = ColumnStore.build(DataSet(data))
        removed = store.patched([data[0]], [])
        revived = removed.patched([], [data[0]])
        assert revived.size == store.size  # no duplicate row appended
        assert revived.alive_count == store.alive_count

    def test_append_new_rows_and_labels(self):
        data = list(library())
        store = ColumnStore.build(DataSet(data))
        extra = [flat("n1", type="New", pages=12),
                 datum("n2", tup(venue=tup(x=atom(1))))]
        patched = store.patched([], extra)
        assert patched.size == store.size + 2
        assert "pages" in patched.labels
        # The nested-venue row shreds too: the append merges its new
        # nested path column into the store.
        assert "venue.x" in patched.labels
        assert patched.residue_count == store.residue_count
        combined = DataSet(data + extra)
        query = (Query(combined).where(Ge("pages", 10))
                 .with_columns(patched))
        assert query.run() == query.run(naive=True)

    def test_append_marks_unordered_then_sorts(self):
        data = list(library())
        store = ColumnStore.build(DataSet(data))
        extra = flat("zz", type="Article", year=1960)
        patched = store.patched([], [extra])
        assert not patched.ordered
        combined = DataSet(data + [extra])
        query = (Query(combined).where(Exists("type"))
                 .with_columns(patched))
        assert query.rows() == query.rows(naive=True)

    def test_drift_rebuild_compacts(self):
        data = [flat(f"m{i:04d}", type="T", year=1900 + i)
                for i in range(200)]
        store = ColumnStore.build(DataSet(data))
        patched = store.patched(data[:150], [])
        # 150 tombstones on 200 rows crosses the drift threshold: the
        # store rebuilds compactly with only the 50 live rows.
        assert patched.size == 50
        assert patched.alive_count == 50
        assert patched.ordered
        query_data = DataSet(data[150:])
        query = (Query(query_data).where(Ge("year", 1900))
                 .with_columns(patched))
        assert query.rows() == query.rows(naive=True)

    def test_drift_rebuild_counts_appended_rows(self):
        data = [flat(f"m{i:04d}", type="T", year=1900 + i)
                for i in range(200)]
        store = ColumnStore.build(DataSet(data[:160]))
        # 85 tombstones are more than half of 161 rows, but not of the
        # 200 rows left after appending 40.
        compacted = store.patched(data[:85], data[160:161])
        assert compacted.size == 76 and compacted.ordered
        kept = store.patched(data[:85], data[160:])
        assert kept.size == 200 and kept.alive_count == 115

    def test_database_lineage_patches_not_rebuilds(self):
        from repro.store.database import Database

        db = Database(list(library()), result_cache_size=0)
        text = 'select * where type = "Article"'
        assert db.query(text) == db.query(text, naive=True)
        first = db._state.columns()
        db.insert(flat("x9", type="Article", year=2024))
        second = db._state._columns
        # _apply patched the existing store copy-on-write.
        assert second is not None and second is not first
        assert db.query(text) == db.query(text, naive=True)


def warm(store, values=(1990, 1991, 2001, True, 1.0, "Article", "bob"),
         needles=("o", "ba", "Art")):
    """Build every lazy structure of every column and fill its scan
    memo through every probe, once per value or needle."""
    for path in store.paths:
        column = store.column(path)
        column.eq_index()
        column.possible_index()
        for value in values:
            column.possible_eq_bits(value)
            column.possible_differs_bits(value)
            for op_name in ("lt", "le", "gt", "ge"):
                column.ordered_bits(op_name, value)
                column.possible_ordered_bits(op_name, value)
        for needle in needles:
            column.contains_bits(needle)
            column.possible_contains_bits(needle)


def assert_carried_state_exact(column):
    """Every built index and memo entry of ``column`` equals a
    recompute on a fresh column over the same arrays."""
    fresh = Column(column.values, column.present, column.irregular,
                   column.tuples, column.opaque, column.extras)
    if column._eq_index is not None:
        assert column._eq_index == fresh.eq_index()
    if column._irr_index is not None:
        assert column._irr_index == fresh.possible_index()
    for key, bits in column._scan_memo.items():
        assert bits == key[0](fresh, key), key


class TestCarriedState:
    """``patched`` carries built indexes and scan memos into the
    successor instead of starting each new column empty."""

    added = [flat("n1", type="Article", year=2010, title="fresh foo"),
             datum("n2", tup(type=atom("Book"), year=orv(1995, 2012)))]

    def test_untouched_column_keeps_parent_index_objects(self):
        store = ColumnStore.build(library())
        warm(store)
        successor = store.patched([], self.added)
        parent = store.column(("author",))
        carried = successor.column(("author",))
        assert carried is not parent
        assert carried._eq_index is parent._eq_index
        assert carried._irr_index is parent._irr_index
        assert carried._ordered_index is parent._ordered_index
        assert carried._irr_ordered is parent._irr_ordered
        assert carried._scan_memo == parent._scan_memo
        assert carried._scan_memo is not parent._scan_memo
        assert_carried_state_exact(carried)

    def test_touched_column_is_built_on_arrival(self):
        store = ColumnStore.build(library())
        warm(store)
        successor = store.patched([], self.added)
        parent = store.column(("year",))
        carried = successor.column(("year",))
        assert carried._eq_index is not None
        assert carried._irr_index is not None
        assert carried._scan_memo.keys() == parent._scan_memo.keys()
        # The appended scalar and or-valued years are in the indexes.
        assert carried._eq_index[(int, 2010)] >> store.size == 0b01
        assert carried.possible_index()[0][(int, 2012)] >> store.size \
            == 0b10
        for path in successor.paths:
            assert_carried_state_exact(successor.column(path))

    def test_unbuilt_parent_leaves_successor_lazy(self):
        store = ColumnStore.build(library())
        successor = store.patched([], self.added)
        for path in successor.paths:
            column = successor.column(path)
            assert column._eq_index is None
            assert column._irr_index is None
            assert column._scan_memo == {}

    def test_carry_survives_tombstones_and_resurrection(self):
        rows = list(library())
        store = ColumnStore.build(DataSet(rows))
        warm(store)
        store = store.patched(rows[:3], [])
        warm(store)
        store = store.patched([], rows[:1] + self.added)
        warm(store)
        store = store.patched([], [flat("n3", year=1991, title="foo")])
        for path in store.paths:
            assert_carried_state_exact(store.column(path))
        live = DataSet(rows[:1] + rows[3:] + self.added
                       + [flat("n3", year=1991, title="foo")])
        for condition in (Ge("year", 1991), Eq("year", 2012),
                          Contains("title", "foo"), ~Eq("author", "bob")):
            query = Query(live).where(condition).with_columns(store)
            assert query.run() == query.run(naive=True)

    def test_compacting_rebuild_starts_fresh(self):
        data = [flat(f"m{i:04d}", type="T", year=1900 + i)
                for i in range(200)]
        store = ColumnStore.build(DataSet(data))
        warm(store)
        rebuilt = store.patched(data[:150], [])
        column = rebuilt.column(("year",))
        assert column._eq_index is None and column._scan_memo == {}


class TestWireFormat:
    def round_trip(self, rows):
        store = ColumnStore.build(rows, ordered=True)
        buffer = io.BytesIO()
        encoder = Encoder(buffer)
        write_column_shard(encoder, store)
        encoder.flush()
        decoder = Decoder(io.BytesIO(buffer.getvalue()), intern=True)
        return store, read_column_shard(decoder)

    def test_rows_rematerialize_exactly(self):
        rows = list(library())
        store, decoded = self.round_trip(rows)
        assert decoded.size == store.size
        assert decoded.rows == rows
        assert decoded.shredded_count == store.shredded_count

    def test_match_positions_agree(self):
        from repro.query.planner import columnar_shard_positions

        rows = list(library())
        store, decoded = self.round_trip(rows)
        for condition in (Eq("type", "Article"),
                          Ge("year", 2000) | Exists("author"),
                          ~Exists("year")):
            assert (columnar_shard_positions(store, condition)
                    == columnar_shard_positions(decoded, condition))

    def test_empty_set_field_is_predicate_equivalent(self):
        rows = [datum("d", tup(tags=cset(), type=atom("X")))]
        store, decoded = self.round_trip(rows)
        # The empty-set field is dropped on the wire (it reaches
        # nothing under every path), so the rebuilt row differs
        # structurally but answers every query identically.
        true_bits, maybe_bits = decoded.leaf_exists(("tags",))
        assert true_bits == 0 and maybe_bits == 0
        true_bits, _ = decoded.leaf_eq(("type",), Atom("X"))
        assert true_bits == 1

    def test_empty_shard(self):
        store, decoded = self.round_trip([])
        assert decoded.size == 0


DEPTH = 600


def deep_set(depth):
    obj = atom("leaf")
    for _ in range(depth):
        obj = pset(obj)
    return obj


def deep_tuple(depth):
    obj = atom("leaf")
    for _ in range(depth):
        obj = Tuple({"a": obj})
    return obj


class TestDeepNesting:
    """Satellite regression: the shredder is iterative, so ≥600-deep
    objects classify instead of overflowing (mirrors the binary-codec
    depth assertion)."""

    def test_deep_set_field_classifies_irregular(self):
        rows = [datum("deep", tup(blob=deep_set(DEPTH),
                                  type=atom("Deep"))),
                flat("flat", type="Flat")]
        store = ColumnStore.build(rows, ordered=False)
        assert store.shredded_count == 2
        true_bits, maybe_bits = store.leaf_exists(("blob",))
        assert true_bits.bit_count() == 1 and maybe_bits == 0
        # Value predicates on the deep column go per-row only where the
        # sidecar is set; Eq on the *other* column stays pure bitset.
        true_bits, maybe_bits = store.leaf_eq(("type",), Atom("Flat"))
        assert true_bits.bit_count() == 1

    def test_deep_tuple_chain_truncates_at_shred_depth(self):
        from repro.store.columnar import DEFAULT_SHRED_DEPTH

        rows = [datum("deep", tup(blob=deep_tuple(DEPTH))),
                flat("flat", type="Flat")]
        store = ColumnStore.build(rows, ordered=False)
        # The chain shreds down to the cap and becomes one opaque
        # entry there — no residue, no recursion-limit blowup.
        assert store.residue_count == 0
        assert store.shredded_count == 2
        assert max(len(path) for path in store.paths) \
            == DEFAULT_SHRED_DEPTH
        capped = ("blob",) + ("a",) * (DEFAULT_SHRED_DEPTH - 1)
        column = store.column(capped)
        assert column.opaque != 0
        # Beyond the cap the columns answer "maybe", never "no".
        beyond = capped + ("a",)
        true_bits, maybe_bits = store.leaf_exists(beyond)
        assert true_bits == 0 and maybe_bits.bit_count() == 1

    def test_shred_depth_is_configurable(self):
        rows = [datum("d", tup(a=tup(b=tup(c=atom(1)))))]
        deep = ColumnStore.build(rows, ordered=False)
        assert deep.column(("a", "b", "c")) is not None
        shallow = ColumnStore.build(rows, ordered=False, shred_depth=2)
        assert shallow.column(("a", "b", "c")) is None
        column = shallow.column(("a", "b"))
        assert column is not None and column.opaque != 0
        # Both depths answer queries identically (the shallow one via
        # the opaque maybe fallback).
        data = DataSet(rows)
        for store in (deep, shallow):
            query = (Query(data).where(Eq("a.b.c", 1))
                     .with_columns(store))
            assert query.run() == query.run(naive=True)
            assert len(query.run()) == 1

    def test_deep_top_level_set_shreds_fieldless(self):
        rows = [datum("deep", deep_set(DEPTH))]
        store = ColumnStore.build(rows, ordered=False)
        assert store.shredded_count == 1

    def test_patched_stays_iterative_at_depth(self):
        store = ColumnStore.build([flat("flat", type="Flat")],
                                  ordered=False)
        patched = store.patched(
            [], [datum("deep", tup(blob=deep_set(DEPTH)))])
        assert patched.shredded_count == 2
