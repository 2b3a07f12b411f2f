"""The attribute-path index contract, served by the column store.

Each column's eq-index and possible-value index map a ``(type,
value)`` to the rows whose path reaches it, with the same existential
spread the conditions use: set members and or-value disjuncts count.
These tests pin that contract through ``Database`` — exact equality,
spread, existence, substring search, up-front builds with
``index_paths``/``create_index``, and maintenance across writes — and
check every answer against the naive scan.
"""

import pytest

from repro.core.builder import cset, data, orv, pset, tup
from repro.core.errors import QueryError
from repro.core.objects import Atom
from repro.store import Database


def entry(marker, **fields):
    return data(marker, tup(**fields))


def small_collection():
    return [
        entry("B80", type="Article", author="Bob"),
        entry("S78", type="Article", author=cset("Sam", "Pat")),
        entry("A78", type="Article", author=orv("Ann", "Tom")),
        entry("T79", type="InProc", author="Tom"),
        entry("N00", title="no type or author"),
    ]


def names(db, condition):
    """Marker names of ``select * where condition``, checked against
    the naive scan."""
    text = f"select * where {condition}"
    result = db.query(text)
    assert result == db.query(text, naive=True)
    return {next(iter(d.markers)).name for d in result}


def column(db, path):
    return db._state.columns().column(tuple(path.split(".")))


class TestPostings:
    def test_equality_candidates_are_exact(self):
        db = Database(small_collection(), index_paths=["type", "author"])
        assert names(db, 'type = "Article"') == {"B80", "S78", "A78"}
        # Answered from the eq-index alone: no row left to check.
        store = db._state.columns()
        assert store.leaf_eq(("type",), Atom("Article"))[1] == 0

    def test_set_elements_spread(self):
        db = Database(small_collection(), index_paths=["author"])
        assert names(db, 'author = "Sam"') == {"S78"}

    def test_or_value_disjuncts_spread(self):
        db = Database(small_collection(), index_paths=["author"])
        # Both the certain Tom and the disputed Ann|Tom, definitely.
        assert names(db, 'author = "Tom"') == {"A78", "T79"}
        assert column(db, "author").possible_eq_bits("Tom")

    def test_exists_candidates(self):
        db = Database(small_collection(), index_paths=["author"])
        assert names(db, "exists author") == {"B80", "S78", "A78", "T79"}

    def test_contains_candidates_scan_the_vocabulary(self):
        db = Database(small_collection(), index_paths=["author"])
        assert names(db, 'author contains "om"') == {"A78", "T79"}

    def test_nested_path_through_set_of_tuples(self):
        datum = entry("X", authors=cset(tup(last="Liu"),
                                        tup(last="Ling")))
        db = Database([datum, entry("Y", authors=cset(tup(last="Ng")))],
                      index_paths=["authors.last"])
        assert names(db, 'authors.last = "Liu"') == {"X"}

    def test_missing_value_yields_empty_frozen_set(self):
        db = Database(small_collection(), index_paths=["type"])
        assert names(db, 'type = "Zine"') == set()
        assert column(db, "type").eq_bits("Zine") == 0

    def test_empty_set_valued_attribute_does_not_exist(self):
        # Spread unwraps an empty set to nothing, matching Exists.
        db = Database([entry("X", tags=cset())], index_paths=["tags"])
        assert names(db, "exists tags") == set()


class TestMaintenance:
    def test_remove_deletes_postings(self):
        collection = small_collection()
        db = Database(collection, index_paths=["author"])
        db.remove(collection[3])          # the certain Tom
        assert names(db, 'author = "Tom"') == {"A78"}

    def test_remove_prunes_empty_vocabulary_entries(self):
        datum = entry("B80", author="Bob")
        db = Database([datum, entry("C81", author="Cy")],
                      index_paths=["author"])
        assert names(db, 'author = "Bob"') == {"B80"}
        db.remove(datum)
        assert names(db, 'author = "Bob"') == set()

    def test_add_path_backfills_existing_data(self):
        db = Database(small_collection(), index_paths=["type"])
        assert column(db, "author")._eq_index is None
        db.create_index("author")
        assert column(db, "author")._eq_index is not None
        assert names(db, 'author = "Bob"') == {"B80"}

    def test_add_path_is_idempotent(self):
        db = Database(small_collection(), index_paths=["author"])
        built = column(db, "author")._eq_index
        db.create_index("author")         # must not rebuild or wipe
        assert column(db, "author")._eq_index is built
        assert names(db, 'author = "Bob"') == {"B80"}

    def test_unindexed_datum_roundtrip_is_noop(self):
        db = Database(index_paths=["author"])
        datum = entry("N", title="nothing relevant")
        db.insert(datum)
        db.remove(datum)
        assert names(db, "exists author") == set()

    def test_selectivity_reports_posting_sizes(self):
        db = Database(small_collection(), index_paths=["type"])
        sizes = {key: bits.bit_count()
                 for key, bits in column(db, "type").eq_index().items()}
        assert sizes[(str, "Article")] == 3
        assert sizes[(str, "InProc")] == 1


class TestValidation:
    def test_empty_path_rejected(self):
        db = Database(small_collection())
        with pytest.raises(QueryError):
            db.create_index("")
        with pytest.raises(QueryError):
            db.create_index("a.")
        with pytest.raises(QueryError):
            Database(small_collection(), index_paths=[""])

    def test_partial_set_elements_spread_too(self):
        db = Database([entry("P", author=pset("Joe"))],
                      index_paths=["author"])
        assert names(db, 'author = "Joe"') == {"P"}
