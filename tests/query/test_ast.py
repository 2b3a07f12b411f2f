"""Tests for conditions and the fluent Query API."""

import pickle

import pytest

from repro.core.builder import cset, data, dataset, orv, pset, tup
from repro.core.data import DataSet
from repro.core.errors import QueryError
from repro.core.objects import Atom
from repro.query.ast import (
    And,
    Contains,
    Eq,
    Exists,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Query,
)
from repro.query.compile import compile_condition
from repro.query.parser import parse_query_spec
from repro.store import Database


def library():
    return dataset(
        ("B80", tup(type="Article", title="Oracle", author="Bob",
                    year=1980)),
        ("S78", tup(type="Article", title="Ingres",
                    authors=cset("Sam", "Pat"), jnl="TODS")),
        ("A78", tup(type="Article", title="Datalog",
                    author=orv("Ann", "Tom"), year=1978)),
        ("T79", tup(type="InProc", title="RDB", author="Tom",
                    conf="PODS", year=1979)),
        ("P00", tup(type="InProc", title="Partial",
                    authors=pset("Joe"), year=2000)),
    )


class TestComparisons:
    def test_eq(self):
        assert Eq("type", "Article").matches(
            tup(type="Article"))
        assert not Eq("type", "Article").matches(tup(type="InProc"))

    def test_eq_through_sets(self):
        assert Eq("authors", "Sam").matches(
            tup(authors=cset("Sam", "Pat")))

    def test_eq_through_or_values(self):
        assert Eq("author", "Ann").matches(tup(author=orv("Ann", "Tom")))
        assert Eq("author", "Tom").matches(tup(author=orv("Ann", "Tom")))

    def test_ne_existential(self):
        assert Ne("author", "Ann").matches(tup(author=orv("Ann", "Tom")))
        assert not Ne("author", "Ann").matches(tup(author="Ann"))

    def test_numeric_comparisons(self):
        obj = tup(year=1980)
        assert Ge("year", 1980).matches(obj)
        assert Le("year", 1980).matches(obj)
        assert Gt("year", 1979).matches(obj)
        assert Lt("year", 1981).matches(obj)
        assert not Gt("year", 1980).matches(obj)

    def test_numeric_mixed_int_float(self):
        assert Gt("year", 1979.5).matches(tup(year=1980))

    def test_string_ordering(self):
        assert Lt("title", "M").matches(tup(title="Datalog"))
        assert not Lt("title", "A").matches(tup(title="Datalog"))

    def test_numeric_against_string_value_no_match(self):
        assert not Ge("year", 1980).matches(tup(year="c. 1980"))

    def test_bad_bound_raises(self):
        with pytest.raises(QueryError):
            Ge("year", True).matches(tup(year=1980))

    def test_contains(self):
        assert Contains("title", "rac").matches(tup(title="Oracle"))
        assert not Contains("title", "zzz").matches(tup(title="Oracle"))

    def test_contains_requires_string(self):
        with pytest.raises(QueryError):
            Contains("year", 19).matches(tup(year=1980))

    def test_exists(self):
        assert Exists("year").matches(tup(year=1980))
        assert not Exists("year").matches(tup(title="x"))


class TestBooleanAlgebra:
    def test_and_or_not_operators(self):
        obj = tup(type="Article", year=1980)
        cond = Eq("type", "Article") & Ge("year", 1980)
        assert cond.matches(obj)
        cond = Eq("type", "InProc") | Ge("year", 1980)
        assert cond.matches(obj)
        assert (~Eq("type", "InProc")).matches(obj)

    def test_not_class(self):
        assert Not(Eq("a", 1)).matches(tup(a=2))


class TestQuery:
    def test_where(self):
        result = Query(library()).where(Eq("type", "Article")).run()
        assert len(result) == 3

    def test_where_chains_conjoin(self):
        result = (Query(library())
                  .where(Eq("type", "Article"))
                  .where(Ge("year", 1980)).run())
        assert len(result) == 1
        assert next(iter(result)).object["title"] == Atom("Oracle")

    def test_select_projects(self):
        result = (Query(library()).where(Eq("type", "InProc"))
                  .select("title", "year").run())
        for datum in result:
            assert set(datum.object.attributes) <= {"title", "year"}

    def test_select_requires_attributes(self):
        with pytest.raises(QueryError):
            Query(library()).select()

    def test_no_condition_returns_all(self):
        assert Query(library()).run() == library()

    def test_count(self):
        assert Query(library()).where(Eq("type", "InProc")).count() == 2

    def test_values(self):
        years = Query(library()).where(
            Eq("type", "Article")).values("year")
        assert Atom(1980) in years and Atom(1978) in years

    def test_query_through_or_value_finds_conflicted_data(self):
        result = Query(library()).where(Eq("author", "Tom")).run()
        markers = {next(iter(d.markers)).name for d in result}
        # Both the certain Tom (T79) and the possible Tom (A78).
        assert markers == {"A78", "T79"}

    def test_query_is_immutable(self):
        base = Query(library())
        narrowed = base.where(Eq("type", "InProc"))
        assert base.count() == 5
        assert narrowed.count() == 2


class TestOrderLimitRows:
    def test_order_by_ascending(self):
        rows = Query(library()).where(Exists("year")) \
            .order_by("year").rows()
        years = [d.object["year"].value for d in rows]
        assert years == sorted(years)

    def test_order_by_descending(self):
        rows = Query(library()).where(Exists("year")) \
            .order_by("year", descending=True).rows()
        years = [d.object["year"].value for d in rows]
        assert years == sorted(years, reverse=True)

    def test_missing_values_sort_last(self):
        rows = Query(library()).order_by("year").rows()
        has_year = ["year" in d.object for d in rows]
        # Once a year-less datum appears, no dated datum follows.
        assert has_year == sorted(has_year, reverse=True)

    def test_order_before_projection(self):
        rows = (Query(library()).where(Exists("year"))
                .order_by("year").select("title").rows())
        assert all(set(d.object.attributes) <= {"title"} for d in rows)
        titles = [d.object["title"].value for d in rows]
        assert titles[0] == "Datalog"  # 1978 first

    def test_limit(self):
        assert len(Query(library()).limit(2).rows()) == 2
        assert Query(library()).limit(0).rows() == []

    def test_limit_after_order(self):
        rows = (Query(library()).where(Exists("year"))
                .order_by("year").limit(1).rows())
        assert rows[0].object["year"] == Atom(1978)

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError):
            Query(library()).limit(-1)

    def test_rows_without_order_is_canonical_and_deterministic(self):
        assert Query(library()).rows() == Query(library()).rows()

    def test_run_still_returns_dataset(self):
        from repro.core.data import DataSet

        result = Query(library()).order_by("year").limit(2).run()
        assert isinstance(result, DataSet)
        assert len(result) == 2

    def test_builder_immutability(self):
        base = Query(library())
        ordered = base.order_by("year").limit(1)
        assert len(base.rows()) == 5
        assert len(ordered.rows()) == 1


class TestGroupBy:
    def test_partition_by_type(self):
        groups = Query(library()).group_by("type")
        assert len(groups[Atom("Article")]) == 3
        assert len(groups[Atom("InProc")]) == 2

    def test_multivalued_attributes_fan_out(self):
        # S78's authors = {Sam, Pat}: the entry lands in both groups.
        groups = Query(library()).group_by("authors")
        assert any(d.markers and next(iter(d.markers)).name == "S78"
                   for d in groups[Atom("Sam")])
        assert any(d.markers and next(iter(d.markers)).name == "S78"
                   for d in groups[Atom("Pat")])

    def test_or_values_fan_out(self):
        groups = Query(library()).group_by("author")
        a78 = {next(iter(d.markers)).name for d in groups[Atom("Ann")]}
        assert "A78" in a78
        tom = {next(iter(d.markers)).name for d in groups[Atom("Tom")]}
        assert tom == {"A78", "T79"}

    def test_missing_values_group_under_bottom(self):
        from repro.core.objects import BOTTOM

        groups = Query(library()).group_by("conf")
        assert len(groups[BOTTOM]) == 4

    def test_group_by_respects_where(self):
        groups = Query(library()).where(
            Eq("type", "Article")).group_by("type")
        assert set(groups) == {Atom("Article")}

    def test_grouping_attribute_may_be_projected_away(self):
        groups = Query(library()).select("title").group_by("type")
        for member in groups[Atom("Article")]:
            assert set(member.object.attributes) <= {"title"}


def make_dataset(count: int = 60) -> DataSet:
    rows = []
    for uid in range(count):
        fields = {"type": "Article" if uid % 2 else "InProc",
                  "title": f"Paper {uid:03d}",
                  "author": f"Author {uid % 7}"}
        if uid % 5:
            fields["year"] = 1970 + (uid % 30)
        rows.append(data(f"m{uid}", tup(**fields)))
    return DataSet(rows)


class TestConditionPickling:
    def test_compiled_condition_still_pickles(self):
        condition = And(Contains("title", "1"), Ge("year", 1980))
        predicate = compile_condition(condition)   # attaches closures
        assert predicate is not None
        clone = pickle.loads(pickle.dumps(condition))
        dataset = make_dataset(20)
        for datum in dataset:
            assert clone.matches(datum.object) == \
                condition.matches(datum.object)

    def test_parsed_spec_condition_pickles_after_planning(self):
        spec = parse_query_spec(
            'select * where title contains "1" and year >= 1980')
        db = Database(make_dataset(20), index_paths=["type"])
        db.query('select * where title contains "1" and year >= 1980')
        clone = pickle.loads(pickle.dumps(spec.condition))
        for datum in db.snapshot():
            assert clone.matches(datum.object) == \
                spec.condition.matches(datum.object)

    def test_memos_are_stripped(self):
        condition = Contains("title", "x")
        compile_condition(condition)
        state = condition.__getstate__()
        assert "_compiled" not in state
        assert all(not key.startswith("_") for key in state)
