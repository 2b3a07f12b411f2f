"""Unit tests for joins, aggregates and their textual/plan surfaces."""

import pytest

from repro.core.builder import bottom, cset, dataset, orv, pset, tup
from repro.core.errors import QueryError
from repro.core.objects import Marker
from repro.query import (
    Bounds,
    Collect,
    Count,
    Eq,
    Exists,
    Ge,
    JoinQuery,
    Max,
    Min,
    Query,
    Sum,
)
from repro.query.parser import parse_query_spec, run_query
from repro.store import ColumnStore
from tests.query.test_ast import library


def uncertain():
    return dataset(
        ("U1", tup(year=orv(1, 2))),
        ("U2", tup(year=3)),
        ("U3", tup(year=pset(bottom))),
    )


class TestAggregates:
    def test_plain_aggregates(self):
        result = Query(library()).aggregate(
            Count(), Count("year"), Sum("year"), Min("year"),
            Max("year"))
        assert result == {"count(*)": 5, "count(year)": 4,
                          "sum(year)": 7937, "min(year)": 1978,
                          "max(year)": 2000}

    def test_condition_restricts_rows(self):
        result = Query(library()).where(Ge("year", 1980)).aggregate(
            n=Count())
        assert result == {"n": 2}

    def test_collect_spans_or_values(self):
        result = Query(library()).aggregate(Collect("author"))
        values = result["collect(author)"]
        assert [v.value for v in values] == ["Ann", "Bob", "Tom"]

    def test_or_values_produce_or_results(self):
        result = Query(uncertain()).aggregate(
            Sum("year"), Min("year"), Max("year"))
        assert str(result["sum(year)"]) == "4|5"
        assert str(result["min(year)"]) == "1|2"
        assert result["max(year)"] == 3

    def test_group_aggregate(self):
        result = Query(library()).group_aggregate(
            "type", Count(), Min("year"))
        rendered = {str(key): value for key, value in result.items()}
        assert rendered == {
            '"Article"': {"count(*)": 3, "min(year)": 1978},
            '"InProc"': {"count(*)": 2, "min(year)": 1979},
        }

    def test_naive_oracle_agrees(self):
        query = Query(library()).where(Exists("year"))
        aggs = dict(n=Count(), lo=Min("year"), hi=Max("year"))
        assert query.aggregate(**aggs) == query.aggregate(**aggs,
                                                          naive=True)

    def test_bounds_render_as_interval(self):
        assert repr(Bounds(1, 3)) == "[1, 3]"


class TestAggregateGrammar:
    def test_textual_aggregate(self):
        result = run_query(
            "select count(*), min(year) where year >= 1979", library())
        assert result == {"count(*)": 3, "min(year)": 1979}

    def test_textual_group_by(self):
        result = run_query("select count(*) group by type", library())
        assert {str(k): v for k, v in result.items()} == {
            '"Article"': {"count(*)": 3},
            '"InProc"': {"count(*)": 2},
        }

    def test_agg_keywords_remain_valid_attributes(self):
        # 'count' as an attribute name, not a call.
        data = dataset(("C1", tup(count=7)))
        assert run_query("select * where count = 7", data) == data

    def test_star_only_for_count(self):
        with pytest.raises(QueryError):
            parse_query_spec("select sum(*)")

    def test_no_mixing_attrs_and_aggs(self):
        with pytest.raises(QueryError):
            parse_query_spec("select title, count(*)")

    def test_group_requires_aggregates(self):
        with pytest.raises(QueryError):
            parse_query_spec("select title group by type")

    def test_aggregates_reject_order_and_limit(self):
        with pytest.raises(QueryError):
            parse_query_spec("select count(*) order by year")
        with pytest.raises(QueryError):
            parse_query_spec("select count(*) limit 3")


def join_inputs():
    left = dataset(
        ("L1", tup(title="A", year=1)),
        ("L2", tup(title=orv("A", "B"), year=2)),
        ("L3", tup(title="C", year=3)),
    )
    right = dataset(
        ("R1", tup(title="A", score=10)),
        ("R2", tup(title="B", score=20)),
        ("R3", tup(title=pset(bottom), score=30)),
    )
    return left, right


class TestJoins:
    def test_definite_and_maybe_pairs(self):
        left, right = join_inputs()
        rows = Query(left).join(right, on="title").rows()
        pairs = [(str(row.left.marker), str(row.right.marker), row.maybe)
                 for row in rows]
        assert pairs == [("L1", "R1", False), ("L2", "R1", True),
                         ("L2", "R2", True)]

    def test_count_bounds_cover_maybe_rows(self):
        left, right = join_inputs()
        join = Query(left).join(right, on="title")
        assert join.count() == Bounds(1, 3)

    def test_set_keys_join_definitely(self):
        left = dataset(("L1", tup(k=cset("a", "b"))))
        right = dataset(("R1", tup(k="b")))
        rows = Query(left).join(right, on="k").rows()
        assert len(rows) == 1 and not rows[0].maybe

    def test_multi_path_join_verifies_every_path(self):
        left = dataset(("L1", tup(a="x", b="y")),
                       ("L2", tup(a="x", b="z")))
        right = dataset(("R1", tup(a="x", b="y")))
        rows = Query(left).join(right, on=("a", "b")).rows()
        assert [str(row.left.marker) for row in rows] == ["L1"]

    def test_side_conditions_select_inputs(self):
        left, right = join_inputs()
        join = JoinQuery(Query(left).where(Ge("year", 2)),
                         Query(right).where(Exists("score")), "title")
        pairs = [(str(row.left.marker), str(row.right.marker))
                 for row in join.rows()]
        assert pairs == [("L2", "R1"), ("L2", "R2")]

    def test_join_matches_nested_loop(self):
        left, right = join_inputs()
        join = Query(left).join(right, on="title")
        assert join.rows() == join.rows(naive=True)

    def test_key_memo_is_bounded(self, monkeypatch):
        """The identity-keyed join-key memo is an LRU: a join touching
        far more interned rows than the capacity never grows past it
        (before the cap it grew without limit for the pool's life)."""
        from repro.core.intern import intern_dataset
        from repro.query import join as join_mod
        from repro.store.cache import LRUCache

        capacity = 64
        memo = LRUCache(capacity)
        monkeypatch.setattr(join_mod, "_KEY_MEMO", memo)
        left = intern_dataset(dataset(
            *[(f"L{i}", tup(k=f"k{i % 50}", n=i)) for i in range(200)]))
        right = intern_dataset(dataset(
            *[(f"R{i}", tup(k=f"k{i % 50}")) for i in range(200)]))
        rows = Query(left).join(right, on="k").rows()
        assert len(rows) == 4 * 200
        assert 0 < len(memo) <= capacity
        assert join_mod._KEY_MEMO is memo  # restored by monkeypatch

    def test_key_memo_clears_with_intern_pool(self):
        from repro.core.intern import clear_pool, intern_dataset
        from repro.query import join as join_mod

        left = intern_dataset(dataset(("L1", tup(k="a"))))
        right = intern_dataset(dataset(("R1", tup(k="a"))))
        Query(left).join(right, on="k").rows()
        assert len(join_mod._KEY_MEMO) > 0
        clear_pool()
        assert len(join_mod._KEY_MEMO) == 0


def titled(size):
    """``size`` rows with unique titles, shredded; ``year`` and
    ``band`` each select a tenth of the rows, and one row in a hundred
    is in both selections."""
    data = dataset(*[(f"D{i:05d}",
                      tup(title=f"title {i}", year=i % 10,
                          band=i // 10 % 10))
                     for i in range(size)])
    return data, ColumnStore.build(data)


class TestJoinCost:
    """The columnar build costs the selected rows, not the key column's
    distinct values: a join neither builds the key column's eq-index
    nor decodes one bitset per key."""

    def test_build_follows_the_selected_rows(self, monkeypatch):
        from repro.store import columnar

        calls = []
        original = columnar.bit_positions
        monkeypatch.setattr(columnar, "bit_positions",
                            lambda bits: calls.append(bits)
                            or original(bits))
        counts = []
        for size in (200, 2000):
            data, store = titled(size)
            join = JoinQuery(
                Query(data).where(Eq("year", 3)).with_columns(store),
                Query(data).where(Eq("band", 3)).with_columns(store),
                "title")
            calls.clear()
            rows = join.rows()
            counts.append(len(calls))
            assert len(rows) == size // 100
            assert rows == join.rows(naive=True)
            assert store.column(("title",))._eq_index is None
        assert counts[0] == counts[1]
        assert join.explain().estimated_pairs is not None

    def test_explain_reports_the_side_rows_hashes(self):
        """The build side is the smaller *selection*: a side whose plan
        estimate is inflated by maybe-rows that fail their check still
        builds, and ``explain`` says so."""
        left = dataset(("L0", tup(title="t0", ref=1)),
                       *[(f"L{i}", tup(title=f"t{i}",
                                       ref=orv(Marker("m"), 5)))
                         for i in range(1, 11)])
        right = dataset(*[(f"R{i}", tup(title=f"t{i}")) for i in range(3)])
        join = JoinQuery(
            Query(left).where(Eq("ref", 1)).with_columns(
                ColumnStore.build(left)),
            Query(right).where(Exists("title")).with_columns(
                ColumnStore.build(right)),
            "title")
        plan = join.explain(analyze=True)
        assert plan.estimated_left > plan.estimated_right
        assert (plan.actual_left, plan.actual_right) == (1, 3)
        assert plan.build == "left"
        assert plan.actual_pairs == len(join.rows()) == 1


class TestPlanRendering:
    def test_aggregate_plan_describe(self):
        query = Query(library()).where(Ge("year", 1979))
        plan = query.explain_aggregate(
            {"count(*)": Count(), "min(year)": Min("year")},
            group="type", analyze=True)
        text = plan.describe()
        assert "aggregate[" in text
        assert "count(*), min(year) group by type" in text
        assert "actual rows: 3" in text
        assert "actual groups: 2" in text

    def test_join_plan_describe(self):
        left, right = join_inputs()
        plan = Query(left).join(right, on="title").explain(analyze=True)
        text = plan.describe()
        assert text.startswith("join[hash] on title (build=")
        assert "left:" in text and "right:" in text
        assert "estimated pairs" in text
        assert "actual pairs: 3 (2 maybe)" in text
