"""A small textual query language.

Example::

    select title, year
    where type = "Article" and year >= 1980 and not author = "Bob"

Aggregate form::

    select count(*), sum(year) where type = "Article" group by publisher

Grammar::

    query      := "select" select_list ["where" condition]
                  ["group" "by" path]
                  ["order" "by" path ["asc" | "desc"]] ["limit" NUMBER]
    select_list:= "*" | attr ("," attr)* | agg ("," agg)*
    agg        := ("count" | "sum" | "min" | "max" | "collect")
                  "(" ("*" | path) ")"          -- "*" only for count
    condition  := conjunct ("or" conjunct)*
    conjunct   := unary ("and" unary)*
    unary      := "not" unary | "(" condition ")" | predicate
    predicate  := "exists" path
                | path "contains" literal
                | path op literal
    op         := "=" | "!=" | "<" | "<=" | ">" | ">="
    path       := IDENT ("." IDENT)*
    literal    := STRING | NUMBER | "true" | "false"

Keywords are case-insensitive. :func:`parse_query` returns a function
``DataSet -> DataSet`` so the same parsed query can run against several
sets; :func:`run_query` is the one-shot form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.core.data import DataSet
from repro.core.errors import QueryError
from repro.query.aggregates import AggregateSpec
from repro.query.ast import (
    Condition,
    Contains,
    Eq,
    Exists,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    And,
    Query,
)

__all__ = ["QuerySpec", "parse_query_spec", "parse_query", "run_query"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<op><=|>=|!=|=|<|>|\(|\)|,|\*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"select", "where", "and", "or", "not", "exists",
                       "contains", "true", "false", "order", "by",
                       "limit", "desc", "asc", "group",
                       "count", "sum", "min", "max", "collect"})

#: Aggregate-function names double as ordinary attribute names when not
#: followed by ``(`` — ``select count`` projects an attribute, ``select
#: count(*)`` aggregates.
_AGG_KEYWORDS = frozenset({"count", "sum", "min", "max", "collect"})


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QueryError(
                f"unexpected character {text[position]!r} in query")
        kind = match.lastgroup
        value = match.group(0)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(("kw", value.lower()))
        elif kind != "ws":
            tokens.append((kind, value))
        position = match.end()
    tokens.append(("eof", ""))
    return tokens


class _QueryParser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._index = 0

    def _peek(self) -> tuple[str, str]:
        return self._tokens[self._index]

    def _next(self) -> tuple[str, str]:
        token = self._tokens[self._index]
        if token[0] != "eof":
            self._index += 1
        return token

    def _expect_kw(self, word: str) -> None:
        kind, value = self._next()
        if kind != "kw" or value != word:
            raise QueryError(f"expected {word!r}, found {value or 'EOF'!r}")

    def _at_kw(self, word: str) -> bool:
        kind, value = self._peek()
        return kind == "kw" and value == word

    def parse(self) -> tuple:
        self._expect_kw("select")
        projection, aggregates = self._parse_select_list()
        condition = None
        if self._at_kw("where"):
            self._next()
            condition = self._parse_condition()
        group = self._parse_group()
        order = self._parse_order()
        limit = self._parse_limit()
        kind, value = self._peek()
        if kind != "eof":
            raise QueryError(f"trailing input {value!r} after query")
        if group is not None and aggregates is None:
            raise QueryError("'group by' requires aggregates in the "
                             "select list")
        if aggregates is not None and (order is not None
                                       or limit is not None):
            raise QueryError("aggregate queries take no 'order by' or "
                             "'limit'")
        return projection, condition, order, limit, aggregates, group

    def _parse_group(self) -> str | None:
        if not self._at_kw("group"):
            return None
        self._next()
        self._expect_kw("by")
        return self._parse_path()

    def _parse_order(self) -> "tuple[str, bool] | None":
        if not self._at_kw("order"):
            return None
        self._next()
        self._expect_kw("by")
        kind, path = self._next()
        if kind != "word":
            raise QueryError(f"expected a path after 'order by', found "
                             f"{path or 'EOF'!r}")
        descending = False
        if self._at_kw("desc"):
            self._next()
            descending = True
        elif self._at_kw("asc"):
            self._next()
        return path, descending

    def _parse_limit(self) -> int | None:
        if not self._at_kw("limit"):
            return None
        self._next()
        kind, value = self._next()
        if kind != "number" or "." in value:
            raise QueryError(f"expected an integer after 'limit', found "
                             f"{value or 'EOF'!r}")
        count = int(value)
        if count < 0:
            raise QueryError("limit must be non-negative")
        return count

    def _parse_select_list(self) -> tuple:
        kind, value = self._peek()
        if kind == "op" and value == "*":
            self._next()
            return None, None
        attrs: list[str] = []
        aggs: list = []
        while True:
            if self._at_agg():
                aggs.append(self._parse_agg())
            else:
                attrs.append(self._parse_attr())
            if self._peek() != ("op", ","):
                break
            self._next()
        if attrs and aggs:
            raise QueryError("cannot mix attributes and aggregates in "
                             "one select list")
        if aggs:
            return None, tuple(aggs)
        return tuple(attrs), None

    def _at_agg(self) -> bool:
        kind, value = self._peek()
        return (kind == "kw" and value in _AGG_KEYWORDS
                and self._tokens[self._index + 1] == ("op", "("))

    def _parse_agg(self) -> "AggregateSpec":
        _, fn = self._next()
        self._next()  # the "(" _at_agg saw
        if self._peek() == ("op", "*"):
            self._next()
            if fn != "count":
                raise QueryError(f"{fn}(*) is not defined; only count(*)")
            path = None
        else:
            path = self._parse_path()
        if self._next() != ("op", ")"):
            raise QueryError(f"missing ')' after {fn}(...)")
        return AggregateSpec(fn, path)

    def _parse_attr(self) -> str:
        kind, value = self._next()
        if kind == "kw" and value in _AGG_KEYWORDS:
            kind = "word"  # aggregate names double as attribute names
        if kind != "word":
            raise QueryError(f"expected an attribute name, found {value!r}")
        if "." in value:
            raise QueryError(
                f"projection takes top-level attributes, not paths "
                f"({value!r})")
        return value

    def _parse_condition(self) -> Condition:
        left = self._parse_conjunct()
        while self._at_kw("or"):
            self._next()
            left = Or(left, self._parse_conjunct())
        return left

    def _parse_conjunct(self) -> Condition:
        left = self._parse_unary()
        while self._at_kw("and"):
            self._next()
            left = And(left, self._parse_unary())
        return left

    def _parse_unary(self) -> Condition:
        if self._at_kw("not"):
            self._next()
            return Not(self._parse_unary())
        if self._peek() == ("op", "("):
            self._next()
            inner = self._parse_condition()
            if self._next() != ("op", ")"):
                raise QueryError("missing ')'")
            return inner
        return self._parse_predicate()

    def _parse_predicate(self) -> Condition:
        if self._at_kw("exists"):
            self._next()
            return Exists(self._parse_path())
        path = self._parse_path()
        if self._at_kw("contains"):
            self._next()
            return Contains(path, self._parse_literal())
        kind, op = self._next()
        if kind != "op" or op not in ("=", "!=", "<", "<=", ">", ">="):
            raise QueryError(f"expected a comparison operator, found "
                             f"{op or 'EOF'!r}")
        literal = self._parse_literal()
        classes = {"=": Eq, "!=": Ne, "<": Lt, "<=": Le, ">": Gt, ">=": Ge}
        return classes[op](path, literal)

    def _parse_path(self) -> str:
        kind, value = self._next()
        if kind == "kw" and value in _AGG_KEYWORDS:
            kind = "word"  # aggregate names double as attribute names
        if kind != "word":
            raise QueryError(f"expected a path, found {value or 'EOF'!r}")
        return value

    def _parse_literal(self):
        kind, value = self._next()
        if kind == "string":
            return _unescape(value)
        if kind == "number":
            return float(value) if "." in value else int(value)
        if kind == "kw" and value in ("true", "false"):
            return value == "true"
        raise QueryError(f"expected a literal, found {value or 'EOF'!r}")


def _unescape(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


@dataclass(frozen=True)
class QuerySpec:
    """A parsed textual query, reusable across data sets.

    The condition tree is shared between uses, so per-condition memos
    (parsed steps, compiled predicate and bitset program) persist — a
    cached spec re-plans and re-executes without re-walking anything.
    """

    projection: tuple[str, ...] | None
    condition: Condition | None
    order: "tuple[str, bool] | None"
    limit: int | None
    aggregates: "tuple[AggregateSpec, ...] | None" = None
    group: str | None = None

    @property
    def is_aggregate(self) -> bool:
        """Whether this query computes aggregates (its result is a
        ``{label: outcome}`` dict, not a data set)."""
        return self.aggregates is not None

    def query(self, dataset: DataSet, columns: object | None = None, *,
              size: int | None = None) -> Query:
        """Bind the spec to a data set (and optional columnar
        shredding). ``dataset`` may be a lazy callable with ``size``
        its row count (see :class:`Query`)."""
        query = Query(dataset, columns=columns, size=size)
        if self.condition is not None:
            query = query.where(self.condition)
        if self.order is not None:
            query = query.order_by(self.order[0],
                                   descending=self.order[1])
        if self.limit is not None:
            query = query.limit(self.limit)
        if self.projection is not None:
            query = query.select(*self.projection)
        return query

    def run_aggregate(self, dataset: DataSet,
                      columns: object | None = None, *,
                      naive: bool = False,
                      size: int | None = None) -> dict:
        """Execute an aggregate spec: ``{label: outcome}``, or ``{group
        key: {label: outcome}}`` with a ``group by`` clause."""
        if self.aggregates is None:
            raise QueryError("not an aggregate query")
        query = self.query(dataset, columns, size=size)
        if self.group is not None:
            return query.group_aggregate(self.group, *self.aggregates,
                                         naive=naive)
        return query.aggregate(*self.aggregates, naive=naive)


def parse_query_spec(text: str) -> QuerySpec:
    """Parse a textual query into a reusable :class:`QuerySpec`."""
    (projection, condition, order, limit,
     aggregates, group) = _QueryParser(text).parse()
    return QuerySpec(projection=projection, condition=condition,
                     order=order, limit=limit, aggregates=aggregates,
                     group=group)


def parse_query(text: str) -> Callable[[DataSet], "DataSet | dict"]:
    """Compile a textual query into a reusable ``DataSet -> DataSet``.

    An aggregate query compiles to ``DataSet -> dict`` instead (see
    :meth:`QuerySpec.run_aggregate`).
    """
    spec = parse_query_spec(text)
    if spec.is_aggregate:
        return spec.run_aggregate

    def run(dataset: DataSet) -> DataSet:
        return spec.query(dataset).run()

    return run


def run_query(text: str, dataset: DataSet) -> "DataSet | dict":
    """Parse and execute a textual query in one step."""
    return parse_query(text)(dataset)
