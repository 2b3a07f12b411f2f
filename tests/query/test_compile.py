"""Compiled condition predicates agree with the definitional matches."""

import pytest

from repro.core.builder import cset, orv, pset, tup
from repro.core.errors import QueryError
from repro.core.objects import BOTTOM, Atom
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
    Or,
)
from repro.query.compile import compile_condition, nnf

OBJECTS = [
    tup(type="Article", title="Oracle", author="Bob", year=1980),
    tup(type="Article", title="Ingres", authors=cset("Sam", "Pat")),
    tup(type="Article", title="Datalog", author=orv("Ann", "Tom"),
        year=1978),
    tup(type="InProc", title="RDB", author="Tom", year=1979),
    tup(type="InProc", title="Partial", authors=pset("Joe"),
        year=2000),
    tup(title="Untyped", year=1990.5),
    tup(type="Article", flags=cset(True, False)),
    tup(nested=tup(inner=orv("x", "y"))),
    tup(empty=cset()),
    Atom("not a tuple"),
]

CONDITIONS = [
    Eq("type", "Article"),
    Eq("author", "Tom"),
    Eq("authors", "Sam"),
    Eq("empty", cset()),
    Ne("author", "Ann"),
    Lt("year", 1980),
    Le("year", 1979),
    Gt("year", 1979),
    Ge("year", 1980),
    Gt("year", 1979.5),
    Lt("title", "M"),
    Contains("title", "a"),
    Exists("year"),
    Exists("nested.inner"),
    Exists("empty"),
    Not(Eq("type", "Article")),
    Not(Not(Exists("year"))),
    And(Eq("type", "Article"), Ge("year", 1978)),
    Or(Eq("type", "InProc"), Contains("title", "log")),
    Not(And(Eq("type", "Article"), Ge("year", 1979))),
    Not(Or(Exists("author"), Exists("authors"))),
    And(Not(Eq("author", "Tom")), Or(Exists("year"),
                                     Eq("type", "InProc"))),
]


@pytest.mark.parametrize("condition", CONDITIONS,
                         ids=[repr(c) for c in CONDITIONS])
def test_compiled_agrees_with_matches(condition):
    predicate = compile_condition(condition)
    for obj in OBJECTS:
        assert predicate(obj) == condition.matches(obj), (condition, obj)


def test_compiled_predicate_is_cached_on_the_condition():
    condition = Eq("type", "Article")
    assert compile_condition(condition) is compile_condition(condition)


def test_bad_ordered_bound_raises_at_compile_time():
    with pytest.raises(QueryError):
        compile_condition(Ge("year", True))
    with pytest.raises(QueryError):
        compile_condition(Lt("year", cset()))


def test_contains_non_string_raises_at_compile_time():
    with pytest.raises(QueryError):
        compile_condition(Contains("year", 19))


def test_nnf_pushes_negation_to_leaves():
    rewritten = nnf(Not(And(Eq("a", 1), Or(Eq("b", 2), Not(Eq("c", 3))))))

    def only_leaf_nots(condition):
        if isinstance(condition, Not):
            return not isinstance(condition.inner, (And, Or, Not))
        if isinstance(condition, (And, Or)):
            return (only_leaf_nots(condition.left)
                    and only_leaf_nots(condition.right))
        return True

    assert only_leaf_nots(rewritten)
    # NNF preserves evaluation.
    for obj in (tup(a=1, b=2, c=3), tup(a=1, b=9, c=3), tup(a=2),
                tup(b=2, c=4)):
        assert rewritten.matches(obj) == Not(
            And(Eq("a", 1), Or(Eq("b", 2), Not(Eq("c", 3))))).matches(obj)


def test_custom_condition_subclass_falls_back_to_matches():
    from repro.query.ast import Condition

    class Always(Condition):
        def matches(self, obj):
            return True

    assert compile_condition(Always())(tup(a=1)) is True


def test_bottom_reaching_paths_never_match():
    # An attribute bound to ⊥ is canonicalized away, so the path
    # reaches nothing; no leaf kind may match it.
    obj = tup(a=BOTTOM)
    for condition in (Eq("a", 1), Exists("a"), Ne("a", 1),
                      Contains("a", "x"), Ge("a", 0)):
        assert compile_condition(condition)(obj) is False
        assert condition.matches(obj) is False
