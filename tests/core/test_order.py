"""Unit tests for the structural total order and size/depth metrics."""

import pytest

from repro.core.builder import cset, orv, pset, tup
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    Tuple,
)
from repro.core.order import (
    object_depth,
    object_size,
    sort_objects,
    structural_key,
)

SAMPLES = [
    BOTTOM,
    Atom(False), Atom(True), Atom(0), Atom(7), Atom(7.0), Atom(1.5),
    Atom("a"),
    Atom("b"), Atom(""),
    Marker("m1"), Marker("m2"),
    OrValue([Atom(1), Atom(2)]), OrValue([Atom("x"), Marker("y")]),
    PartialSet(), PartialSet([Atom(1)]),
    CompleteSet(), CompleteSet([Atom(1), Atom(2)]),
    Tuple(), Tuple({"a": Atom(1)}), Tuple({"a": Atom(1), "b": Atom(2)}),
]


class TestStructuralKey:
    def test_keys_are_comparable_across_kinds(self):
        keys = [structural_key(s) for s in SAMPLES]
        # sorted() raising would mean keys of different kinds are not
        # mutually comparable.
        assert len(sorted(keys)) == len(keys)

    def test_equal_objects_equal_keys(self):
        assert structural_key(Tuple({"a": Atom(1)})) == structural_key(
            Tuple({"a": Atom(1)}))

    def test_distinct_objects_distinct_keys(self):
        keys = [structural_key(s) for s in SAMPLES]
        assert len(set(keys)) == len(SAMPLES)

    def test_bottom_sorts_first(self):
        assert sort_objects(SAMPLES)[0] is BOTTOM

    def test_bool_and_int_atoms_do_not_collide(self):
        assert structural_key(Atom(True)) != structural_key(Atom(1))

    def test_equal_int_sorts_before_equal_float(self):
        assert structural_key(Atom(5)) < structural_key(Atom(5.0))
        assert structural_key(Atom(4.5)) < structural_key(Atom(5)) \
            < structural_key(Atom(5.5))
        ints_first = [Atom(9), Atom(9.0)]
        assert sort_objects([Atom(9.0), Atom(9)]) == ints_first
        assert sort_objects([Atom(9), Atom(9.0)]) == ints_first

    def test_rejects_non_objects(self):
        with pytest.raises(TypeError):
            structural_key("raw string")

    def test_sort_is_deterministic(self):
        once = sort_objects(reversed(SAMPLES))
        twice = sort_objects(SAMPLES)
        assert once == twice


class TestSizeAndDepth:
    def test_leaves(self):
        assert object_depth(Atom(1)) == 0
        assert object_depth(BOTTOM) == 0
        assert object_size(Marker("m")) == 1

    def test_empty_containers_have_depth_one(self):
        assert object_depth(PartialSet()) == 1
        assert object_depth(Tuple()) == 1
        assert object_size(CompleteSet()) == 1

    def test_nested(self):
        nested = tup(a=pset(tup(b=cset(1))))
        assert object_depth(nested) == 4
        # tuple + pset + tuple + cset + atom
        assert object_size(nested) == 5

    def test_or_value_counts_disjuncts(self):
        assert object_size(orv(1, 2, 3)) == 4
        assert object_depth(orv(1, 2, 3)) == 1
