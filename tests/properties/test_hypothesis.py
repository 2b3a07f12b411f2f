"""Property-based tests (hypothesis) for the core data structures.

These complement the seeded checkers in test_laws.py with minimized
counterexample search over arbitrary object shapes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import obj
from repro.core.informativeness import less_informative
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    Tuple,
)
from repro.core.operations import difference, intersection, union
from repro.core.order import sort_objects, structural_key
from repro.json_codec import dumps, loads
from repro.text import format_object, parse_object

K = frozenset({"A", "B"})

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

atom_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["a", "b", "ab", ""]),
    st.booleans(),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)

atoms = st.builds(Atom, atom_values)
markers = st.builds(Marker, st.sampled_from(["m1", "m2", "B80"]))
leaves = st.one_of(st.just(BOTTOM), atoms, markers)


def _containers(children):
    labels = st.sampled_from(["A", "B", "C", "D"])
    return st.one_of(
        st.lists(children, min_size=0, max_size=3).map(PartialSet),
        st.lists(children, min_size=0, max_size=3).map(CompleteSet),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: OrValue.of(*items)),
        st.dictionaries(labels, children, max_size=3).map(Tuple),
    )


objects = st.recursive(leaves, _containers, max_leaves=12)
object_pairs = st.tuples(objects, objects)


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------

class TestConstructionInvariants:
    @given(objects)
    def test_objects_are_hashable_and_self_equal(self, candidate):
        assert candidate == candidate
        assert hash(candidate) == hash(candidate)
        assert len({candidate, candidate}) == 1

    @given(st.lists(objects, min_size=2, max_size=4))
    def test_or_value_flattening_is_idempotent(self, disjuncts):
        once = OrValue.of(*disjuncts)
        twice = OrValue.of(once)
        assert once == twice
        if isinstance(once, OrValue):
            assert not any(isinstance(d, OrValue) for d in once.disjuncts)

    @given(objects)
    def test_tuple_drops_bottom_fields(self, value):
        built = Tuple({"X": value})
        if value is BOTTOM:
            assert built == Tuple()
        else:
            assert built.get("X") == value

    @given(st.lists(objects, max_size=4))
    def test_sets_deduplicate(self, elements):
        assert len(CompleteSet(elements)) == len(set(elements))


class TestStructuralOrder:
    @given(object_pairs)
    def test_keys_agree_with_equality(self, pair):
        first, second = pair
        assert (structural_key(first) == structural_key(second)) == (
            first == second)

    @given(st.lists(objects, max_size=6))
    def test_sorting_never_raises_and_is_stable(self, values):
        assert sort_objects(values) == sort_objects(list(reversed(values)))


# ---------------------------------------------------------------------------
# The ⊴ order (Proposition 1)
# ---------------------------------------------------------------------------

class TestLessInformative:
    @given(objects)
    def test_reflexive(self, candidate):
        assert less_informative(candidate, candidate)

    @given(objects)
    def test_bottom_is_least(self, candidate):
        assert less_informative(BOTTOM, candidate)

    @given(object_pairs)
    def test_antisymmetric(self, pair):
        first, second = pair
        if first != second:
            assert not (less_informative(first, second)
                        and less_informative(second, first))

    @given(st.tuples(objects, objects, objects))
    @settings(max_examples=300)
    def test_transitive(self, triple):
        first, second, third = triple
        if less_informative(first, second) and \
                less_informative(second, third):
            assert less_informative(first, third)


# ---------------------------------------------------------------------------
# Operations (Propositions 2 and 3, object level)
# ---------------------------------------------------------------------------

class TestOperationLaws:
    @given(object_pairs)
    def test_union_commutative(self, pair):
        first, second = pair
        assert union(first, second, K) == union(second, first, K)

    @given(object_pairs)
    def test_intersection_commutative(self, pair):
        first, second = pair
        assert intersection(first, second, K) == intersection(
            second, first, K)

    @given(objects)
    def test_union_identity_laws(self, candidate):
        assert union(candidate, candidate, K) == candidate
        assert union(candidate, BOTTOM, K) == candidate
        assert union(BOTTOM, candidate, K) == candidate

    @given(objects)
    def test_intersection_idempotent(self, candidate):
        assert intersection(candidate, candidate, K) == candidate

    @given(object_pairs)
    def test_union_dominates_both_operands(self, pair):
        first, second = pair
        merged = union(first, second, K)
        assert less_informative(first, merged)
        assert less_informative(second, merged)

    @given(objects)
    def test_self_difference_is_empty_or_keyed(self, candidate):
        result = difference(candidate, candidate, K)
        # Non-set, non-tuple objects vanish entirely. Sets keep their
        # kind; self-*compatible* elements cancel, while elements that
        # cannot certify identity (⊥, partial sets) survive or leave a
        # keyed residue — so only the kind is invariant in general.
        if isinstance(candidate, (PartialSet, CompleteSet)):
            assert type(result) is type(candidate)
        elif isinstance(candidate, Tuple):
            assert result is BOTTOM or set(result.attributes) <= \
                set(candidate.attributes)
        else:
            assert result is BOTTOM

    @given(st.lists(atoms, max_size=4))
    def test_self_difference_of_atom_sets_empties(self, elements):
        candidate = CompleteSet(elements)
        assert difference(candidate, candidate, K) == CompleteSet()

    @given(object_pairs)
    def test_difference_of_bottom_takes_nothing(self, pair):
        first, _ = pair
        assert difference(first, BOTTOM, K) == first

    @given(object_pairs)
    def test_operations_are_closed(self, pair):
        from repro.core.objects import SSObject

        first, second = pair
        for operation in (union, intersection, difference):
            assert isinstance(operation(first, second, K), SSObject)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

class TestRoundTrips:
    @given(objects)
    def test_text_round_trip(self, candidate):
        assert parse_object(format_object(candidate)) == candidate

    @given(objects)
    def test_text_pretty_round_trip(self, candidate):
        assert parse_object(format_object(candidate, indent=2)) == candidate

    @given(objects)
    def test_json_round_trip(self, candidate):
        assert loads(dumps(candidate)) == candidate

    @given(objects)
    def test_repr_is_printable(self, candidate):
        assert isinstance(repr(candidate), str)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

class TestBuilderProperties:
    @given(atom_values)
    def test_obj_wraps_scalars(self, value):
        wrapped = obj(value)
        assert isinstance(wrapped, Atom)
        assert wrapped.value == value or (
            isinstance(value, float) and wrapped.value == value)


# ---------------------------------------------------------------------------
# Store: the fast set operations are bit-identical to the naive Definition 12
# ---------------------------------------------------------------------------

data_objects = st.one_of(
    objects,
    st.builds(lambda fields: Tuple(fields),
              st.dictionaries(st.sampled_from(["A", "B", "C"]), objects,
                              max_size=3)),
)


class TestFastOpsEquivalence:
    @given(st.lists(st.tuples(st.sampled_from(["m1", "m2", "m3", "m4"]),
                              data_objects), max_size=6),
           st.lists(st.tuples(st.sampled_from(["n1", "n2", "n3", "n4"]),
                              data_objects), max_size=6))
    @settings(max_examples=200)
    def test_fast_paths_equal_naive(self, left_pairs, right_pairs):
        from repro.core.data import Data, DataSet
        from repro.store.bulk import blocked_union, union_diff
        from repro.store.database import Database
        from repro.store.index import KeyIndex
        from repro.store.ops import indexed_difference, indexed_intersection

        s1 = DataSet(Data(name, obj) for name, obj in left_pairs)
        s2 = DataSet(Data(name, obj) for name, obj in right_pairs)
        expected = s1.union(s2, K)
        # ∪K: the k-way blocked fold, one indexed step, and that step
        # as the store applies it, with and without interning.
        assert blocked_union([s1, s2], K) == expected
        current = set(s1)
        diff = union_diff(current, KeyIndex(current, K), s2)
        assert DataSet((current - set(diff.removed))
                       | set(diff.added)) == expected
        for intern_objects in (True, False):
            database = Database(s1, intern_objects=intern_objects)
            database.merge_in(s2, K)
            assert database.snapshot() == expected
        assert indexed_intersection(s1, s2, K) == s1.intersection(s2, K)
        assert indexed_difference(s1, s2, K) == s1.difference(s2, K)
