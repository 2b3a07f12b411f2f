"""Differential oracle suite: memoized fast paths vs definitional code.

Every cached predicate and operation (``⊴``, key-compatibility, ``∪K``,
``∩K``, ``−K``) exists twice: the default path memoizes by identity over
hash-consed operands and interns its results, while ``naive=True`` runs
the untouched definitional code — recursing into the naive versions of
everything it uses, so it is a fully definitional oracle.

This suite drives both paths over the same Hypothesis-generated inputs
(≥500 cases per operation) and asserts the results are identical:

* on the *raw* (un-interned) operands — the fast path without memo hits;
* on the *interned* operands — the memoized fast path, twice, so the
  second call answers from the memo and must still agree;
* at the ``Data`` / ``DataSet`` level over seeded rich generators.

Any divergence is a soundness bug in the caching layer, not a modelling
question — which is exactly why the naive path must never be "fixed" to
match the fast one (see DESIGN.md).
"""

import importlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compatibility import compatible
from repro.core.data import DataSet
from repro.core.informativeness import (
    dataset_less_informative,
    less_informative,
)
from repro.core.intern import (
    MEMO,
    clear_pool,
    intern,
    intern_data,
    is_interned,
)
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
from repro.properties.generators import ObjectGenerator

K = frozenset({"A", "B"})

# Same strategy shape as test_hypothesis.py: small pools so collisions,
# compatibility and ⊴ relationships actually occur.
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

CASES = settings(max_examples=500, deadline=None)


def _assert_agreement(operation, first, second):
    """Oracle vs fast path on raw and interned operands."""
    oracle = operation(first, second, naive=True)
    assert operation(first, second) == oracle
    canonical_first, canonical_second = intern(first), intern(second)
    fast = operation(canonical_first, canonical_second)
    assert fast == oracle
    # Second call answers from the memo and must still agree.
    assert operation(canonical_first, canonical_second) == fast


class TestObjectDifferential:
    @CASES
    @given(object_pairs)
    def test_less_informative(self, pair):
        _assert_agreement(
            lambda a, b, **kw: less_informative(a, b, **kw), *pair)

    @CASES
    @given(object_pairs)
    def test_compatible_is_oracle_equal_and_symmetric(self, pair):
        first, second = pair
        _assert_agreement(
            lambda a, b, **kw: compatible(a, b, K, **kw), first, second)
        # The symmetric memo key must never break Definition 6 symmetry.
        canonical_first, canonical_second = intern(first), intern(second)
        assert compatible(canonical_first, canonical_second, K) == \
            compatible(canonical_second, canonical_first, K)

    @CASES
    @given(object_pairs)
    def test_union(self, pair):
        _assert_agreement(
            lambda a, b, **kw: union(a, b, K, **kw), *pair)

    @CASES
    @given(object_pairs)
    def test_intersection(self, pair):
        _assert_agreement(
            lambda a, b, **kw: intersection(a, b, K, **kw), *pair)

    @CASES
    @given(object_pairs)
    def test_difference(self, pair):
        _assert_agreement(
            lambda a, b, **kw: difference(a, b, K, **kw), *pair)


class TestTinyMemoCap:
    """The same agreement with a memo that empties every few inserts,
    so clears land inside the recursive computations."""

    CAP = 3
    OPERATIONS = (
        less_informative,
        lambda a, b, **kw: compatible(a, b, K, **kw),
        lambda a, b, **kw: union(a, b, K, **kw),
        lambda a, b, **kw: intersection(a, b, K, **kw),
        lambda a, b, **kw: difference(a, b, K, **kw),
    )

    @settings(max_examples=300, deadline=None)
    @given(object_pairs)
    def test_operations_agree_under_a_tiny_cap(self, pair):
        module = importlib.import_module("repro.core.intern")
        clear_pool()
        with mock.patch.object(module, "MEMO_CAP", self.CAP):
            for operation in self.OPERATIONS:
                _assert_agreement(operation, *pair)
                assert len(MEMO) <= self.CAP


class TestFastPathRegime:
    @given(object_pairs)
    def test_fast_operations_return_interned_results(self, pair):
        # Chained operations must stay in the fast regime: the result of
        # a fast operation over interned operands is itself interned.
        first, second = intern(pair[0]), intern(pair[1])
        for operation in (union, intersection, difference):
            assert is_interned(operation(first, second, K))

    @given(object_pairs)
    def test_memoized_operations_are_referentially_stable(self, pair):
        first, second = intern(pair[0]), intern(pair[1])
        for operation in (union, intersection, difference):
            assert operation(first, second, K) is \
                operation(first, second, K)


class TestDatasetDifferential:
    """Seeded rich-generator data sets through Definition 12 both ways."""

    def _sources(self, seed):
        generator = ObjectGenerator(seed=seed, rich=True)
        raw_first = generator.dataset(6)
        raw_second = generator.dataset(6)
        interned_first = DataSet(intern_data(d) for d in raw_first)
        interned_second = DataSet(intern_data(d) for d in raw_second)
        return raw_first, raw_second, interned_first, interned_second

    def test_dataset_operations_match_oracle(self):
        for seed in range(30):
            raw_1, raw_2, canon_1, canon_2 = self._sources(seed)
            for name in ("union", "intersection", "difference"):
                oracle = getattr(raw_1, name)(raw_2, K, naive=True)
                assert getattr(raw_1, name)(raw_2, K) == oracle, \
                    (seed, name)
                assert getattr(canon_1, name)(canon_2, K) == oracle, \
                    (seed, name)

    def test_dataset_order_matches_oracle(self):
        for seed in range(30):
            raw_1, raw_2, canon_1, canon_2 = self._sources(seed)
            merged = canon_1.union(canon_2, K)
            for left, right in ((canon_1, merged), (canon_2, merged),
                                (canon_1, canon_2)):
                oracle = dataset_less_informative(left, right, naive=True)
                assert dataset_less_informative(left, right) == oracle, \
                    seed
