"""Union, intersection and difference on objects (Definitions 8-10).

The three operations are all parameterized by a non-empty key set ``K``.
Informally:

* ``union(O1, O2, K)`` gathers *as much information as possible* about an
  entity; where sources genuinely conflict it records the conflict as an
  or-value instead of silently picking a side.
* ``intersection(O1, O2, K)`` keeps the information the sources *agree* on.
* ``difference(O1, O2, K)`` keeps what the first source knows and the
  second does not, preserving the key attributes as the result's identity.

Each public function follows the numbered cases of its definition in the
paper; the case structure is kept visible in the code so it can be audited
clause by clause. DESIGN.md decisions D2 (plain objects coerce to singleton
or-values where the paper's examples require it), D5 (an or-value
difference with no surviving disjunct is ``⊥``) and D6 (``⊥`` element
differences are dropped from set differences) apply here.

Each operation exists twice: ``naive=True`` selects the untouched
definitional code (recursing into the naive ``⊴``/compatibility paths as
well — a fully definitional oracle), while the default path memoizes
results by identity for interned operands and interns its own results so
chained operations stay on shared, cache-friendly structure. The
differential suite asserts both paths produce equal results.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.core.guard import guarded as _guarded
from repro.core.intern import MEMO as _MEMO
from repro.core.intern import intern as _intern_object
from repro.core.intern import memo_put as _memo_put
from repro.core.compatibility import _fast_compatible, compatible
from repro.core.compatibility import check_key
from repro.core.informativeness import (
    _fast_less_informative,
    less_informative,
)
from repro.core.intern import equal as _equal
from repro.core.intern import is_interned as _is_interned
from repro.core.objects import (
    BOTTOM,
    CompleteSet,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
    disjuncts_of,
)

__all__ = ["union", "intersection", "difference"]


@_guarded
def union(first: SSObject, second: SSObject,
          key: Iterable[str], *, naive: bool = False) -> SSObject:
    """Return ``first ∪K second`` (Definition 8)."""
    if naive:
        return _union(first, second, check_key(key))
    return _fast_union(first, second, check_key(key))


@_guarded
def intersection(first: SSObject, second: SSObject,
                 key: Iterable[str], *, naive: bool = False) -> SSObject:
    """Return ``first ∩K second`` (Definition 9)."""
    if naive:
        return _intersection(first, second, check_key(key))
    return _fast_intersection(first, second, check_key(key))


@_guarded
def difference(first: SSObject, second: SSObject,
               key: Iterable[str], *, naive: bool = False) -> SSObject:
    """Return ``first −K second`` (Definition 10)."""
    if naive:
        return _difference(first, second, check_key(key))
    return _fast_difference(first, second, check_key(key))


# ---------------------------------------------------------------------------
# Union (Definition 8)
# ---------------------------------------------------------------------------

def _union(first: SSObject, second: SSObject,
           key: AbstractSet[str]) -> SSObject:
    # (1) O ∪K O = O and O ∪K ⊥ = O (both orientations, by commutativity).
    if first == second:
        return first
    if second is BOTTOM:
        return first
    if first is BOTTOM:
        return second

    # (2) two distinct partial sets merge element-wise by compatibility.
    if isinstance(first, PartialSet) and isinstance(second, PartialSet):
        return PartialSet(
            _merge_elements(first.elements, second.elements, key)
        )

    # (3) a partial set absorbed by a complete set it is ⊴ of; the paper
    # states one orientation, commutativity (Proposition 2) gives the other.
    if (isinstance(first, PartialSet) and isinstance(second, CompleteSet)
            and less_informative(first, second, naive=True)):
        return second
    if (isinstance(second, PartialSet) and isinstance(first, CompleteSet)
            and less_informative(second, first, naive=True)):
        return first

    # (4) compatible tuples combine attribute-wise over all attributes.
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and compatible(first, second, key, naive=True)):
        labels = set(first.attributes) | set(second.attributes)
        return Tuple(
            (label, _union(first.get(label), second.get(label), key))
            for label in labels
        )

    # (5) everything else records a conflict: O1 | O2 (flattened).
    return OrValue.of(first, second)


def _merge_elements(left: frozenset[SSObject], right: frozenset[SSObject],
                    key: AbstractSet[str]) -> list[SSObject]:
    """Element-wise merge used by Definition 8(2).

    Elements with no compatible partner on the other side survive
    unchanged; compatible cross pairs are replaced by their union. An
    element compatible with several partners contributes one union per
    pair (decision D8); set semantics dedups identical results.
    """
    merged: list[SSObject] = []
    for element in left:
        partners = [other for other in right
                    if compatible(element, other, key, naive=True)]
        if not partners:
            merged.append(element)
        else:
            merged.extend(_union(element, other, key) for other in partners)
    for other in right:
        if not any(compatible(element, other, key, naive=True)
                   for element in left):
            merged.append(other)
    return merged


# ---------------------------------------------------------------------------
# Intersection (Definition 9)
# ---------------------------------------------------------------------------

def _intersection(first: SSObject, second: SSObject,
                  key: AbstractSet[str]) -> SSObject:
    # (1) O ∩K O = O.
    if first == second:
        return first

    # (2) or-values keep their common disjuncts. The paper applies this
    # with a plain object on one side (a1 ∩K a1|a2 = a1), so either side
    # coerces to its singleton disjunct set — but only when at least one
    # side really is an or-value, otherwise case 6 applies.
    if isinstance(first, OrValue) or isinstance(second, OrValue):
        common = disjuncts_of(first) & disjuncts_of(second)
        if common:
            return OrValue.of(*common)
        return BOTTOM

    both_sets = isinstance(first, (PartialSet, CompleteSet)) and isinstance(
        second, (PartialSet, CompleteSet))

    # (3) set intersection is a *partial* set when either side is partial:
    # we cannot know the common elements are all of them.
    if both_sets and (isinstance(first, PartialSet)
                      or isinstance(second, PartialSet)):
        return PartialSet(_common_elements(first, second, key))

    # (4) the intersection of two complete sets is complete.
    if both_sets:
        return CompleteSet(_common_elements(first, second, key))

    # (5) compatible tuples intersect attribute-wise over all attributes;
    # attributes whose values share nothing become ⊥ and are dropped by
    # tuple canonicalization.
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and compatible(first, second, key, naive=True)):
        labels = set(first.attributes) | set(second.attributes)
        return Tuple(
            (label, _intersection(first.get(label), second.get(label), key))
            for label in labels
        )

    # (6) nothing in common.
    return BOTTOM


def _common_elements(left: Iterable[SSObject], right: Iterable[SSObject],
                     key: AbstractSet[str]) -> list[SSObject]:
    """Pairwise intersections of compatible elements (Definition 9(3)/(4))."""
    right_elements = list(right)
    common: list[SSObject] = []
    for element in left:
        for other in right_elements:
            if compatible(element, other, key, naive=True):
                common.append(_intersection(element, other, key))
    return common


# ---------------------------------------------------------------------------
# Difference (Definition 10)
# ---------------------------------------------------------------------------

def _difference(first: SSObject, second: SSObject,
                key: AbstractSet[str]) -> SSObject:
    is_set = isinstance(first, (PartialSet, CompleteSet))

    # (5, checked first) compatible tuples: the key attributes keep their
    # first-operand values — they are the result's identity — and every
    # other attribute of the first operand is differenced. Definition 10(5)
    # says "distinct" tuples, but the paper's Example 6 subtracts the two
    # *identical* Oracle entries to ``[type, title]`` rather than ``⊥``, so
    # compatibility (not distinctness) selects this case (decision D11).
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and compatible(first, second, key, naive=True)):
        fields: list[tuple[str, SSObject]] = []
        for label in first.attributes:
            if label in key:
                fields.append((label, first.get(label)))
            else:
                fields.append(
                    (label,
                     _difference(first.get(label), second.get(label), key))
                )
        return Tuple(fields)

    # (1) a non-set object minus itself leaves nothing. (Identical sets are
    # handled by cases 3/4, which the paper does not restrict to distinct
    # operands: {a} −K {a} = {}.)
    if first == second and not is_set:
        return BOTTOM

    # (2) or-values keep the disjuncts absent from the other side; as in
    # intersection, a plain object coerces to a singleton (a1|a2 −K a1 =
    # a2). No surviving disjunct means the information is fully subtracted
    # (decision D5).
    # ``⊥`` takes nothing away (matches the paper's ``a −K ⊥ = a``), even
    # from an or-value that lists ``⊥`` among its alternatives.
    if (isinstance(first, OrValue) or isinstance(second, OrValue)) \
            and not is_set and second is not BOTTOM:
        remaining = disjuncts_of(first) - disjuncts_of(second)
        if remaining:
            return OrValue.of(*remaining)
        return BOTTOM

    second_is_set = isinstance(second, (PartialSet, CompleteSet))

    # (3)/(4) set difference: keep elements with no compatible partner and
    # the element-wise differences of compatible pairs, dropping ⊥ results
    # (decision D6). The result keeps the first operand's openness.
    if is_set and second_is_set:
        survivors = _surviving_elements(first, second, key)
        if isinstance(first, PartialSet):
            return PartialSet(survivors)
        return CompleteSet(survivors)

    # (6) otherwise the second operand takes nothing away.
    return first


def _surviving_elements(left: Iterable[SSObject], right: Iterable[SSObject],
                        key: AbstractSet[str]) -> list[SSObject]:
    """Elements of ``left`` surviving ``right`` (Definition 10(3)/(4))."""
    right_elements = list(right)
    survivors: list[SSObject] = []
    for element in left:
        partners = [other for other in right_elements
                    if compatible(element, other, key, naive=True)]
        if not partners:
            survivors.append(element)
            continue
        for other in partners:
            remainder = _difference(element, other, key)
            if remainder is not BOTTOM:
                survivors.append(remainder)
    return survivors


# ---------------------------------------------------------------------------
# Memoized fast paths
#
# Case-for-case mirrors of the naive bodies above, with three changes:
# equality tests collapse to identity checks for interned operands
# (``_equal``), recursion goes through the memoized ⊴/compatibility fast
# paths, and results for interned operand pairs are themselves interned
# and cached in the identity memo by ``(name, id(first), id(second),
# key)``. Interning the results keeps chained operations (``merge_in``
# traffic) inside the fast regime. ``key`` is always the frozenset the
# public entry points get from ``check_key``.
# ---------------------------------------------------------------------------

def _fast_union(first: SSObject, second: SSObject,
                key: AbstractSet[str]) -> SSObject:
    if _is_interned(first) and _is_interned(second):
        memo_key = ("union", id(first), id(second), key)
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key, _intern_object(
                _fast_union_cases(first, second, key)))
        return cached
    return _fast_union_cases(first, second, key)


def _fast_union_cases(first: SSObject, second: SSObject,
                      key: AbstractSet[str]) -> SSObject:
    # (1) O ∪K O = O and O ∪K ⊥ = O.
    if _equal(first, second):
        return first
    if second is BOTTOM:
        return first
    if first is BOTTOM:
        return second
    # (2) two distinct partial sets merge element-wise by compatibility.
    if isinstance(first, PartialSet) and isinstance(second, PartialSet):
        return PartialSet(
            _fast_merge_elements(first.elements, second.elements, key)
        )
    # (3) a partial set absorbed by a complete set it is ⊴ of.
    if (isinstance(first, PartialSet) and isinstance(second, CompleteSet)
            and _fast_less_informative(first, second)):
        return second
    if (isinstance(second, PartialSet) and isinstance(first, CompleteSet)
            and _fast_less_informative(second, first)):
        return first
    # (4) compatible tuples combine attribute-wise over all attributes.
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and _fast_compatible(first, second, key)):
        labels = set(first.attributes) | set(second.attributes)
        return Tuple(
            (label, _fast_union(first.get(label), second.get(label), key))
            for label in labels
        )
    # (5) everything else records a conflict: O1 | O2 (flattened).
    return OrValue.of(first, second)


def _fast_merge_elements(left: frozenset[SSObject],
                         right: frozenset[SSObject],
                         key: AbstractSet[str]) -> list[SSObject]:
    merged: list[SSObject] = []
    for element in left:
        partners = [other for other in right
                    if _fast_compatible(element, other, key)]
        if not partners:
            merged.append(element)
        else:
            merged.extend(_fast_union(element, other, key)
                          for other in partners)
    for other in right:
        if not any(_fast_compatible(element, other, key)
                   for element in left):
            merged.append(other)
    return merged


def _fast_intersection(first: SSObject, second: SSObject,
                       key: AbstractSet[str]) -> SSObject:
    if _is_interned(first) and _is_interned(second):
        memo_key = ("intersection", id(first), id(second), key)
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key, _intern_object(
                _fast_intersection_cases(first, second, key)))
        return cached
    return _fast_intersection_cases(first, second, key)


def _fast_intersection_cases(first: SSObject, second: SSObject,
                             key: AbstractSet[str]) -> SSObject:
    # (1) O ∩K O = O.
    if _equal(first, second):
        return first
    # (2) or-values keep their common disjuncts.
    if isinstance(first, OrValue) or isinstance(second, OrValue):
        common = disjuncts_of(first) & disjuncts_of(second)
        if common:
            return OrValue.of(*common)
        return BOTTOM
    both_sets = isinstance(first, (PartialSet, CompleteSet)) and isinstance(
        second, (PartialSet, CompleteSet))
    # (3) set intersection is a *partial* set when either side is partial.
    if both_sets and (isinstance(first, PartialSet)
                      or isinstance(second, PartialSet)):
        return PartialSet(_fast_common_elements(first, second, key))
    # (4) the intersection of two complete sets is complete.
    if both_sets:
        return CompleteSet(_fast_common_elements(first, second, key))
    # (5) compatible tuples intersect attribute-wise over all attributes.
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and _fast_compatible(first, second, key)):
        labels = set(first.attributes) | set(second.attributes)
        return Tuple(
            (label,
             _fast_intersection(first.get(label), second.get(label), key))
            for label in labels
        )
    # (6) nothing in common.
    return BOTTOM


def _fast_common_elements(left: Iterable[SSObject],
                          right: Iterable[SSObject],
                          key: AbstractSet[str]) -> list[SSObject]:
    right_elements = list(right)
    common: list[SSObject] = []
    for element in left:
        for other in right_elements:
            if _fast_compatible(element, other, key):
                common.append(_fast_intersection(element, other, key))
    return common


def _fast_difference(first: SSObject, second: SSObject,
                     key: AbstractSet[str]) -> SSObject:
    if _is_interned(first) and _is_interned(second):
        memo_key = ("difference", id(first), id(second), key)
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key, _intern_object(
                _fast_difference_cases(first, second, key)))
        return cached
    return _fast_difference_cases(first, second, key)


def _fast_difference_cases(first: SSObject, second: SSObject,
                           key: AbstractSet[str]) -> SSObject:
    is_set = isinstance(first, (PartialSet, CompleteSet))
    # (5, checked first) compatible tuples keep their key attributes.
    if (isinstance(first, Tuple) and isinstance(second, Tuple)
            and _fast_compatible(first, second, key)):
        fields: list[tuple[str, SSObject]] = []
        for label in first.attributes:
            if label in key:
                fields.append((label, first.get(label)))
            else:
                fields.append(
                    (label,
                     _fast_difference(first.get(label), second.get(label),
                                      key))
                )
        return Tuple(fields)
    # (1) a non-set object minus itself leaves nothing.
    if not is_set and _equal(first, second):
        return BOTTOM
    # (2) or-values keep the disjuncts absent from the other side.
    if (isinstance(first, OrValue) or isinstance(second, OrValue)) \
            and not is_set and second is not BOTTOM:
        remaining = disjuncts_of(first) - disjuncts_of(second)
        if remaining:
            return OrValue.of(*remaining)
        return BOTTOM
    second_is_set = isinstance(second, (PartialSet, CompleteSet))
    # (3)/(4) set difference keeps the first operand's openness.
    if is_set and second_is_set:
        survivors = _fast_surviving_elements(first, second, key)
        if isinstance(first, PartialSet):
            return PartialSet(survivors)
        return CompleteSet(survivors)
    # (6) otherwise the second operand takes nothing away.
    return first


def _fast_surviving_elements(left: Iterable[SSObject],
                             right: Iterable[SSObject],
                             key: AbstractSet[str]) -> list[SSObject]:
    right_elements = list(right)
    survivors: list[SSObject] = []
    for element in left:
        partners = [other for other in right_elements
                    if _fast_compatible(element, other, key)]
        if not partners:
            survivors.append(element)
            continue
        for other in partners:
            remainder = _fast_difference(element, other, key)
            if remainder is not BOTTOM:
                survivors.append(remainder)
    return survivors
