"""The *less informative* partial order ``⊴`` (Definitions 3-5).

``O1 ⊴ O2`` expresses that ``O1`` is part of — carries no more information
than — ``O2``. The paper uses the order to state when two objects can be
manipulated and to phrase the semantic properties of the operations
(Propositions 1, 3 and 4). Proposition 1 claims ``⊴`` is a partial order;
:mod:`repro.properties.laws` verifies reflexivity, antisymmetry and
transitivity over random samples, and the hypothesis suite does the same
with minimized counterexample search.

Definition 3, case by case:

1. ``O1 = O2``;
2. ``O1 = ⊥``;
3. or-values: the disjuncts of ``O1`` are a subset of the disjuncts of
   ``O2`` (set-wise reading, decision D2 — this also covers the paper's
   ``a1 ⊴ a1|a2`` where the left side is a plain object);
4. ``O1`` a partial set, ``O2`` a partial or complete set, and every
   element of ``O1 − O2`` is ``⊴`` some element of ``O2 − O1``;
5. tuples: every attribute of ``O1`` is ``⊴`` the same attribute of
   ``O2`` (absent attributes read as ``⊥``, so ``O2`` may add attributes).

Two implementations live side by side. The *naive* one
(``less_informative(..., naive=True)``) is the untouched definitional
code and serves as the reference oracle. The default *fast* path mirrors
the same cases but short-circuits on identity and memoizes results by
``id()`` for interned operands (:mod:`repro.core.intern`), making
repeated checks over shared substructure O(1) cache hits. The
differential suite (``tests/properties/test_differential.py``) asserts
the two paths agree on generated inputs.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.guard import guarded as _guarded
from repro.core.intern import MEMO as _MEMO
from repro.core.intern import equal as _equal
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.objects import (
    BOTTOM,
    CompleteSet,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
    disjuncts_of,
)


@_guarded
def less_informative(first: SSObject, second: SSObject, *,
                     naive: bool = False) -> bool:
    """Return ``True`` iff ``first ⊴ second`` (Definition 3).

    ``naive=True`` runs the definitional reference implementation with no
    caching — the oracle the memoized default is tested against.
    """
    if naive:
        return _naive_less_informative(first, second)
    return _fast_less_informative(first, second)


# ---------------------------------------------------------------------------
# Naive reference implementation (the definitional oracle)
# ---------------------------------------------------------------------------

def _naive_less_informative(first: SSObject, second: SSObject) -> bool:
    if first == second:
        return True
    if first is BOTTOM:
        return True
    if isinstance(second, OrValue):
        if isinstance(first, OrValue):
            # Case 3, set-wise: O1's disjuncts all appear verbatim in O2.
            if first.disjuncts <= second.disjuncts:
                return True
        # A non-or object is ⊴ an or-value when it is ⊴ some disjunct
        # (witness reading of case 3's m = 1 degenerate form). Literal
        # membership alone would break transitivity — ⟨⟩ ⊴ ⟨a⟩ ⊴ ⟨a⟩|b
        # but ⟨⟩ ∉ {⟨a⟩, b} — while the witness rule keeps ⊴ a partial
        # order and validates Proposition 3 (see DESIGN.md, D2).
        elif any(_naive_less_informative(first, disjunct)
                 for disjunct in second.disjuncts):
            return True
    if isinstance(first, PartialSet) and isinstance(
            second, (PartialSet, CompleteSet)):
        return _set_less_informative(first.elements, second.elements)
    if isinstance(first, Tuple) and isinstance(second, Tuple):
        return all(
            _naive_less_informative(value, second.get(label))
            for label, value in first.items()
        )
    return False


def _set_less_informative(first: frozenset[SSObject],
                          second: frozenset[SSObject]) -> bool:
    """Case 4 of Definition 3, shared with Definition 5.

    Elements common to both sides need no witness; each element only on the
    left must be dominated by some element only on the right.
    """
    only_left = first - second
    only_right = second - first
    return all(
        any(_naive_less_informative(left, right) for right in only_right)
        for left in only_left
    )


# ---------------------------------------------------------------------------
# Memoized fast path
# ---------------------------------------------------------------------------

def _fast_less_informative(first: SSObject, second: SSObject) -> bool:
    if first is second or first is BOTTOM:
        return True
    if _is_interned(first) and _is_interned(second):
        key = ("less_informative", id(first), id(second))
        cached = _MEMO.get(key)
        if cached is None:
            cached = _memo_put(key, _fast_li_cases(first, second))
        return cached
    return _fast_li_cases(first, second)


def _fast_li_cases(first: SSObject, second: SSObject) -> bool:
    # Mirrors _naive_less_informative case for case; ``_equal`` collapses
    # to an identity check when both operands are interned.
    if _equal(first, second):
        return True
    if isinstance(second, OrValue):
        if isinstance(first, OrValue):
            if first.disjuncts <= second.disjuncts:
                return True
        elif any(_fast_less_informative(first, disjunct)
                 for disjunct in second.disjuncts):
            return True
    if isinstance(first, PartialSet) and isinstance(
            second, (PartialSet, CompleteSet)):
        only_left = first.elements - second.elements
        only_right = second.elements - first.elements
        return all(
            any(_fast_less_informative(left, right) for right in only_right)
            for left in only_left
        )
    if isinstance(first, Tuple) and isinstance(second, Tuple):
        return all(
            _fast_less_informative(value, second.get(label))
            for label, value in first.items()
        )
    return False


def strictly_less_informative(first: SSObject, second: SSObject, *,
                              naive: bool = False) -> bool:
    """Return ``True`` iff ``first ⊴ second`` and ``first ≠ second``."""
    return first != second and less_informative(first, second, naive=naive)


def comparable(first: SSObject, second: SSObject, *,
               naive: bool = False) -> bool:
    """Return ``True`` iff the two objects are ordered either way by ``⊴``."""
    return (less_informative(first, second, naive=naive)
            or less_informative(second, first, naive=naive))


def maximal_elements(objects: Iterable[SSObject]) -> list[SSObject]:
    """The ⊴-maximal objects of a collection, in canonical order.

    An object strictly below another carries no information of its own;
    dropping it is lossless. Pairwise comparison is quadratic — intended
    for de-duplication of result sets, not bulk data.
    """
    from repro.core.order import sort_objects

    candidates = list(dict.fromkeys(objects))
    maximal = [
        candidate for candidate in candidates
        if not any(strictly_less_informative(candidate, other)
                   for other in candidates)
    ]
    return sort_objects(maximal)


def data_less_informative(first: "Data", second: "Data", *,
                          naive: bool = False) -> bool:
    """Definition 4: ``m1:O1 ⊴ m2:O2`` iff ``m1 ⊴ m2`` and ``O1 ⊴ O2``."""
    return (less_informative(first.marker, second.marker, naive=naive)
            and less_informative(first.object, second.object, naive=naive))


def dataset_less_informative(first: Iterable["Data"],
                             second: Iterable["Data"], *,
                             naive: bool = False) -> bool:
    """Definition 5: lift ``⊴`` to sets of semistructured data.

    ``S1 ⊴ S2`` iff every datum in ``S1 − S2`` is ``⊴`` some datum in
    ``S2 − S1``.
    """
    left = frozenset(first)
    right = frozenset(second)
    only_left = left - right
    only_right = right - left
    return all(
        any(data_less_informative(a, b, naive=naive) for b in only_right)
        for a in only_left
    )


# Imported late to avoid a cycle: data.py uses this module's object-level
# order, while the two dataset-level helpers above only need duck-typed
# ``.marker``/``.object`` access, declared here for documentation purposes.
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.data import Data
