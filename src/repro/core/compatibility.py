"""Key-based compatibility (Definitions 6-7).

Two objects are *compatible with respect to a key set* ``K`` when they can
be treated as different aspects of the same real-world entity, and may
therefore be combined by union/intersection/difference. ``K`` plays the
role of a relational key, but key attributes may hold non-atomic values.

Definition 6, case by case — anything not matching a case is incompatible:

1. both constants and equal;
2. both markers and equal;
3. both or-values that contain no ``⊥`` and are equal set-wise;
4. both complete sets and equal;
5. both tuples whose ``K`` attributes are pairwise compatible.

Subtleties faithfully reproduced (see DESIGN.md decision D3):

* ``⊥`` is compatible with nothing, including itself — two unknowns may
  denote different real-world values;
* partial sets are compatible with nothing, including themselves — open
  worlds never certify identity;
* identical tuples are *not* automatically compatible: a ``⊥`` (or partial
  set) under a key attribute poisons compatibility, exactly as in the
  paper's ``[A ⇒ a1, B ⇒ ⊥, C ⇒ {c1}]``-vs-itself example.

As in :mod:`repro.core.informativeness`, the default :func:`compatible`
is a memoized fast path over interned objects; ``naive=True`` runs the
untouched definitional code as the differential-testing oracle.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.core.guard import guarded as _guarded
from repro.core.intern import MEMO as _MEMO
from repro.core.intern import equal as _equal
from repro.core.intern import is_interned as _is_interned
from repro.core.intern import memo_put as _memo_put
from repro.core.errors import EmptyKeyError
from repro.core.objects import (
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    SSObject,
    Tuple,
)


def check_key(key: Iterable[str]) -> frozenset[str]:
    """Validate and normalize a key set ``K``.

    Returns the key as a frozenset of attribute labels. Raises
    :class:`~repro.core.errors.EmptyKeyError` when empty, since every
    operation of Definitions 8-12 is parameterized by a non-empty ``K``.
    """
    normalized = frozenset(key)
    if not normalized:
        raise EmptyKeyError("the key set K must contain at least one "
                            "attribute label")
    for label in normalized:
        if not isinstance(label, str) or not label:
            raise EmptyKeyError(
                f"key attributes are non-empty strings, got {label!r}"
            )
    return normalized


@_guarded
def compatible(first: SSObject, second: SSObject,
               key: AbstractSet[str], *, naive: bool = False) -> bool:
    """Return ``True`` iff the objects are compatible wrt ``key`` (Def. 6).

    ``key`` must already be non-empty; use :func:`check_key` at API
    boundaries. The key set propagates unchanged into nested tuples, as in
    the paper. ``naive=True`` runs the definitional reference code with no
    caching.
    """
    if naive:
        return _naive_compatible(first, second, key)
    return _fast_compatible(first, second, key)


# ---------------------------------------------------------------------------
# Naive reference implementation (the definitional oracle)
# ---------------------------------------------------------------------------

def _naive_compatible(first: SSObject, second: SSObject,
                      key: AbstractSet[str]) -> bool:
    if isinstance(first, Atom) and isinstance(second, Atom):
        return first == second
    if isinstance(first, Marker) and isinstance(second, Marker):
        return first == second
    if isinstance(first, OrValue) and isinstance(second, OrValue):
        return (not first.contains_bottom()
                and not second.contains_bottom()
                and first.disjuncts == second.disjuncts)
    if isinstance(first, CompleteSet) and isinstance(second, CompleteSet):
        return first == second
    if isinstance(first, Tuple) and isinstance(second, Tuple):
        return all(
            _naive_compatible(first.get(label), second.get(label), key)
            for label in key
        )
    return False


# ---------------------------------------------------------------------------
# Memoized fast path
# ---------------------------------------------------------------------------

def _fast_compatible(first: SSObject, second: SSObject,
                     key: AbstractSet[str]) -> bool:
    if _is_interned(first) and _is_interned(second):
        frozen = key if isinstance(key, frozenset) else frozenset(key)
        # Definition 6 is symmetric in its operands, so the smaller id
        # goes first and one entry serves both orientations.
        left, right = id(first), id(second)
        if left > right:
            left, right = right, left
        memo_key = ("compatible", left, right, frozen)
        cached = _MEMO.get(memo_key)
        if cached is None:
            cached = _memo_put(memo_key,
                               _fast_compat_cases(first, second, key))
        return cached
    return _fast_compat_cases(first, second, key)


def _fast_compat_cases(first: SSObject, second: SSObject,
                       key: AbstractSet[str]) -> bool:
    if isinstance(first, Atom) and isinstance(second, Atom):
        return _equal(first, second)
    if isinstance(first, Marker) and isinstance(second, Marker):
        return _equal(first, second)
    if isinstance(first, OrValue) and isinstance(second, OrValue):
        return (not first.contains_bottom()
                and not second.contains_bottom()
                and (first is second
                     or first.disjuncts == second.disjuncts))
    if isinstance(first, CompleteSet) and isinstance(second, CompleteSet):
        return _equal(first, second)
    if isinstance(first, Tuple) and isinstance(second, Tuple):
        return all(
            _fast_compatible(first.get(label), second.get(label), key)
            for label in key
        )
    return False


def compatible_data(first: "Data", second: "Data",
                    key: AbstractSet[str], *, naive: bool = False) -> bool:
    """Definition 7: data are compatible iff their objects are.

    Markers deliberately play no role — the whole point is recognizing the
    same entity across sources that assigned it different markers.
    """
    return compatible(first.object, second.object, key, naive=naive)


def find_compatible(obj: SSObject, candidates: Iterable[SSObject],
                    key: AbstractSet[str], *,
                    naive: bool = False) -> list[SSObject]:
    """Return the candidates compatible with ``obj`` wrt ``key``, in order."""
    return [c for c in candidates if compatible(obj, c, key, naive=naive)]


from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.data import Data
