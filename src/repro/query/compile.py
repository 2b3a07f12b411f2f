"""Closure compilation of condition trees.

``Condition.matches`` is the *definitional* evaluator: every call
re-coerces the target, walks the object through
:func:`~repro.query.paths.evaluate_path` (which deduplicates and sorts
the reached values) and dispatches through Python-level polymorphism.
That shape is perfect as an oracle and hopeless as a hot path.

:func:`compile_condition` translates a condition tree *once* into a
nest of closures:

* paths are pre-parsed and targets pre-coerced at compile time;
* the tree is rewritten to negation normal form (``Not`` pushed down to
  the leaves through De Morgan), so evaluation is pure and/or/leaf
  short-circuiting;
* comparisons are type-specialized — an ordered comparison against a
  string bound compiles to a loop that only looks at string atoms, a
  numeric bound to one that only looks at numbers;
* every leaf walks the object through the lazy
  :func:`~repro.query.paths.iter_path` generator and stops at the first
  witness, skipping ``evaluate_path``'s materialize/dedup/sort entirely.

Compiled predicates are memoized on the (immutable) condition instance,
so a query re-run against a new snapshot never recompiles.

Semantics are identical to ``matches`` with one sharpening: invalid
operands (a boolean bound on an ordered comparison, a non-string
argument to ``Contains``) raise :class:`~repro.core.errors.QueryError`
at *compile* time rather than per datum.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import QueryError
from repro.core.objects import (
    BOTTOM,
    Atom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
)
from repro.query.ast import (
    And,
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
    _Comparison,
)
from repro.query.paths import iter_path

__all__ = ["compile_condition", "compile_columnar", "nnf",
           "invalidation_profile", "join_invalidation_profile"]

#: A compiled predicate over a datum's object.
Predicate = Callable[[SSObject], bool]

_ORDERED_OPS = {
    Lt: lambda a, b: a < b,
    Le: lambda a, b: a <= b,
    Gt: lambda a, b: a > b,
    Ge: lambda a, b: a >= b,
}


def nnf(condition: Condition) -> Condition:
    """Rewrite to negation normal form: ``Not`` only around leaves.

    ``Not(And(a, b))`` becomes ``Or(Not(a), Not(b))`` (De Morgan),
    double negation cancels. The rewrite preserves evaluation exactly —
    conditions are two-valued — and leaves the compilers and the
    invalidation profile only leaf negations to handle.
    """
    return _nnf(condition, negate=False)


def _nnf(condition: Condition, negate: bool) -> Condition:
    if isinstance(condition, Not):
        return _nnf(condition.inner, not negate)
    if isinstance(condition, And):
        left = _nnf(condition.left, negate)
        right = _nnf(condition.right, negate)
        return Or(left, right) if negate else And(left, right)
    if isinstance(condition, Or):
        left = _nnf(condition.left, negate)
        right = _nnf(condition.right, negate)
        return And(left, right) if negate else Or(left, right)
    return Not(condition) if negate else condition


#: Positive leaf kinds: each holds only when *some* value reached by
#: its path satisfies the leaf, so a datum reaching nothing under the
#: path can neither start nor stop matching.
_POSITIVE_LEAVES = (Eq, Ne, Lt, Le, Gt, Ge, Contains, Exists)


def invalidation_profile(
        condition: Condition) -> tuple[frozenset[tuple[str, ...]], bool]:
    """``(footprint paths, positive)`` for cache invalidation.

    The footprint is every path a leaf of the condition mentions. When
    ``positive`` is ``True`` the condition's negation normal form
    contains only the built-in existential leaves, and a datum that
    reaches no value under any footprint path provably cannot match —
    so a write whose delta is disjoint from the footprint leaves the
    query's result untouched (the re-tag rule of
    :class:`repro.store.cache.QueryResultCache`). Negated leaves can
    match data *lacking* a path, and user-defined condition subclasses
    are opaque; both force ``positive=False`` (evict on every write).

    Memoized on the (immutable) condition instance.
    """
    cached = getattr(condition, "_invalidation", None)
    if cached is not None:
        return cached
    paths: set[tuple[str, ...]] = set()
    positive = _profile_walk(nnf(condition), paths)
    profile = (frozenset(paths), positive)
    try:
        object.__setattr__(condition, "_invalidation", profile)
    except AttributeError:  # slotted user subclass
        pass
    return profile


def join_invalidation_profile(
        left: Condition | None, right: Condition | None,
        on_steps: "tuple[tuple[str, ...], ...]",
        ) -> tuple[frozenset[tuple[str, ...]], bool]:
    """``(footprint, safe)`` for a cached two-input join result.

    The footprint spans *both* inputs: each side's condition paths plus
    every join-key path, so a write to either side — including the
    probe side only — touches the entry. Re-tagging is only sound when
    both sides have positive conditions (a side selected without a
    ``where`` gains rows on any insert, so ``safe=False`` makes every
    write evict the entry — the conservative fallback the cache
    documents).
    """
    paths: set[tuple[str, ...]] = set(on_steps)
    safe = True
    for condition in (left, right):
        if condition is None:
            safe = False
            continue
        side_paths, positive = invalidation_profile(condition)
        paths |= side_paths
        safe = safe and positive
    return frozenset(paths), safe


def _profile_walk(condition: Condition,
                  paths: set[tuple[str, ...]]) -> bool:
    if isinstance(condition, (And, Or)):
        left = _profile_walk(condition.left, paths)
        right = _profile_walk(condition.right, paths)
        return left and right
    if isinstance(condition, Not):
        _profile_walk(condition.inner, paths)
        return False
    if isinstance(condition, _POSITIVE_LEAVES):
        paths.add(condition.steps)
        # Exact leaf kinds only: a subclass may override ``matches``
        # with semantics the footprint argument does not cover.
        return type(condition) in _POSITIVE_LEAVES
    return False


def _compile_eq(condition: Eq) -> Predicate:
    steps, target = condition.steps, condition.target

    def predicate(obj: SSObject) -> bool:
        return any(value == target
                   for value in iter_path(obj, steps, spread=True))

    return predicate


def _compile_ne(condition: Ne) -> Predicate:
    steps, target = condition.steps, condition.target

    def predicate(obj: SSObject) -> bool:
        return any(value != target
                   for value in iter_path(obj, steps, spread=True))

    return predicate


def _compile_ordered(condition: _Comparison, op) -> Predicate:
    steps, target = condition.steps, condition.target
    if not isinstance(target, Atom) or isinstance(target.value, bool):
        raise QueryError(
            f"ordered comparison needs a number or string bound, got "
            f"{target!r}")
    bound = target.value
    if isinstance(bound, str):
        def predicate(obj: SSObject) -> bool:
            for value in iter_path(obj, steps, spread=True):
                if (isinstance(value, Atom)
                        and isinstance(value.value, str)
                        and op(value.value, bound)):
                    return True
            return False
    else:
        def predicate(obj: SSObject) -> bool:
            for value in iter_path(obj, steps, spread=True):
                if (isinstance(value, Atom)
                        and isinstance(value.value, (int, float))
                        and not isinstance(value.value, bool)
                        and op(value.value, bound)):
                    return True
            return False

    return predicate


def _compile_contains(condition: Contains) -> Predicate:
    steps, target = condition.steps, condition.target
    if not (isinstance(target, Atom) and isinstance(target.value, str)):
        raise QueryError("Contains needs a string argument")
    needle = target.value

    def predicate(obj: SSObject) -> bool:
        for value in iter_path(obj, steps, spread=True):
            if (isinstance(value, Atom) and isinstance(value.value, str)
                    and needle in value.value):
                return True
        return False

    return predicate


def _compile_exists(condition: Exists) -> Predicate:
    steps = condition.steps

    def predicate(obj: SSObject) -> bool:
        return any(True for _ in iter_path(obj, steps, spread=True))

    return predicate


def _compile_node(condition: Condition) -> Predicate:
    if isinstance(condition, Not):
        # After NNF only leaves sit under Not; compiling the general
        # case anyway keeps _compile_node total over condition trees.
        inner = _compile_node(condition.inner)
        return lambda obj: not inner(obj)
    if isinstance(condition, And):
        left, right = (_compile_node(condition.left),
                       _compile_node(condition.right))
        return lambda obj: left(obj) and right(obj)
    if isinstance(condition, Or):
        left, right = (_compile_node(condition.left),
                       _compile_node(condition.right))
        return lambda obj: left(obj) or right(obj)
    if isinstance(condition, Eq):
        return _compile_eq(condition)
    if isinstance(condition, Ne):
        return _compile_ne(condition)
    op = _ORDERED_OPS.get(type(condition))
    if op is not None:
        return _compile_ordered(condition, op)
    if isinstance(condition, Contains):
        return _compile_contains(condition)
    if isinstance(condition, Exists):
        return _compile_exists(condition)
    # User-defined condition subclasses fall back to their own matches.
    return condition.matches


def compile_condition(condition: Condition) -> Predicate:
    """Compile a condition tree into a single closure predicate.

    The result is cached on the condition instance (conditions are
    immutable), so repeated runs of the same query compile once.
    """
    cached = getattr(condition, "_compiled", None)
    if cached is None:
        cached = _compile_node(nnf(condition))
        try:
            object.__setattr__(condition, "_compiled", cached)
        except AttributeError:  # e.g. a slotted user subclass
            pass
    return cached


# -- column-at-a-time compilation ----------------------------------------------
#
# A *columnar program* is a closure over a duck-typed column store (see
# :class:`repro.store.columnar.ColumnStore`): ``program(store)`` returns
# ``(true_bits, maybe_bits)`` — disjoint bitsets over the store's
# shredded universe. ``true_bits`` rows definitely match, ``maybe_bits``
# rows need the compiled row predicate (or-value/⊥ sidecars), every
# other universe row definitely does not match. Residue rows are outside
# the universe and always row-evaluated by the caller.
#
# Tri-state algebra over ``(T, M)`` pairs with universe ``U``:
#
# * ``And``: ``T = Ta & Tb``; ``M = ((Ta|Ma) & (Tb|Mb)) & ~T``
# * ``Or``:  ``T = Ta | Tb``; ``M = (Ma | Mb) & ~T``
# * ``Not``: ``T' = U & ~(T | M)``; ``M' = M``
#
# The maybe set only ever narrows downstream work — it never admits a
# wrong definite answer, which is what keeps columnar == row-scan exact.

#: A compiled columnar program, or ``None`` when the condition cannot
#: be answered column-at-a-time (row scan takes over).
ColumnarProgram = Callable[[object], "tuple[int, int]"]

_COLUMNAR_ORDERED = {Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}

#: Exact model types a columnar leaf knows how to compare against.
#: Subclasses may override equality, so they bail to the row scan.
_MODEL_TYPES = (Atom, Marker, type(BOTTOM), OrValue, PartialSet,
                CompleteSet, Tuple)

_COLUMNAR_MISSING = object()


def _columnar_steps(condition: Condition) -> tuple | None:
    """The leaf's path steps, or ``None`` if columns can't answer it.

    An empty path reaches the row object itself — only the row scan
    sees that — and any condition subclass may override ``matches``,
    so only the exact built-in leaf types compile.
    """
    steps = condition.steps
    if not steps:
        return None
    return steps


def _columnar_node(condition: Condition) -> ColumnarProgram | None:
    kind = type(condition)
    if kind is Not:
        inner = _columnar_node(condition.inner)
        if inner is None:
            return None

        def negation(store):
            true_bits, maybe_bits = inner(store)
            return (store.universe_mask & ~(true_bits | maybe_bits),
                    maybe_bits)

        return negation
    if kind is And or kind is Or:
        left = _columnar_node(condition.left)
        right = _columnar_node(condition.right)
        if left is None or right is None:
            return None
        if kind is And:
            def conjunction(store):
                ta, ma = left(store)
                tb, mb = right(store)
                true_bits = ta & tb
                return (true_bits,
                        ((ta | ma) & (tb | mb)) & ~true_bits)

            return conjunction

        def disjunction(store):
            ta, ma = left(store)
            tb, mb = right(store)
            true_bits = ta | tb
            return true_bits, (ma | mb) & ~true_bits

        return disjunction
    if kind is Exists:
        steps = _columnar_steps(condition)
        if steps is None:
            return None
        return lambda store: store.leaf_exists(steps)
    if kind is Eq or kind is Ne:
        steps = _columnar_steps(condition)
        target = condition.target
        if steps is None or type(target) not in _MODEL_TYPES:
            return None
        if kind is Eq:
            return lambda store: store.leaf_eq(steps, target)
        return lambda store: store.leaf_ne(steps, target)
    op_name = _COLUMNAR_ORDERED.get(kind)
    if op_name is not None:
        steps = _columnar_steps(condition)
        target = condition.target
        # Invalid bounds bail to the row compiler, which raises the
        # canonical QueryError; duplicating the check here would only
        # duplicate the message.
        if (steps is None or type(target) is not Atom
                or isinstance(target.value, bool)
                or not isinstance(target.value, (int, float, str))):
            return None
        bound = target.value
        return lambda store: store.leaf_ordered(steps, op_name, bound)
    if kind is Contains:
        steps = _columnar_steps(condition)
        target = condition.target
        if (steps is None or type(target) is not Atom
                or not isinstance(target.value, str)):
            return None
        needle = target.value
        return lambda store: store.leaf_contains(steps, needle)
    return None  # user-defined condition subclass: row scan only


def compile_columnar(condition: Condition) -> ColumnarProgram | None:
    """Compile a condition into a columnar bitset program, if possible.

    Returns ``None`` when any part of the tree needs the row scan —
    an empty path, a user-defined condition subclass, a non-model
    comparison target, an invalid operand. Memoized on the condition
    instance (``None`` included, hence the sentinel).
    """
    cached = getattr(condition, "_columnar", _COLUMNAR_MISSING)
    if cached is _COLUMNAR_MISSING:
        cached = _columnar_node(nnf(condition))
        try:
            object.__setattr__(condition, "_columnar", cached)
        except AttributeError:  # e.g. a slotted user subclass
            pass
    return cached
