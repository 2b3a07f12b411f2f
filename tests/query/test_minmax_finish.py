"""The min/max finish against the enumeration it replaced.

``Accumulator.finish`` returns a past-the-cap min/max as ``Bounds``
when a closed-form count of its reachable outcomes
(``_reachable_count``) passes ``OR_CAP``, instead of enumerating every
possible outcome. Oracle and kernel share the finish, so the
differential suites cannot catch a wrong one; this file keeps the
enumerating finish as the reference and requires the same answer —
value, number type and kind — over random alternative lists with or
without a definite best, ⊥ alternatives, int/float-equal values and
signed zeros.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import BOTTOM, Atom, OrValue
from repro.query.aggregates import OR_CAP, Accumulator, Bounds

CASES = settings(max_examples=500, deadline=None)


def _none_last_key(alt):
    return tuple((value is None, 0 if value is None else value)
                 for value in alt)


def _pair(pick, left, right):
    if left is None:
        return right
    if right is None:
        return left
    return pick(left, right)


def enumerated_finish(kind, best, alts, ranges):
    """The min/max finish as it was before the closed form: enumerate
    the possible outcomes in sorted order until they pass ``OR_CAP``."""
    pick = min if kind == "min" else max
    if not alts and not ranges:
        return best
    candidates = [v for alt in alts for v in alt if v is not None]
    candidates.extend(v for r in ranges for v in r)
    if best is not None:
        candidates.append(best)
    if not ranges:
        possible = {best}
        for alt in sorted(alts, key=_none_last_key):
            possible = {_pair(pick, s, a) for s in possible for a in alt}
            if len(possible) > OR_CAP:
                break
        else:
            if len(possible) == 1:
                return possible.pop()
            numbers = sorted(v for v in possible if v is not None)
            atoms = [Atom(v) for v in numbers]
            if None in possible:
                return OrValue.of(*atoms, BOTTOM)
            return OrValue.of(*atoms)
    if not candidates:
        return None
    lo, hi = min(candidates), max(candidates)
    if lo == hi:
        return lo
    return Bounds(lo, hi)


def fold(kind, best, rows, ranges=()):
    """An accumulator fed like the kernels feed it: ``best`` as a
    scalar fold, each row as its alternatives (one atom or nothing
    each), each range as a past-the-cap row."""
    acc = Accumulator(kind)
    if best is not None:
        acc.add_numeric_stats(0, best, best)
    for row in rows:
        acc.add_row(tuple(() if value is None else (Atom(value),)
                          for value in row))
    for lo, hi in ranges:
        acc.add_exploded([Atom(lo), Atom(hi)])
    return acc


def assert_same_finish(kind, best, rows, ranges=()):
    acc = fold(kind, best, rows, ranges)
    expected = enumerated_finish(kind, acc.best, list(acc.alts),
                                 list(acc.ranges))
    answer = acc.finish()
    assert type(answer) is type(expected)
    assert repr(answer) == repr(expected)
    if isinstance(answer, Bounds):
        assert (type(answer.lo), type(answer.hi)) == \
            (type(expected.lo), type(expected.hi))


#: Small ints collide often; the floats equal some of them (``5.0``,
#: ``0.0``) or are zeros of both signs, so representatives matter.
NUMBERS = st.one_of(st.integers(0, 20),
                    st.sampled_from((5.0, 0.0, -0.0, 12.5, 20.0)))

#: A row's choices: two to four values, ``None`` ("contributes
#: nothing") among them on some rows.
ROW = st.lists(st.one_of(NUMBERS, st.none()), min_size=2, max_size=4)

INT_ROW = st.lists(st.one_of(st.integers(0, 20), st.none()), min_size=2,
                   max_size=4)


@CASES
@given(st.sampled_from(("min", "max")), st.one_of(st.none(), NUMBERS),
       st.lists(ROW, max_size=12))
def test_finish_matches_enumeration(kind, best, rows):
    assert_same_finish(kind, best, rows)


@CASES
@given(st.sampled_from(("min", "max")),
       st.one_of(st.none(), st.integers(0, 20)),
       st.lists(INT_ROW, max_size=30))
def test_finish_matches_enumeration_over_ints(kind, best, rows):
    """Up to 30 rows, most of whose outcome sets pass the cap in all."""
    assert_same_finish(kind, best, rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("min", "max")), st.one_of(st.none(), NUMBERS),
       st.lists(ROW, max_size=6),
       st.lists(st.tuples(st.integers(0, 20), st.integers(21, 40)),
                min_size=1, max_size=2))
def test_finish_with_ranges_matches_enumeration(kind, best, rows, ranges):
    assert_same_finish(kind, best, rows, ranges)


@st.composite
def prefix_heavy_rows(draw):
    """Min rows whose full outcome set fits ``OR_CAP`` while a prefix
    in sorted order often passes it: a row ``(first, top)`` with a
    small largest choice sorts after rows ``(low, mid, high)`` with
    ``low < first < top < mid <= 15 < high``, so the rows before it
    reach their lows and mids, and all rows only the values up to
    ``top``."""
    first = draw(st.integers(2, 6))
    top = first + draw(st.integers(1, 2))
    rows = [(first, top)]
    for _ in range(draw(st.integers(2, 10))):
        rows.append((draw(st.integers(0, first - 1)),
                     draw(st.integers(top + 1, 15)),
                     draw(st.integers(16, 30))))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("min", "max")),
       st.one_of(st.none(), st.integers(10, 30)), prefix_heavy_rows())
def test_finish_matches_enumeration_past_a_prefix(kind, best, rows):
    """A full outcome set inside the cap leaves the enumeration to
    stop on its prefix; ``max`` runs on the rows mirrored."""
    if kind == "max":
        rows = [tuple(30 - value for value in row) for row in rows]
        best = None if best is None else 30 - best
    assert_same_finish(kind, best, rows)


#: Nine rows with 8 reachable minima in all (every row's largest
#: choice is at least 9, so the minima are the values up to 9), yet
#: in sorted order the first seven rows reach more than 8.
PREFIX_PAST_CAP = ((2, 11), (0, 10, 12), (11, 17, 19), (0, 5, 18),
                   (6, 8, 12), (1, 7, 14), (11, 12, 14), (0, 5, 13),
                   (6, 9))


class TestPinned:
    def test_prefix_past_the_cap_stays_bounds(self):
        acc = fold("min", None, PREFIX_PAST_CAP)
        assert repr(acc.finish()) == "[0, 19]"
        assert_same_finish("min", None, PREFIX_PAST_CAP)

    def test_mirrored_prefix_past_the_cap_stays_bounds(self):
        mirrored = tuple(tuple(20 - value for value in row)
                         for row in PREFIX_PAST_CAP)
        acc = fold("max", None, mirrored)
        assert repr(acc.finish()) == "[1, 20]"
        assert_same_finish("max", None, mirrored)

    def test_past_the_cap_in_all_is_bounds(self):
        rows = [(value, value + 10) for value in range(OR_CAP + 1)]
        assert repr(fold("min", None, rows).finish()) == "[0, 18]"
        assert repr(fold("max", None, rows).finish()) == "[0, 18]"

    def test_exact_outcomes_with_bottom(self):
        answer = fold("min", None, [(3, None), (5, 7)]).finish()
        assert answer == OrValue.of(Atom(3), Atom(5), Atom(7))
        answer = fold("max", None, [(3, None), (4, None)]).finish()
        assert answer == OrValue.of(Atom(3), Atom(4), BOTTOM)

    def test_definite_best_caps_the_outcomes(self):
        assert fold("min", 2, [(3, 4), (5, None)]).finish() == 2
        assert fold("max", 9.0, [(3, 4)]).finish() == 9.0
        assert type(fold("max", 9.0, [(3, 4)]).finish()) is float

    def test_int_and_float_representatives(self):
        for best, rows in ((5, [(5.0, 7), (5.0, 6)]),
                           (None, [(5, 7), (5.0, 8)]),
                           (None, [(0.0, 3), (-0.0, 4)])):
            for kind in ("min", "max"):
                assert_same_finish(kind, best, rows)


class TestBoundsMembership:
    def test_numbers_inside_and_outside(self):
        bounds = Bounds(0, 2)
        assert 1 in bounds and 0 in bounds and 2.0 in bounds
        assert 3 not in bounds and -0.5 not in bounds

    def test_booleans_are_not_numbers(self):
        assert True not in Bounds(0, 2)
        assert False not in Bounds(0, 2)

    def test_non_numbers(self):
        assert "1" not in Bounds(0, 2)
        assert None not in Bounds(0, 2)
