"""Tests for the key index and its classification rules."""

from repro.core.builder import cset, data, marker, orv, pset, tup
from repro.core.objects import BOTTOM, Atom
from repro.store.index import (
    NEVER_MATCHES,
    UNINDEXABLE,
    KeyIndex,
    signature,
)

K = frozenset({"A", "B"})


class TestSignature:
    def test_atomic_key_values_index(self):
        d = data("m", tup(A="a", B=1, C="ignored"))
        classified = signature(d, K)
        assert classified[0] == "tuple"
        assert classified == signature(data("n", tup(A="a", B=1)), K)

    def test_different_key_values_different_signatures(self):
        assert signature(data("m", tup(A="a", B="b")), K) != \
            signature(data("m", tup(A="a", B="c")), K)

    def test_marker_and_complete_set_key_values_index(self):
        d = data("m", tup(A=marker("x"), B=cset(1, 2)))
        assert signature(d, K)[0] == "tuple"

    def test_or_value_key_indexes_setwise(self):
        first = signature(data("m", tup(A=orv(1, 2), B="b")), K)
        second = signature(data("n", tup(A=orv(2, 1), B="b")), K)
        assert first == second

    def test_or_value_with_bottom_never_matches(self):
        d = data("m", tup(A=orv(BOTTOM, 1), B="b"))
        assert signature(d, K) == NEVER_MATCHES

    def test_missing_key_attribute_never_matches(self):
        assert signature(data("m", tup(A="a")), K) == NEVER_MATCHES

    def test_partial_set_key_value_never_matches(self):
        assert signature(data("m", tup(A=pset(1), B="b")),
                         K) == NEVER_MATCHES

    def test_tuple_key_value_unindexable(self):
        d = data("m", tup(A=tup(x=1), B="b"))
        assert signature(d, K) == UNINDEXABLE

    def test_non_tuple_objects(self):
        assert signature(data("m", Atom(1)), K) == ("whole", Atom(1))
        assert signature(data("m", cset(1)), K) == ("whole", cset(1))
        assert signature(data("m", pset(1)), K) == NEVER_MATCHES
        assert signature(data("m", orv(1, 2)), K) == ("whole", orv(1, 2))

    def test_atom_type_distinction_survives(self):
        assert signature(data("m", tup(A=1, B="b")), K) != \
            signature(data("m", tup(A=True, B="b")), K)


class TestKeyIndex:
    def test_bucket_lookup(self):
        a = data("m", tup(A="k", B="b", p=1))
        b = data("n", tup(A="k", B="b", q=2))
        c = data("o", tup(A="z", B="b"))
        index = KeyIndex([a, c], K)
        assert index.candidates(b) == [a]

    def test_never_matching_probe_gets_nothing(self):
        a = data("m", tup(A="k", B="b"))
        index = KeyIndex([a], K)
        probe = data("x", tup(A="k"))  # B missing → ⊥ → never
        assert index.candidates(probe) == []

    def test_unindexable_probe_scans_the_scan_list(self):
        # A tuple-valued key attribute pairs only with data that hold a
        # tuple there too: bucket and never-list data are not scanned.
        a = data("m", tup(A="k", B="b"))
        index = KeyIndex([a], K)
        probe = data("x", tup(A=tup(inner="k"), B="b"))
        assert index.candidates(probe) == []
        scan = data("n", tup(A=tup(A="i", B="j"), B="b"))
        other = data("p", tup(A=tup(A="z", B="j"), B="b"))
        never = data("o", tup(A="k"))
        index = KeyIndex([a, scan, other, never], K)
        probe = data("y", tup(A=tup(A="i", B="j"), B="b", r=3))
        assert index.candidates(probe) == index.scan_list
        assert sorted(index.candidates(probe), key=repr) == \
            sorted([scan, other], key=repr)
        assert index.partners(probe) == [scan]

    def test_candidates_complete_for_compatible_pairs(self):
        # Exhaustive cross-check on random data: every compatible pair
        # must be discoverable through the index.
        from repro.core.compatibility import compatible_data
        from repro.properties import ObjectGenerator

        for seed in range(20):
            generator = ObjectGenerator(seed=seed)
            left = list(generator.dataset(8))
            right = list(generator.dataset(8))
            index = KeyIndex(right, K)
            for datum in left:
                candidates = set(
                    id(c) for c in index.candidates(datum))
                for other in right:
                    if compatible_data(datum, other, K):
                        assert any(
                            candidate == other
                            for candidate in index.candidates(datum)), \
                            (seed, datum, other)

    def test_len_and_everything(self):
        a = data("m", tup(A="k", B="b"))
        b = data("n", tup(A=tup(x=1), B="b"))
        c = data("o", tup(A="k"))
        index = KeyIndex([a, b, c], K)
        assert len(index) == 3
        assert set(index.everything()) == {a, b, c}

    def test_partners_are_the_compatible_candidates(self):
        from repro.core.compatibility import compatible_data
        from repro.properties import ObjectGenerator

        a = data("m", tup(A="k", B="b", p=1))
        scan = data("n", tup(A=tup(A="i", B="j"), B="b"))
        other = data("p", tup(A=tup(A="z", B="j"), B="b"))
        index = KeyIndex([a, scan, other, data("o", tup(A="k"))], K)
        assert index.partners(data("x", tup(A="k", B="b", q=2))) == [a]
        # An unindexable probe scans, but only its compatible scan-list
        # mate is a partner.
        probe = data("y", tup(A=tup(A="i", B="j"), B="b", r=3))
        assert index.partners(probe) == [scan]
        for seed in range(10):
            generator = ObjectGenerator(seed=seed)
            index = KeyIndex(generator.dataset(8), K)
            for datum in generator.dataset(8):
                assert index.partners(datum) == [
                    candidate for candidate in index.candidates(datum)
                    if compatible_data(datum, candidate, K)]

    def test_incremental_add(self):
        index = KeyIndex([], K)
        d = data("m", tup(A="k", B="b"))
        grown = index.patched((), [d])
        assert len(grown) == 1
        assert grown.candidates(data("x", tup(A="k", B="b"))) == [d]
        assert len(index) == 0
        assert index.candidates(data("x", tup(A="k", B="b"))) == []

    def test_incremental_remove_bucket(self):
        a = data("m", tup(A="k", B="b", p=1))
        b = data("n", tup(A="k", B="b", q=2))
        index = KeyIndex([a, b], K)
        probe = data("x", tup(A="k", B="b"))
        shrunk = index.patched([a], ())
        assert shrunk.candidates(probe) == [b]
        emptied = shrunk.patched([b], ())
        # Emptied buckets are dropped entirely.
        assert emptied.buckets == {}
        assert len(emptied) == 0
        assert index.candidates(probe) == [a, b]
        assert shrunk.candidates(probe) == [b]

    def test_incremental_remove_side_lists(self):
        never = data("m", tup(A="k"))                 # B missing → ⊥
        scan = data("n", tup(A=tup(x=1), B="b"))      # tuple key value
        index = KeyIndex([never, scan], K)
        emptied = index.patched([never, scan], ())
        assert emptied.never_list == emptied.scan_list == []
        assert len(emptied) == 0
        assert index.never_list == [never]
        assert index.scan_list == [scan]

    def test_remove_by_equality_not_identity(self):
        a = data("m", tup(A="k", B="b"))
        index = KeyIndex([a], K)
        clone = data("m", tup(A="k", B="b"))
        assert clone is not a
        assert len(index.patched([clone], ())) == 0
        assert len(index) == 1

    def test_remove_missing_from_absent_bucket(self):
        index = KeyIndex([data("m", tup(A="k", B="b"))], K)
        absent = [data("x", tup(A="z", B="z")),      # no such bucket
                  data("y", tup(A="k", B="b", p=1)),  # bucket, not held
                  data("n", tup(A="k")),             # never list
                  data("o", tup(A=tup(x=1), B="b"))]  # scan list
        patched = index.patched(absent, ())
        assert sorted(map(repr, patched.everything())) == \
            sorted(map(repr, index.everything()))
        assert len(patched) == 1

    def test_add_remove_round_trip_matches_rebuild(self):
        from repro.properties import ObjectGenerator

        generator = ObjectGenerator(seed=3)
        all_data = list(generator.dataset(12))
        extra = list(generator.dataset(6))
        index = KeyIndex(all_data, K)
        before = sorted(map(repr, index.everything()))
        removed = all_data[::2]
        patched = index.patched(removed, extra)
        kept = [d for d in all_data if d not in removed] + extra
        rebuilt = KeyIndex(kept, K)
        assert sorted(map(repr, patched.everything())) == \
            sorted(map(repr, rebuilt.everything()))
        assert set(patched.buckets) == set(rebuilt.buckets)
        assert sorted(map(repr, index.everything())) == before
        back = patched.patched(extra, removed)
        assert sorted(map(repr, back.everything())) == before
