"""The two fast ∪K paths must reproduce the naive Definition 12 fold.

``∪K`` is commutative but not associative, so every structural detail of
the left fold — order, dedup between steps, pass-through of unmatched
data — must survive signature blocking (:func:`blocked_union`) and the
indexed one-step diff (:func:`union_diff`, as ``Database.merge_in``
applies it). Each test folds the same sources naively with
:meth:`DataSet.union` and asserts set equality.
"""

import pytest

from repro.core.builder import cset, dataset, orv, pset, tup
from repro.core.data import DataSet
from repro.core.errors import EmptyKeyError
from repro.core.objects import BOTTOM
from repro.properties import ObjectGenerator
from repro.store.bulk import blocked_union, union_diff
from repro.store.index import KeyIndex
from tests.core.test_data import example6_sources

K = frozenset({"A", "B"})
PAPER_K = frozenset({"type", "title"})


def naive_fold(sources, key):
    merged = sources[0]
    for source in sources[1:]:
        merged = merged.union(source, key)
    return merged


def random_sources(seed, count=5, size=8):
    generator = ObjectGenerator(seed=seed)
    return [generator.dataset(size) for _ in range(count)]


def diff_steps(sources, key):
    """Fold ``sources`` the way ``Database.merge_in`` does: one
    :func:`union_diff` per source, the index moved by
    :meth:`KeyIndex.patched`. Yields the set after every step."""
    current = set(sources[0])
    index = KeyIndex(current, key)
    for source in sources[1:]:
        diff = union_diff(current, index, source)
        for datum in diff.removed:
            assert datum in current
        for datum in diff.added:
            assert datum not in current
        current = (current - set(diff.removed)) | set(diff.added)
        index = index.patched(diff.removed, diff.added)
        yield current


class TestBlockedUnion:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_k_way(self, seed):
        sources = random_sources(seed)
        assert blocked_union(sources, K) == naive_fold(sources, K)

    def test_example6(self):
        sources = list(example6_sources())
        assert blocked_union(sources, PAPER_K) == \
            naive_fold(sources, PAPER_K)

    def test_workload(self):
        from repro.workloads import BibWorkloadSpec, generate_workload

        workload = generate_workload(BibWorkloadSpec(
            entries=120, sources=4, overlap=0.4, conflict_rate=0.3,
            partial_author_rate=0.3, seed=11))
        assert blocked_union(workload.sources, workload.key) == \
            naive_fold(workload.sources, workload.key)

    def test_edge_shapes(self):
        assert blocked_union([], K) == DataSet()
        single = dataset(("m", tup(A="k", B="b")))
        assert blocked_union([single], K) == single
        assert blocked_union([single, DataSet(), DataSet()], K) == single
        assert blocked_union([DataSet(), single], K) == single

    def test_never_and_scan_classes(self):
        # ⊥ under a key attribute, partial sets, or-values with ⊥ and
        # tuple-valued key attributes all take the non-bucket paths.
        sources = [
            dataset(("m1", tup(A="k", B="b", p=1)),
                    ("m2", tup(A="k")),                    # B → ⊥: never
                    ("m3", tup(A=tup(x=1), B="b", q=2))),  # tuple: scan
            dataset(("n1", tup(A="k", B="b", r=3)),
                    ("n2", tup(A=tup(x=1), B="b", s=4)),
                    ("n3", tup(A=pset(1), B="b")),         # partial: never
                    ("n4", tup(A=orv(BOTTOM, 1), B="b"))),
            dataset(("o1", tup(A=tup(x=1), B="b", t=5)),
                    ("o2", cset(1, 2)),                    # whole-object
                    ("o3", tup(A="k", B="b", u=6))),
        ]
        assert blocked_union(sources, K) == naive_fold(sources, K)

    def test_fold_order_preserved(self):
        # ∪K is not associative: the fan-in below merges differently
        # when the fold order changes, so equality with the naive fold
        # pins the order down.
        sources = [
            dataset(("m", tup(A="k", B="b", p=1))),
            dataset(("n", tup(A="k", B="b", p=2))),
            dataset(("o", tup(A="k", B="b", p=3))),
        ]
        assert blocked_union(sources, K) == naive_fold(sources, K)
        reordered = [sources[2], sources[0], sources[1]]
        assert blocked_union(reordered, K) == naive_fold(reordered, K)

    def test_validation(self):
        with pytest.raises(EmptyKeyError):
            blocked_union([], frozenset())


class TestUnionDiff:
    def test_identical_data_diff_is_empty(self):
        # Folding in identical data changes nothing: the step's diff
        # must be empty, not remove-then-re-add.
        source = dataset(("m", tup(A="k", B="b", p=1)))
        current = set(source)
        clone = dataset(("m", tup(A="k", B="b", p=1)))
        diff = union_diff(current, KeyIndex(current, K), clone)
        assert diff.removed == diff.added == ()

    def test_step_equals_naive_union(self):
        for seed in range(10):
            generator = ObjectGenerator(seed=seed)
            current, source = generator.dataset(9), generator.dataset(9)
            current_set = set(current)
            diff = union_diff(current_set, KeyIndex(current_set, K),
                              source)
            patched = (current_set - set(diff.removed)) | set(diff.added)
            assert DataSet(patched) == current.union(source, K), seed

    @pytest.mark.parametrize("seed", range(15))
    def test_step_fold_equals_naive_fold(self, seed):
        # Four sources folded by repeated steps with the index patched
        # in between; the set must equal the naive fold after every
        # step.
        sources = random_sources(seed, count=4, size=7)
        steps = list(diff_steps(sources, K))
        assert len(steps) == 3
        for count, current in enumerate(steps, start=2):
            assert DataSet(current) == naive_fold(sources[:count], K)

    def test_step_diffs_apply(self):
        # Applied one datum at a time, each step's diff removes only
        # data present and adds only data absent; the patched index
        # holds exactly the data after the step, as the next step's
        # union_diff requires.
        sources = random_sources(2, count=4, size=8)
        rolling = set(sources[0])
        index = KeyIndex(rolling, K)
        for count, source in enumerate(sources[1:], start=2):
            diff = union_diff(rolling, index, source)
            for datum in diff.removed:
                assert datum in rolling
                rolling.discard(datum)
            for datum in diff.added:
                assert datum not in rolling
                rolling.add(datum)
            index = index.patched(diff.removed, diff.added)
            assert len(index) == len(rolling)
            assert set(index.everything()) == rolling
            assert DataSet(rolling) == naive_fold(sources[:count], K)


class TestInternedSources:
    def test_shared_instances_across_sources(self):
        # Hash-consed stores can hand the very same Data instance to
        # several sources; identity-based bookkeeping must not double
        # or drop such data.
        from repro.core.intern import intern_data

        generator = ObjectGenerator(seed=6)
        base = [intern_data(d) for d in generator.dataset(10)]
        sources = [DataSet(base[:7]), DataSet(base[4:]),
                   DataSet(base[::2])]
        assert blocked_union(sources, K) == naive_fold(sources, K)
        *_, last = diff_steps(sources, K)
        assert DataSet(last) == naive_fold(sources, K)
