"""Tests that the fast set operations equal the naive Definition 12.

``∪K`` runs through the signature-blocked fold over two sources;
``∩K``/``−K`` through the key-indexed operations.
"""

import pytest

from repro.core.builder import dataset, tup
from repro.core.data import DataSet
from repro.core.errors import EmptyKeyError
from repro.properties import ObjectGenerator
from repro.store.bulk import blocked_union
from repro.store.ops import indexed_difference, indexed_intersection
from tests.core.test_data import example6_sources

K = {"A", "B"}
PAPER_K = {"type", "title"}


class TestEquivalenceWithNaive:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_datasets(self, seed):
        generator = ObjectGenerator(seed=seed)
        s1, s2 = generator.dataset(7), generator.dataset(7)
        assert blocked_union([s1, s2], K) == s1.union(s2, K)
        assert indexed_intersection(s1, s2, K) == s1.intersection(s2, K)
        assert indexed_difference(s1, s2, K) == s1.difference(s2, K)

    def test_example6(self):
        s1, s2 = example6_sources()
        assert blocked_union([s1, s2], PAPER_K) == \
            s1.union(s2, PAPER_K)
        assert indexed_intersection(s1, s2, PAPER_K) == \
            s1.intersection(s2, PAPER_K)
        assert indexed_difference(s1, s2, PAPER_K) == \
            s1.difference(s2, PAPER_K)

    def test_workload(self):
        from repro.workloads import BibWorkloadSpec, generate_workload

        workload = generate_workload(BibWorkloadSpec(
            entries=150, sources=2, overlap=0.4, conflict_rate=0.3,
            partial_author_rate=0.3, seed=9))
        s1, s2 = workload.sources
        assert blocked_union([s1, s2], workload.key) == \
            s1.union(s2, workload.key)

    def test_empty_sides(self):
        s1, _ = example6_sources()
        empty = DataSet()
        assert blocked_union([s1, empty], PAPER_K) == s1
        assert blocked_union([empty, s1], PAPER_K) == s1
        assert indexed_intersection(s1, empty, PAPER_K) == empty
        assert indexed_difference(s1, empty, PAPER_K) == s1
        assert indexed_difference(empty, s1, PAPER_K) == empty

    def test_fan_in(self):
        s1 = dataset(("m", tup(A="k", B="b", p=1)))
        s2 = dataset(("n1", tup(A="k", B="b", q=2)),
                     ("n2", tup(A="k", B="b", r=3)))
        assert blocked_union([s1, s2], K) == s1.union(s2, K)
        assert indexed_difference(s1, s2, K) == s1.difference(s2, K)

    def test_empty_key_rejected(self):
        s1, s2 = example6_sources()
        with pytest.raises(EmptyKeyError):
            blocked_union([s1, s2], set())
