"""Benchmark S5: ablation of the fast Definition 12 pairing against the
naive all-pairs scan (DESIGN.md design-choice study).

Asserts that signature-blocked ``∪K`` and the key-indexed ``∩K``/``−K``
return bit-identical results while pairing in O(n + m) instead of
O(n·m).
"""

import pytest

from repro.store.bulk import blocked_union
from repro.store.ops import indexed_difference, indexed_intersection


@pytest.mark.parametrize("fixture_name",
                         ["workload_100", "workload_300",
                          "workload_1000"])
def test_blocked_union(benchmark, request, fixture_name):
    workload = request.getfixturevalue(fixture_name)
    s1, s2 = workload.sources

    merged = benchmark.pedantic(
        lambda: blocked_union((s1, s2), workload.key), rounds=3,
        iterations=1)
    assert merged == s1.union(s2, workload.key)


def test_indexed_intersection(benchmark, workload_300):
    s1, s2 = workload_300.sources

    common = benchmark(indexed_intersection, s1, s2, workload_300.key)
    assert common == s1.intersection(s2, workload_300.key)


def test_indexed_difference(benchmark, workload_300):
    s1, s2 = workload_300.sources

    result = benchmark(indexed_difference, s1, s2, workload_300.key)
    assert result == s1.difference(s2, workload_300.key)


def test_database_merge_in(benchmark, workload_300):
    from repro.store import Database

    s1, s2 = workload_300.sources

    def build_and_merge():
        database = Database(s1)
        database.merge_in(s2, workload_300.key)
        return database

    database = benchmark.pedantic(build_and_merge, rounds=3, iterations=1)
    assert database.snapshot() == s1.union(s2, workload_300.key)
