#!/usr/bin/env python
"""Benchmark S6: hash-consing + memoized fast paths vs the naive
definitional code.

The workload models two sources describing the same entities (the
Definition 12 access pattern): for every entity, two record variants
that agree on the key attributes but differ in their author/tag sets,
checked against each other repeatedly — as merge passes and key-index
rebuilds do. Each pair runs ``⊴``, key-compatibility and ``∪K``, once
through the ``naive=True`` definitional oracle and once through the
interned, memoized fast paths. Every fast result is compared against
the oracle (the differential contract), and the cached run must be at
least MIN_SPEEDUP× faster overall, interning cost included.
"""

from __future__ import annotations

import random
import sys

from _harness import main, speedup, timed
from repro.core.compatibility import compatible
from repro.core.informativeness import less_informative
from repro.core.intern import clear_pool, intern, intern_stats
from repro.core.objects import Atom, CompleteSet, PartialSet, Tuple
from repro.core.operations import union

K = frozenset({"A", "B"})

#: The acceptance floor: cached must beat naive by at least this factor
#: on repeated checks over shared substructure.
MIN_SPEEDUP = 3.0

_NAMES = [f"name{i}" for i in range(30)]


def _variant(entity: int, source: int) -> Tuple:
    """One source's record of ``entity``: same key, different details."""
    rng = random.Random(entity * 31 + source)
    return Tuple({
        "A": Atom(f"key{entity}"),
        "B": Atom(f"title{entity}"),
        "authors": PartialSet(
            Atom(name) for name in rng.sample(_NAMES, 14)),
        "tags": CompleteSet(
            Atom(f"g{i}") for i in rng.sample(range(10), 5)),
        "venue": Tuple({
            "name": Atom(f"v{entity % 4}"),
            "where": PartialSet(
                Atom(name) for name in rng.sample(_NAMES, 8)),
        }),
    })


def make_pairs(entities: int, repeats: int):
    """Cross-source pairs per entity, each checked ``repeats`` times."""
    base = [(_variant(entity, 0), _variant(entity, 1))
            for entity in range(entities)]
    return base * repeats


def _check_all(pairs, naive: bool):
    results = []
    for first, second in pairs:
        results.append((
            less_informative(first, second, naive=naive),
            compatible(first, second, K, naive=naive),
            union(first, second, K, naive=naive),
        ))
    return results


def run(entities: int, repeats: int) -> dict:
    pairs = make_pairs(entities, repeats)
    naive_seconds, naive_results = timed(
        lambda: _check_all(pairs, naive=True))

    clear_pool()
    intern_seconds, interned = timed(
        lambda: [(intern(first), intern(second))
                 for first, second in pairs])
    fast_seconds, fast_results = timed(
        lambda: _check_all(interned, naive=False))
    cached_seconds = intern_seconds + fast_seconds

    # The differential contract, enforced on every benchmark run.
    mismatches = sum(fast != oracle for fast, oracle
                     in zip(fast_results, naive_results))
    return {
        "benchmark": "interning",
        "workload": {"entities": entities, "repeats": repeats,
                     "checks": len(pairs) * 3},
        "naive_seconds": round(naive_seconds, 6),
        "intern_seconds": round(intern_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "cached_seconds": round(cached_seconds, 6),
        "speedup": speedup(naive_seconds, cached_seconds),
        "mismatches": mismatches,
        "pool": intern_stats(),
    }


def failures(report: dict):
    """One message per failed oracle."""
    if report["mismatches"]:
        yield f"{report['mismatches']} fast/naive mismatches"


if __name__ == "__main__":
    sys.exit(main(
        run, smoke=dict(entities=10, repeats=6),
        full=dict(entities=40, repeats=32), checks=failures,
        floors=[("speedup", "speedup", MIN_SPEEDUP)]))
