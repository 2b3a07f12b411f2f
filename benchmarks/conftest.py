"""Shared fixtures for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only

Every benchmark both *times* its experiment and *asserts* the
reproduction outcome, so ``--benchmark-only`` doubles as a correctness
gate over the whole experiment index (DESIGN.md §4).
"""

import sys
from pathlib import Path

import pytest

# The gated scripts import ``_harness`` as a sibling module, which is
# how they run standalone. ``benchmarks`` is a package, so pytest puts
# the repo root on ``sys.path`` rather than this directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.workloads import BibWorkloadSpec, generate_workload


@pytest.fixture(scope="session")
def workload_100():
    return generate_workload(BibWorkloadSpec(
        entries=100, sources=2, overlap=0.3, conflict_rate=0.2,
        seed=100))


@pytest.fixture(scope="session")
def workload_300():
    return generate_workload(BibWorkloadSpec(
        entries=300, sources=2, overlap=0.3, conflict_rate=0.2,
        seed=300))


@pytest.fixture(scope="session")
def workload_1000():
    return generate_workload(BibWorkloadSpec(
        entries=1000, sources=2, overlap=0.3, conflict_rate=0.2,
        seed=1000))
