"""The multi-source merge engine.

Puts the algebra to work on the paper's motivating task: *"while two or
more persons work together on a paper, an immediate problem is how to
merge multiple Bibtex databases"*. The engine:

1. registers named sources (a :class:`~repro.merge.provenance.SourceCatalog`
   is maintained for conflict tracing);
2. partitions data by class (:class:`~repro.merge.spec.MergeSpec`);
3. folds Definition 12's ``∪K`` over the sources within each partition,
   using each class's key;
4. reports the result with its conflicts, gaps and statistics.

``intersect_all``/``subtract`` expose the other two operations with the
same per-class key handling.

The fold itself is organized by ``MergeSpec.strategy``: the default
``"blocked"`` strategy hands each class partition to the k-way
signature-blocked pipeline (:func:`repro.store.bulk.blocked_union`) and
pairs ``∩K``/``−K`` through the key index (:mod:`repro.store.ops`);
``"naive"`` keeps the definitional :meth:`DataSet` scans for all three.
Both strategies produce structurally identical results — the fold order
is the source registration order in either case, which matters because
``∪K`` is commutative but not associative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.data import Data, DataSet
from repro.core.errors import MergeError
from repro.merge.conflicts import Conflict, Gap, find_conflicts, find_gaps
from repro.merge.provenance import SourceCatalog
from repro.merge.spec import MergeSpec
from repro.store.bulk import blocked_union
from repro.store.ops import indexed_difference, indexed_intersection

__all__ = ["MergeEngine", "MergeResult", "MergeStats"]


@dataclass(frozen=True)
class MergeStats:
    """Bookkeeping numbers for one merge run."""

    sources: int
    input_data: int
    output_data: int
    merged_groups: int
    conflicts: int
    gaps: int

    @property
    def compression(self) -> float:
        """``output/input`` — below 1.0 means entries were combined."""
        if self.input_data == 0:
            return 1.0
        return self.output_data / self.input_data


@dataclass(frozen=True)
class MergeResult:
    """Outcome of :meth:`MergeEngine.merge`."""

    dataset: DataSet
    conflicts: tuple[Conflict, ...]
    gaps: tuple[Gap, ...]
    stats: MergeStats
    catalog: SourceCatalog

    def clean(self) -> DataSet:
        """The conflict-free part of the result."""
        return self.dataset.filter(Data.is_real)

    def conflicted(self) -> DataSet:
        """The data still carrying conflicts or merged identities."""
        return self.dataset.filter(Data.is_virtual)


class MergeEngine:
    """Merges any number of named sources under a :class:`MergeSpec`."""

    def __init__(self, spec: MergeSpec):
        self._spec = spec
        self._catalog = SourceCatalog()
        self._order: list[str] = []

    @property
    def spec(self) -> MergeSpec:
        return self._spec

    @property
    def catalog(self) -> SourceCatalog:
        return self._catalog

    def add_source(self, name: str, dataset: DataSet) -> "MergeEngine":
        """Register a source; returns self for chaining."""
        self._catalog.add(name, dataset)
        self._order.append(name)
        return self

    def _require_sources(self, minimum: int) -> list[DataSet]:
        if len(self._order) < minimum:
            raise MergeError(
                f"need at least {minimum} sources, have {len(self._order)}")
        return [self._catalog.get(name) for name in self._order]

    # -- partitioned Definition 12 operations -------------------------------

    def _partition(self, dataset: DataSet) -> dict[str, DataSet]:
        classes: dict[str, list[Data]] = {}
        for datum in dataset:
            classes.setdefault(self._spec.class_of(datum), []).append(datum)
        return {name: DataSet(data) for name, data in classes.items()}

    def _combine(self, first: DataSet, second: DataSet,
                 operation: str) -> DataSet:
        """Apply a Definition 12 operation per class partition.

        ``∩K`` and ``−K`` pair through :mod:`repro.store.ops` (identical
        results, index-accelerated) unless the spec's strategy is
        ``"naive"``. Only the naive fold reaches the union branch (the
        blocked fold never pairs two sets at a time), so it keeps the
        definitional scan.
        """
        fast = self._spec.strategy != "naive"
        first_parts = self._partition(first)
        second_parts = self._partition(second)
        result: list[Data] = []
        for class_name in set(first_parts) | set(second_parts):
            key = self._spec.key_for_class(class_name)
            left = first_parts.get(class_name, DataSet())
            right = second_parts.get(class_name, DataSet())
            if operation == "union":
                combined = left.union(right, key)
            elif operation == "intersection":
                combined = (indexed_intersection(left, right, key) if fast
                            else left.intersection(right, key))
            else:
                combined = (indexed_difference(left, right, key) if fast
                            else left.difference(right, key))
            result.extend(combined)
        return DataSet(result)

    def _union_all(self, sources: list[DataSet]) -> DataSet:
        """Fold ``∪K`` over the sources under the spec's strategy."""
        if self._spec.strategy == "naive":
            merged = sources[0]
            for source in sources[1:]:
                merged = self._combine(merged, source, "union")
            return merged
        # Blocked: partition every source by class once. The class (the
        # type attribute's value) is invariant under within-class union,
        # so the one-time partition equals the per-step partitioning of
        # the pairwise fold; each class then merges k-way.
        classes: dict[str, list[list[Data]]] = {}
        for source in sources:
            local: dict[str, list[Data]] = {}
            for datum in source:
                local.setdefault(self._spec.class_of(datum),
                                 []).append(datum)
            for class_name, rows in local.items():
                classes.setdefault(class_name, []).append(rows)
        result: list[Data] = []
        for class_name, slabs in classes.items():
            key = self._spec.key_for_class(class_name)
            result.extend(blocked_union(slabs, key))
        return DataSet(result)

    def merge(self) -> MergeResult:
        """Union all sources (Definition 12, folded left to right).

        ``∪K`` is commutative but *not* associative (experiment P5 /
        finding F5), so the fold order — the source registration order —
        can influence how conflicts group. Register sources in a
        deterministic order for reproducible merges.
        """
        sources = self._require_sources(1)
        merged = self._union_all(sources)
        conflicts = tuple(find_conflicts(merged))
        gaps = tuple(find_gaps(merged))
        input_count = sum(len(s) for s in sources)
        merged_groups = sum(
            1 for datum in merged if len(datum.markers) > 1)
        stats = MergeStats(
            sources=len(sources),
            input_data=input_count,
            output_data=len(merged),
            merged_groups=merged_groups,
            conflicts=len(conflicts),
            gaps=len(gaps),
        )
        return MergeResult(merged, conflicts, gaps, stats, self._catalog)

    def intersect_all(self) -> DataSet:
        """Common information across all sources (Definition 12 ``∩K``)."""
        sources = self._require_sources(2)
        common = sources[0]
        for source in sources[1:]:
            common = self._combine(common, source, "intersection")
        return common

    def subtract(self, minuend: str, subtrahend: str) -> DataSet:
        """Information in one source but not another (``−K``)."""
        return self._combine(self._catalog.get(minuend),
                             self._catalog.get(subtrahend), "difference")
