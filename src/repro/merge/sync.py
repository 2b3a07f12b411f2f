"""Three-way synchronization: merging two divergent copies of a source.

``∪K`` merges two *independent* sources; when both sides instead evolved
from a **common ancestor** (two people editing copies of the same bib
file), plain union resurrects deletions — an entry you deleted is still
in the other copy and comes back. Three-way sync uses the ancestor to
tell deletion apart from addition, exactly like a version-control merge:

* entries **added** on either side are kept;
* entries **deleted** on one side and untouched on the other stay
  deleted;
* entries deleted on one side but **modified** on the other raise a
  delete/modify :class:`SyncConflict` (the modified version is kept —
  information is never silently dropped);
* entries modified on both sides are combined with ``∪K``; disagreements
  surface as the model's or-values, reported as edit/edit conflicts.

The result is deterministic and — unlike raw ``∪K`` folding — symmetric
in the two sides apart from marker naming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.compatibility import check_key
from repro.core.data import Data, DataSet
from repro.merge.conflicts import Conflict, find_conflicts
from repro.store.index import KeyIndex

__all__ = ["SyncConflict", "SyncResult", "sync"]


@dataclass(frozen=True)
class SyncConflict:
    """One conflict the sync could not silently resolve."""

    kind: str              # "delete/modify" or "edit/edit"
    entry: Data            # the surviving datum in the result
    detail: str

    def describe(self) -> str:
        return f"{self.kind}: {self.entry.marker!r} — {self.detail}"


@dataclass
class SyncResult:
    """Outcome of :func:`sync`."""

    dataset: DataSet
    conflicts: list[SyncConflict] = field(default_factory=list)
    added: int = 0
    deleted: int = 0
    modified: int = 0

    @property
    def clean(self) -> bool:
        return not self.conflicts


def _partner(datum: Data, index: KeyIndex) -> Data | None:
    candidates = index.partners(datum)
    if not candidates:
        return None
    return sorted(candidates, key=repr)[0]


def sync(base: DataSet, mine: DataSet, theirs: DataSet,
         key: Iterable[str]) -> SyncResult:
    """Three-way merge of two descendants of ``base``."""
    checked = check_key(key)
    mine_index = KeyIndex(mine, checked)
    theirs_index = KeyIndex(theirs, checked)
    base_index = KeyIndex(base, checked)

    result: list[Data] = []
    conflicts: list[SyncConflict] = []
    added = deleted = modified = 0
    seen_mine: set[Data] = set()
    seen_theirs: set[Data] = set()

    for ancestor in base:
        in_mine = _partner(ancestor, mine_index)
        in_theirs = _partner(ancestor, theirs_index)
        if in_mine is not None:
            seen_mine.add(in_mine)
        if in_theirs is not None:
            seen_theirs.add(in_theirs)

        if in_mine is None and in_theirs is None:
            deleted += 1
            continue
        if in_mine is None or in_theirs is None:
            survivor = in_mine if in_mine is not None else in_theirs
            if survivor.object == ancestor.object:
                # Deleted on one side, untouched on the other: deletion
                # wins.
                deleted += 1
                continue
            # Deleted on one side, modified on the other: keep the
            # modification and flag it.
            result.append(survivor)
            conflicts.append(SyncConflict(
                "delete/modify", survivor,
                "deleted on one side but modified on the other; the "
                "modified entry was kept"))
            modified += 1
            continue
        combined = in_mine.union(in_theirs, checked)
        result.append(combined)
        if combined.object != ancestor.object:
            modified += 1
        fresh_conflicts = _new_conflicts(combined, ancestor)
        for conflict in fresh_conflicts:
            alternatives = " | ".join(
                repr(a) for a in conflict.alternatives)
            conflicts.append(SyncConflict(
                "edit/edit", combined,
                f"both sides changed "
                f"{'.'.join(conflict.path) or '<root>'}: "
                f"{alternatives}"))

    for datum in mine:
        if datum not in seen_mine and \
                _partner(datum, base_index) is None:
            result.append(datum)
            added += 1
    for datum in theirs:
        if datum in seen_theirs or \
                _partner(datum, base_index) is not None:
            continue
        # Entries added on both sides can still describe one entity:
        # combine them instead of duplicating.
        mine_twin = _partner(datum, mine_index)
        if mine_twin is not None and mine_twin in result:
            result.remove(mine_twin)
            combined = mine_twin.union(datum, checked)
            result.append(combined)
            for conflict in find_conflicts(DataSet([combined])):
                alternatives = " | ".join(
                    repr(a) for a in conflict.alternatives)
                conflicts.append(SyncConflict(
                    "edit/edit", combined,
                    f"independently added entries disagree on "
                    f"{'.'.join(conflict.path)}: {alternatives}"))
        else:
            result.append(datum)
            added += 1

    outcome = SyncResult(DataSet(result), conflicts, added, deleted,
                         modified)
    return outcome


def _new_conflicts(combined: Data, ancestor: Data) -> list[Conflict]:
    """Or-values of ``combined`` that were not already in the ancestor
    (pre-existing recorded conflicts are not *sync* conflicts)."""
    ancestral = {
        (conflict.path, frozenset(conflict.alternatives))
        for conflict in find_conflicts(DataSet([ancestor]))}
    return [
        conflict for conflict in find_conflicts(DataSet([combined]))
        if (conflict.path,
            frozenset(conflict.alternatives)) not in ancestral]
