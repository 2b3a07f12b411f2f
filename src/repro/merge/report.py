"""Change reports: a human-oriented diff between two data sets.

``−K`` computes *object-level* differences; users syncing two versions
of a library also want the *entry-level* story: which entries appeared,
which vanished, and — for entries present in both — which attributes
changed and how. :func:`change_report` computes that, pairing entries by
Definition 6 compatibility (accelerated by the key index) and describing
each paired entry attribute by attribute.

The report is pure data plus a :func:`render_report` text form used by
examples and the CLI-adjacent tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.compatibility import check_key
from repro.core.data import Data, DataSet
from repro.core.objects import BOTTOM, SSObject, Tuple
from repro.store.index import KeyIndex
from repro.text import format_object

__all__ = ["AttributeChange", "EntryChange", "ChangeReport",
           "change_report", "render_report"]


@dataclass(frozen=True)
class AttributeChange:
    """One attribute's before/after (``⊥`` encodes absence)."""

    attribute: str
    before: SSObject
    after: SSObject

    @property
    def kind(self) -> str:
        """``added``, ``removed`` or ``changed``."""
        if self.before is BOTTOM:
            return "added"
        if self.after is BOTTOM:
            return "removed"
        return "changed"


@dataclass(frozen=True)
class EntryChange:
    """A paired entry whose object differs between the versions."""

    before: Data
    after: Data
    changes: tuple[AttributeChange, ...]


@dataclass
class ChangeReport:
    """Outcome of :func:`change_report`."""

    key: frozenset[str]
    added: list[Data] = field(default_factory=list)
    removed: list[Data] = field(default_factory=list)
    changed: list[EntryChange] = field(default_factory=list)
    unchanged: int = 0
    #: Entries that matched more than one partner; their pairing is
    #: ambiguous and only the first (canonical) partner is diffed.
    ambiguous: int = 0

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


def _tuple_changes(before: Tuple, after: Tuple) -> tuple[AttributeChange,
                                                         ...]:
    labels = sorted(set(before.attributes) | set(after.attributes))
    out = []
    for label in labels:
        old_value = before.get(label)
        new_value = after.get(label)
        if old_value != new_value:
            out.append(AttributeChange(label, old_value, new_value))
    return tuple(out)


def change_report(old: DataSet, new: DataSet,
                  key: Iterable[str]) -> ChangeReport:
    """Describe how ``new`` differs from ``old``, entry by entry."""
    checked = check_key(key)
    report = ChangeReport(key=checked)
    index = KeyIndex(new, checked)
    matched_new: set[Data] = set()
    for datum in old:
        partners = index.partners(datum)
        if not partners:
            report.removed.append(datum)
            continue
        if len(partners) > 1:
            report.ambiguous += 1
        partner = sorted(partners, key=repr)[0]
        matched_new.update(partners)
        if datum.object == partner.object:
            report.unchanged += 1
        elif isinstance(datum.object, Tuple) and isinstance(
                partner.object, Tuple):
            report.changed.append(EntryChange(
                datum, partner, _tuple_changes(datum.object,
                                               partner.object)))
        else:
            report.changed.append(EntryChange(
                datum, partner,
                (AttributeChange("<object>", datum.object,
                                 partner.object),)))
    report.added.extend(datum for datum in new
                        if datum not in matched_new)
    return report


def render_report(report: ChangeReport) -> str:
    """Render a change report as readable text."""
    lines = [
        f"changes (key = {{{', '.join(sorted(report.key))}}}): "
        f"{len(report.added)} added, {len(report.removed)} removed, "
        f"{len(report.changed)} changed, {report.unchanged} unchanged"
    ]
    if report.ambiguous:
        lines.append(f"  note: {report.ambiguous} entries matched "
                     f"several partners; first match diffed")
    for datum in report.added:
        lines.append(f"  + {datum.marker!r}: "
                     f"{format_object(datum.object)}")
    for datum in report.removed:
        lines.append(f"  - {datum.marker!r}: "
                     f"{format_object(datum.object)}")
    for entry in report.changed:
        lines.append(f"  ~ {entry.before.marker!r} -> "
                     f"{entry.after.marker!r}")
        for change in entry.changes:
            before = format_object(change.before)
            after = format_object(change.after)
            lines.append(f"      {change.attribute}: {before} -> {after}"
                         f" ({change.kind})")
    return "\n".join(lines)
