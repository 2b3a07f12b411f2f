"""Merge specifications: which key identifies which kind of data.

Definition 12 takes one key set ``K`` for a whole operation, but real
multi-source merging (the paper's BibTeX motivation) needs different keys
for different kinds of entries — articles may be identified by
``{type, title}`` while web pages are identified by ``{Title}``. A
:class:`MergeSpec` captures that: a default key plus per-class overrides,
where a datum's class is the value of its type attribute (the paper's
informal "objects with similar properties are grouped into a class").

The engine partitions data by class and applies Definition 12 within each
partition, so data of different classes never combine — consistent with
the paper, where an ``Article`` and an ``InProc`` with equal titles stay
apart because ``type`` is part of the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.compatibility import check_key
from repro.core.data import Data
from repro.core.errors import MergeError
from repro.core.objects import Atom, Tuple

__all__ = ["MergeSpec"]

#: Class name used for data whose object is not a tuple or has no type.
UNCLASSIFIED = "<unclassified>"

#: Fold strategies the engine understands. Both produce structurally
#: identical results; they differ only in how the Definition 12 pairing
#: work is organized.
STRATEGIES = ("naive", "blocked")


@dataclass(frozen=True)
class MergeSpec:
    """Key configuration for a multi-source merge.

    Attributes:
        default_key: key used for classes without an override.
        type_attribute: tuple attribute that names a datum's class.
        per_class: class name → key override.
        strategy: how the engine organizes the Definition 12 pairing —
            ``"naive"`` (the definitional all-pairs :class:`DataSet`
            scans) or ``"blocked"`` (the default: the k-way
            signature-blocked ``∪K`` fold of :mod:`repro.store.bulk`,
            and ``∩K``/``−K`` through the key index). Results are
            structurally identical under both.

    The type attribute is implicitly part of every key (like in the
    paper's Example 6, where ``K = {type, title}``): the engine partitions
    by class first, which subsumes matching on the type attribute.
    """

    default_key: frozenset[str]
    type_attribute: str = "type"
    per_class: Mapping[str, frozenset[str]] = field(default_factory=dict)
    strategy: str = "blocked"

    def __post_init__(self):
        object.__setattr__(self, "default_key",
                           check_key(self.default_key))
        validated = {
            name: check_key(key) for name, key in self.per_class.items()
        }
        object.__setattr__(self, "per_class", validated)
        if not self.type_attribute:
            raise MergeError("type_attribute must be non-empty")
        if self.strategy not in STRATEGIES:
            raise MergeError(
                f"unknown merge strategy {self.strategy!r}; expected one "
                f"of {', '.join(STRATEGIES)}")

    def class_of(self, datum: Data) -> str:
        """Return the class name of a datum.

        The class is the string value of the type attribute; anything else
        (non-tuple object, absent or non-string type) is unclassified.
        """
        obj = datum.object
        if isinstance(obj, Tuple):
            type_value = obj.get(self.type_attribute)
            if isinstance(type_value, Atom) and \
                    isinstance(type_value.value, str):
                return type_value.value
        return UNCLASSIFIED

    def key_for_class(self, class_name: str) -> frozenset[str]:
        """Return the key set used inside the given class partition."""
        return self.per_class.get(class_name, self.default_key)

    def key_for(self, datum: Data) -> frozenset[str]:
        """Return the key set that identifies ``datum``."""
        return self.key_for_class(self.class_of(datum))
