"""Binary snapshot codec: interning-aware streaming persistence.

A compact length-prefixed wire format for model objects, data and data
sets. Compared to :mod:`repro.json_codec` it deduplicates shared
substructure through a value table, never recurses (no
:mod:`repro.core.guard` big-stack retries), and streams one datum at a
time. See :mod:`repro.binary_codec.codec` for the format specification.
"""

from repro.binary_codec.codec import (
    MAGIC,
    VERSION,
    Decoder,
    Encoder,
    ValueTable,
    dump_data,
    dump_dataset,
    dump_object,
    dumps_data,
    dumps_dataset,
    dumps_object,
    load_data,
    load_dataset,
    load_object,
    loads_data,
    loads_dataset,
    loads_object,
    pack_uvarint,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "Encoder",
    "Decoder",
    "ValueTable",
    "pack_uvarint",
    "dump_object",
    "load_object",
    "dump_data",
    "load_data",
    "dump_dataset",
    "load_dataset",
    "dumps_object",
    "loads_object",
    "dumps_data",
    "loads_data",
    "dumps_dataset",
    "loads_dataset",
]
