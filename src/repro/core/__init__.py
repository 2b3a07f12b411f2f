"""Core data model and algebra (the paper's primary contribution).

Re-exports the public names so ``from repro.core import ...`` (or the
top-level ``from repro import ...``) is all a user needs.
"""

from repro.core.builder import (
    atom,
    bottom,
    cset,
    data,
    dataset,
    iobj,
    marker,
    obj,
    orv,
    pset,
    tup,
)
from repro.core.compatibility import (
    check_key,
    compatible,
    compatible_data,
    find_compatible,
)
from repro.core.data import Data, DataSet
from repro.core.errors import (
    CodecError,
    EmptyKeyError,
    ExpandError,
    InvalidAttributeError,
    InvalidMarkerError,
    InvalidObjectError,
    MergeError,
    ModelError,
    OperationError,
    ParseError,
    QueryError,
    ReproError,
    ResolutionError,
    WorkloadError,
)
from repro.core.expand import expand_data, expand_dataset, expand_object
from repro.core.guard import EXTENDED_LIMIT, guarded, recursion_headroom
from repro.core.intern import (
    InternPool,
    clear_pool,
    equal,
    intern,
    intern_data,
    intern_dataset,
    intern_stats,
    is_interned,
)
from repro.core.informativeness import (
    comparable,
    data_less_informative,
    dataset_less_informative,
    less_informative,
    maximal_elements,
    strictly_less_informative,
)
from repro.core.objects import (
    BOTTOM,
    Atom,
    Bottom,
    CompleteSet,
    Marker,
    OrValue,
    PartialSet,
    SSObject,
    Tuple,
    disjuncts_of,
    is_set_object,
)
from repro.core.operations import difference, intersection, union
from repro.core.order import (
    object_depth,
    object_size,
    sort_objects,
    structural_key,
)
from repro.core.visitor import (
    IN_OR,
    IN_SET,
    collect,
    contains_kind,
    count_kind,
    format_path,
    transform,
    walk,
)

__all__ = [
    # objects
    "SSObject", "Atom", "Marker", "Bottom", "BOTTOM", "OrValue",
    "PartialSet", "CompleteSet", "Tuple", "disjuncts_of", "is_set_object",
    # data
    "Data", "DataSet",
    # builders
    "obj", "iobj", "atom", "marker", "tup", "pset", "cset", "orv", "data",
    "dataset", "bottom",
    # interning
    "InternPool", "intern", "intern_data", "intern_dataset",
    "is_interned", "equal", "clear_pool", "intern_stats",
    # order / informativeness
    "structural_key", "sort_objects", "object_depth", "object_size",
    "less_informative", "strictly_less_informative", "comparable",
    "data_less_informative", "dataset_less_informative",
    "maximal_elements",
    # compatibility
    "compatible", "compatible_data", "check_key", "find_compatible",
    # operations
    "union", "intersection", "difference",
    # expand
    "expand_object", "expand_data", "expand_dataset",
    # recursion guard
    "guarded", "recursion_headroom", "EXTENDED_LIMIT",
    # traversal
    "walk", "transform", "collect", "contains_kind", "count_kind",
    "format_path", "IN_SET", "IN_OR",
    # errors
    "ReproError", "ModelError", "InvalidObjectError",
    "InvalidAttributeError", "InvalidMarkerError", "OperationError",
    "EmptyKeyError", "ExpandError", "ParseError", "CodecError",
    "MergeError", "ResolutionError", "QueryError", "WorkloadError",
]
