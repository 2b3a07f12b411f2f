"""Which of the program's callables the traced run wraps, and the
per-layer metrics it derives from them.

Each entry wraps the attribute the *caller* resolves at call time: a
function imported by name into another module is wrapped in that
module's namespace as well (``from x import f`` binds ``f`` there).
"""

from __future__ import annotations

import importlib

#: Timed callables measured during the phase: each reports
#: ``<name>.ms_per_op`` (self time) and ``<name>.calls_per_op``.
PHASE = (
    "core.intern.intern_data",
    "store.bulk.union_diff",
    "store.index.KeyIndex.patched",
    "store.attr_index.AttrIndex.patched",
    "store.database.Database.compact",
    "store.wal.encode_frame_body",
    "store.wal.WriteAheadLog.append_batch",
    "store.wal.GroupCommitter.commit",
    "device.fsync",
    "store.columnar.ColumnStore.build",
    "store.columnar.ColumnStore.patched",
    "store.columnar.Column.possible_index",
    "store.columnar.Column.eq_bits",
    "store.columnar.ColumnStore.match_positions",
    "store.columnar.ColumnStore.matches",
    "store.cache.QueryResultCache.commit",
    "store.database.DatabaseView.query",
    "store.database.Database.join_query",
    "query.parser.parse_query_spec",
    "query.compile.compile_condition",
    "query.compile.compile_columnar",
    "query.planner.select_data",
    "query.aggregates.group_aggregate_columnar",
    "query.join.JoinQuery.rows",
)

#: ``merge_in`` wall time minus its wrapped children.
WRITE = "store.database.write"

#: Callables timed during set-up: ``<name>.ms`` and ``<name>.calls``.
SETUP = (
    "store.database.Database.open",
    "store.database.Database.load",
    "store.wal.scan_wal",
    "store.columnar.ColumnStore.build",
)

#: ``(name, unit)`` of the counters and ratios the traced run reports.
COUNTERS = (
    ("core.order.structural_key.calls_per_op", "count"),
    ("core.intern.pool_size", "count"),
    ("store.wal.frames_replayed", "count"),
    ("store.wal.frame_bytes_per_row", "B"),
    ("store.wal.frames_per_sync", "count"),
    ("device.write_bytes_per_row", "B"),
    ("store.database.compactions", "count"),
    ("store.database.compact_overlap_ops", "count"),
    ("store.columnar.row_fallback_rows_per_op", "count"),
    ("store.cache.hit_ratio", "1"),
    ("store.cache.retags_per_op", "count"),
    ("store.cache.evictions_per_op", "count"),
    ("gc.pause_ms_per_op", "ms"),
    ("gc.gen2_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_ms_per_op", "ms"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{WRITE}.self_ms_per_op": "ms",
             f"{WRITE}.calls_per_op": "count"}
    for name in PHASE:
        units[f"{name}.ms_per_op"] = "ms"
        units[f"{name}.calls_per_op"] = "count"
    for name in SETUP:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    return units


#: ``(metric name, "module:attribute" targets)``: every binding of one
#: callable that callers resolve at call time.
TARGETS = (
    ("core.intern.intern_data", ("repro.store.database:intern_data",)),
    ("store.bulk.union_diff", ("repro.store.database:union_diff",)),
    ("store.index.KeyIndex.patched", ("repro.store.index:KeyIndex.patched",)),
    ("store.attr_index.AttrIndex.patched",
     ("repro.store.attr_index:AttrIndex.patched",)),
    (WRITE, ("repro.store.database:Database.merge_in",)),
    ("store.database.Database.compact",
     ("repro.store.database:Database.compact",)),
    ("store.wal.encode_frame_body",
     ("repro.store.database:encode_frame_body",)),
    ("store.wal.WriteAheadLog.append_batch",
     ("repro.store.wal:WriteAheadLog.append_batch",)),
    ("store.wal.GroupCommitter.commit",
     ("repro.store.wal:GroupCommitter.commit",)),
    ("device.fsync", ("os:fsync",)),
    ("store.database.Database.open", ("repro.store.database:Database.open",)),
    ("store.database.Database.load", ("repro.store.database:Database.load",)),
    ("store.wal.scan_wal", ("repro.store.database:scan_wal",)),
    ("store.columnar.ColumnStore.build",
     ("repro.store.columnar:ColumnStore.build",)),
    ("store.columnar.ColumnStore.patched",
     ("repro.store.columnar:ColumnStore.patched",)),
    ("store.columnar.Column.possible_index",
     ("repro.store.columnar:Column.possible_index",)),
    ("store.columnar.Column.eq_bits",
     ("repro.store.columnar:Column.eq_bits",)),
    ("store.columnar.ColumnStore.match_positions",
     ("repro.store.columnar:ColumnStore.match_positions",)),
    ("store.columnar.ColumnStore.matches",
     ("repro.store.columnar:ColumnStore.matches",)),
    ("store.cache.QueryResultCache.commit",
     ("repro.store.cache:QueryResultCache.commit",)),
    ("store.database.DatabaseView.query",
     ("repro.store.database:DatabaseView.query",)),
    ("store.database.Database.join_query",
     ("repro.store.database:Database.join_query",)),
    ("query.parser.parse_query_spec",
     ("repro.query.parser:parse_query_spec",)),
    ("query.compile.compile_condition",
     ("repro.query.compile:compile_condition",
      "repro.query.planner:compile_condition",
      "repro.query.join:compile_condition")),
    ("query.compile.compile_columnar",
     ("repro.query.compile:compile_columnar",
      "repro.query.planner:compile_columnar",
      "repro.query.join:compile_columnar")),
    ("query.planner.select_data", ("repro.query.planner:select_data",)),
    ("query.aggregates.group_aggregate_columnar",
     ("repro.query.aggregates:group_aggregate_columnar",)),
    ("query.join.JoinQuery.rows", ("repro.query.join:JoinQuery.rows",)),
)

#: Calls-only counters (``<name>.calls_per_op``): too hot to time.
COUNTED = (
    ("core.order.structural_key",
     tuple(f"{module}:structural_key" for module in (
         "repro.core.data", "repro.query.planner", "repro.query.join",
         "repro.query.aggregates", "repro.store.columnar"))),
)


def _owner(target: str):
    """``(owner, attribute)`` of a ``module:Class.attr`` target, or
    ``(None, reason)`` when a later version of the program moved it."""
    module_name, _, path = target.partition(":")
    # import_module, not "import a.b as m": a package attribute can
    # shadow its submodule (repro.core.data is also a function name).
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        return None, f"{module_name}: {exc}"
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, f"{target}: no {name}"
    return owner, attr


def install(tracer) -> None:
    """Wrap every target (see :data:`TARGETS` and :data:`COUNTED`);
    targets that do not exist are recorded by the tracer, not fatal."""

    def frame_bytes(args, body):
        if tracer.op >= 0:
            tracer.add("frame_bytes", len(body))
            tracer.add("frame_rows", len(args[0]) + len(args[1]))

    def frames_replayed(args, scan):
        tracer.add("frames_replayed", len(scan.frames))

    def count_fallback(args):
        """Count calls of the per-row predicate ``match_positions``
        gets as its second argument (rows the bitsets left open)."""
        if len(args) < 3:
            return args
        predicate = args[2]

        def counted(obj):
            if tracer.op >= 0:
                tracer.add("fallback_rows", 1)
            return predicate(obj)

        return args[:2] + (counted,) + args[3:]

    hooks = {
        "store.wal.encode_frame_body": {"after": frame_bytes},
        "store.wal.scan_wal": {"after": frames_replayed},
        "store.columnar.ColumnStore.match_positions":
            {"before": count_fallback},
    }
    for name, targets in TARGETS + COUNTED:
        for target in targets:
            owner, attr = _owner(target)
            if owner is None:
                tracer.unwrappable.append((name, attr))
                continue
            tracer.wrap(owner, attr, name,
                        calls_only=(name, targets) in COUNTED,
                        **hooks.get(name, {}))
