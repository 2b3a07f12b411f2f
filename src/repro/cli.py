"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``merge A.bib B.bib [...]`` — merge BibTeX databases with the paper's
  ``∪K``, print the conflict report, emit merged BibTeX (or JSON/text);
* ``convert FILE`` — convert between formats (bib, json, text) inferred
  from extensions or forced with ``--from``/``--to``;
* ``query FILE "select ..."`` — run a textual query against a file
  (selections, aggregates with ``group by``, and — with
  ``--join QUERY --on PATH`` — hash joins of two selections);
* ``diff A.bib B.bib`` / ``intersect A.bib B.bib`` — the other two
  operations;
* ``sync BASE MINE THEIRS`` — three-way, ancestor-aware merge;
* ``changes OLD NEW`` — entry-level diff between two versions;
* ``describe FILE`` — inferred schema and merge-key advice;
* ``rules PROGRAM FILE`` — run a rule program over a data file;
* ``snapshot save|load|convert`` — persist a database snapshot
  (``--format json|binary``; binary snapshots carry the key indexes
  and load key-index-warm);
* ``wal info|compact|recover`` — inspect a durable store's write-ahead
  log, fold it into the snapshot, or emit the contents as of any
  logged generation (point-in-time recovery);
* ``experiments [ids...]`` — alias for ``python -m repro.harness``.

All commands read/write the three interchange formats through the same
loaders, so ``repro convert library.bib --to json`` and
``repro query library.json 'select title where year >= 1990'`` compose.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.bibtex import dataset_to_bibtex, parse_bib_source
from repro.core.data import DataSet
from repro.core.errors import ReproError
from repro.json_codec import dumps_dataset, loads_dataset
from repro.merge import MergeEngine, MergeSpec
from repro.text import format_dataset, parse_dataset

__all__ = ["main"]

_FORMATS = ("bib", "json", "text")
_EXTENSIONS = {".bib": "bib", ".json": "json", ".txt": "text",
               ".ssd": "text"}


def _detect_format(path: str, forced: str | None) -> str:
    if forced:
        return forced
    suffix = Path(path).suffix.lower()
    if suffix in _EXTENSIONS:
        return _EXTENSIONS[suffix]
    raise ReproError(
        f"cannot infer format of {path!r}; pass --from/--to "
        f"({', '.join(_FORMATS)})")


def _load(path: str, forced: str | None = None) -> DataSet:
    source = Path(path).read_text()
    name = _detect_format(path, forced)
    if name == "bib":
        return parse_bib_source(source)
    if name == "json":
        return loads_dataset(source)
    return parse_dataset(source)


def _render(dataset: DataSet, name: str, on_conflict: str) -> str:
    if name == "bib":
        return dataset_to_bibtex(dataset, on_conflict=on_conflict)
    if name == "json":
        return dumps_dataset(dataset, indent=2)
    return format_dataset(dataset, indent=2)


def _emit(dataset: DataSet, args: argparse.Namespace) -> None:
    text = _render(dataset, args.to, getattr(args, "on_conflict",
                                             "comment"))
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _key(args: argparse.Namespace) -> frozenset[str]:
    return frozenset(args.key.split(","))


def _cmd_merge(args: argparse.Namespace) -> int:
    engine = MergeEngine(MergeSpec(default_key=_key(args),
                                   strategy=args.strategy))
    for index, path in enumerate(args.files):
        engine.add_source(f"source{index}:{Path(path).name}",
                          _load(path, args.from_format))
    result = engine.merge()
    stats = result.stats
    print(f"# merged {stats.input_data} entries from {stats.sources} "
          f"sources into {stats.output_data} "
          f"({stats.merged_groups} combined, {stats.conflicts} "
          f"conflicts, {stats.gaps} gaps)", file=sys.stderr)
    for conflict in result.conflicts:
        alternatives = " | ".join(repr(a) for a in conflict.alternatives)
        print(f"# conflict {conflict.location()}: {alternatives}",
              file=sys.stderr)
    _emit(result.dataset, args)
    return 0


def _binary_op(args: argparse.Namespace, operation: str) -> int:
    first = _load(args.files[0], args.from_format)
    second = _load(args.files[1], args.from_format)
    key = _key(args)
    if operation == "diff":
        result = first.difference(second, key)
    else:
        result = first.intersection(second, key)
    _emit(result, args)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    _emit(_load(args.file, args.from_format), args)
    return 0


def _format_value(value: object) -> str:
    from repro.core.objects import SSObject
    from repro.text import format_object

    if isinstance(value, SSObject):
        return format_object(value)
    return repr(value)


def _render_aggregate(result: dict) -> str:
    """Render an aggregate result (possibly grouped) as text.

    Ungrouped results map ``label -> value``; grouped results map
    ``group key (an object) -> {label: value}``. Values may be plain
    scalars, :class:`~repro.query.aggregates.Bounds` intervals, or
    or-valued objects — all partiality stays visible in the output.
    """
    lines = []
    for key, value in result.items():
        if isinstance(key, str):
            lines.append(f"{key} = {_format_value(value)}")
        else:
            lines.append(f"group {_format_value(key)}:")
            for name, inner in value.items():
                lines.append(f"  {name} = {_format_value(inner)}")
    return "\n".join(lines)


def _render_join_rows(rows) -> str:
    """Render join output, one left/right pair per line.

    ``?`` flags a *maybe* pair — one that matches only under some
    resolution of an or-value or ⊥ on a join path.
    """
    from repro.text import format_data

    lines = []
    for row in rows:
        flag = "? " if row.maybe else "  "
        lines.append(f"{flag}{format_data(row.left)}  |x|  "
                     f"{format_data(row.right)}")
    return "\n".join(lines)


def _print(text: str, args: argparse.Namespace) -> None:
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query.parser import parse_query_spec
    from repro.store.database import Database

    dataset = _load(args.file, args.from_format)
    if args.join and not args.on:
        raise ReproError("--join requires at least one --on key path")
    if args.on and not args.join:
        raise ReproError("--on only applies with --join")
    # Every form runs through one Database, so a plan sees exactly what
    # execution would: the columnar shredding and its column indexes.
    with Database(dataset) as database:
        if args.join:
            # Two selections of the same store joined on key path(s);
            # explain renders the JoinPlan (build/probe, est vs actual).
            on = tuple(args.on)
            if args.explain:
                plan = database.explain_join(args.query, args.join, on,
                                             analyze=True)
                print(plan.describe())
            else:
                rows = database.join_query(args.query, args.join, on)
                _print(_render_join_rows(rows), args)
            return 0
        if args.explain:
            print(database.explain(args.query, analyze=True).describe())
            return 0
        result = database.query(args.query)
    if parse_query_spec(args.query).is_aggregate:
        _print(_render_aggregate(result), args)
    else:
        _emit(result, args)
    return 0


def _cmd_sync(args: argparse.Namespace) -> int:
    from repro.merge.sync import sync

    base, mine, theirs = (_load(path, args.from_format)
                          for path in args.files)
    result = sync(base, mine, theirs, _key(args))
    print(f"# sync: {result.added} added, {result.deleted} deleted, "
          f"{result.modified} modified, {len(result.conflicts)} "
          f"conflicts", file=sys.stderr)
    for conflict in result.conflicts:
        print(f"# {conflict.describe()}", file=sys.stderr)
    _emit(result.dataset, args)
    return 0


def _cmd_changes(args: argparse.Namespace) -> int:
    from repro.merge.report import change_report, render_report

    old = _load(args.files[0], args.from_format)
    new = _load(args.files[1], args.from_format)
    report = change_report(old, new, _key(args))
    print(render_report(report))
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.rules import Engine, parse_program
    from repro.text import format_object

    program = parse_program(Path(args.program).read_text())
    engine = Engine(program)
    engine.load_dataset("entry", _load(args.file, args.from_format))
    predicates = args.predicate or sorted(program.predicates())
    for predicate in predicates:
        rows = sorted(engine.facts(predicate), key=repr)
        print(f"{predicate}: {len(rows)} facts")
        for row in rows:
            rendered = ", ".join(format_object(value) for value in row)
            print(f"  {predicate}({rendered})")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.schema import infer_schema, suggest_key

    schema = infer_schema(_load(args.file, args.from_format))
    print(schema.describe())
    for name in schema.class_names():
        suggested = suggest_key(schema.classes[name])
        if suggested:
            print(f"suggested key for {name}: "
                  f"{{{', '.join(suggested)}}}")
    return 0


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    from repro.store.database import Database

    dataset = _load(args.file, args.from_format)
    database = Database(dataset)
    database.save(args.snapshot, format=args.format)
    print(f"# saved {len(database)} entries to {args.snapshot} "
          f"({args.format})", file=sys.stderr)
    return 0


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    from repro.store.database import Database

    database = Database.load(args.snapshot)
    print(f"# loaded {len(database)} entries from {args.snapshot}",
          file=sys.stderr)
    _emit(database.snapshot(), args)
    return 0


def _cmd_snapshot_convert(args: argparse.Namespace) -> int:
    from repro.store.database import Database

    database = Database.load(args.snapshot)
    database.save(args.dest, format=args.format)
    print(f"# converted {args.snapshot} -> {args.dest} ({args.format})",
          file=sys.stderr)
    return 0


def _cmd_wal_info(args: argparse.Namespace) -> int:
    from repro.store.database import Database
    from repro.store.wal import scan_wal, wal_path

    snapshot = Path(args.snapshot)
    if snapshot.exists():
        generation = Database.load(snapshot).generation
        print(f"snapshot: {snapshot} (generation {generation}, "
              f"{snapshot.stat().st_size} bytes)")
    else:
        print(f"snapshot: {snapshot} (absent; recovery replays onto an "
              f"empty store)")
    log_path = wal_path(snapshot)
    scan = scan_wal(log_path)
    if not scan.exists:
        print(f"log: {log_path} (absent)")
        return 0
    if not scan.header_valid:
        print(f"log: {log_path} (corrupt header; {scan.file_size} "
              f"bytes ignored)")
        return 0
    torn = scan.file_size - scan.valid_length
    print(f"log: {log_path} (format version {scan.version}, "
          f"base generation {scan.base_generation}, "
          f"{len(scan.frames)} frames, {scan.valid_length} bytes, "
          f"log table {len(scan.table)} nodes"
          + (f", {torn} torn tail bytes" if torn else "") + ")")
    for frame in scan.frames:
        print(f"  generation {frame.generation}: "
              f"-{len(frame.removed)}/+{len(frame.added)}")
    print(f"last recoverable generation: {scan.last_generation}")
    return 0


def _cmd_wal_compact(args: argparse.Namespace) -> int:
    from repro.store.database import Database
    from repro.store.wal import wal_path

    with Database.open(args.snapshot, auto_compact=False) as database:
        generation = database.generation
        database.compact()
    log_size = wal_path(args.snapshot).stat().st_size
    print(f"# compacted {args.snapshot} at generation {generation} "
          f"(log now {log_size} bytes)", file=sys.stderr)
    return 0


def _cmd_wal_recover(args: argparse.Namespace) -> int:
    from repro.store.database import Database

    database = Database.recover_to(args.snapshot, args.generation)
    print(f"# recovered {len(database)} entries as of generation "
          f"{database.generation}", file=sys.stderr)
    if args.save:
        database.save(args.save, format=args.format)
        print(f"# saved to {args.save} ({args.format})",
              file=sys.stderr)
        return 0
    _emit(database.snapshot(), args)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness.runner import main as harness_main

    return harness_main(args.ids)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Manipulate semistructured data with partial and "
                    "inconsistent information (Liu & Ling, EDBT 2000).")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, single_file: bool,
               minimum: int = 2) -> None:
        if single_file:
            sub.add_argument("file", help="input file")
        else:
            sub.add_argument("files", nargs="+" if minimum == 1 else None,
                             help="input files")
        sub.add_argument("--from", dest="from_format", choices=_FORMATS,
                         help="force the input format")
        sub.add_argument("--to", choices=_FORMATS, default="text",
                         help="output format (default: text)")
        sub.add_argument("-o", "--output", help="write to a file")

    merge = commands.add_parser(
        "merge", help="union several sources (records conflicts)")
    merge.add_argument("files", nargs="+", help="input files")
    merge.add_argument("--from", dest="from_format", choices=_FORMATS)
    merge.add_argument("--to", choices=_FORMATS, default="bib")
    merge.add_argument("-o", "--output")
    merge.add_argument("--key", default="type,title",
                       help="comma-separated key attributes "
                            "(default: type,title)")
    merge.add_argument("--on-conflict", choices=("error", "comment"),
                       default="comment",
                       help="BibTeX rendering of or-values")
    merge.add_argument("--strategy",
                       choices=("naive", "blocked"),
                       default="blocked",
                       help="fold organization (identical results; "
                            "default: blocked)")
    merge.set_defaults(handler=_cmd_merge)

    for name, help_text in (("diff", "first source minus the second"),
                            ("intersect", "common information")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("files", nargs=2, help="two input files")
        sub.add_argument("--from", dest="from_format", choices=_FORMATS)
        sub.add_argument("--to", choices=_FORMATS, default="text")
        sub.add_argument("-o", "--output")
        sub.add_argument("--key", default="type,title")
        sub.set_defaults(handler=lambda args, _name=name:
                         _binary_op(args, _name))

    convert = commands.add_parser("convert",
                                  help="convert between formats")
    common(convert, single_file=True)
    convert.set_defaults(handler=_cmd_convert)

    query = commands.add_parser("query", help="run a textual query")
    query.add_argument("file", help="input file")
    query.add_argument("query", help='e.g. \'select title where '
                                     'year >= 1990\'')
    query.add_argument("--from", dest="from_format", choices=_FORMATS)
    query.add_argument("--to", choices=_FORMATS, default="text")
    query.add_argument("-o", "--output")
    query.add_argument("--explain", action="store_true",
                       help="print the physical plan (strategy, "
                            "estimated and actual rows) instead of "
                            "the results")
    query.add_argument("--join", metavar="QUERY",
                       help="a second 'select ...' over the same file; "
                            "hash-join its rows with the main query's "
                            "on the --on key path(s)")
    query.add_argument("--on", action="append", metavar="PATH",
                       help="join key path (repeatable; required with "
                            "--join)")
    query.set_defaults(handler=_cmd_query)

    sync_cmd = commands.add_parser(
        "sync", help="three-way merge: base, mine, theirs")
    sync_cmd.add_argument("files", nargs=3,
                          help="ancestor, my version, their version")
    sync_cmd.add_argument("--from", dest="from_format", choices=_FORMATS)
    sync_cmd.add_argument("--to", choices=_FORMATS, default="text")
    sync_cmd.add_argument("-o", "--output")
    sync_cmd.add_argument("--key", default="type,title")
    sync_cmd.set_defaults(handler=_cmd_sync)

    changes = commands.add_parser(
        "changes", help="entry-level diff between two versions")
    changes.add_argument("files", nargs=2, help="old and new file")
    changes.add_argument("--from", dest="from_format", choices=_FORMATS)
    changes.add_argument("--key", default="type,title")
    changes.set_defaults(handler=_cmd_changes)

    rules = commands.add_parser(
        "rules", help="run a rule program against a data file")
    rules.add_argument("program", help="rules file (.rules)")
    rules.add_argument("file", help="data file loaded as entry(M, O)")
    rules.add_argument("--from", dest="from_format", choices=_FORMATS)
    rules.add_argument("--predicate", action="append", default=None,
                       help="print only these derived predicates "
                            "(repeatable; default: all heads)")
    rules.set_defaults(handler=_cmd_rules)

    describe = commands.add_parser(
        "describe", help="infer and print the structural schema")
    describe.add_argument("file", help="input file")
    describe.add_argument("--from", dest="from_format", choices=_FORMATS)
    describe.set_defaults(handler=_cmd_describe)

    snapshot = commands.add_parser(
        "snapshot", help="save/load/convert database snapshots")
    snapshot_commands = snapshot.add_subparsers(dest="snapshot_command",
                                                required=True)

    snap_save = snapshot_commands.add_parser(
        "save", help="build a database from an interchange file and "
                     "persist it")
    snap_save.add_argument("file", help="input file (bib, json, text)")
    snap_save.add_argument("snapshot", help="snapshot file to write")
    snap_save.add_argument("--from", dest="from_format", choices=_FORMATS,
                           help="force the input format")
    snap_save.add_argument("--format", choices=("json", "binary"),
                           default="binary",
                           help="snapshot format (default: binary)")
    snap_save.set_defaults(handler=_cmd_snapshot_save)

    snap_load = snapshot_commands.add_parser(
        "load", help="load a snapshot and emit its contents")
    snap_load.add_argument("snapshot", help="snapshot file "
                                            "(format auto-detected)")
    snap_load.add_argument("--to", choices=_FORMATS, default="text",
                           help="output format (default: text)")
    snap_load.add_argument("-o", "--output", help="write to a file")
    snap_load.set_defaults(handler=_cmd_snapshot_load)

    snap_convert = snapshot_commands.add_parser(
        "convert", help="re-encode a snapshot in the other format")
    snap_convert.add_argument("snapshot", help="source snapshot "
                                               "(format auto-detected)")
    snap_convert.add_argument("dest", help="destination snapshot file")
    snap_convert.add_argument("--format", choices=("json", "binary"),
                              required=True,
                              help="destination format")
    snap_convert.set_defaults(handler=_cmd_snapshot_convert)

    wal = commands.add_parser(
        "wal", help="inspect/compact/recover a durable store's "
                    "write-ahead log")
    wal_commands = wal.add_subparsers(dest="wal_command", required=True)

    wal_info = wal_commands.add_parser(
        "info", help="show the log's frames and recoverable range")
    wal_info.add_argument("snapshot", help="durable snapshot path "
                                           "(log lives at <path>.wal)")
    wal_info.set_defaults(handler=_cmd_wal_info)

    wal_compact = wal_commands.add_parser(
        "compact", help="fold the log into the snapshot and truncate "
                        "it")
    wal_compact.add_argument("snapshot", help="durable snapshot path")
    wal_compact.set_defaults(handler=_cmd_wal_compact)

    wal_recover = wal_commands.add_parser(
        "recover", help="emit the store as of a logged generation")
    wal_recover.add_argument("snapshot", help="durable snapshot path")
    wal_recover.add_argument("--generation", type=int, default=None,
                             help="target generation (default: the "
                                  "last intact frame)")
    wal_recover.add_argument("--to", choices=_FORMATS, default="text",
                             help="output format (default: text)")
    wal_recover.add_argument("-o", "--output", help="write to a file")
    wal_recover.add_argument("--save", metavar="SNAPSHOT",
                             help="instead of emitting, save the "
                                  "recovered state as a new snapshot")
    wal_recover.add_argument("--format", choices=("json", "binary"),
                             default="binary",
                             help="format for --save "
                                  "(default: binary)")
    wal_recover.set_defaults(handler=_cmd_wal_recover)

    experiments = commands.add_parser(
        "experiments", help="run the reproduction experiments")
    experiments.add_argument("ids", nargs="*")
    experiments.set_defaults(handler=_cmd_experiments)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe: not an error.
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
