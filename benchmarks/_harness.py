"""What the gated benchmark scripts share.

``tools/check_bench_regression.py`` smoke-runs nine scripts:
``bench_columnar``, ``bench_concurrency``, ``bench_interning``,
``bench_join``, ``bench_merge_pipeline``, ``bench_nested``,
``bench_query_planner``, ``bench_snapshot`` and ``bench_wal``. Each
times a fast path against a slower reference, mostly the definitional
``naive=True`` code, and fails on any run where the two answers differ.
This module holds their scaffolding: the ``src/`` path, the command
line, the JSON report, the failure check and exit status, the timers
and the three-way columnar scan phase. Each script keeps its workload,
oracles, floors and report, and imports this module (a sibling, found
through the script's own directory) before anything from ``repro``.

Every gated script runs standalone (pytest is not required)::

    python benchmarks/bench_columnar.py                # full run
    python benchmarks/bench_columnar.py --smoke        # CI
    python benchmarks/bench_columnar.py --out b.json   # also write it

``--smoke`` runs a tiny workload and skips the full-run floors; every
oracle runs on every run. The report is printed as JSON, and ``--out``
writes it too. The exit status is 0 on a pass, 1 when an oracle or a
floor fails (one ``FAIL:`` line each on stderr) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

#: The checkout's ``src/``, put first on ``sys.path`` so the scripts
#: run without ``PYTHONPATH`` and measure this tree, not an installed
#: ``repro``.
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from repro.core.intern import clear_pool  # noqa: E402
from repro.query import (  # noqa: E402
    compile_columnar,
    compile_condition,
    parse_query_spec,
)
from repro.store import ColumnStore  # noqa: E402


def main(run, *, smoke: dict, full: dict, checks, floors,
         argv: list[str] | None = None) -> int:
    """Run one gated benchmark from the command line; its exit status.

    ``run(**smoke)`` or ``run(**full)`` returns the report.
    ``checks(report)`` yields one message per failed oracle, which
    fails any run. ``floors`` holds ``(label, dotted report path,
    floor)`` triples: a full run fails when that ratio is ``None`` or
    below its floor.
    """
    parser = argparse.ArgumentParser(
        description=sys.modules[run.__module__].__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (skips the full-run "
                             "floors, keeps every oracle)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run(**(smoke if args.smoke else full))
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")

    failures = list(checks(report))
    if not args.smoke:
        for label, path, floor in floors:
            ratio = report
            for part in path.split("."):
                ratio = ratio[part]
            if ratio is None or ratio < floor:
                failures.append(
                    f"{label} {ratio}x is below the {floor}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def timed(action):
    """``(seconds, action())``, the call timed by ``time.perf_counter``."""
    start = time.perf_counter()
    result = action()
    return time.perf_counter() - start, result


def best_of(actions, *, repeat: int, before=None, timer=timed):
    """Per action, ``(fastest seconds, last result)`` over ``repeat`` rounds.

    The actions run round-robin (a, b, a, b, ...), so a busy stretch of
    a shared machine slows every contender instead of whichever one it
    lands on, and the min damps what noise is left. ``before()`` runs
    ahead of every call, outside the timing. ``timer(action)`` returns
    ``(seconds, result)``; an action that times itself elsewhere, such
    as in a fresh interpreter, passes a timer that reads its result.
    """
    bests = [None] * len(actions)
    results = [None] * len(actions)
    for _ in range(repeat):
        for position, action in enumerate(actions):
            if before is not None:
                before()
            seconds, results[position] = timer(action)
            if bests[position] is None or seconds < bests[position]:
                bests[position] = seconds
    return list(zip(bests, results))


def cold() -> None:
    """A ``before`` hook: an empty intern pool and a collected heap."""
    clear_pool()
    gc.collect()


def speedup(slow: float, fast: float) -> float | None:
    """``slow / fast`` to two places, or ``None`` when ``fast`` is 0."""
    return round(slow / fast, 2) if fast else None


def build_store(dataset):
    """``(seconds, store)`` for ``ColumnStore.build(dataset)``."""
    list(dataset)  # warm the canonical-order memo outside the timings
    return timed(lambda: ColumnStore.build(dataset))


def scan_phase(dataset, store, texts: list[str]) -> dict:
    """Run every query columnar, row-scan and naive; assert equality."""
    specs = [parse_query_spec(text) for text in texts]
    # Compile both sides outside the timed regions so the measurement
    # is scan time, not one-off condition compilation.
    for spec in specs:
        compile_condition(spec.condition)
        compile_columnar(spec.condition)

    columnar_seconds, columnar = timed(
        lambda: [spec.query(dataset, columns=store).run()
                 for spec in specs])
    rowscan_seconds, rowscan = timed(
        lambda: [spec.query(dataset).run() for spec in specs])
    naive_seconds, naive = timed(
        lambda: [spec.query(dataset).run(naive=True) for spec in specs])

    mismatches = [text for text, fast, row, slow
                  in zip(texts, columnar, rowscan, naive)
                  if fast != slow or row != slow]
    plans_columnar = all(
        spec.query(dataset, columns=store).explain().strategy
        == "columnar"
        for spec in specs[:5])

    return {
        "queries": len(texts),
        "result_rows": sum(len(result) for result in columnar),
        "columnar_seconds": round(columnar_seconds, 6),
        "rowscan_seconds": round(rowscan_seconds, 6),
        "naive_seconds": round(naive_seconds, 6),
        "speedup": speedup(rowscan_seconds, columnar_seconds),
        "plans_columnar": plans_columnar,
        "mismatches": mismatches,
    }
