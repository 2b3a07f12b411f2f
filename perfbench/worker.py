"""Child-process roles of the benchmark, one role per process.

``python3 perfbench/worker.py ROLE CONFIG.json`` with the checkout's
``src`` on ``PYTHONPATH``. Roles:

* ``prepare`` -- build the corpus files and the two on-disk stores
  (ingest base: source 0, see ``workloads.BASE_LOG_CHURNS``; full:
  every source, 40 batches of it left in the log), once per checkout;
* ``inputs`` -- draw one run's op stream from its seed;
* ``setup`` -- one more timed set-up sample (open + warm-up reads);
* ``measure`` -- set up, run the closed loop, check reads against the
  ``naive=True`` oracles, report;
* ``reopen`` / ``replay`` -- run side by side after a writing run: the
  written store reopened, and an in-memory replay of the acknowledged
  writes; the parent requires equal contents. ``reopen`` also reports
  the compacted bytes on disk.

Every role writes one JSON result file named in its config.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from repro.binary_codec import Decoder, dumps_dataset, loads_dataset  # noqa
from repro.core.data import DataSet  # noqa: E402
from repro.core.intern import intern_stats  # noqa: E402
from repro.store.database import Database  # noqa: E402
from repro.workloads import fork_source  # noqa: E402

#: Requests (read_adhoc) and reads (mixed_rw) re-run against the naive
#: oracle, at fixed indices every run reaches, so the pinned views they
#: keep alive (and so peak RSS) do not depend on how far a run gets. Of
#: a sampled read_adhoc request, two query classes (rotating) are re-run,
#: plus the join of the first one: naive scans cost 0.3-1 s each.
SAMPLED = {"read_adhoc": (3, 33, 63), "mixed_rw": (3, 100, 200)}


def open_store(path, scale: W.Scale) -> Database:
    """``Database.open`` with its defaults (durable, fsync, group
    commit, auto-compaction); the tiny self-check scale lowers the
    compaction threshold so compaction still happens."""
    if scale.compact_bytes is None:
        return Database.open(path)
    return Database.open(path, compact_bytes=scale.compact_bytes)


def load_rows(path: Path) -> list:
    """Data in file order (written canonical; no re-sort, no interning)."""
    return list(Decoder(io.BytesIO(path.read_bytes())).iter_data())


def store_bytes(path: Path) -> int:
    return sum(os.path.getsize(part)
               for part in (path, Path(str(path) + ".wal"))
               if os.path.exists(part))


# -- prepare / inputs ------------------------------------------------------

def prepare(cfg: dict) -> dict:
    scale = W.SCALES[cfg["scale"]]
    out = Path(cfg["cache_dir"])
    sources, nested = W.corpus(scale)
    for at, source in enumerate(sources):
        (out / f"source{at}.bin").write_bytes(dumps_dataset(list(source)))
    (out / "nested.bin").write_bytes(dumps_dataset(list(nested)))
    fork = fork_source(sources[0], seed=W.CORPUS_SEED,
                       protect=frozenset(W.KEY))
    (out / "fork0.bin").write_bytes(dumps_dataset(list(fork)))

    (out / "base").mkdir()
    with open_store(out / "base" / "store.db", scale) as db:
        db.merge_in(sources[0], W.KEY)
        db.compact()
        rows = list(db.snapshot())
        for _ in range(W.BASE_LOG_CHURNS):
            db.apply_many(removed=rows)
            db.apply_many(added=rows)

    rows = list(nested)
    tail = min(W.FULL_WAL_TAIL_BATCHES * W.INGEST_BATCH, len(rows) // 5)
    (out / "full").mkdir()
    with open_store(out / "full" / "store.db", scale) as db:
        for source in sources:
            db.merge_in(source, W.KEY)
        db.merge_in(DataSet(rows[:len(rows) - tail]), W.KEY)
        db.compact()
        for batch in W.chunks(rows[len(rows) - tail:], W.INGEST_BATCH):
            db.merge_in(DataSet(batch), W.KEY)
        live = list(db.snapshot())
    (out / "full_rows.bin").write_bytes(dumps_dataset(live))
    # read_adhoc never writes, so its store's compacted size is the
    # prepared store's: measured here once, on a scratch copy.
    scratch = out / "compacted"
    shutil.copytree(out / "full", scratch)
    with open_store(scratch / "store.db", scale) as db:
        full_disk = compacted_bytes(db, str(scratch / "store.db"))
    shutil.rmtree(scratch)
    manifest = {"sizes": {name: len(load_rows(out / name))
                          for name in W.INGEST_STREAMS},
                "full_disk": full_disk}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return {"full_rows": len(live)}


#: Op-stream length per second of phase: over twice the rates seen, so
#: a run does not run out of ops before its deadline (the mixed_rw
#: stream counts cycles of seven store calls; the ingest stream ends
#: after ~1270 batches, when every row file is used up).
OPS_PER_SECOND = {"ingest": 200, "read_adhoc": 40, "mixed_rw": 20}


def inputs(cfg: dict) -> dict:
    cache = Path(cfg["cache_dir"])
    workload, seed = cfg["workload"], cfg["seed"]
    limit = cfg.get("ops") or int(cfg["seconds"] * OPS_PER_SECOND[workload])
    if workload == "ingest":
        sizes = json.loads((cache / "manifest.json").read_text())["sizes"]
        ops = W.ingest_ops([sizes[name] for name in W.INGEST_STREAMS],
                           seed, limit)
    elif workload == "read_adhoc":
        ops = W.read_adhoc_ops(seed, limit)
    else:
        ops = W.mixed_rw_ops(load_rows(cache / "full_rows.bin"), seed,
                             limit)
    blob = pickle.dumps(ops, protocol=4)
    Path(cfg["ops_file"]).write_bytes(blob)
    return {"ops": limit, "sha256": hashlib.sha256(blob).hexdigest()}


# -- the measured process --------------------------------------------------

def read_request(db: Database, request) -> tuple:
    """One read_adhoc request: a fresh view, six queries, one join."""
    texts, (left, right) = request
    view = db.view()
    results = [view.query(text) for text in texts]
    return view, results, db.join_query(left, right, "title")


def warm_up(db: Database, workload: str, ops) -> None:
    """One read of every read class (none for ingest)."""
    if workload == "read_adhoc":
        read_request(db, ops["warmup"])
    elif workload == "mixed_rw":
        for text in ops["warmup"]:
            db.view().query(text)


def sampled(meter: speed.Speedometer, cfg: dict):
    """Timer samples inside calls, except in a traced run: there they
    would land inside the spans."""
    return contextlib.nullcontext() if cfg["trace"] else meter.timer()


def timed_setup(cfg: dict, ops, meter: speed.Speedometer) -> tuple:
    """Open and warm up; the database and the set-up seconds as
    measured and at reference speed (see ``speed.py``)."""
    scale = W.SCALES[cfg["scale"]]
    meter.take(speed.EDGE_SAMPLES)
    with sampled(meter, cfg):
        start = perf_counter_ns()
        db = open_store(cfg["store"], scale)
        warm_up(db, cfg["workload"], ops)
        end = perf_counter_ns()
    meter.take(speed.EDGE_SAMPLES)
    measured, reference = meter.interval(start, end)
    return db, {"setup_s": measured / 1e9, "setup_ref_s": reference / 1e9}


def setup(cfg: dict) -> dict:
    ops = pickle.loads(Path(cfg["ops_file"]).read_bytes())
    gc.collect()
    db, seconds = timed_setup(cfg, ops, speed.Speedometer())
    db.close()
    return seconds


#: A phase stops after this many times its seconds of wall time, even
#: if the host ran so slowly that less reference time had passed.
WALL_CAP = 3


class Phase:
    """The closed loop's clock, latencies and failures.

    The phase lasts its seconds of *reference* time (op time scaled to
    the reference speed, see ``speed.py``), not of wall time: a run on a
    slowed host then does the same work as one on an idle host. That
    matters on ingest, whose writes get slower as the store grows.
    """

    def __init__(self, seconds: float | None, tracer, meter):
        self.seconds = seconds
        self.tracer = tracer
        self.meter = meter
        meter.start_phase()
        self.start = perf_counter_ns()
        self.end = self.start
        #: reference ns of the ops so far (scaled by the samples so far)
        self.reference = 0
        #: ``(start_ns, end_ns)`` per op and per store call of each class
        self.ops: list[tuple[int, int]] = []
        self.calls: dict[str, list[tuple[int, int]]] = {}
        self.failures: list[dict] = []
        #: the op stream ended before the deadline
        self.ran_out = False

    def more(self, index: int, total: int) -> bool:
        self.meter.take()
        running = self.seconds is None or (
            self.reference < self.seconds * 1e9
            and perf_counter_ns() - self.start < WALL_CAP * self.seconds * 1e9)
        self.ran_out = running and index >= total
        return running and index < total

    def call(self, index: int, kind: str, func, *args):
        """Run one store call; an exception is recorded, never hidden."""
        began = perf_counter_ns()
        try:
            return True, func(*args)
        except Exception as exc:  # every store error counts as failed
            self.failures.append({"op": index, "class": kind,
                                  "error": repr(exc),
                                  "traceback": traceback.format_exc()})
            return False, None
        finally:
            self.calls.setdefault(kind, []).append(
                (began, perf_counter_ns()))

    def done(self, began: int) -> None:
        self.end = perf_counter_ns()
        self.ops.append((began, self.end))
        self.reference += self.meter.interval(began, self.end)[1]

    def timings(self) -> dict:
        """Op and call durations as measured and at reference speed,
        kernel samples taken out (see ``speed.py``)."""
        interval = self.meter.interval

        def both(timed):
            pairs = [interval(began, end) for began, end in timed]
            return {"ns": [measured for measured, _ in pairs],
                    "ref_ns": [reference for _, reference in pairs]}

        return {"op": both(self.ops),
                "class": {kind: both(timed)
                          for kind, timed in self.calls.items()}}


def run_ingest(db, ops, phase: Phase, wal_bases: set) -> dict:
    acked = []
    index = 0
    while phase.more(index, len(ops)):
        phase.tracer.op = index
        began = perf_counter_ns()
        ok, _ = phase.call(index, "write", db.merge_in, ops[index], W.KEY)
        phase.done(began)
        if ok:
            acked.append(index)
        wal_bases.add(db.wal.base_generation)
        index += 1
    return {"acked": acked}


def run_read_adhoc(db, ops, phase: Phase, wal_bases: set) -> dict:
    samples = []
    joins = []
    requests = ops["requests"]
    index = 0
    while phase.more(index, len(requests)):
        phase.tracer.op = index
        began = perf_counter_ns()
        ok, answer = phase.call(index, "read", read_request, db,
                                requests[index])
        phase.done(began)
        if ok and index in SAMPLED["read_adhoc"]:
            (texts, (left, right)), (view, results, rows) = \
                requests[index], answer
            first = len(samples) % len(texts)  # rotate through classes
            for kind in (first, first + 1):
                samples.append((view, texts[kind], results[kind]))
            if not joins:
                joins.append((view.generation, left, right, rows))
        index += 1
    return {"samples": samples, "joins": joins}


def run_mixed_rw(db, ops, phase: Phase, wal_bases: set) -> dict:
    """One op is one cycle of seven store calls in seeded order: a write
    and a read of each of the six classes, each read on a fresh view.
    (Single calls would mix sub-ms cache hits, ~10 ms writes and 50 ms
    index rebuilds in one distribution, whose median jumps between
    those modes.)"""
    acked = []
    samples = []
    cycles = ops["cycles"]
    reads = 0
    index = 0
    while phase.more(index, len(cycles)):
        phase.tracer.op = index
        began = perf_counter_ns()
        for kind, payload in cycles[index]:
            if kind == "w":
                ok, _ = phase.call(index, "write", db.merge_in, payload,
                                   W.KEY)
                if ok:
                    acked.append(index)
                wal_bases.add(db.wal.base_generation)
            else:
                view = db.view()
                ok, result = phase.call(index, "read", view.query, payload)
                if ok and reads in SAMPLED["mixed_rw"]:
                    samples.append((view, payload, result))
                reads += 1
        phase.done(began)
        index += 1
    return {"acked": acked, "samples": samples}


RUNNERS = {"ingest": run_ingest, "read_adhoc": run_read_adhoc,
           "mixed_rw": run_mixed_rw}


def ingest_batches(cache: Path, ops) -> list[DataSet]:
    """The ingest op stream as (un-interned) data sets."""
    streams = [load_rows(cache / name) for name in W.INGEST_STREAMS]
    return [DataSet([streams[stream][at] for at in positions])
            for stream, positions in ops]


def decode_ops(cfg: dict, ops):
    """Client-side decoding, before the clock starts: batches become
    (un-interned) data sets, exactly what a client would hand over."""
    workload = cfg["workload"]
    if workload == "ingest":
        return ingest_batches(Path(cfg["cache_dir"]), ops)
    if workload == "mixed_rw":
        ops["cycles"] = [[(kind, loads_dataset(payload) if kind == "w"
                           else payload) for kind, payload in steps]
                         for steps in ops["cycles"]]
    return ops


def check_reads(db: Database, samples, joins, tamper: bool) -> dict:
    """Re-run sampled reads with ``naive=True`` on the same pinned view,
    and sampled joins with ``join_query(..., naive=True)``."""
    if tamper and samples:
        # Self-check: a deliberately wrong expected answer must fail.
        view, text, _ = samples[0]
        samples[0] = (view, text, "a wrong answer")
    mismatches = [text for view, text, result in samples
                  if view.query(text, naive=True) != result]
    for generation, left, right, rows in joins:
        if (db.generation != generation
                or db.join_query(left, right, "title", naive=True) != rows):
            mismatches.append(f"join on title [{left}] [{right}]")
    return {"checked": len(samples) + len(joins), "mismatches": mismatches}


def measure(cfg: dict) -> dict:
    workload = cfg["workload"]
    ops = decode_ops(cfg, pickle.loads(Path(cfg["ops_file"]).read_bytes()))
    tracer = tracing.Tracer()
    if cfg["trace"]:
        layers.install(tracer)
        tracer.install_gc()
    gc.collect()
    meter = speed.Speedometer()
    db, setup = timed_setup(cfg, ops, meter)
    stats0 = db.cache_stats()
    wchar0 = tracing.read_wchar()
    wal_bases = {db.wal.base_generation}
    with sampled(meter, cfg):
        phase = Phase(None if cfg.get("ops") else cfg["seconds"], tracer,
                      meter)
        outcome = RUNNERS[workload](db, ops, phase, wal_bases)
    rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wchar = tracing.read_wchar() - wchar0
    stats1 = db.cache_stats()
    pool_size = intern_stats()["size"]
    tracer.uninstall()
    wal = db.wal
    reads = check_reads(db, outcome.pop("samples", []),
                        outcome.pop("joins", []), cfg.get("tamper", False))
    db.close()  # joins a background compaction still running
    wal_bases.add(wal.base_generation)
    result = {
        **setup,
        "elapsed_s": (phase.end - phase.start) / 1e9,
        "timings": phase.timings(),
        "speed": {"samples": len(meter.ns) - meter.phase_from,
                  "scale": meter.phase_scale()},
        "failures": phase.failures,
        "ran_out": phase.ran_out and phase.seconds is not None,
        "rss_peak_mb": rss_peak_mb,
        "cache": {key: stats1[key] - stats0[key]
                  for key in ("hits", "misses", "retags", "evictions")},
        "frames_appended": wal.frames_appended,
        "sync_batches": wal.sync_batches,
        "compactions": len(wal_bases) - 1,
        "wchar": wchar,
        "pool_size": pool_size,
        "reads": reads,
        "generation": db.generation,
        "rows": len(db),
    }
    result.update(outcome)
    if workload == "read_adhoc":
        manifest = json.loads(
            (Path(cfg["cache_dir"]) / "manifest.json").read_text())
        result["disk"] = manifest["full_disk"]
    if cfg["trace"]:
        result["layers"] = layer_metrics(tracer, phase, result,
                                         meter.phase_scale(),
                                         setup["setup_ref_s"]
                                         / setup["setup_s"])
        result["unwrappable"] = tracer.unwrappable
        tracer.dump(cfg["spans_file"])
    return result


def compacted_bytes(db: Database, path: str) -> dict:
    """Snapshot plus log bytes and live rows once the log is compacted
    (a fixed point of the store's size, wherever a run stopped)."""
    db.compact()
    return {"bytes": store_bytes(Path(path)), "rows": len(db)}


def layer_metrics(tracer, phase: Phase, result: dict, scale: float,
                  setup_scale: float) -> dict:
    """Per-layer metrics; times at reference speed (the run's median
    scale for phase times, the set-up scale for set-up times)."""
    ops = max(len(phase.ops), 1)
    table = tracer.self_times()
    metrics: dict[str, float] = {}

    def phase_row(name):
        return table.get((name, "phase"), [0, 0, 0])

    calls, self_ns, _ = phase_row(layers.WRITE)
    metrics[f"{layers.WRITE}.self_ms_per_op"] = self_ns * scale / 1e6 / ops
    metrics[f"{layers.WRITE}.calls_per_op"] = calls / ops
    for name in layers.PHASE:
        calls, self_ns, _ = phase_row(name)
        metrics[f"{name}.ms_per_op"] = self_ns * scale / 1e6 / ops
        metrics[f"{name}.calls_per_op"] = calls / ops
    for name in layers.SETUP:
        calls, self_ns, _ = table.get((name, "setup"), [0, 0, 0])
        metrics[f"{name}.ms"] = self_ns * setup_scale / 1e6
        metrics[f"{name}.calls"] = calls
    values = tracer.values
    frames_rows = values.get("frame_rows", 0)
    written_rows = max(frames_rows, 1)
    unaccounted = sum(end - began for began, end in phase.ops) \
        - tracer.root_ns()
    gc_summary = tracer.gc_summary()
    cache = result["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "core.order.structural_key.calls_per_op":
            tracer.counts.get(("core.order.structural_key", True), 0) / ops,
        "core.intern.pool_size": result["pool_size"],
        "store.wal.frames_replayed": values.get("frames_replayed", 0),
        "store.wal.frame_bytes_per_row":
            values.get("frame_bytes", 0) / written_rows,
        "store.wal.frames_per_sync":
            result["frames_appended"] / max(result["sync_batches"], 1),
        "device.write_bytes_per_row":
            result["wchar"] / written_rows if frames_rows else 0.0,
        "store.database.compactions": result["compactions"],
        "store.database.compact_overlap_ops": tracer.overlap_count(
            layers.WRITE, "store.database.Database.compact"),
        "store.columnar.row_fallback_rows_per_op":
            values.get("fallback_rows", 0) / ops,
        "store.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "store.cache.retags_per_op": cache["retags"] / ops,
        "store.cache.evictions_per_op": cache["evictions"] / ops,
        "gc.pause_ms_per_op": gc_summary["pause_ms"] * scale / ops,
        "gc.gen2_per_op": gc_summary["gen2"] / ops,
        "trace.unaccounted_ms_per_op": unaccounted * scale / 1e6 / ops,
    })
    return metrics


# -- the reopen oracle -----------------------------------------------------

def digest(db: Database) -> dict:
    """Contents fingerprint that ignores interning and hash seed: the
    sorted structural keys of every datum (keys are injective)."""
    from repro.core.order import structural_key

    keys = sorted(repr((structural_key(datum.marker),
                        structural_key(datum.object))) for datum in db)
    blob = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    return {"sha256": blob, "rows": len(db), "generation": db.generation}


def reopen(cfg: dict) -> dict:
    """Reopen the written store in this fresh process (snapshot plus
    log replay); report its contents and its compacted size."""
    with open_store(cfg["store"], W.SCALES[cfg["scale"]]) as actual:
        found = digest(actual)
        found["disk"] = compacted_bytes(actual, cfg["store"])
    return found


def replay(cfg: dict) -> dict:
    """An in-memory ``Database`` replay of the acknowledged writes on
    top of the prepared store (run beside :func:`reopen`)."""
    workload = cfg["workload"]
    measured = json.loads(Path(cfg["measure_file"]).read_text())
    ops = pickle.loads(Path(cfg["ops_file"]).read_bytes())
    acked = list(measured["acked"])
    if cfg.get("tamper") and acked:
        acked.pop()  # self-check: a wrong expectation must fail
    if workload == "ingest":
        batches = ingest_batches(Path(cfg["cache_dir"]), ops)
    else:
        batches = [loads_dataset(next(payload for kind, payload in cycle
                                      if kind == "w"))
                   for cycle in ops["cycles"]]
    expected = Database.recover_to(cfg["pristine"])
    for index in acked:
        expected.merge_in(batches[index], W.KEY)
    return digest(expected)


ROLES = {"prepare": prepare, "inputs": inputs, "setup": setup,
         "measure": measure, "reopen": reopen, "replay": replay}


def main() -> int:
    role, config = sys.argv[1], sys.argv[2]
    cfg = json.loads(Path(config).read_text())
    result = ROLES[role](cfg)
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
