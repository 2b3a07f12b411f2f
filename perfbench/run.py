"""End-to-end benchmark of the semistructured store.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --selfcheck

One invocation measures one workload (``ingest``, ``read_adhoc`` or
``mixed_rw``, see ``predictions.json`` for why each exists; ``all`` runs
the three in turn) through the public ``Database`` API, checks every
answer against an oracle, prints its metrics by name with units, and
ends with one JSON line per workload::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 3 when an oracle disagreed (after the result line),
1 when the benchmark itself could not run, 2 outside a checkout.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (plus the untraced run it
is compared with for ``trace.overhead_pct``).

Every reported time is at a fixed reference speed of the host: each
measured process times a fixed kernel between and inside its ops and
scales its own times by it (``speed.py``), because the shared vCPUs
switch between speeds up to 2x apart within seconds. The times as
measured are printed beside them.

Isolation: each role runs in a fresh child process whose
``PYTHONHASHSEED`` is derived from the workload seed. The corpus and
its stores are prepared untimed by another child, once per checkout
and source tree, and every measured run works on a fresh copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Set-up samples per untraced run (the measured process is one).
SETUP_SAMPLES = 3
#: Tail percentile reported per op: a round percentile with at least
#: ten samples beyond it in every workload (an 8 s run makes about 70
#: mixed_rw cycles, 135 read_adhoc requests and 520 ingest writes).
TAIL = 85
#: Every child of a run must finish inside this budget (seconds from
#: the start of the run, preparing the cache excluded).
BUDGET_S = 170.0
#: Self-check op counts (fixed counts, not seconds).
SELFCHECK_OPS = {"ingest": 60, "read_adhoc": 12, "mixed_rw": 150}

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    f"op_p{TAIL}_ms": "ms",
    "rss_peak_mb": "MB",
    "disk_bytes_per_row": "B",
}

#: Why each workload exists, what one op is, the flush policy and the
#: predictions the traced run checks (written before the first run).
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def hash_seed(workload: str, seed: int) -> int:
    """The ``PYTHONHASHSEED`` of a run, derived from its workload seed."""
    return zlib.crc32(f"{workload}:{seed}".encode()) % 4294967295 + 1


class BenchError(Exception):
    """The benchmark itself could not run (not a store failure)."""


class Runner:
    """Starts the worker processes of runs inside one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.monotonic()
        self.work = HERE / "work"
        #: wall seconds per child, for the run's time budget
        self.child_s: dict[str, float] = {}

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def _start(self, role: str, cfg: dict, run_dir: Path, pyhashseed: int,
               tag: str):
        cfg_path = run_dir / f"{tag}.cfg.json"
        cfg = dict(cfg, result=str(run_dir / f"{tag}.result.json"))
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ,
                   PYTHONPATH=str(self.root / "src"),
                   PYTHONHASHSEED=str(pyhashseed))
        if self.remaining() <= 5:
            raise BenchError(f"time budget exhausted before {tag}")
        process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), role, str(cfg_path)],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        return process, cfg["result"], time.monotonic()

    def _finish(self, started, tag: str) -> dict:
        process, result, began = started
        try:
            _, stderr = process.communicate(timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired as exc:
            process.kill()
            process.communicate()
            raise BenchError(f"{tag} ran out of the time budget") from exc
        except BaseException:  # interrupted: never leave the child behind
            process.kill()
            process.communicate()
            raise
        self.child_s[tag] = time.monotonic() - began
        if process.returncode != 0:
            raise BenchError(f"{tag} exited {process.returncode}:\n"
                             f"{stderr[-4000:]}")
        return json.loads(Path(result).read_text())

    def child(self, role: str, cfg: dict, run_dir: Path, pyhashseed: int,
              tag: str) -> dict:
        return self._finish(self._start(role, cfg, run_dir, pyhashseed, tag),
                            tag)

    def children(self, jobs: list, run_dir: Path, pyhashseed: int) -> list:
        """Run ``(role, cfg, tag)`` jobs side by side; every process is
        waited for, also when another one failed."""
        started = []
        try:
            for role, cfg, tag in jobs:
                started.append((self._start(role, cfg, run_dir, pyhashseed,
                                            tag), tag))
            return [self._finish(job, tag) for job, tag in started]
        finally:
            for (process, _, _), _ in started:
                if process.poll() is None:
                    process.kill()
                    process.communicate()

    def source_digest(self) -> str:
        digest = hashlib.sha256()
        files = sorted((self.root / "src" / "repro").rglob("*.py"))
        files += [HERE / "workloads.py", HERE / "worker.py"]
        for path in files:
            digest.update(str(path.relative_to(self.root)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    def cache(self, scale: str) -> Path:
        """The prepared corpus and stores, built once per source tree."""
        cache = self.work / f"cache-{scale}-{self.source_digest()}"
        if cache.exists():
            return cache
        self.work.mkdir(parents=True, exist_ok=True)
        building = self.work / f"building-{os.getpid()}"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir()
        try:
            self.child("prepare", {"scale": scale,
                                   "cache_dir": str(building)},
                       building, 0, "prepare")
            try:
                building.rename(cache)
            except OSError:
                if not cache.exists():
                    raise
        finally:
            shutil.rmtree(building, ignore_errors=True)
        return cache

    def run(self, workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", ops: int | None = None,
            tamper: bool = False) -> dict:
        """Prepare, measure and verify one workload run; raw results."""
        cache = self.cache(scale)
        # A checkout's first run also prepares the cache: the budget
        # below covers the run itself.
        self.started = time.monotonic()
        run_dir = self.work / f"run-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            return self._run(cache, run_dir, workload, seed, seconds,
                             trace, scale, ops, tamper)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _run(self, cache, run_dir, workload, seed, seconds, trace,
             scale, ops, tamper) -> dict:
        pyhashseed = hash_seed(workload, seed)
        family = "base" if workload == "ingest" else "full"
        pristine = cache / family / "store.db"
        common = {"workload": workload, "seed": seed, "seconds": seconds,
                  "scale": scale, "ops": ops, "cache_dir": str(cache),
                  "ops_file": str(run_dir / "ops.pkl"),
                  "pristine": str(pristine), "tamper": tamper}
        out = {"hash_seed": pyhashseed}
        out["inputs"] = self.child("inputs", common, run_dir, pyhashseed,
                                   "inputs")

        def fresh_store(name: str) -> str:
            target = run_dir / name
            target.mkdir()
            for part in pristine.parent.iterdir():
                shutil.copy2(part, target / part.name)
            return str(target / "store.db")

        setups = []
        sides = ["untraced", "traced"] if trace else ["untraced"]
        for side in sides:
            cfg = dict(common, store=fresh_store(side),
                       trace=side == "traced",
                       spans_file=str(run_dir / "spans.jsonl"))
            if side == "untraced" and not trace:
                for sample in range(SETUP_SAMPLES - 1):
                    setups.append(self.child(
                        "setup", cfg, run_dir, pyhashseed,
                        f"setup{sample}"))
            measured = self.child("measure", cfg, run_dir, pyhashseed,
                                  f"measure-{side}")
            setups.append(measured)
            if workload != "read_adhoc":
                check = dict(cfg, measure_file=str(
                    run_dir / f"measure-{side}.result.json"))
                found, expected = self.children(
                    [("reopen", check, f"reopen-{side}"),
                     ("replay", check, f"replay-{side}")],
                    run_dir, pyhashseed)
                disk = found.pop("disk")
                measured["verify"] = {
                    "equal": found == expected, "disk": disk,
                    "detail": {"reopened": found, "replayed": expected}}
            out[side] = measured
            if side == "traced":
                traces = self.work / "traces"
                traces.mkdir(exist_ok=True)
                kept = traces / f"{workload}-seed{seed}.spans.jsonl"
                shutil.copy2(run_dir / "spans.jsonl", kept)
                out["spans_file"] = str(kept.relative_to(self.root))
        out["setup_samples"] = [
            {"measured_s": setup["setup_s"],
             "ref_s": setup["setup_ref_s"]}
            for setup in (setups if not trace else setups[:1])]
        return out


# -- metrics ---------------------------------------------------------------

def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def disk_of(measured: dict) -> dict:
    return measured["verify"]["disk"] if "verify" in measured \
        else measured["disk"]


def op_stats(ns: list[int]) -> dict[str, float]:
    """Closed-loop rate (ops over the summed op time) and latency
    percentiles of one list of op durations."""
    ms = [value / 1e6 for value in ns]
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3),
            "op_p50_ms": statistics.median(ms),
            f"op_p{TAIL}_ms": percentile(ms, TAIL)}


def end_to_end(run: dict, key: str = "ref_ns") -> dict[str, float]:
    """The end-to-end metrics: times at reference speed (``ref_ns``,
    see ``speed.py``), or as measured (``ns``, printed beside them)."""
    measured = run["untraced"]
    disk = disk_of(measured)
    setup = "ref_s" if key == "ref_ns" else "measured_s"
    return {
        "setup_s": statistics.median(sample[setup]
                                     for sample in run["setup_samples"]),
        **op_stats(measured["timings"]["op"][key]),
        "rss_peak_mb": measured["rss_peak_mb"],
        "disk_bytes_per_row": disk["bytes"] / disk["rows"],
    }


def verdict(workload: str, measured: dict) -> tuple[bool, list[str]]:
    """Oracle outcome of one measured process (and its reopen)."""
    problems = list(measured["reads"]["mismatches"])
    if "verify" in measured and not measured["verify"]["equal"]:
        problems.append(f"reopened store != in-memory replay "
                        f"{measured['verify']['detail']}")
    if workload != "ingest" and measured["reads"]["checked"] == 0:
        problems.append("no read was checked against the naive oracle")
    return not problems, problems


def counts(measured: dict) -> tuple[int, int]:
    attempted = sum(len(timed["ns"])
                    for timed in measured["timings"]["class"].values())
    return attempted, len(measured["failures"])


def print_run(workload: str, run: dict, side: str) -> None:
    measured = run[side]
    print(f"-- {workload} ({side}), hash seed {run['hash_seed']}; "
          f"op = {PREDICTIONS['workloads'][workload]['op']}")
    attempted, failed = counts(measured)
    timings = measured["timings"]
    print(f"   ops: {len(timings['op']['ns'])} in "
          f"{measured['elapsed_s']:.2f} s; store calls attempted "
          f"{attempted}, failed {failed} (fail_ratio "
          f"{failed / max(attempted, 1):.4f})")
    print(f"   host speed: {measured['speed']['samples']} kernel samples "
          f"in the phase, median scale to reference speed "
          f"{measured['speed']['scale']:.3f}")
    for kind, timed in sorted(timings["class"].items()):
        for key, label in (("ref_ns", "reference speed"),
                           ("ns", "as measured")):
            ms = [ns / 1e6 for ns in timed[key]]
            print(f"   {kind} ({label}): n={len(ms)} "
                  f"mean={statistics.mean(ms):.3f} ms " + " ".join(
                      f"p{q}={percentile(ms, q):.3f} ms"
                      for q in (50, 90, 95, 99)))
    print(f"   cache {measured['cache']}; frames_appended "
          f"{measured['frames_appended']}, sync_batches "
          f"{measured['sync_batches']}, compactions "
          f"{measured['compactions']}; rows {measured['rows']}")
    if measured["ran_out"]:
        print("   WARNING: the op stream ran out before the deadline")
    for failure in measured["failures"][:5]:
        print(f"   FAILED op {failure['op']} ({failure['class']}): "
              f"{failure['error']}\n{failure['traceback']}")


def layer_report(workload: str, run: dict) -> dict[str, float]:
    import layers

    traced = run["traced"]
    metrics = dict(traced["layers"])
    base = op_stats(run["untraced"]["timings"]["op"]["ref_ns"])
    rate = op_stats(traced["timings"]["op"]["ref_ns"])
    metrics["trace.overhead_pct"] = (
        base["ops_per_s"] / rate["ops_per_s"] - 1) * 100
    units = layers.metric_units()
    op_ns = traced["timings"]["op"]["ns"]
    op_ms = statistics.mean(op_ns) / 1e6 * traced["speed"]["scale"]
    print(f"-- per-layer self time at reference speed, {workload} (traced, "
          f"{len(op_ns)} ops, mean op {op_ms:.3f} ms); "
          f"spans in {run['spans_file']}")
    rows = sorted(((name[:-len(".ms_per_op")], value) for name, value
                   in metrics.items() if name.endswith(".ms_per_op")),
                  key=lambda row: -row[1])
    write_self = metrics[f"{layers.WRITE}.self_ms_per_op"]
    rows.insert(0, (f"{layers.WRITE} (self)", write_self))
    for name, value in rows:
        calls = metrics.get(f"{name}.calls_per_op",
                            metrics[f"{layers.WRITE}.calls_per_op"])
        if value or calls:
            print(f"   {name:48s} {value:9.3f} ms/op "
                  f"{100 * value / op_ms:5.1f}%  {calls:9.2f} calls/op")
    print(f"   {'unaccounted (no span)':48s} "
          f"{metrics['trace.unaccounted_ms_per_op']:9.3f} ms/op")
    for name, value in metrics.items():
        if not name.endswith((".ms_per_op", ".calls_per_op")):
            print(f"   {name} = {value:.4g} {units[name]}")
    for name, reason in traced.get("unwrappable", []):
        print(f"   NOT WRAPPED {name}: {reason}")
    check_predictions(workload, metrics, op_ms)
    return {name: metrics[name] for name in units}


def check_predictions(workload: str, metrics: dict, op_ms: float) -> None:
    for check in PREDICTIONS["checks"]:
        if check["workload"] != workload:
            continue
        value = metrics[check["metric"]]
        share = check.get("share_of_op", False)
        if share:
            value = value / op_ms
        bounds = []
        if "at_least" in check:
            bounds.append(f">= {check['at_least']}")
        if "at_most" in check:
            bounds.append(f"<= {check['at_most']}")
        held = (value >= check.get("at_least", value)
                and value <= check.get("at_most", value))
        print(f"   prediction {'held' if held else 'FAILED'}: "
              f"{check['metric']}{' share of op' if share else ''} = "
              f"{value:.4g} {' and '.join(bounds)} ({check['why']})")


# -- self-check ------------------------------------------------------------

def selfcheck(runner: Runner) -> int:
    """Tiny same-seed runs must repeat exactly; wrong answers must fail."""
    failures = 0

    def check(label: str, ok: bool, detail="") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label} {detail}")

    def tiny_run(workload: str, ops: int, tamper=False) -> dict:
        return runner.run(workload, 7, 0, False, "tiny", ops, tamper)

    for workload, ops in SELFCHECK_OPS.items():
        first, second = tiny_run(workload, ops), tiny_run(workload, ops)
        a, b = first["untraced"], second["untraced"]
        check(f"{workload}: identical op sequence",
              first["inputs"]["sha256"] == second["inputs"]["sha256"])
        for key in ("cache", "frames_appended", "sync_batches",
                    "compactions", "generation", "rows"):
            check(f"{workload}: same {key}", a[key] == b[key],
                  f"{a[key]} / {b[key]}")
        check(f"{workload}: same disk_bytes_per_row",
              disk_of(a) == disk_of(b), f"{disk_of(a)} / {disk_of(b)}")
        check(f"{workload}: oracles pass",
              verdict(workload, a)[0] and verdict(workload, b)[0],
              verdict(workload, a)[1])
        if workload in ("ingest", "mixed_rw"):
            check(f"{workload}: compaction happened", a["compactions"] > 0,
                  a["compactions"])
        tampered = tiny_run(workload, ops, tamper=True)["untraced"]
        check(f"{workload}: a wrong expected answer fails the oracle",
              not verdict(workload, tampered)[0],
              verdict(workload, tampered)[1][:1])
    print(f"selfcheck: {'PASS' if not failures else f'{failures} FAILED'}")
    return 1 if failures else 0


def report(runner: Runner, workload: str, args) -> bool:
    """Run one workload, print its report and result line; True when
    every oracle agreed."""
    runner.child_s.clear()
    run = runner.run(workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {workload}: {PREDICTIONS['workloads'][workload]['why']}")
    print(f"flush policy: {PREDICTIONS['flush_policy']}")
    print(f"seed {args.seed}; PYTHONHASHSEED {run['hash_seed']}")
    sides = ["untraced", "traced"] if args.trace else ["untraced"]
    for side in sides:
        print_run(workload, run, side)
    e2e = end_to_end(run)
    print("   setup samples (s, reference speed / as measured): " + ", ".join(
        f"{sample['ref_s']:.4f} / {sample['measured_s']:.4f}"
        for sample in run["setup_samples"]))
    print("   child wall seconds: " + ", ".join(
        f"{tag} {seconds:.1f}" for tag, seconds in runner.child_s.items()))
    raw = end_to_end(run, "ns")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]} "
              f"(as measured: {raw[name]:.6g})")
    problems = []
    for side in sides:
        problems += verdict(workload, run[side])[1]
    for problem in problems:
        print(f"ORACLE MISMATCH: {problem}")
    attempted, failed = counts(run[sides[-1]])
    if args.trace:
        import layers

        values = layer_report(workload, run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.metric_units().items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "ingest", "read_adhoc", "mixed_rw", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run unwinds, so it kills and waits for its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    runner = Runner(root)
    if args.selfcheck:
        return selfcheck(runner)
    if args.workload is None:
        parser.error("--workload is required")
    workloads = (("ingest", "read_adhoc", "mixed_rw")
                 if args.workload == "all" else (args.workload,))
    correct = True
    for workload in workloads:
        try:
            correct &= report(runner, workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # An oracle mismatch fails the command, after its result is printed.
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
