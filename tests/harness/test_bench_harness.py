"""The gated benchmark scripts' shared harness (``benchmarks/_harness.py``).

``main`` is driven with a fake ``run``, so no benchmark runs for the
command-line, report and verdict tests. The last test smoke-runs every
script the regression gate registers, the way the gate runs them, and
reads each registered ratio from the report it writes.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HARNESS = _load("_harness", ROOT / "benchmarks" / "_harness.py")
GATE = _load("check_bench_regression",
             ROOT / "tools" / "check_bench_regression.py")


def _fake_run(ratio, ok):
    return {"nested": {"ratio": ratio}, "ok": ok}


def _checks(report):
    if not report["ok"]:
        yield "the oracle disagrees"


def _main(argv, *, ratio, ok):
    sizes = dict(ratio=ratio, ok=ok)
    return HARNESS.main(
        _fake_run, smoke=sizes, full=sizes, checks=_checks,
        floors=[("headline speedup", "nested.ratio", 2.0)], argv=argv)


def test_main_prints_the_report_it_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = HARNESS.main(
        _fake_run, smoke=dict(ratio=1.5, ok=True),
        full=dict(ratio=9.0, ok=True), checks=_checks, floors=[],
        argv=["--smoke", "--out", str(out)])
    assert status == 0
    assert capsys.readouterr().out == out.read_text()
    assert json.loads(out.read_text()) == {"nested": {"ratio": 1.5},
                                           "ok": True}


@pytest.mark.parametrize("argv", [["--smoke"], []], ids=["smoke", "full"])
def test_an_oracle_failure_exits_1(argv, capsys):
    assert _main(argv, ratio=5.0, ok=False) == 1
    assert "FAIL: the oracle disagrees" in capsys.readouterr().err


def test_floors_apply_only_to_full_runs(capsys):
    assert _main(["--smoke"], ratio=1.0, ok=True) == 0
    assert "FAIL" not in capsys.readouterr().err
    assert _main([], ratio=1.0, ok=True) == 1
    assert ("FAIL: headline speedup 1.0x is below the 2.0x floor"
            in capsys.readouterr().err)
    assert _main([], ratio=2.0, ok=True) == 0


def test_a_none_ratio_fails_its_floor(capsys):
    assert _main([], ratio=None, ok=True) == 1
    assert ("FAIL: headline speedup Nonex is below the 2.0x floor"
            in capsys.readouterr().err)


def test_every_failure_is_reported(capsys):
    assert _main([], ratio=1.0, ok=False) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("FAIL:")] == [
        "FAIL: the oracle disagrees",
        "FAIL: headline speedup 1.0x is below the 2.0x floor"]


def test_a_usage_error_exits_2():
    with pytest.raises(SystemExit) as exited:
        _main(["--sample"], ratio=5.0, ok=True)
    assert exited.value.code == 2


def test_best_of_runs_round_robin_and_keeps_each_fastest_time():
    calls = []
    seconds = iter([3.0, 5.0, 1.0, 6.0, 2.0, 4.0])

    def timer(action):
        return next(seconds), action()

    def action(name):
        def call():
            calls.append(name)
            return calls.count(name)
        return call

    best = HARNESS.best_of([action("a"), action("b")], repeat=3,
                           before=lambda: calls.append("before"),
                           timer=timer)
    # Fastest time per action and its last result (the third call).
    assert best == [(1.0, 3), (4.0, 3)]
    assert calls == ["before", "a", "before", "b"] * 3


def test_best_of_times_with_timed_by_default():
    [(seconds, result)] = HARNESS.best_of([lambda: "done"], repeat=2)
    assert result == "done"
    assert seconds >= 0.0
    assert HARNESS.timed(lambda: 7)[1] == 7


def test_speedup():
    assert HARNESS.speedup(3.0, 2.0) == 1.5
    assert HARNESS.speedup(1.0, 3.0) == 0.33
    assert HARNESS.speedup(1.0, 0.0) is None


@pytest.mark.parametrize("name", sorted(GATE.REGISTRY))
def test_registered_script_smoke_runs_without_pythonpath(name, tmp_path):
    script, ratio_paths = GATE.REGISTRY[name]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    out = tmp_path / f"{name}.json"
    completed = subprocess.run(
        [sys.executable, str(ROOT / script), "--smoke", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    report = json.loads(out.read_text())
    for path in ratio_paths:
        assert GATE._dig(report, path) > 0, path
