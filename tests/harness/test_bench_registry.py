"""The benchmark regression gate's registry matches its baselines.

``tools/check_bench_regression.py`` compares the ratio paths named in
its ``REGISTRY`` against ``BENCH_smoke_baseline.json``. A baseline key
that no entry names is never checked, and a registered path missing
from the baseline or from the benchmark's report fails only when the
gate runs. These tests load the tool and read the committed reports;
no benchmark runs.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        ROOT / "tools" / "check_bench_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


def test_smoke_baseline_names_exactly_the_registry():
    baseline = json.loads(TOOL.BASELINE_PATH.read_text())
    assert sorted(baseline) == sorted(TOOL.REGISTRY)
    for name, (_, paths) in TOOL.REGISTRY.items():
        assert sorted(baseline[name]) == sorted(paths), name


def test_every_registered_ratio_is_in_its_full_run_report():
    reports = {}
    for path in ROOT.glob("BENCH_*.json"):
        report = json.loads(path.read_text())
        if "benchmark" in report:
            reports[report["benchmark"]] = report
    for name, (_, paths) in TOOL.REGISTRY.items():
        assert name in reports, f"no committed BENCH_*.json for {name}"
        for path in paths:
            assert TOOL._dig(reports[name], path) > 0, (name, path)
