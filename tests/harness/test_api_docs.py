"""The generated API reference stays in sync with the code."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_generator_runs_and_output_is_current(tmp_path):
    # Without PYTHONPATH, as the stale-docs message below tells the
    # reader to run it; the tool finds src/ itself.
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    generated = tmp_path / "API.md"
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"),
         str(generated)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert generated.read_text() == (ROOT / "docs" / "API.md").read_text(), (
        "docs/API.md is stale; run python tools/gen_api_docs.py")


def test_api_reference_covers_the_packages():
    text = (ROOT / "docs" / "API.md").read_text()
    for section in ("repro.core", "repro.rules", "repro.store",
                    "repro.merge", "repro.schema"):
        assert f"## `{section}`" in text
