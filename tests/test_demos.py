"""Every demo script runs to completion from a scratch copy."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN_OUTPUT

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_copy(demo, tmp_path):
    # demos write their artifacts next to the script, so run a copy
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_copy(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_walkthrough_artifacts_are_the_export_goldens(tmp_path):
    # the walkthrough writes 1/12(1,2,7)'s artifacts with the library
    # renderers; they must be the bytes `export` writes for that type
    proc = run_copy(ROOT / "demos" / "02_resolution_walkthrough.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    golden = {c: d for r, w, c, d in GOLDEN_OUTPUT if (r, w) == ("12", "1,2,7")}
    for name, command in (
        ("fan.json", "export --json"),
        ("fan.svg", "export --svg"),
        ("tree.dot", "export --dot"),
    ):
        text = (tmp_path / name).read_text()
        assert hashlib.sha256(f"0\n{text}".encode()).hexdigest() == golden[command], name
