"""The demos and the README quick start run cleanly against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_errors_or_warnings(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start (library)")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    # only the adjusted report carries Diff/R-Diff against the base one
    assert "diff=None" in printed[0] and "diff=None" not in printed[1]
    assert "'S1'" in printed[2]
