"""The demos and the README quick start run cleanly against the current API.

Each demo's stdout is pinned in ``tests/golden/demos/<demo>.txt`` with the
repository root written as ``<repo>``. After a deliberate change of output,
rewrite the expected files with ``python tests/test_demos.py`` and review
the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def _run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def _pinned_stdout(done: subprocess.CompletedProcess) -> str:
    return done.stdout.replace(str(ROOT), "<repo>")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_errors_or_warnings(demo):
    done = _run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert _pinned_stdout(done) == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start (library)")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    # only the adjusted report carries Diff/R-Diff against the base one
    assert "diff=None" in printed[0] and "diff=None" not in printed[1]
    assert "'S1'" in printed[2]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        done = _run_demo(demo)
        assert done.returncode == 0, done.stderr
        (GOLDEN / f"{demo.stem}.txt").write_text(_pinned_stdout(done))
        print(f"wrote {GOLDEN / demo.stem}.txt", file=sys.stderr)
