"""Every demo script runs to completion against the package under src/."""

import os
import subprocess
import sys

import pytest

from tests.helpers import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp_path)  # demos write their work files under a fresh temp dir
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not any(tmp_path.iterdir()), "the demo left files in its temp dir"
