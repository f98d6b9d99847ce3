"""The README's Python examples and its command-line walk-through run as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
WALKTHROUGH = [b for b in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M) if "fracopt " in b]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_cli_walkthrough_runs(tmp_path):
    # One block, run in an empty directory with `fracopt` standing for the
    # module, stopping at the first command that fails.
    assert len(WALKTHROUGH) == 1
    script = 'set -e\nfracopt() { "$PYTHON" -m fracopt.cli "$@"; }\n' + WALKTHROUGH[0]
    done = subprocess.run(
        ["bash", "-c", script],
        cwd=tmp_path,
        env={**_env(), "PYTHON": sys.executable},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "audit ok" in done.stdout
