"""Strict mypy over the typed tier — runs wherever mypy is installed.

The runtime container does not ship mypy (the ``typed-defs`` lint rule is
the local, dependency-free stand-in), so this gate self-skips when the
import is unavailable and runs for real in CI, where the static-analysis
job installs mypy and fails the build on any error.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mypy")

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_strict_tier_is_mypy_clean():
    result = subprocess.run(
        [sys.executable, "-m", "mypy",
         "--config-file", str(REPO_ROOT / "mypy.ini"),
         "-p", "repro.engine", "-m", "repro.relational.session",
         "-m", "repro.relational.evaluation",
         "-m", "repro.relational.columnar",
         "-m", "repro.core.flow_responsibility",
         "-m", "repro.core.responsibility",
         "-m", "repro.core.hitting_set"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
