"""Every demo script runs to completion from a clean working directory."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
