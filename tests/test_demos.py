"""Every demo script runs to completion from a clean working directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crssim

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    source_root = Path(crssim.__file__).resolve().parent.parent
    path = os.pathsep.join(
        p for p in (str(source_root), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
