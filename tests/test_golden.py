"""The bundled ``--seed 7`` run produces one fixed transcript.

A change meant to keep behaviour (a speed-up, a refactor) keeps this hash.
A change that alters the transcripts on purpose updates it and says why.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

GOLDEN_SHA256 = \
    "1372df57103d055d452b4405284b274cf082a4684d1858a03486214dcd51eabb"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_bundled_seed_7_transcript_is_golden(tmp_path, hash_seed):
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "crssim", "simulate", "--train",
         "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256((out / "transcripts.jsonl").read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
