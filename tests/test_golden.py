"""The bundled ``--seed 7`` run produces one fixed transcript, against the
in-process mock and against a wire agent that goes off the script.

A change meant to keep behaviour (a speed-up, a refactor) keeps these
hashes. A change that alters the transcripts on purpose updates them and
says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass, field

import pytest

from crssim import MockAgentServer, MockCRSAgent, Response
from crssim.mock_agent import CLARIFY_TEXT

GOLDEN_SHA256 = \
    "1372df57103d055d452b4405284b274cf082a4684d1858a03486214dcd51eabb"
OFF_SCRIPT_SHA256 = \
    "9327df3632b5fa69880a45b89e7e0620e648192988d34c3e85d4921fa42fc65c"
# one reply in OFF_SCRIPT_SHARE is replaced by one of these: the mock's
# clarification, or a text holding no token the intent model knows
OFF_SCRIPT_SHARE = 4
OFF_SCRIPT_TEXTS = (CLARIFY_TEXT, "Zorblat quendix vrmm?")


@dataclass
class OffScriptAgent(MockCRSAgent):
    """The mock's session, except that a fixed share of its replies that do
    not end the dialogue go off the script. Which ones is chosen by the
    CRC-32 of the session id and the turn, so neither the hash seed nor
    the order in which sessions arrive moves them."""

    session_id: str = ""
    turn: int = field(init=False, default=0)

    def respond(self, incoming):
        reply = super().respond(incoming)
        key = zlib.crc32(f"{self.session_id} {self.turn}".encode())
        self.turn += 1
        if reply.terminate or key % OFF_SCRIPT_SHARE:
            return reply
        return Response(OFF_SCRIPT_TEXTS[key // OFF_SCRIPT_SHARE % 2])


class OffScriptServer(MockAgentServer):
    """:class:`MockAgentServer` over :class:`OffScriptAgent` sessions."""

    def session(self, session_id):
        with self._lock:
            if session_id not in self.sessions:
                self.sessions[session_id] = OffScriptAgent(self.items,
                                                           session_id)
            return self.sessions[session_id]


def simulate(out, hash_seed, *flags):
    """Run ``crssim simulate --train --seed 7`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "crssim", "simulate", "--train",
         "--seed", "7", "--out", str(out), *flags],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return (out / "transcripts.jsonl").read_bytes()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_bundled_seed_7_transcript_is_golden(tmp_path, hash_seed):
    digest = hashlib.sha256(simulate(tmp_path / "out", hash_seed))
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.fixture
def off_script_server(movie_items):
    server = OffScriptServer(movie_items).start()
    yield server
    server.stop()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_bundled_seed_7_off_script_transcript_is_golden(
        tmp_path, hash_seed, off_script_server):
    url = off_script_server.base_url
    data = simulate(tmp_path / "out", hash_seed, "--agent", url)
    # the agent_id is the server URL, whose port changes from run to run
    data = data.replace(b'"agent_id": ' + json.dumps(url).encode(),
                        b'"agent_id": "mock"')
    for text in OFF_SCRIPT_TEXTS:
        assert json.dumps(text).encode() in data
    assert hashlib.sha256(data).hexdigest() == OFF_SCRIPT_SHA256
