"""The wire workload's server: crssim's mock recommender in a child process.

Run as a script (``python3 mock_server.py DOMAIN ITEMS [--time]``) it hosts
``serve_mock`` on 127.0.0.1, prints ``READY <base_url>`` and serves until its
standard input closes. Meanwhile it obeys two commands, one a line:

* ``PIN <cpu>`` runs the server's threads, and the request threads they
  start, on that one CPU; answered with ``PINNED``.
* ``RESET`` empties the session table and the request log, so the next
  round of the same users meets fresh mock sessions as in a newly started
  server; answered with ``RESET <live sessions before>``.

At the end it prints one JSON line with the number of live
``MockAgentServer.sessions`` and, with ``--time``, the server-side time of
``MockCRSAgent.respond``. :class:`MockServerProcess` is the parent side.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class MockServerProcess:
    """Start the child server, wait until it listens, always tear it down."""

    def __init__(self, domain: str, items: str, timed: bool) -> None:
        self.command = [sys.executable, str(Path(__file__).resolve()),
                        domain, items] + (["--time"] if timed else [])
        self.base_url = ""
        self.stats: dict = {}
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "MockServerProcess":
        self._process = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            ready, _, _ = select.select([self._process.stdout], [], [],
                                        READY_TIMEOUT_S)
            line = self._process.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"mock server did not start: {line!r}")
            self.base_url = line.split()[1]
        except BaseException:
            self._kill()
            raise
        return self

    def pin(self, cpu: int) -> None:
        """Serve from this one CPU from now on."""
        self._command(f"PIN {cpu}", "PINNED")

    def reset(self) -> int:
        """Empty the server's sessions; return how many were live."""
        return int(self._command("RESET", "RESET")[1])

    def _command(self, line: str, answer: str) -> list[str]:
        self._process.stdin.write(line + "\n")
        self._process.stdin.flush()
        ready, _, _ = select.select([self._process.stdout], [], [],
                                    READY_TIMEOUT_S)
        reply = (self._process.stdout.readline() if ready else "").split()
        if reply[:1] != [answer]:
            raise RuntimeError(f"mock server did not answer {line!r}: "
                               f"{reply!r}")
        return reply

    def __exit__(self, *exc_info) -> None:
        process = self._process
        try:
            out, _ = process.communicate(input="", timeout=STOP_TIMEOUT_S)
        except BaseException:
            self._kill()
            raise
        if process.returncode != 0:
            raise RuntimeError(f"mock server exited with {process.returncode}")
        self.stats = json.loads(out.strip().splitlines()[-1])

    def _kill(self) -> None:
        self._process.kill()
        self._process.wait()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from crssim import mock_agent
    from crssim.domain import load_domain, load_item_collection

    domain_path, items_path = argv[:2]
    durations: list[float] = []
    if "--time" in argv[2:]:
        original = mock_agent.MockCRSAgent.respond

        def respond(self, incoming):
            start = time.perf_counter()
            try:
                return original(self, incoming)
            finally:
                durations.append(time.perf_counter() - start)

        mock_agent.MockCRSAgent.respond = respond
    items = load_item_collection(items_path, load_domain(domain_path))
    server = mock_agent.serve_mock(items)
    try:
        print(f"READY {server.base_url}", flush=True)
        for line in sys.stdin:
            command, *args = line.split()
            if command == "PIN":
                # Request threads inherit the accepting thread's CPUs.
                for thread in (threading.main_thread(), server._thread):
                    os.sched_setaffinity(thread.native_id, {int(args[0])})
                print("PINNED", flush=True)
            elif command == "RESET":
                with server._lock:
                    live = len(server.sessions)
                    server.sessions.clear()
                    server.request_log.clear()
                print(f"RESET {live}", flush=True)
    finally:
        server.stop()
    print(json.dumps({
        "sessions": len(server.sessions),
        "respond_us_p50": (statistics.median(durations) * 1e6
                           if durations else 0.0),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
