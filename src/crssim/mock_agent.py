"""A deterministic scripted recommender for offline runs and tests.

The mock agent walks a fixed script over the supplied item collection:
greet, elicit a genre, recommend matching items one at a time, answer
"tell me more" questions from item attributes, and say goodbye on accept
or exhaustion. Unrecognized input draws a clarification request, which a
simulated user will typically fail to map to an expected intent — useful
for exercising repeat/sample/patience behavior.

It can run in-process as a :class:`~crssim.connector.DialogueParticipant`
or be served over loopback HTTP speaking the wire protocol
(:func:`serve_mock`). The server reads requests with the HTTP/1.1 rules
and readers of the wire client (:mod:`crssim.wire`), one thread per
connection. Connections are kept alive unless a request says
``Connection: close`` or is HTTP/1.0 without ``keep-alive``. A request
body is framed by ``Content-Length`` or chunked, and
``Expect: 100-continue`` is answered with an interim ``100 Continue``.
Each reply is one write of its head and body. Every error reply (400,
404, 501) says ``Connection: close`` and closes the connection; a request
gets 400 wherever the client would refuse a reply, a head cut before its
blank line included.
"""

from __future__ import annotations

import functools
import json
import re
import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .connector import DialogueParticipant, Response
from .dialogue import Participant, Utterance
from .domain import Item, ItemCollection
from .nlg import detect_polarity, Polarity
from .transcript import _encode
from .wire import (_REQUEST_LINE, _FramingError, _headers, _keep_alive,
                   _line, _read_body)

WELCOME_TEXT = "Hello, I am your movie recommendation assistant."
ELICIT_TEXT = "What genre of movie are you in the mood for?"
RECOMMEND_TEXT = "You should watch {name}."
INFORM_TEXT = "It is about {facts}."
ACCEPT_BYE_TEXT = "Great! Enjoy watching. Bye."
EXHAUSTED_BYE_TEXT = "I am afraid I have no more suggestions. Goodbye."
FAREWELL_TEXT = "Goodbye! I hope to see you again."
CLARIFY_TEXT = "I am sorry, I did not understand that. Could you rephrase?"
# the slot the mock elicits and recommends by, and the one it answers from
GENRE_SLOT = "genre"
DETAIL_SLOT = "keyword"

_GOODBYE_CUES = ("bye", "goodbye", "quit", "stop", "done")
_ACCEPT_CUES = ("yes", "great", "good", "sounds", "thanks", "sure",
                "perfect", "love")
_REJECT_CUES = ("no", "not", "another", "else", "different", "hate",
                "dislike")
_INQUIRE_CUES = ("what", "why", "tell", "about")


def _cue_pattern(*words: str) -> re.Pattern[str]:
    r"""One word-bounded alternation over ``words``, matched on lowercased text.

    With ``\b`` on both sides of the group, the pattern matches exactly
    where some single word would have matched on its own.
    """
    alternatives = "|".join(re.escape(w.lower()) for w in words)
    return re.compile(r"\b(?:" + alternatives + r")\b")


_GOODBYE_RE = _cue_pattern(*_GOODBYE_CUES)
_ACCEPT_RE = _cue_pattern(*_ACCEPT_CUES)
_REJECT_RE = _cue_pattern(*_REJECT_CUES)
_INQUIRE_RE = _cue_pattern(*_INQUIRE_CUES)
# A catalog has few genres; the bound only keeps a pathological one finite.
_genre_pattern = functools.lru_cache(maxsize=4096)(_cue_pattern)


@dataclass
class MockCRSAgent(DialogueParticipant):
    """One scripted recommender session."""

    items: ItemCollection
    elicited: bool = field(init=False, default=False)
    matches: list[Item] = field(init=False, default_factory=list)
    index: int = field(init=False, default=-1)

    @property
    def _current(self) -> Item | None:
        if 0 <= self.index < len(self.matches):
            return self.matches[self.index]
        return None

    def _find_genre(self, lowered: str) -> str | None:
        """The first genre, in sorted order, that ``lowered`` mentions."""
        for genre in self.items.values_for_slot(GENRE_SLOT):
            if _genre_pattern(genre).search(lowered):
                return genre
        return None

    def _recommend_next(self) -> Response:
        self.index += 1
        item = self._current
        if item is None:
            return Response(EXHAUSTED_BYE_TEXT, terminate=True)
        return Response(RECOMMEND_TEXT.format(name=item.name))

    def respond(self, incoming: Utterance | None) -> Response:
        if incoming is None:
            return Response(WELCOME_TEXT)
        text = incoming.text
        lowered = text.lower()
        negated = detect_polarity(text) is Polarity.NEGATIVE

        if _GOODBYE_RE.search(lowered):
            return Response(FAREWELL_TEXT, terminate=True)

        genre = self._find_genre(lowered)
        if genre is not None and not negated:
            self.elicited = True
            self.matches = self.items.with_attribute(GENRE_SLOT, genre)
            self.index = -1
            return self._recommend_next()

        if self._current is not None:
            if _ACCEPT_RE.search(lowered) and not negated:
                return Response(ACCEPT_BYE_TEXT, terminate=True)
            if negated or _REJECT_RE.search(lowered):
                return self._recommend_next()
            if _INQUIRE_RE.search(lowered):
                item = self._current
                facts = item.attributes.get(DETAIL_SLOT, ())
                if not facts:
                    facts = item.attributes.get(GENRE_SLOT, ())
                joined = " and ".join(facts) if facts else "a well-kept secret"
                return Response(INFORM_TEXT.format(facts=joined))

        if not self.elicited:
            self.elicited = True
            return Response(ELICIT_TEXT)
        return Response(CLARIFY_TEXT)


_REASONS = {200: b"OK", 400: b"Bad Request", 404: b"Not Found",
            501: b"Not Implemented"}


class _MockWireHandler(socketserver.StreamRequestHandler):
    """Speaks the two-field wire protocol on top of mock agent sessions,
    over the HTTP/1.1 grammar of the wire client in :mod:`crssim.wire`."""

    server: "MockAgentServer"
    # Replies to pipelined requests go out back to back; with Nagle on,
    # the second would wait for the client's delayed ACK of the first
    # (about 40 ms).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._answer():
                pass
        except ConnectionError:
            pass  # the client hung up mid-request or mid-reply

    def _answer(self) -> bool:
        """Read one request and answer it; whether the connection stays
        open for the next one."""
        reader = self.rfile
        if not reader.peek(1):
            return False  # the client hung up between requests
        try:
            method, target, version = _line(reader, _REQUEST_LINE,
                                            "request line")
            headers = _headers(reader)
            if (version == b"HTTP/1.1" and headers.get(b"expect", b"").lower()
                    == b"100-continue"):
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            raw = _read_body(reader, headers) or b""
        except _FramingError:
            return self._reply(400, b"malformed request")
        if method != b"POST":
            return self._reply(501, b"unsupported method")
        if target.rstrip(b"/") != b"/respond":
            return self._reply(404, b"unknown endpoint")
        try:
            body = json.loads(raw.decode("utf-8"))
            session_id = str(body["session_id"])
            utterance = str(body["utterance"])
        except (ValueError, LookupError, TypeError, RecursionError):
            return self._reply(400, b"malformed request body")
        self.server.request_log.append((session_id, utterance))
        session = self.server.session(session_id)
        incoming = (None if utterance == ""
                    else Utterance(Participant.USER, utterance, 0))
        reply = session.respond(incoming)
        payload = _encode({"utterance": reply.text or "",
                           "terminate": reply.terminate}).encode("utf-8")
        return self._reply(200, payload, _keep_alive(version, headers))

    def _reply(self, status: int, body: bytes,
               keep_alive: bool = False) -> bool:
        """Send one reply, head and body in one write; return
        ``keep_alive``. Only a 200 reply may keep the connection open."""
        content_type = (b"application/json" if status == 200
                        else b"text/plain")
        self.request.sendall(
            b"HTTP/1.1 %d %s\r\nContent-Type: %s; charset=utf-8\r\n"
            b"Content-Length: %d\r\n%s\r\n%s"
            % (status, _REASONS[status], content_type, len(body),
               b"" if keep_alive else b"Connection: close\r\n", body))
        return keep_alive


class MockAgentServer(socketserver.ThreadingTCPServer):
    """Loopback HTTP server hosting per-session mock agents; each
    connection is served by its own daemon thread."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, items: ItemCollection, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__((host, port), _MockWireHandler)
        self.items = items
        self.sessions: dict[str, MockCRSAgent] = {}
        self.request_log: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._requests: set[socket.socket] = set()

    def session(self, session_id: str) -> MockCRSAgent:
        with self._lock:
            if session_id not in self.sessions:
                self.sessions[session_id] = MockCRSAgent(self.items)
            return self.sessions[session_id]

    def process_request(self, request: socket.socket,
                        client_address: object) -> None:
        with self._lock:
            self._requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._lock:
            self._requests.discard(request)
        super().shutdown_request(request)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockAgentServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and hang up every open connection."""
        self.shutdown()
        self.server_close()
        # A kept-alive connection is served by its own daemon thread,
        # which would otherwise go on answering after the server stopped.
        with self._lock:
            for request in self._requests:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client hung up already
        if self._thread is not None:
            self._thread.join(timeout=5)


def serve_mock(items: ItemCollection, host: str = "127.0.0.1",
               port: int = 0) -> MockAgentServer:
    """Start a loopback wire-protocol server over mock agent sessions."""
    return MockAgentServer(items, host=host, port=port).start()
