"""HTTP for black-box conversational agents: the client and the mock's server.

The wire protocol is deliberately tiny: one ``POST {base_url}/respond``
per exchange with a JSON body ``{"session_id": ..., "utterance": ...}``,
answered by ``{"utterance": ..., "terminate": ...}``. Opening the dialogue
(asking the remote agent to speak first) is signalled by an empty
utterance string.

Each thread talks to an endpoint over one persistent HTTP/1.1 connection,
reopened when the agent has closed it or said it will. Only opening a
connection is retried: a request being sent may reach the agent, and a
POST is not resent (RFC 9110 section 9.2.2).

The client and :func:`serve_mock`, the loopback server over
:class:`~crssim.mock_agent.MockCRSAgent` sessions, both read HTTP/1.1
(RFC 9112) here, and nowhere else: each line kind is one compiled rule,
matched whole by :func:`_line`, which bounds a line to 64 KiB; a head
holds at most 100 fields. A body is framed by ``Content-Length``, by
chunked coding or, in a reply, by the close of the connection, and holds
at most 1 MiB (:data:`_MAX_BODY`). A message that breaks a rule, or whose
framing two parsers could read two ways, is a framing error. A body past
the cap is refused before more than the cap is read: the client raises
:class:`ProtocolError`, the server answers 413.

The server gives each connection its own thread and keeps it alive unless
a request says ``Connection: close`` or is HTTP/1.0 without
``keep-alive``. ``Expect: 100-continue`` is answered with an interim
``100 Continue`` once the framing of the body it announces is accepted
(a body past the cap gets only the 413). Each reply is one write of its
head and body. Every error reply (400, 404, 413, 501) says ``Connection:
close`` and closes the connection; a request gets 400 wherever the client
would refuse a reply, a head cut before its blank line included.

``crssim`` imports this module, and with it ``socket``, only for a run
against a wire agent or when one of its names is first used, so a run
against the in-process mock loads no socket module.

Proxies are those of :func:`urllib.request.getproxies`, ``NO_PROXY`` is
honoured through :func:`urllib.request.proxy_bypass`, and ``ssl`` wraps
an ``https`` connection. Both load on demand: ``ssl`` when the first
``https`` connection opens, ``urllib.request`` (with ``http.client`` and
``email``) when a connection opens while the environment holds a
``*_proxy`` variable, or on macOS and Windows, where proxies also come
from system settings. A run that opens no such connection loads neither.
"""

from __future__ import annotations

import base64
import json
import os
import re
import select
import socket
import socketserver
import sys
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import BinaryIO

from .connector import DialogueParticipant, Response
from .dialogue import Participant, Utterance
from .domain import ItemCollection
from .errors import ProtocolError, TransportError
from .mock_agent import MockCRSAgent
from .transcript import _encode

_DEFAULT_PORTS = {"http": 80, "https": 443}
_MAX_LINE = 65536
_MAX_HEADERS = 100
# RFC 9112 rules, each matched whole by _line, line end included; a field
# line's value is trimmed of SP and HTAB, and its blank form ends the fields
_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(rb"(%s) ([!-~]+) (HTTP/1\.[01])\r?\n" % _TOKEN)
_STATUS_LINE = re.compile(
    rb"(HTTP/1\.[0-9]) ([1-9][0-9][0-9])(?: ([^\0\r\n]*))?\r?\n")
_FIELD_LINE = re.compile(rb"(?:(%s):([^\0\r\n]*))?\r?\n" % _TOKEN)
_CHUNK_LINE = re.compile(rb"([0-9A-Fa-f]+)(?:[ \t]*;[^\0\r\n]*)?\r?\n")
# 1*DIGIT, but at most 18 of them: RFC 9110 section 8.6 asks a recipient
# to avoid conversion overflows, and Python will not parse 4,301 digits.
_CONTENT_LENGTH = re.compile(rb"[0-9]{1,18}")
# The largest body either end reads, in any framing: a message announcing
# a larger one is refused before its body is read, and one that turns out
# larger once this much of it is read.
_MAX_BODY = 1 << 20
_NO_BODY_STATUSES = frozenset({101, 204, 304})


class _FramingError(Exception):
    """A message breaking RFC 9112's grammar or framing: the client raises
    :class:`TransportError`, the server answers 400; both then close."""


class _BodyTooLarge(_FramingError):
    """A body past :data:`_MAX_BODY`: the client raises
    :class:`ProtocolError`, the server answers 413; both then close."""


@dataclass(frozen=True)
class AgentEndpoint:
    """Where and how to reach a remote agent.

    The endpoint owns one connection per thread that uses it; call
    :meth:`close` from that thread when done.
    """

    base_url: str
    timeout: float = 10.0
    retry_count: int = 2
    _url: urllib.parse.SplitResult = field(init=False, compare=False,
                                           repr=False)
    _local: threading.local = field(default_factory=threading.local,
                                    init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retry_count < 0:
            raise ValueError("retry_count must be non-negative")
        url = self.respond_url
        if not url.isascii() or any(c <= " " or c == "\x7f" for c in url):
            raise ValueError(f"agent URL {self.base_url!r} must be ASCII "
                             "without spaces or control characters")
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ValueError(f"agent URL {self.base_url!r} needs an http:// "
                             "or https:// scheme and a host")
        try:
            parts.port
        except ValueError as exc:
            raise ValueError(f"agent URL {self.base_url!r}: {exc}") from None
        object.__setattr__(self, "_url", parts)

    @property
    def respond_url(self) -> str:
        return self.base_url.rstrip("/") + "/respond"

    def _connection(self) -> "_Connection":
        """This thread's open connection.

        An idle connection that has turned readable was closed (or
        answered out of turn) by the agent, so it is replaced before use.
        """
        current = getattr(self._local, "current", None)
        if current is not None:
            if not select.select([current.sock], [], [], 0)[0]:
                return current
            self.close()
        current = self._local.current = _Connection(self._url, self.timeout)
        return current

    def close(self) -> None:
        """Close this thread's connection; the next exchange reopens it."""
        current = getattr(self._local, "current", None)
        if current is not None:
            self._local.current = None
            current.close()


class _Connection:
    """One socket to an agent (or its proxy), its buffered reader and the
    request head every exchange on it shares."""

    def __init__(self, url: urllib.parse.SplitResult, timeout: float) -> None:
        default_port = _DEFAULT_PORTS[url.scheme]
        host = url.netloc.rpartition("@")[2]
        target = url.path
        proxy_auth = ""
        proxy = _proxy(url)
        if proxy:
            if "://" not in proxy:
                proxy = "http://" + proxy
            proxy_url = urllib.parse.urlsplit(proxy)
            try:
                address = (proxy_url.hostname, proxy_url.port or default_port)
            except ValueError as exc:
                raise OSError(f"bad proxy URL {proxy!r}: {exc}") from None
            if proxy_url.username is not None:
                credentials = (
                    f"{urllib.parse.unquote(proxy_url.username)}:"
                    f"{urllib.parse.unquote(proxy_url.password or '')}")
                proxy_auth = "Proxy-Authorization: Basic " + base64.b64encode(
                    credentials.encode("utf-8")).decode("ascii") + "\r\n"
        else:
            address = (url.hostname, url.port or default_port)
        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if url.scheme == "https":
                if proxy:
                    _tunnel(sock, url, default_port, proxy_auth)
                    proxy_auth = ""
                import ssl
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=url.hostname)
            elif proxy:
                target = url.geturl()
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.reader: BinaryIO = sock.makefile("rb")
        self.head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                     "Accept-Encoding: identity\r\n"
                     "Content-Type: application/json\r\n"
                     f"{proxy_auth}").encode("ascii")

    def exchange(self, body: bytes) -> tuple[int, bytes, bool]:
        """Send one request; return the reply's status, its whole body and
        whether the connection may carry another exchange."""
        self.sock.sendall(b"%sContent-Length: %d\r\n\r\n%s"
                          % (self.head, len(body), body))
        reader = self.reader
        # interim 1xx replies precede the final one (RFC 9110 section
        # 15.2); a 101 switches protocols, so it ends the connection
        for _ in range(_MAX_HEADERS + 1):
            version, code, _ = _line(reader, _STATUS_LINE, "status line")
            status = int(code)
            headers = _headers(reader)
            if status >= 200 or status == 101:
                break
        else:
            raise _FramingError(f"more than {_MAX_HEADERS} interim replies")
        keep_alive = status != 101 and _keep_alive(version, headers)
        raw = b"" if status in _NO_BODY_STATUSES else _read_body(reader,
                                                                 headers)
        if raw is None:
            raw = reader.read(_MAX_BODY + 1)
            if len(raw) > _MAX_BODY:
                raise _BodyTooLarge(f"body framed by the close is over "
                                    f"{_MAX_BODY} bytes")
            keep_alive = False
        return status, raw, keep_alive

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _proxy(url: urllib.parse.SplitResult) -> str | None:
    """The proxy :mod:`urllib.request` picks for ``url``, if any.

    Outside macOS and Windows it reads only the ``*_proxy`` environment
    variables, so without one there is no proxy and it is not imported.
    """
    if sys.platform not in ("darwin", "win32") and not any(
            name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if proxy and not urllib.request.proxy_bypass(url.netloc):
        return proxy
    return None


def _line(reader: BinaryIO, rule: re.Pattern[bytes], what: str
          ) -> tuple[bytes, ...]:
    """The groups of ``rule`` matched whole against the next line of
    ``reader``. A line over 64 KiB is cut there, so it lacks its line end
    and does not match; nor does the empty read at the end of the stream."""
    line = reader.readline(_MAX_LINE)
    match = rule.fullmatch(line)
    if match is None:
        raise _FramingError(f"bad {what} {line[:80]!r}" if line else
                            f"connection closed before the {what}")
    return match.groups()


def _headers(reader: BinaryIO) -> dict[bytes, bytes]:
    """Header (or trailer) fields up to the blank line, by lowercase name;
    a framing field repeated with another value is refused (RFC 9112)."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        name, value = _line(reader, _FIELD_LINE, "field line")
        if name is None:
            return headers
        name = name.lower()
        value = value.strip(b" \t")
        if (name in (b"content-length", b"transfer-encoding")
                and headers.get(name, value) != value):
            raise _FramingError(f"{name.decode('latin-1')} repeated with "
                                "another value")
        headers[name] = value
    raise _FramingError(f"more than {_MAX_HEADERS} headers")


def _body_size(headers: dict[bytes, bytes]) -> int | None:
    """The length of a message's body, -1 if ``Transfer-Encoding: chunked``
    frames it (never with ``Content-Length``, RFC 9112), ``None`` if
    neither does."""
    coding = headers.get(b"transfer-encoding")
    length = headers.get(b"content-length")
    if coding is not None:
        if length is not None or coding.lower() != b"chunked":
            raise _FramingError(f"Transfer-Encoding {coding[:40]!r} must "
                                "be chunked, without Content-Length")
        return -1
    if length is None:
        return None
    if not _CONTENT_LENGTH.fullmatch(length):
        raise _FramingError(f"bad Content-Length {length[:40]!r}")
    if (size := int(length)) > _MAX_BODY:
        raise _BodyTooLarge(f"Content-Length {size} is over {_MAX_BODY}")
    return size


def _read_body(reader: BinaryIO, headers: dict[bytes, bytes]
               ) -> bytes | None:
    """The body of a message; ``None`` if it has none."""
    if (size := _body_size(headers)) is None:
        return None
    return _read_chunked(reader) if size < 0 else _read_exactly(reader, size)


def _keep_alive(version: bytes, headers: dict[bytes, bytes]) -> bool:
    """Whether a message leaves its connection open for the next one:
    under HTTP/1.0 only if it asks for keep-alive, otherwise unless it asks
    for close."""
    connection = headers.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        return b"keep-alive" in connection
    return b"close" not in connection


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    """``size`` bytes, at most :data:`_MAX_BODY` of them."""
    data = reader.read(size)
    if len(data) < size:
        raise _FramingError(f"body ended {size - len(data)} bytes short")
    return data


def _read_chunked(reader: BinaryIO) -> bytes:
    parts = []
    total = 0
    while size := int(_line(reader, _CHUNK_LINE, "chunk size line")[0], 16):
        if (total := total + size) > _MAX_BODY:
            raise _BodyTooLarge(f"chunked body is over {_MAX_BODY} bytes")
        parts.append(_read_exactly(reader, size))
        if _read_exactly(reader, 2) != b"\r\n":
            raise _FramingError("chunk not followed by CRLF")
    _headers(reader)  # trailers, discarded
    return b"".join(parts)


def _tunnel(sock: socket.socket, url: urllib.parse.SplitResult,
            default_port: int, proxy_auth: str) -> None:
    """Ask the proxy on ``sock`` for a tunnel to the agent at ``url``."""
    host = url.hostname if ":" not in url.hostname else f"[{url.hostname}]"
    sock.sendall(f"CONNECT {host}:{url.port or default_port} HTTP/1.0\r\n"
                 f"{proxy_auth}\r\n".encode("ascii"))
    with sock.makefile("rb") as reader:
        _, status, reason = _line(reader, _STATUS_LINE, "status line")
        if status != b"200":
            raise OSError(f"Tunnel connection failed: {status.decode()} "
                          f"{(reason or b'').decode('latin-1')}")
        _headers(reader)


def wire_exchange(endpoint: AgentEndpoint, session_id: str,
                  utterance: str) -> tuple[str, bool]:
    """One request/response exchange with the remote agent.

    Only a failure to open the connection is retried, up to
    ``endpoint.retry_count`` extra attempts: a POST that is being sent may
    reach the agent, so it is not resent (RFC 9110 section 9.2.2). A reply
    that is well framed but unacceptable is a :class:`ProtocolError`.
    """
    attempts = endpoint.retry_count + 1
    for attempt in range(1, attempts + 1):
        try:
            connection = endpoint._connection()
            break
        except (OSError, _FramingError) as exc:
            if attempt == attempts:
                raise TransportError(
                    f"agent unreachable after {attempts} attempts at "
                    f"{endpoint.respond_url}: {exc}") from exc
    payload = json.dumps({"session_id": session_id,
                          "utterance": utterance}).encode("utf-8")
    try:
        # The whole body is read before it is judged, so that the
        # connection is ready for the next exchange whatever it says.
        status, raw, keep_alive = connection.exchange(payload)
    except _BodyTooLarge as exc:
        endpoint.close()
        raise ProtocolError(f"agent reply at {endpoint.respond_url} is too "
                            f"large: {exc}") from exc
    except (OSError, _FramingError) as exc:
        endpoint.close()
        raise TransportError(
            f"exchange with {endpoint.respond_url} failed, and the request "
            f"may have reached the agent: {exc}") from exc
    if not keep_alive:
        endpoint.close()
    if status != 200:
        raise ProtocolError(
            f"agent answered HTTP {status} at {endpoint.respond_url}")
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"agent reply is not valid JSON: {exc}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("utterance"),
                                                    str):
        raise ProtocolError(
            "agent reply is missing a string 'utterance' field")
    terminate = body.get("terminate", False)
    if not isinstance(terminate, bool):
        raise ProtocolError("agent reply has a non-boolean 'terminate' field")
    try:  # a \\ud800 escape decodes, but no transcript can write it
        body["utterance"].encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError("agent reply 'utterance' is not UTF-8 text: "
                            f"{exc.reason} at char {exc.start}") from exc
    return body["utterance"], terminate


@dataclass
class WireAgent(DialogueParticipant):
    """Adapter presenting a remote wire-protocol agent as a participant."""

    endpoint: AgentEndpoint
    session_id: str

    def respond(self, incoming: Utterance | None) -> Response:
        text = "" if incoming is None else incoming.text
        reply, terminate = wire_exchange(self.endpoint, self.session_id, text)
        return Response(reply, terminate=terminate)


_REASONS = {200: b"OK", 400: b"Bad Request", 404: b"Not Found",
            413: b"Content Too Large", 501: b"Not Implemented"}


class _MockWireHandler(socketserver.StreamRequestHandler):
    """Speaks the two-field wire protocol on top of mock agent sessions,
    over the HTTP/1.1 grammar the wire client reads replies with."""

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
                    == b"100-continue" and _body_size(headers) is not None):
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            raw = _read_body(reader, headers) or b""
        except _BodyTooLarge:
            return self._reply(413, b"request body too large")
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

    def verify_request(self, request: socket.socket, address: object) -> bool:
        return self._thread is not None  # not stop()'s wake-up connection

    def shutdown_request(self, request: socket.socket) -> None:
        with self._lock:
            self._requests.discard(request)
        super().shutdown_request(request)

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockAgentServer":
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        # no poll, unlike serve_forever's 0.5 s: stop() connects to wake it
        while self._thread is not None:
            self.handle_request()

    def stop(self) -> None:
        """Stop accepting and hang up every open connection."""
        thread, self._thread = self._thread, None
        if thread is not None:
            socket.create_connection(self.server_address[:2]).close()
            thread.join(timeout=5)
        self.server_close()
        # A kept-alive connection is served by its own daemon thread,
        # which would otherwise go on answering after the server stopped.
        with self._lock:
            for request in self._requests:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client hung up already


def serve_mock(items: ItemCollection, host: str = "127.0.0.1",
               port: int = 0) -> MockAgentServer:
    """Start a loopback wire-protocol server over mock agent sessions."""
    return MockAgentServer(items, host=host, port=port).start()
