"""HTTP client for black-box conversational agents.

The wire protocol is deliberately tiny: one ``POST {base_url}/respond``
per exchange with a JSON body ``{"session_id": ..., "utterance": ...}``,
answered by ``{"utterance": ..., "terminate": ...}``. Opening the dialogue
(asking the remote agent to speak first) is signalled by an empty
utterance string.

Each thread talks to an endpoint over one persistent HTTP/1.1 connection,
reopened when the agent has closed it or said it will. Only opening a
connection is retried: a request being sent may reach the agent, and a
POST is not resent (RFC 9110 section 9.2.2).

The client and the mock server (:mod:`crssim.mock_agent`) read HTTP/1.1
(RFC 9112) here: each line kind is one compiled rule, matched whole by
:func:`_line`, which bounds a line to 64 KiB; a head holds at most 100
fields. A body is framed by ``Content-Length``, by chunked coding or, in
a reply, by the close of the connection. A message that breaks a rule, or
whose framing two parsers could read two ways, is a framing error.

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
import sys
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import BinaryIO

from .connector import DialogueParticipant, Response
from .dialogue import Utterance
from .errors import ProtocolError, TransportError

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
# A body is read in pieces of at most this size, so a reply that promises
# more than it sends costs no more memory than it actually sent.
_MAX_READ = 1 << 20
_NO_BODY_STATUSES = frozenset({101, 204, 304})


class _FramingError(Exception):
    """A message breaking RFC 9112's grammar or framing: the client raises
    :class:`TransportError`, the server answers 400; both then close."""


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
            raw = reader.read()
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


def _read_body(reader: BinaryIO, headers: dict[bytes, bytes]
               ) -> bytes | None:
    """The body of a message, framed by ``Transfer-Encoding: chunked`` or by
    ``Content-Length`` (never both, RFC 9112); ``None`` if by neither."""
    coding = headers.get(b"transfer-encoding")
    length = headers.get(b"content-length")
    if coding is not None:
        if length is not None or coding.lower() != b"chunked":
            raise _FramingError(f"Transfer-Encoding {coding[:40]!r} must "
                                "be chunked, without Content-Length")
        return _read_chunked(reader)
    if length is None:
        return None
    if not _CONTENT_LENGTH.fullmatch(length):
        raise _FramingError(f"bad Content-Length {length[:40]!r}")
    return _read_exactly(reader, int(length))


def _keep_alive(version: bytes, headers: dict[bytes, bytes]) -> bool:
    """Whether a message leaves its connection open for the next one:
    under HTTP/1.0 only if it asks for keep-alive, otherwise unless it asks
    for close."""
    connection = headers.get(b"connection", b"").lower()
    if version == b"HTTP/1.0":
        return b"keep-alive" in connection
    return b"close" not in connection


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    parts = []
    while size > 0:
        part = reader.read(min(size, _MAX_READ))
        if not part:
            raise _FramingError(f"reply body ended {size} bytes short")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_chunked(reader: BinaryIO) -> bytes:
    parts = []
    while size := int(_line(reader, _CHUNK_LINE, "chunk size line")[0], 16):
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
