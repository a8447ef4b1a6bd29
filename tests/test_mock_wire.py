"""The mock agent's HTTP/1.1 server, spoken to over raw sockets: framing,
keep-alive, interim replies, and the errors that close a connection."""

from __future__ import annotations

import json
import socket
from typing import BinaryIO, Callable

import pytest

from crssim import Response, serve_mock, wire
from crssim.mock_agent import RECOMMEND_TEXT, WELCOME_TEXT

Connection = tuple[socket.socket, BinaryIO]


def post(session_id: str = "s", utterance: str = "", *,
         head: str = "POST /respond HTTP/1.1",
         headers: tuple[str, ...] = ()) -> bytes:
    """One request carrying the wire protocol's JSON body."""
    body = json.dumps({"session_id": session_id,
                       "utterance": utterance}).encode("utf-8")
    lines = [head, *headers, f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def read_reply(reader: BinaryIO) -> tuple[int, dict[str, str], bytes]:
    """The status code, the headers by lowercase name, and the body."""
    status = reader.readline()
    assert status.startswith(b"HTTP/1.1 "), status
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status.split()[1]), headers, body


def utterance(body: bytes) -> str:
    reply = json.loads(body)
    assert set(reply) == {"utterance", "terminate"}
    return reply["utterance"]


def assert_closed(reader: BinaryIO) -> None:
    assert reader.read() == b""


@pytest.fixture(scope="module")
def running(movie_items):
    server = serve_mock(movie_items)
    yield server
    server.stop()


@pytest.fixture
def server(running):
    """The module's server, with no sessions and an empty request log."""
    with running._lock:
        running.sessions.clear()
        running.request_log.clear()
    return running


@pytest.fixture
def connect(server) -> Callable[[], Connection]:
    """Open raw connections to the server; all are closed afterwards."""
    opened: list[Connection] = []

    def connect() -> Connection:
        sock = socket.create_connection(server.server_address[:2], timeout=5)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        opened.append((sock, sock.makefile("rb")))
        return opened[-1]

    yield connect
    for sock, reader in opened:
        reader.close()
        sock.close()


def test_a_reply_is_json_framed_by_content_length(connect):
    sock, reader = connect()
    sock.sendall(post())
    status, headers, body = read_reply(reader)
    assert status == 200
    assert headers["content-type"] == "application/json; charset=utf-8"
    assert "connection" not in headers
    assert utterance(body) == WELCOME_TEXT


class Scripted:
    """A session that answers every turn with one response."""

    def __init__(self, response: Response) -> None:
        self.response = response

    def respond(self, incoming: object) -> Response:
        return self.response


@pytest.mark.parametrize("text", ["Ça va — 映画 🎬", "tab\t nul\x00 bell\x07 "
                                  "\u2028 quote\" backslash\\", ""])
@pytest.mark.parametrize("terminate", [False, True])
def test_a_reply_body_is_the_bytes_of_json_dumps(server, connect, text,
                                                 terminate):
    server.sessions["s"] = Scripted(Response(text, terminate))
    sock, reader = connect()
    sock.sendall(post("s", "hi"))
    status, _, body = read_reply(reader)
    assert status == 200
    assert body == json.dumps({"utterance": text,
                               "terminate": terminate},
                              ensure_ascii=False).encode("utf-8")


def test_two_requests_in_one_write_are_answered_in_order(server, connect):
    sock, reader = connect()
    sock.sendall(post("s", "") + post("s", "i like action"))
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT
    assert utterance(read_reply(reader)[2]) == RECOMMEND_TEXT.format(
        name="The Matrix")
    sock.sendall(post("t", ""))  # the connection is still open
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT
    assert server.request_log == [("s", ""), ("s", "i like action"),
                                  ("t", "")]


def test_a_request_sent_one_byte_per_write_is_answered(connect):
    sock, reader = connect()
    for byte in post():
        sock.send(bytes([byte]))
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT


def test_a_chunked_request_body_is_read(server, connect):
    sock, reader = connect()
    body = b'{"session_id": "c", "utterance": "i like action"}'
    sock.sendall(b"POST /respond HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                 b"\r\n%x;ext=1\r\n%s\r\n%x \t;ext=2\r\n%s\r\n0\r\n"
                 b"X-Trailer: t\r\n\r\n"
                 % (10, body[:10], len(body) - 10, body[10:]))
    status, _, reply = read_reply(reader)
    assert status == 200
    assert server.request_log == [("c", "i like action")]
    sock.sendall(post("c", "sounds great"))  # still in step afterwards
    assert read_reply(reader)[0] == 200


def test_expect_100_continue_is_answered_before_the_body(connect):
    sock, reader = connect()
    request = post(headers=("Expect: 100-continue",))
    head, _, body = request.partition(b"\r\n\r\n")
    sock.sendall(head + b"\r\n\r\n")
    assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
    assert reader.readline() == b"\r\n"
    sock.sendall(body)
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT


@pytest.mark.parametrize("head, headers, keep_alive", [
    ("POST /respond HTTP/1.1", (), True),
    ("POST /respond HTTP/1.1", ("Connection: close",), False),
    ("POST /respond HTTP/1.0", (), False),
    ("POST /respond HTTP/1.0", ("Connection: keep-alive",), True),
])
def test_connection_persistence(connect, head, headers, keep_alive):
    sock, reader = connect()
    sock.sendall(post(head=head, headers=headers))
    status, reply_headers, body = read_reply(reader)
    assert status == 200
    assert utterance(body) == WELCOME_TEXT
    if keep_alive:
        assert "connection" not in reply_headers
        sock.sendall(post("again"))
        assert utterance(read_reply(reader)[2]) == WELCOME_TEXT
    else:
        assert reply_headers["connection"] == "close"
        assert_closed(reader)


BAD_BODIES = [b"not json", b"[1, 2]", b'"text"', b'{"session_id": "s"}',
              b'{"utterance": ""}', b"\xff\xfe{}", b"[" * 100_000]


@pytest.mark.parametrize("request_bytes, status", [
    (post(head="POST /other HTTP/1.1"), 404),
    (post(head="GET /respond HTTP/1.1"), 501),
    (b"GET /respond HTTP/1.1\r\n\r\n", 501),
    *[(b"POST /respond HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       % (len(body), body), 400) for body in BAD_BODIES],
], ids=["404", "501-with-body", "501", *[f"400-{body[:10]!r}"
                                          for body in BAD_BODIES]])
def test_an_error_reply_closes_the_connection(server, connect,
                                              request_bytes, status):
    sock, reader = connect()
    sock.sendall(request_bytes)
    code, headers, body = read_reply(reader)
    assert code == status
    assert headers["connection"] == "close"
    assert headers["content-type"] == "text/plain; charset=utf-8"
    assert body
    assert_closed(reader)
    assert server.request_log == []


# requests that do not parse as HTTP/1.x; none of them ends in a blank
# line the server would leave unread
MALFORMED = {
    "request-line": b"HELLO\r\n",
    "no-version": b"POST /respond\r\n",
    "http-2": b"POST /respond HTTP/2.0\r\n",
    "content-length": b"POST /respond HTTP/1.1\r\nContent-Length: 1e3\r\n"
                      b"\r\n",
    "negative-length": b"POST /respond HTTP/1.1\r\nContent-Length: -1\r\n"
                       b"\r\n",
    "101-headers": b"POST /respond HTTP/1.1\r\n"
                   + b"".join(b"X-%d: %d\r\n" % (i, i) for i in range(101)),
    "long-header": b"POST /respond HTTP/1.1\r\nX-Long: "
                   + b"a" * (65537 - len(b"X-Long: \r\n")) + b"\r\n",
    "long-request-line": b"POST /" + b"a" * 65536 + b" HTTP/1.1\r\n",
    "chunk-size": b"POST /respond HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  b"\r\nzz\r\n",
    # a chunk size is 1*HEXDIG (RFC 9112): no prefix, sign, blank or "_"
    **{f"chunk-size {size!r}": b"POST /respond HTTP/1.1\r\n"
       b"Transfer-Encoding: chunked\r\n\r\n%s\r\n" % size
       for size in (b"0x5", b"+5", b" 5", b"5 ", b"0_5", b"-0")},
    # framing that two parsers of one request may read two ways (RFC 9112)
    "no-colon": b"POST /respond HTTP/1.1\r\nno colon here\r\n",
    "obs-fold": b"POST /respond HTTP/1.1\r\nX-A: a\r\n Content-Length: 5\r\n",
    "obs-fold-tab": b"POST /respond HTTP/1.1\r\n\tContent-Length: 5\r\n",
    "two-content-lengths": b"POST /respond HTTP/1.1\r\nContent-Length: 5\r\n"
                           b"content-length: 6\r\n",
    # the head alone is rejected, so no body is sent (unread, it would
    # make the server's close a reset)
    "length-and-chunked": b"POST /respond HTTP/1.1\r\nContent-Length: 5\r\n"
                          b"Transfer-Encoding: chunked\r\n\r\n",
    "gzip-chunked": b"POST /respond HTTP/1.1\r\nTransfer-Encoding: gzip, "
                    b"chunked\r\nContent-Length: 5\r\n\r\n",
    "space-before-colon": b"POST /respond HTTP/1.1\r\nContent-Length : 5"
                          b"\r\n\r\n",
    "two-codings": b"POST /respond HTTP/1.1\r\nTransfer-Encoding: gzip\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n",
    # lines that break the RFC 9112 grammar
    "space-in-name": b"POST /respond HTTP/1.1\r\nContent Length: 5\r\n",
    "nul-in-value": b"POST /respond HTTP/1.1\r\nX-A: a\0b\r\n",
    "cr-in-value": b"POST /respond HTTP/1.1\r\nConnection: clo\rse\r\n",
    "version-1.x": b"POST /respond HTTP/1.x\r\n",
    "two-spaces": b"POST  /respond HTTP/1.1\r\n",
    "nul-in-target": b"POST /res\0pond HTTP/1.1\r\n",
    "5000-digit-length": b"POST /respond HTTP/1.1\r\nContent-Length: "
                         + b"0" * 5000 + b"5\r\n\r\n",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_a_request_that_does_not_parse_gets_400_and_a_close(server, connect,
                                                            name):
    sock, reader = connect()
    sock.sendall(MALFORMED[name])
    code, headers, _ = read_reply(reader)
    assert code == 400
    assert headers["connection"] == "close"
    assert_closed(reader)
    assert server.request_log == []


def test_a_head_cut_before_its_blank_line_gets_400_and_a_close(server,
                                                               connect):
    sock, reader = connect()
    sock.sendall(b"POST /respond HTTP/1.1\r\nX-A: a\r\n")
    sock.shutdown(socket.SHUT_WR)
    code, headers, body = read_reply(reader)
    assert (code, body) == (400, b"malformed request")
    assert headers["connection"] == "close"
    assert_closed(reader)
    assert server.request_log == []


def test_a_content_length_repeated_with_its_value_is_accepted(connect):
    sock, reader = connect()
    length = len(post().partition(b"\r\n\r\n")[2])
    sock.sendall(post(headers=(f"Content-Length: {length}",)))
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT


def test_the_limits_themselves_are_accepted(connect):
    sock, reader = connect()
    headers = tuple(f"X-{i}: {i}" for i in range(98))
    headers += ("X-Long: " + "a" * (65536 - len("X-Long: \r\n")),)
    request = post(headers=headers)  # 100 headers with Content-Length
    assert request.count(b"\r\n") == 1 + 100 + 1
    sock.sendall(request)
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT


def test_a_body_at_the_cap_is_accepted(server, connect):
    sock, reader = connect()
    body = b'{"session_id": "s", "utterance": ""}'
    body += b" " * (wire._MAX_BODY - len(body))
    sock.sendall(b"POST /respond HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                 % (len(body), body))
    assert utterance(read_reply(reader)[2]) == WELCOME_TEXT


# requests whose body would pass the cap; each is refused at the last
# bytes sent, so none is left unread to make the server's close a reset
TOO_LARGE = {
    "content-length": b"POST /respond HTTP/1.1\r\nContent-Length: %d\r\n"
                      b"\r\n" % (wire._MAX_BODY + 1),
    "chunked": b"POST /respond HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
               b"\r\n%x\r\n%s\r\n1\r\n"
               % (wire._MAX_BODY, b" " * wire._MAX_BODY),
    "one-large-chunk": b"POST /respond HTTP/1.1\r\n"
                       b"Transfer-Encoding: chunked\r\n\r\n%x\r\n"
                       % (wire._MAX_BODY + 1),
    # refused before any interim reply (RFC 9110, section 10.1.1)
    "expect-100-continue": b"POST /respond HTTP/1.1\r\n"
                           b"Expect: 100-continue\r\nContent-Length: %d\r\n"
                           b"\r\n" % (wire._MAX_BODY + 1),
}


@pytest.mark.parametrize("name", TOO_LARGE)
def test_a_body_past_the_cap_gets_413_and_a_close(server, connect, name):
    sock, reader = connect()
    sock.sendall(TOO_LARGE[name])
    code, headers, body = read_reply(reader)
    assert (code, body) == (413, b"request body too large")
    assert headers["connection"] == "close"
    assert_closed(reader)
    assert server.request_log == []


def test_stop_hangs_up_open_connections(movie_items):
    server = serve_mock(movie_items)
    sock = socket.create_connection(server.server_address[:2], timeout=5)
    with sock, sock.makefile("rb") as reader:
        sock.sendall(post())
        assert read_reply(reader)[0] == 200
        server.stop()
        assert_closed(reader)
