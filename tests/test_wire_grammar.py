"""The HTTP/1.1 grammar of ``crssim.wire``, driven through the readers each
end calls, in the order it calls them, on in-memory streams: whatever the
bytes, a reader returns or raises ``_FramingError``, and a NUL or a bare CR
anywhere in a head is refused."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from crssim import wire

BODY = b'{"session_id": "s", "utterance": "i like action"}'


def read_request(data: bytes) -> bytes | None:
    """What the mock server reads of one request."""
    reader = io.BufferedReader(io.BytesIO(data))
    wire._line(reader, wire._REQUEST_LINE, "request line")
    return wire._read_body(reader, wire._headers(reader))


def read_reply(data: bytes) -> bytes | None:
    """What the client reads of one reply."""
    reader = io.BufferedReader(io.BytesIO(data))
    wire._line(reader, wire._STATUS_LINE, "status line")
    return wire._read_body(reader, wire._headers(reader))


READERS = {"request": read_request, "reply": read_reply}
CHUNKED = b"a;ext=1\r\n%s\r\n%x \t;e=2\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n" % (
    BODY[:10], len(BODY) - 10, BODY[10:])
# valid messages for each end: framed by length, chunked, or by neither
VALID = {
    "request": [
        b"POST /respond HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s"
        % (len(BODY), BODY),
        b"POST /respond HTTP/1.0\nConnection: keep-alive\nContent-Length: "
        b"%d\n\n%s" % (len(BODY), BODY),
        b"POST http://h:1/respond HTTP/1.1\r\nTransfer-Encoding: chunked"
        b"\r\nExpect: 100-continue\r\n\r\n" + CHUNKED,
        b"GET / HTTP/1.1\r\nX-Empty:\r\nX-Blank: \t a  b \t\r\n\r\n",
    ],
    "reply": [
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY),
        b"HTTP/1.0 200 OK\nContent-Length: %d\n\n%s" % (len(BODY), BODY),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + CHUNKED,
        b"HTTP/1.1 204\r\nConnection: close\r\n\r\n",
        b"HTTP/1.1 500 Internal  Server Error\r\n\r\n" + BODY,
    ],
}
# fragments of messages, so that random ones reach past the start line
PIECES = [
    b"POST ", b"GET ", b"/respond ", b"HTTP/1.1", b"HTTP/1.0", b"HTTP/1.x",
    b"HTTP/1.1 ", b"200 OK", b"100 Continue", b" ", b"  ", b"\t", b"\r\n",
    b"\n", b"\r", b"\0", b":", b";", b"Content-Length: ", b"2", b"99",
    b"-1", b"0x5", b"Transfer-Encoding: chunked", b"Transfer-Encoding: ",
    b"gzip", b"Connection: close", b"Content Length: 5", b"X-A: a",
    b"ff;x", b"0", b"{}", BODY, b"\xff",
]


def edited(message: bytes, index: int, byte: int, how: str) -> bytes:
    """``message`` with one byte replaced, inserted or deleted."""
    index %= len(message)
    kept = {"replace": index + 1, "insert": index, "delete": index + 1}[how]
    new = b"" if how == "delete" else bytes([byte])
    return message[:index] + new + message[kept:]


def one_byte_edits(end: str) -> st.SearchStrategy[bytes]:
    return st.builds(edited, st.sampled_from(VALID[end]),
                     st.integers(min_value=0), st.integers(0, 255),
                     st.sampled_from(["replace", "insert", "delete"]))


def any_message(end: str) -> st.SearchStrategy[bytes]:
    return st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(PIECES), max_size=16).map(b"".join),
        one_byte_edits(end))


@pytest.mark.parametrize("end", READERS)
def test_the_valid_messages_are_read(end):
    for message in VALID[end]:
        body = READERS[end](message)
        assert body in (None, b"", BODY)


@pytest.mark.parametrize("end", READERS)
def test_any_bytes_are_read_or_a_framing_error(end):
    @settings(max_examples=3000, deadline=None)
    @given(message=any_message(end))
    @example(message=b"")
    @example(message=VALID[end][0].replace(b"\r\n\r\n", b"\r\n"))
    def check(message):
        try:
            READERS[end](message)
        except wire._FramingError:
            pass

    check()


def final_line_end(message: bytes) -> int:
    """Where the blank line that ends the head of ``message`` starts."""
    return min(i + len(sep) // 2 for sep in (b"\r\n\r\n", b"\n\n")
               if (i := message.find(sep)) >= 0)


@pytest.mark.parametrize("end", READERS)
def test_a_nul_or_bare_cr_in_a_head_is_a_framing_error(end):
    @settings(max_examples=3000, deadline=None)
    @given(message=st.sampled_from(VALID[end]), index=st.integers(min_value=0),
           byte=st.sampled_from(b"\0\r"))
    def check(message, index, byte):
        index %= final_line_end(message)
        if byte == ord("\r") and message[index + 1:index + 2] == b"\n":
            return  # that CR ends the line as the grammar allows
        with pytest.raises(wire._FramingError):
            READERS[end](message[:index] + bytes([byte])
                         + message[index + 1:])

    check()
