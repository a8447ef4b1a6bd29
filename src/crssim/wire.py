"""HTTP client for black-box conversational agents.

The wire protocol is deliberately tiny: one ``POST {base_url}/respond``
per exchange with a JSON body ``{"session_id": ..., "utterance": ...}``,
answered by ``{"utterance": ..., "terminate": ...}``. Opening the dialogue
(asking the remote agent to speak first) is signalled by an empty
utterance string.

Each thread talks to an endpoint over one persistent HTTP/1.1 connection,
reopened when the agent has closed it. Agents that close after every
reply still work, at the cost of a connect per exchange. The
``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and ``NO_PROXY``
environment variables are honoured.
"""

from __future__ import annotations

import base64
import http.client
import json
import select
import threading
import urllib.parse
import urllib.request
from dataclasses import dataclass, field

from .connector import DialogueParticipant, Response
from .dialogue import Utterance
from .errors import ProtocolError, TransportError

_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class AgentEndpoint:
    """Where and how to reach a remote agent.

    The endpoint owns one connection per thread that uses it; call
    :meth:`close` from that thread when done.
    """

    base_url: str
    timeout: float = 10.0
    retry_count: int = 2
    _local: threading.local = field(default_factory=threading.local,
                                    init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retry_count < 0:
            raise ValueError("retry_count must be non-negative")

    @property
    def respond_url(self) -> str:
        return self.base_url.rstrip("/") + "/respond"

    def _connection(self) -> tuple[http.client.HTTPConnection, str, dict]:
        """This thread's open connection, its request target and headers.

        An idle connection that has turned readable was closed (or
        answered out of turn) by the agent, so it is replaced before use.
        """
        current = getattr(self._local, "current", None)
        if current is not None:
            sock = current[0].sock
            if sock is None or not select.select([sock], [], [], 0)[0]:
                return current
            self.close()
        current = self._local.current = _open_connection(self.respond_url,
                                                         self.timeout)
        return current

    def close(self) -> None:
        """Close this thread's connection; the next exchange reopens it."""
        current = getattr(self._local, "current", None)
        if current is not None:
            self._local.current = None
            current[0].close()


def _open_connection(url: str, timeout: float
                     ) -> tuple[http.client.HTTPConnection, str, dict]:
    """A connection for ``url``, through the environment's proxy if any."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise http.client.InvalidURL(
            f"unsupported URL scheme {parts.scheme!r}")
    connection_class = (http.client.HTTPSConnection
                        if parts.scheme == "https"
                        else http.client.HTTPConnection)
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return (connection_class(parts.netloc, timeout=timeout),
                parts.path, _JSON_HEADERS)
    if "://" not in proxy:
        proxy = "http://" + proxy
    proxy_parts = urllib.parse.urlsplit(proxy)
    proxy_headers = {}
    if proxy_parts.username is not None:
        credentials = (f"{urllib.parse.unquote(proxy_parts.username)}:"
                       f"{urllib.parse.unquote(proxy_parts.password or '')}")
        proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("utf-8")).decode("ascii")
    connection = connection_class(proxy_parts.netloc.rpartition("@")[2],
                                  timeout=timeout)
    if parts.scheme == "https":
        connection.set_tunnel(parts.netloc, headers=proxy_headers)
        return connection, parts.path, _JSON_HEADERS
    return connection, url, {**_JSON_HEADERS, **proxy_headers}


def wire_exchange(endpoint: AgentEndpoint, session_id: str,
                  utterance: str) -> tuple[str, bool]:
    """One request/response exchange with the remote agent.

    Transport failures (connection refused, timeouts) are retried up to
    ``endpoint.retry_count`` extra attempts, each on a fresh connection; a
    malformed reply is a protocol error and is not retried.
    """
    attempts = endpoint.retry_count + 1
    payload = json.dumps({"session_id": session_id,
                          "utterance": utterance}).encode("utf-8")
    last_error: Exception | None = None
    for _ in range(attempts):
        try:
            connection, target, headers = endpoint._connection()
            connection.request("POST", target, body=payload, headers=headers)
            reply = connection.getresponse()
            # Read the whole body before judging it, so that the
            # connection is ready for the next exchange whatever it says.
            raw = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            endpoint.close()
            last_error = exc
            continue
        if reply.status != 200:
            raise ProtocolError(
                f"agent answered HTTP {reply.status} at "
                f"{endpoint.respond_url}")
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(
                f"agent reply is not valid JSON: {exc}") from exc
        if not isinstance(body, dict) or not isinstance(
                body.get("utterance"), str):
            raise ProtocolError(
                "agent reply is missing a string 'utterance' field")
        terminate = body.get("terminate", False)
        if not isinstance(terminate, bool):
            raise ProtocolError(
                "agent reply has a non-boolean 'terminate' field")
        return body["utterance"], terminate
    raise TransportError(
        f"agent unreachable after {attempts} attempts at "
        f"{endpoint.respond_url}: {last_error}")


@dataclass
class WireAgent(DialogueParticipant):
    """Adapter presenting a remote wire-protocol agent as a participant."""

    endpoint: AgentEndpoint
    session_id: str

    def respond(self, incoming: Utterance | None) -> Response:
        text = "" if incoming is None else incoming.text
        reply, terminate = wire_exchange(self.endpoint, self.session_id, text)
        return Response(reply, terminate=terminate)
