"""Evaluation metrics, training orchestration, mock agent, wire protocol,
run directories, and the command-line entry points."""

from __future__ import annotations

import base64
import dataclasses
import json
import shutil
import socket
import socketserver
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import crssim
from crssim import (
    AgentEndpoint,
    AgentError,
    CrssimError,
    Dialogue,
    Domain,
    Intent,
    Item,
    ItemCollection,
    MockCRSAgent,
    NoDialogues,
    ParseError,
    Participant,
    ProtocolError,
    Response,
    SchemaVersionMismatch,
    Simulation,
    SimulationConfig,
    TransportError,
    Utterance,
    WireAgent,
    connect_dialogue,
    dialogue_success,
    evaluate,
    export_dialogues,
    import_dialogues,
    load_artifacts,
    run_evaluation,
    run_simulation,
    run_training,
    save_artifacts,
    serve_mock,
    wire_exchange,
)
from crssim import runner, wire
from crssim.cli import _config, build_parser, main
from crssim.metrics import DialogueStats
from crssim.mock_agent import (
    ACCEPT_BYE_TEXT,
    CLARIFY_TEXT,
    ELICIT_TEXT,
    EXHAUSTED_BYE_TEXT,
    FAREWELL_TEXT,
    INFORM_TEXT,
    RECOMMEND_TEXT,
    WELCOME_TEXT,
)
from test_transcript_io import _set, fields, json_values, scalars, texts

ACCEPT = Intent("ACCEPT")
DISCLOSE = Intent("DISCLOSE")


def metrics_dialogue(dialogue_id, n_turns, success, terminated_by="user"):
    """A minimal annotated dialogue with ``n_turns`` user turns."""
    utterances = []
    index = 0
    for i in range(n_turns):
        utterances.append(Utterance(Participant.AGENT, f"agent {i}", index))
        index += 1
        intent = ACCEPT if (success and i == n_turns - 1) else DISCLOSE
        utterances.append(Utterance(Participant.USER, f"user {i}", index,
                                    intent=intent))
        index += 1
    return Dialogue(dialogue_id=dialogue_id, agent_id="a", user_id="u",
                    utterances=utterances,
                    metadata={"terminated_by": terminated_by})


def user_says(text, turn=1):
    return Utterance(Participant.USER, text, turn)


class TestMetrics:
    def test_average_turns_over_two_dialogues(self):
        report = evaluate([metrics_dialogue("d1", 3, False),
                           metrics_dialogue("d2", 5, False)])
        assert report.n_dialogues == 2
        assert report.avg_turns == 4.0
        assert report.avg_success == 0.0

    def test_mixed_success_oracle(self):
        report = evaluate([metrics_dialogue("d1", 3, True),
                           metrics_dialogue("d2", 5, False),
                           metrics_dialogue("d3", 7, True)])
        assert abs(report.avg_turns - 5.0) < 1e-12
        assert abs(report.avg_success - 2.0 / 3.0) < 1e-12

    def test_rows_keep_input_order_and_fields(self):
        report = evaluate([metrics_dialogue("z", 2, True, "agent"),
                           metrics_dialogue("a", 4, False, "max_turns")])
        assert [r.dialogue_id for r in report.rows] == ["z", "a"]
        assert report.rows[0].success is True
        assert report.rows[0].terminated_by == "agent"
        assert report.rows[1].turns == 4

    def test_report_serialization_shape(self):
        payload = evaluate([metrics_dialogue("d1", 2, True)]).to_dict()
        assert payload["n_dialogues"] == 1
        assert payload["dialogues"][0] == {
            "dialogue_id": "d1", "turns": 2, "success": True,
            "terminated_by": "user"}

    def test_empty_set_rejected(self):
        with pytest.raises(NoDialogues):
            evaluate([])

    def test_success_requires_a_user_accept(self):
        success = metrics_dialogue("d", 2, True)
        failure = metrics_dialogue("d", 2, False)
        assert dialogue_success(success)
        assert not dialogue_success(failure)

    def test_agent_accepts_do_not_count(self):
        utterances = [
            Utterance(Participant.AGENT, "deal", 0, intent=ACCEPT),
            Utterance(Participant.USER, "hm", 1),
        ]
        dialogue = Dialogue(dialogue_id="d", agent_id="a", user_id="u",
                            utterances=utterances)
        assert not dialogue_success(dialogue)

    def test_unannotated_dialogue_never_succeeds(self):
        dialogue = Dialogue(
            dialogue_id="d", agent_id="a", user_id="u",
            utterances=[Utterance(Participant.AGENT, "hi", 0),
                        Utterance(Participant.USER, "yes", 1)])
        assert not dialogue_success(dialogue)

    @given(spec=st.lists(st.tuples(st.integers(min_value=1, max_value=9),
                                   st.booleans()),
                         min_size=1, max_size=8))
    def test_averages_are_arithmetic_means_of_rows(self, spec):
        dialogues = [metrics_dialogue(f"d{i}", turns, ok)
                     for i, (turns, ok) in enumerate(spec)]
        report = evaluate(dialogues)
        turns = [r.turns for r in report.rows]
        wins = [r.success for r in report.rows]
        assert report.n_dialogues == len(spec)
        assert abs(report.avg_turns - sum(turns) / len(turns)) < 1e-12
        assert abs(report.avg_success - sum(wins) / len(wins)) < 1e-12
        assert turns == [t for t, _ in spec]

    @settings(max_examples=60, deadline=None)
    @given(spec=st.lists(st.tuples(
               st.text(st.characters() | st.characters(categories=["Cs"]),
                       min_size=1),
               st.integers(min_value=0, max_value=6), st.booleans(),
               st.text(st.characters() | st.characters(categories=["Cs"]))),
               min_size=1, max_size=12),
           many_causes=st.booleans(), data=st.data())
    def test_packed_rows_read_as_the_tuple_of_their_stats(
            self, spec, many_causes, data):
        # ids and causes of any text, lone surrogates included, and more
        # distinct causes than one byte can number
        if many_causes:
            spec += [(f"extra-{i}", i % 4, i % 3 == 0, f"cause {i}")
                     for i in range(300)]
        dialogues = [metrics_dialogue(*row) for row in spec]
        rows = evaluate(dialogues).rows
        stats = tuple(DialogueStats(
            dialogue_id=d.dialogue_id, turns=d.turns,
            success=dialogue_success(d),
            terminated_by=str(d.metadata.get("terminated_by", "unknown")))
            for d in dialogues)
        assert rows == stats and stats == rows
        assert hash(rows) == hash(stats)
        assert rows == evaluate(dialogues).rows
        assert len(rows) == len(stats) and tuple(rows) == stats
        n = len(stats)
        for i in (0, n - 1, -1, -n, data.draw(st.integers(-n, n - 1))):
            assert rows[i] == stats[i]
        for i in (n, -n - 1, data.draw(st.integers(n, 2 * n + 5)),
                  data.draw(st.integers(-2 * n - 5, -n - 1))):
            with pytest.raises(IndexError):
                rows[i]
        window = slice(*data.draw(st.tuples(
            st.none() | st.integers(-n - 2, n + 2),
            st.none() | st.integers(-n - 2, n + 2),
            st.none() | st.integers(1, 3) | st.integers(-3, -1))))
        assert rows[window] == stats[window]
        assert list(reversed(rows)) == list(reversed(stats))


# model file -> path to one key its loader requires
REQUIRED_KEYS = {
    "interaction_model.json": ["name"],
    "intent_model.json": ["idf"],
    "slot_lexicon.json": ["entries"],
    "template_store.json": ["templates", "ACCEPT", 0, "pattern"],
    "satisfaction_model.json": ["default_level"],
}


class TestTrainedArtifacts:
    def test_training_produces_every_component(self, trained):
        assert trained.interaction_model.transitions
        assert trained.satisfaction_model is not None
        assert trained.lexicon.to_dict()["entries"]
        for intent in trained.interaction_model.user_intents:
            assert trained.templates.templates_for(intent)

    def test_save_load_round_trip(self, trained, tmp_path):
        models = save_artifacts(trained, tmp_path)
        assert models == tmp_path / "models"
        expected = {"interaction_model.json", "intent_model.json",
                    "slot_lexicon.json", "template_store.json",
                    "satisfaction_model.json"}
        assert {p.name for p in models.iterdir()} == expected
        loaded = load_artifacts(tmp_path)
        assert loaded.interaction_model.to_dict() == \
            trained.interaction_model.to_dict()
        assert loaded.intent_model.to_dict() == trained.intent_model.to_dict()
        assert loaded.lexicon.to_dict() == trained.lexicon.to_dict()
        assert loaded.templates.to_dict() == trained.templates.to_dict()
        assert loaded.satisfaction_model.to_dict() == \
            trained.satisfaction_model.to_dict()

    def test_loading_an_empty_directory_fails(self, tmp_path):
        with pytest.raises(ParseError, match="missing model artifact"):
            load_artifacts(tmp_path)

    # 1.0 and true equal 1, but no writer writes either
    @pytest.mark.parametrize("version", [99, 1.0, True])
    def test_tampered_schema_version_rejected(self, trained, tmp_path,
                                              version):
        models = save_artifacts(trained, tmp_path)
        target = models / "intent_model.json"
        document = json.loads(target.read_text(encoding="utf-8"))
        document["schema_version"] = version
        target.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SchemaVersionMismatch):
            load_artifacts(tmp_path)

    @pytest.mark.parametrize("file,path", REQUIRED_KEYS.items(),
                             ids=list(REQUIRED_KEYS))
    def test_model_missing_a_required_key_is_a_parse_error(
            self, trained, tmp_path, file, path):
        models = save_artifacts(trained, tmp_path)
        target = models / file
        document = json.loads(target.read_text(encoding="utf-8"))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        target.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ParseError, match=file):
            load_artifacts(tmp_path)


    @pytest.mark.parametrize("key, value, message", [
        ("required_slots", {"DISCLOSE": "genre"},
         "InteractionModel.required_slots\\['DISCLOSE'\\] must be a list"),
        ("recommendation_intents", "RECOMMEND",
         "InteractionModel.recommendation_intents must be a list"),
        ("expected_responses", ["RECOMMEND"],
         "InteractionModel.expected_responses must be a mapping"),
    ], ids=["slots-string", "recommendation-string", "responses-list"])
    def test_misshapen_interaction_model_names_the_file(
            self, trained, tmp_path, key, value, message):
        models = save_artifacts(trained, tmp_path)
        target = models / "interaction_model.json"
        document = json.loads(target.read_text(encoding="utf-8"))
        document[key] = value
        target.write_text(json.dumps(document), encoding="utf-8")
        export_dialogues([metrics_dialogue("d1", 2, True)],
                         tmp_path / "transcripts.jsonl")
        for load in (lambda: load_artifacts(tmp_path),
                     lambda: run_evaluation(tmp_path / "transcripts.jsonl")):
            with pytest.raises(ParseError,
                               match=f"interaction_model.json.*{message}"):
                load()


class TestMockAgentScript:
    def test_opens_with_welcome(self, movie_items):
        agent = MockCRSAgent(movie_items)
        assert agent.respond(None).text == WELCOME_TEXT

    def test_elicits_once_then_clarifies(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        assert agent.respond(user_says("hello there")).text == ELICIT_TEXT
        assert agent.respond(user_says("hello again")).text == CLARIFY_TEXT

    def test_genre_mention_triggers_first_match(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        reply = agent.respond(user_says("i like action"))
        assert reply.text == RECOMMEND_TEXT.format(name="The Matrix")
        assert not reply.terminate

    def test_negated_genre_is_not_a_request(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        reply = agent.respond(user_says("I don't like action"))
        assert reply.text == ELICIT_TEXT

    def test_rejection_advances_to_next_match(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        agent.respond(user_says("i like action"))
        reply = agent.respond(user_says("no, not that one"))
        assert reply.text == RECOMMEND_TEXT.format(name="Mad Max Fury Road")

    def test_inquiry_reads_item_keywords(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        agent.respond(user_says("i like action"))
        reply = agent.respond(user_says("tell me more"))
        assert reply.text == INFORM_TEXT.format(
            facts="simulation and rebellion")
        assert not reply.terminate

    def test_acceptance_closes_the_dialogue(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        agent.respond(user_says("i like action"))
        reply = agent.respond(user_says("that sounds great"))
        assert reply.text == ACCEPT_BYE_TEXT
        assert reply.terminate

    def test_exhaustion_closes_the_dialogue(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        agent.respond(user_says("i like action"))
        for _ in range(2):
            reply = agent.respond(user_says("another one please"))
        reply = agent.respond(user_says("another one please"))
        assert reply.text == EXHAUSTED_BYE_TEXT
        assert reply.terminate

    def test_goodbye_wins_over_everything(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        reply = agent.respond(user_says("goodbye"))
        assert reply.text == FAREWELL_TEXT
        assert reply.terminate

    def test_new_genre_restarts_matching(self, movie_items):
        agent = MockCRSAgent(movie_items)
        agent.respond(None)
        agent.respond(user_says("i like action"))
        reply = agent.respond(user_says("how about a horror instead"))
        horror = movie_items.with_attribute("genre", "horror")[0]
        assert reply.text == RECOMMEND_TEXT.format(name=horror.name)

    def test_mixed_case_genre_is_recognised(self):
        items = ItemCollection(Domain("movies", ("genre", "keyword")))
        items.add(Item("m1", "Alien", {"genre": ("Sci-Fi",)}))
        agent = MockCRSAgent(items)
        agent.respond(None)
        reply = agent.respond(user_says("I want some sci-fi tonight"))
        assert reply.text == "You should watch Alien."


class _AbruptHandler(socketserver.BaseRequestHandler):
    """Accepts the TCP connection and slams it shut."""

    def handle(self):
        self.server.hits += 1
        self.request.close()


class _AbruptServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _AbruptHandler)
        self.hits = 0


class _ScriptedHTTPHandler(BaseHTTPRequestHandler):
    """Replays canned (status, body) replies, counting requests."""

    def do_POST(self):
        self.server.hits += 1
        self.server.requests.append((self.path, self.headers))
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        status, body = self.server.replies[
            min(self.server.hits - 1, len(self.server.replies) - 1)]
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_CONNECT = do_POST  # noqa: N815 (answers proxy tunnel requests too)

    def log_message(self, format, *args):
        pass


class _ScriptedHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies):
        super().__init__(("127.0.0.1", 0), _ScriptedHTTPHandler)
        self.replies = replies
        self.hits = 0
        self.requests = []

    @property
    def base_url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _KeepAliveHTTPHandler(_ScriptedHTTPHandler):
    """HTTP/1.1 replies on a connection that is closed after idling."""

    protocol_version = "HTTP/1.1"
    timeout = 0.3


class _KeepAliveHTTPServer(_ScriptedHTTPServer):
    """A scripted server that keeps connections open and counts them."""

    def __init__(self, replies):
        super().__init__(replies)
        self.RequestHandlerClass = _KeepAliveHTTPHandler
        self.connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


class _RawReplyHandler(socketserver.StreamRequestHandler):
    """Reads each request and answers it with canned bytes."""

    def handle(self):
        self.server.connections += 1
        while True:
            line = self.rfile.readline()
            length = 0
            while line not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
                line = self.rfile.readline()
            if not line:
                return
            self.rfile.read(length)
            replies = self.server.replies
            reply, close = replies[min(self.server.hits, len(replies) - 1)]
            self.server.hits += 1
            try:
                self.wfile.write(reply)
            except OSError:
                return  # the client gave up on an over-long reply
            if close:
                return


class _RawReplyServer(socketserver.ThreadingTCPServer):
    """A scripted server speaking raw bytes: (reply, close after it)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, replies):
        super().__init__(("127.0.0.1", 0), _RawReplyHandler)
        self.replies = replies
        self.connections = 0
        self.hits = 0

    @property
    def base_url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _DroppingProxyHandler(socketserver.StreamRequestHandler):
    """Forwards each request to the agent over one connection and relays
    its reply, reading both with the wire module's own readers."""

    def handle(self):
        proxy = self.server
        with socket.create_connection(proxy.agent_address, timeout=5) as up, \
                up.makefile("rb") as replies:
            while self.rfile.peek(1):
                method, target, _ = wire._line(
                    self.rfile, wire._REQUEST_LINE, "request line")
                body = wire._read_body(self.rfile, wire._headers(self.rfile))
                up.sendall(b"%s %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                           % (method, target, len(body), body))
                _, code, reason = wire._line(replies, wire._STATUS_LINE,
                                             "status line")
                reply = wire._read_body(replies, wire._headers(replies))
                proxy.forwarded.append(json.loads(body))
                if len(proxy.forwarded) == proxy.drop:
                    return  # the reply is lost: the connection closes
                self.wfile.write(b"HTTP/1.1 %s %s\r\nContent-Length: %d\r\n"
                                 b"\r\n%s" % (code, reason, len(reply), reply))


class _DroppingProxy(socketserver.ThreadingTCPServer):
    """A proxy to ``agent_address`` that closes the client's connection
    in place of relaying the reply to request number ``drop``."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, agent_address, drop):
        super().__init__(("127.0.0.1", 0), _DroppingProxyHandler)
        self.agent_address = agent_address
        self.drop = drop
        self.forwarded = []  # the JSON body of every request, in order

    @property
    def base_url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def _serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class TestWireProtocol:
    def test_loopback_round_trip(self, movie_items):
        server = serve_mock(movie_items)
        endpoint = AgentEndpoint(server.base_url)
        try:
            assert wire_exchange(endpoint, "s1", "") == (WELCOME_TEXT, False)
            reply, terminate = wire_exchange(endpoint, "s1", "i like action")
            assert reply == RECOMMEND_TEXT.format(name="The Matrix")
            assert not terminate
            reply, terminate = wire_exchange(endpoint, "s1", "sounds great")
            assert reply == ACCEPT_BYE_TEXT
            assert terminate
            assert server.request_log[0] == ("s1", "")
        finally:
            endpoint.close()
            server.stop()

    def test_sessions_are_isolated(self, movie_items):
        server = serve_mock(movie_items)
        endpoint = AgentEndpoint(server.base_url)
        try:
            wire_exchange(endpoint, "a", "")
            wire_exchange(endpoint, "b", "")
            reply_a, _ = wire_exchange(endpoint, "a", "i like action")
            reply_b, _ = wire_exchange(endpoint, "b", "i like horror")
            assert reply_a == RECOMMEND_TEXT.format(name="The Matrix")
            assert "The Matrix" not in reply_b
        finally:
            endpoint.close()
            server.stop()

    def test_wire_agent_opens_with_empty_utterance(self, movie_items):
        server = serve_mock(movie_items)
        agent = WireAgent(AgentEndpoint(server.base_url), session_id="w1")
        try:
            assert agent.respond(None).text == WELCOME_TEXT
            assert server.request_log == [("w1", "")]
        finally:
            agent.endpoint.close()
            server.stop()

    def test_a_failure_after_sending_is_raised_without_retry(self):
        server = _serve(_AbruptServer())
        try:
            host, port = server.server_address[:2]
            endpoint = AgentEndpoint(f"http://{host}:{port}", timeout=2.0,
                                     retry_count=2)
            with pytest.raises(TransportError,
                               match="may have reached the agent"):
                wire_exchange(endpoint, "s", "hello")
            assert server.hits == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_a_refused_connection_is_retried_then_raised(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            port = listener.getsockname()[1]
        # nothing listens on the port any more, so each attempt is refused
        endpoint = AgentEndpoint(f"http://127.0.0.1:{port}", timeout=2.0,
                                 retry_count=2)
        with pytest.raises(TransportError, match="unreachable after 3 "
                                                 "attempts"):
            wire_exchange(endpoint, "s", "hello")

    def test_http_error_is_protocol_error_without_retry(self):
        server = _serve(_ScriptedHTTPServer([(500, "{}")]))
        try:
            endpoint = AgentEndpoint(server.base_url, retry_count=2)
            with pytest.raises(ProtocolError, match="HTTP 500"):
                wire_exchange(endpoint, "s", "hello")
            assert server.hits == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_non_json_reply_is_protocol_error(self):
        server = _serve(_ScriptedHTTPServer([(200, "<html>nope</html>")]))
        try:
            endpoint = AgentEndpoint(server.base_url, retry_count=2)
            with pytest.raises(ProtocolError, match="not valid JSON"):
                wire_exchange(endpoint, "s", "hello")
            assert server.hits == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_missing_utterance_field_is_protocol_error(self):
        server = _serve(_ScriptedHTTPServer([(200, '{"terminate": false}')]))
        try:
            endpoint = AgentEndpoint(server.base_url)
            with pytest.raises(ProtocolError, match="missing a string"):
                wire_exchange(endpoint, "s", "hello")
        finally:
            server.shutdown()
            server.server_close()

    def test_non_bool_terminate_is_protocol_error(self):
        server = _serve(_ScriptedHTTPServer([
            (200, '{"utterance": "x", "terminate": "false"}'),
            (200, '{"utterance": "y"}'),
        ]))
        endpoint = AgentEndpoint(server.base_url)
        try:
            with pytest.raises(ProtocolError, match="non-boolean 'terminate'"):
                wire_exchange(endpoint, "s", "hello")
            assert wire_exchange(endpoint, "s", "hello") == ("y", False)
        finally:
            endpoint.close()
            server.shutdown()
            server.server_close()

    def test_stopped_mock_stops_answering_open_connections(self,
                                                           movie_items):
        server = serve_mock(movie_items)
        endpoint = AgentEndpoint(server.base_url, timeout=2.0)
        try:
            assert wire_exchange(endpoint, "s", "") == (WELCOME_TEXT, False)
        finally:
            server.stop()
        with pytest.raises(TransportError, match="unreachable"):
            wire_exchange(endpoint, "s", "i like action")
        endpoint.close()

    def test_import_loads_no_third_party_http_client(self):
        code = ("import sys, crssim; print(sorted(m for m in "
                "('requests', 'urllib3') if m in sys.modules))")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, check=True)
        assert result.stdout.strip() == "[]"

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            AgentEndpoint("http://x", timeout=0)
        with pytest.raises(ValueError):
            AgentEndpoint("http://x", retry_count=-1)
        assert AgentEndpoint("http://h:1/").respond_url == \
            "http://h:1/respond"

    @pytest.mark.parametrize("url", [
        "localhost:8000", "ftp://h/", "http://", "http://h:port/",
        "http://h/a b", "http://h\u00e9/"])
    def test_unusable_agent_url_rejected(self, url):
        with pytest.raises(ValueError, match="agent URL"):
            AgentEndpoint(url)


class TestConnectionReuse:
    def test_wire_run_opens_one_connection(self, tmp_path, movie_items):
        server = serve_mock(movie_items)
        accepted = []
        process_request = server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            process_request(request, client_address)

        server.process_request = counting
        try:
            config = make_config(tmp_path, agent=server.base_url, seed=3)
            out = run_simulation(config)
        finally:
            server.stop()
        dialogues = import_dialogues(out / "transcripts.jsonl")
        assert len(dialogues) == 3
        assert not any(d.metadata.get("aborted") for d in dialogues)
        assert len(server.sessions) == 3
        assert len(accepted) == 1

    def test_a_lost_reply_aborts_only_its_own_dialogue(self, tmp_path,
                                                       movie_items):
        clean_agent, agent = serve_mock(movie_items), serve_mock(movie_items)
        proxy = _serve(_DroppingProxy(agent.server_address[:2], drop=4))
        try:
            runs = [run_simulation(make_config(
                tmp_path, agent=url, seed=3, out=str(tmp_path / name)))
                for name, url in (("clean", clean_agent.base_url),
                                  ("lossy", proxy.base_url))]
        finally:
            proxy.shutdown()
            proxy.server_close()
            for server in (clean_agent, agent):
                server.stop()
        clean, lossy = [[json.loads(line) for line in (
            out / "transcripts.jsonl").read_text("utf-8").splitlines()[1:-1]]
            for out in runs]
        lost = proxy.forwarded[3]
        assert len(clean) == len(lossy) == 3
        for before, after in zip(clean, lossy):
            assert before.pop("agent_id") == clean_agent.base_url
            assert after.pop("agent_id") == proxy.base_url
            if after["dialogue_id"] != f"dlg-{lost['session_id']}":
                assert after == before
                continue
            assert after["metadata"]["aborted"] is True
            assert "may have reached the agent" in after["metadata"][
                "abort_cause"]
            turns = after["utterances"]
            assert turns == before["utterances"][:len(turns)]
        # the mock saw each request as forwarded, and the lost one was
        # never sent again
        assert agent.request_log == [(r["session_id"], r["utterance"])
                                     for r in proxy.forwarded]
        assert [r for r in proxy.forwarded[4:]
                if r["session_id"] == lost["session_id"]] == []

    def test_sequential_exchanges_do_not_stall(self, movie_items):
        server = serve_mock(movie_items)
        endpoint = AgentEndpoint(server.base_url)
        try:
            start = time.perf_counter()
            for i in range(50):
                assert wire_exchange(endpoint, f"s{i}", "")[0] == WELCOME_TEXT
            elapsed = time.perf_counter() - start
        finally:
            endpoint.close()
            server.stop()
        # A reply held back by Nagle until the client's delayed ACK costs
        # about 40 ms; 50 of them would take 2 s.
        assert elapsed < 0.5

    def test_idle_connection_closed_by_agent_is_reopened(self):
        server = _serve(_KeepAliveHTTPServer([(200, '{"utterance": "hi"}')]))
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            assert wire_exchange(endpoint, "s", "") == ("hi", False)
            time.sleep(3 * _KeepAliveHTTPHandler.timeout)
            assert wire_exchange(endpoint, "s", "again") == ("hi", False)
            assert server.connections == 2
        finally:
            endpoint.close()
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("bad_reply, error", [
        ((500, "{}"), "HTTP 500"),
        ((200, "<html>nope</html>"), "not valid JSON"),
        ((200, '{"terminate": false}'), "missing a string"),
        ((200, '{"utterance": "x", "terminate": "false"}'), "non-boolean"),
    ])
    def test_bad_reply_costs_only_its_own_exchange(self, bad_reply, error):
        server = _serve(_KeepAliveHTTPServer(
            [bad_reply, (200, '{"utterance": "fine", "terminate": true}')]))
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            with pytest.raises(ProtocolError, match=error):
                wire_exchange(endpoint, "s", "hello")
            assert wire_exchange(endpoint, "s", "hello") == ("fine", True)
            assert server.connections == 1
        finally:
            endpoint.close()
            server.shutdown()
            server.server_close()


FINE = b'{"utterance": "fine", "terminate": true}'


def _ok(text):
    body = json.dumps({"utterance": text}).encode("utf-8")
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body)


# fragments of HTTP replies, so that random ones reach past the status line
REPLY_PIECES = [
    b"HTTP/1.1 ", b"HTTP/1.0 ", b"200 OK\r\n", b"100 Continue\r\n",
    b"101 Switching Protocols\r\n", b"103 Early Hints\r\n",
    b"204 No Content\r\n", b"500 Oops\r\n", b"Content-Length: 2\r\n",
    b"Content-Length: 99\r\n", b"Content-Length: -1\r\n",
    b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
    b"Connection: keep-alive\r\n", b"X-Long: " + b"a" * 300 + b"\r\n",
    b"\r\n", b"\n", b"2\r\n", b"0\r\n", b"ff;x\r\n", b"{}", FINE,
    b'{"utterance": 1}', b'{"utterance": "u", "terminate": "no"}', b"[",
    b"\xff",
]


class TestReplyFraming:
    @pytest.fixture
    def raw_server(self):
        servers = []

        def start(replies):
            servers.append(_serve(_RawReplyServer(replies)))
            return servers[-1]

        yield start
        for server in servers:
            server.shutdown()
            server.server_close()

    def test_chunked_reply_is_read(self, raw_server):
        server = raw_server([(b"HTTP/1.1 200 OK\r\n"
                              b"Transfer-Encoding: chunked\r\n\r\n"
                              b"a;ext=1\r\n" + FINE[:10] + b"\r\n"
                              + b"%x \t;ext=2\r\n" % (len(FINE) - 10)
                              + FINE[10:]
                              + b"\r\n0\r\nX-Trailer: t\r\n\r\n",
                              False)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            for _ in range(2):
                assert wire_exchange(endpoint, "s", "hi") == ("fine", True)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (1, 2)

    def test_connection_close_reply_is_read_then_reopened(self, raw_server):
        server = raw_server([(b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
                              b"Content-Length: %d\r\n\r\n%s"
                              % (len(FINE), FINE), True)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("fine", True)
            assert server.connections == 1
            assert wire_exchange(endpoint, "s", "hi") == ("fine", True)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (2, 2)

    def test_http10_body_delimited_by_close_is_read(self, raw_server):
        server = raw_server([(b"HTTP/1.0 200 OK\r\n"
                              b"Content-Type: application/json\r\n\r\n"
                              + FINE, True)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("fine", True)
        finally:
            endpoint.close()
        assert server.hits == 1

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}" % wire._MAX_BODY,
        b"garbage\r\n\r\n" + FINE,
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (1 << 20) + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X-Header: h\r\n" * 101
        + b"Content-Length: %d\r\n\r\n%s" % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nno colon here\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nX-A: a\r\n Content-Length: 5\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: %d\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
        % (len(FINE), len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n" + FINE,
        b"HTTP/1.1 200 OK\r\nContent-Length : %d\r\n\r\n%s"
        % (len(FINE), FINE),
        *(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s\r\n"
          b"%s\r\n0\r\n\r\n" % (size % len(FINE), FINE)
          for size in (b"0x%x", b"+%x", b" %x", b"%x ", b"0_%x")),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent Length: %d\r\n\r\n%s"
        % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nX-A: a\0b\r\nContent-Length: %d\r\n\r\n%s"
        % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nConnection: clo\rse\r\nContent-Length: %d"
        b"\r\n\r\n%s" % (len(FINE), FINE),
        b"HTTP/1.x 200 OK\r\nContent-Length: %d\r\n\r\n%s"
        % (len(FINE), FINE),
        b"HTTP/1.1  200 OK\r\nContent-Length: %d\r\n\r\n%s"
        % (len(FINE), FINE),
        b"HTTP/1.1 200 O\0K\r\nContent-Length: %d\r\n\r\n%s"
        % (len(FINE), FINE),
        b"HTTP/1.1 200 OK\r\nX-A: a\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s"
        % (b"0" * 5000 + b"%d" % len(FINE), FINE),
    ], ids=["short-body", "garbage-status", "long-header", "101-headers",
            "no-colon", "obs-fold", "two-content-lengths",
            "length-and-chunked", "gzip", "space-before-colon",
            "chunk-size-0x", "chunk-size-plus", "chunk-size-leading-space",
            "chunk-size-trailing-space", "chunk-size-underscore",
            "chunk-size-minus-zero", "space-in-name", "nul-in-value",
            "cr-in-value", "version-1.x", "two-spaces", "nul-in-reason",
            "head-cut", "5000-digit-length"])
    def test_unframed_reply_is_a_transport_error_without_retry(
            self, raw_server, reply):
        server = raw_server([(reply, True)])
        endpoint = AgentEndpoint(server.base_url, timeout=5.0, retry_count=2)
        tracemalloc.start()
        try:
            with pytest.raises(TransportError,
                               match="may have reached the agent"):
                wire_exchange(endpoint, "s", "hi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            endpoint.close()
        assert (server.connections, server.hits) == (1, 1)
        assert peak < 8 << 20

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
        % (wire._MAX_BODY + 1),
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (1 << 40),
        b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"
        + b" " * (wire._MAX_BODY + 1),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s"
        b"\r\n1\r\n" % (wire._MAX_BODY, b" " * wire._MAX_BODY),
    ], ids=["length-cap-plus-1", "length-1-tib", "close-cap-plus-1",
            "chunked-cap-plus-1"])
    def test_a_reply_past_the_body_cap_is_refused_without_waiting(
            self, raw_server, reply):
        # the agent holds the connection open after these bytes, so a
        # client that read on would wait for its timeout
        server = raw_server([(reply, False), (_ok("fine"), False)])
        endpoint = AgentEndpoint(server.base_url, timeout=10.0,
                                 retry_count=0)
        try:
            start = time.perf_counter()
            with pytest.raises(ProtocolError, match="too large"):
                wire_exchange(endpoint, "s", "hi")
            assert time.perf_counter() - start < 5.0
            assert wire_exchange(endpoint, "s", "hi") == ("fine", False)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (2, 2)

    def test_a_reply_framed_by_the_close_is_read_up_to_the_cap(
            self, raw_server):
        server = raw_server([(b"HTTP/1.0 200 OK\r\n\r\n"
                              + b" " * (16 * wire._MAX_BODY), True)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="too large"):
                wire_exchange(endpoint, "s", "hi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            endpoint.close()
        assert peak < 4 * wire._MAX_BODY

    def test_a_body_at_the_cap_is_read(self, raw_server):
        body = json.dumps({"utterance": "fine"}).encode()
        body += b" " * (wire._MAX_BODY - len(body))
        server = raw_server([(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                              b"\r\n%s" % (len(body), body), False)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("fine", False)
        finally:
            endpoint.close()

    def test_a_content_length_repeated_with_its_value_is_read(
            self, raw_server):
        server = raw_server([(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                              b"content-length: %d\r\n\r\n%s"
                              % (len(FINE), len(FINE), FINE), False)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("fine", True)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (1, 1)

    @pytest.mark.parametrize("interim", [
        b"HTTP/1.1 100 Continue\r\n\r\n",
        b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n"
        b"\r\n",
    ], ids=["100", "103"])
    def test_interim_replies_are_skipped(self, raw_server, interim):
        sessions = ("alice", "bob", "carol")
        server = raw_server([(interim + _ok(f"reply {i} to {session}"), False)
                             for i, session in enumerate(sessions, 1)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            for i, session in enumerate(sessions, 1):
                assert wire_exchange(endpoint, session, "hi") == (
                    f"reply {i} to {session}", False)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (1, 3)

    @pytest.mark.parametrize("count, error", [(100, None),
                                              (101, TransportError)])
    def test_at_most_100_interim_replies(self, raw_server, count, error):
        server = raw_server([(b"HTTP/1.1 100 Continue\r\n\r\n" * count
                              + _ok("fine"), True)])
        endpoint = AgentEndpoint(server.base_url, retry_count=2)
        try:
            if error is None:
                assert wire_exchange(endpoint, "s", "hi") == ("fine", False)
            else:
                with pytest.raises(error, match="more than 100 interim"):
                    wire_exchange(endpoint, "s", "hi")
        finally:
            endpoint.close()
        assert server.connections == 1

    def test_switching_protocols_is_judged_and_ends_the_connection(
            self, raw_server):
        server = raw_server([
            (b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n",
             False),
            (_ok("fine"), False)])
        endpoint = AgentEndpoint(server.base_url, retry_count=0)
        try:
            with pytest.raises(ProtocolError, match="HTTP 101"):
                wire_exchange(endpoint, "s", "hi")
            assert wire_exchange(endpoint, "s", "hi") == ("fine", False)
        finally:
            endpoint.close()
        assert (server.connections, server.hits) == (2, 2)

    def test_any_reply_returns_or_raises_an_agent_error(self, raw_server):
        server = raw_server([(b"", True)])
        endpoint = AgentEndpoint(server.base_url, timeout=2.0, retry_count=0)

        @settings(max_examples=300, deadline=None)
        @given(reply=st.one_of(st.binary(max_size=200),
                               st.lists(st.sampled_from(REPLY_PIECES),
                                        max_size=12).map(b"".join)))
        @example(reply=b"HTTP/1.1 200 OK\r\n\r\n" + b"[" * 100_000)
        def check(reply):
            server.replies = [(reply, True)]
            try:
                wire_exchange(endpoint, "s", "hi")
            except AgentError:
                pass

        try:
            check()
        finally:
            endpoint.close()


class TestProxyEnvironment:
    @pytest.fixture(autouse=True)
    def no_inherited_proxy(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_http_proxy_gets_the_absolute_url(self, monkeypatch):
        proxy = _serve(_ScriptedHTTPServer(
            [(200, '{"utterance": "relayed"}')]))
        host, port = proxy.server_address[:2]
        monkeypatch.setenv("HTTP_PROXY", f"http://ann:p%40ss@{host}:{port}")
        endpoint = AgentEndpoint("http://agent.invalid:8080/api/")
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("relayed", False)
        finally:
            endpoint.close()
            proxy.shutdown()
            proxy.server_close()
        path, headers = proxy.requests[0]
        assert path == "http://agent.invalid:8080/api/respond"
        assert headers["Host"] == "agent.invalid:8080"
        assert headers["Proxy-Authorization"] == (
            "Basic " + base64.b64encode(b"ann:p@ss").decode("ascii"))

    def test_https_goes_through_a_connect_tunnel(self, monkeypatch):
        proxy = _serve(_ScriptedHTTPServer([(502, "{}")]))
        monkeypatch.setenv("HTTPS_PROXY", proxy.base_url)
        endpoint = AgentEndpoint("https://agent.invalid/", retry_count=0)
        try:
            with pytest.raises(TransportError, match="Tunnel connection"):
                wire_exchange(endpoint, "s", "hi")
        finally:
            endpoint.close()
            proxy.shutdown()
            proxy.server_close()
        assert [path for path, _ in proxy.requests] == ["agent.invalid:443"]

    def test_no_proxy_host_is_reached_directly(self, monkeypatch):
        proxy = _serve(_ScriptedHTTPServer(
            [(200, '{"utterance": "relayed"}')]))
        agent = _serve(_ScriptedHTTPServer([(200, '{"utterance": "direct"}')]))
        monkeypatch.setenv("HTTP_PROXY", proxy.base_url)
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        endpoint = AgentEndpoint(agent.base_url)
        try:
            assert wire_exchange(endpoint, "s", "hi") == ("direct", False)
        finally:
            endpoint.close()
            for server in (proxy, agent):
                server.shutdown()
                server.server_close()
        assert proxy.hits == 0
        assert agent.requests[0][0] == "/respond"


    @pytest.mark.parametrize("env, expected", [
        ({}, None),
        ({"HTTP_PROXY": "http://p:1"}, "http://p:1"),
        ({"HTTP_PROXY": ""}, None),
        ({"HTTP_PROXY": "http://p:1", "REQUEST_METHOD": "GET"}, None),
        ({"http_proxy": "http://p:1", "REQUEST_METHOD": "GET"}, "http://p:1"),
        ({"ALL_PROXY": "p:2"}, "p:2"),
        ({"ALL_PROXY": "p:2", "NO_PROXY": "agent.example"}, None),
        ({"HTTPS_PROXY": "p:3"}, None),
    ])
    def test_the_proxy_is_the_one_urllib_picks(self, monkeypatch, env,
                                               expected):
        monkeypatch.delenv("REQUEST_METHOD", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        url = urllib.parse.urlsplit("http://agent.example:8080/respond")
        proxies = urllib.request.getproxies()
        picked = proxies.get("http") or proxies.get("all")
        if picked and urllib.request.proxy_bypass(url.netloc):
            picked = None
        assert wire._proxy(url) == picked == expected


def write_population(path, n_users=3, seed=5):
    path.write_text(
        f"n_users: {n_users}\nseed: {seed}\nground_in_ratings: false\n",
        encoding="utf-8")
    return path


def make_config(tmp_path, **overrides):
    return SimulationConfig(**{
        "population": str(write_population(tmp_path / "population.yaml")),
        "out": str(tmp_path / "out"), "train": True, **overrides})


class TestRunDirectory:
    def test_simulation_produces_the_documented_layout(self, tmp_path):
        config = make_config(tmp_path)
        out = run_simulation(config)
        assert out == tmp_path / "out"
        assert (out / "models").is_dir()
        assert (out / "transcripts.jsonl").is_file()
        snapshot = json.loads((out / "config-snapshot").read_text("utf-8"))
        assert snapshot["schema_version"] == 1
        assert snapshot["train"] is True

        dialogues = import_dialogues(out / "transcripts.jsonl")
        assert len(dialogues) == 3
        assert [d.dialogue_id for d in dialogues] == [
            "dlg-sim_user_0000", "dlg-sim_user_0001", "dlg-sim_user_0002"]
        for dialogue in dialogues:
            assert not dialogue.metadata.get("aborted")
            assert dialogue.metadata["terminated_by"] in ("user", "agent",
                                                          "max_turns")
            assert dialogue.agent_id == "mock"

    def test_evaluation_writes_report(self, tmp_path):
        config = make_config(tmp_path)
        out = run_simulation(config)
        report = run_evaluation(out / "transcripts.jsonl", out)
        assert (out / "report.json").is_file()
        document = json.loads((out / "report.json").read_text("utf-8"))
        assert document["n_dialogues"] == report.n_dialogues == 3
        assert document["avg_turns"] == report.avg_turns
        assert 0.0 <= report.avg_success <= 1.0

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        transcripts = []
        for run in ("first", "second"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            config = make_config(run_dir, seed=11)
            out = run_simulation(config)
            transcripts.append((out / "transcripts.jsonl").read_bytes())
        assert transcripts[0] == transcripts[1]

    def test_simulating_without_models_fails(self, tmp_path):
        config = make_config(tmp_path, train=False)
        with pytest.raises(ParseError, match="missing model artifact"):
            run_simulation(config)

    def test_max_turns_floor(self, tmp_path):
        with pytest.raises(ValueError, match="max_turns"):
            make_config(tmp_path, max_turns=1)

    def test_training_run_loads_the_catalog_once(self, tmp_path,
                                                 monkeypatch):
        loads = []
        real = runner.load_item_collection

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "load_item_collection", counting)
        run_simulation(make_config(tmp_path, train=True))
        assert len(loads) == 1

    def test_only_the_simulation_loads_ratings(self, tmp_path, monkeypatch):
        loads = []
        real = runner.load_ratings

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "load_ratings", counting)
        grounded = tmp_path / "grounded.yaml"
        grounded.write_text("n_users: 3\nseed: 5\nground_in_ratings: true\n",
                            encoding="utf-8")
        config = make_config(tmp_path, train=True,
                             population=str(grounded))
        run_training(config)
        assert len(loads) == 0
        run_simulation(config)
        assert len(loads) == 1

    def test_an_ungrounded_population_never_reads_ratings(
            self, tmp_path, monkeypatch):
        loads = []
        real = runner.load_ratings

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "load_ratings", counting)
        run_simulation(make_config(tmp_path, train=True))
        assert len(loads) == 0

    def test_config_snapshot_keeps_its_bytes(self, tmp_path):
        config = make_config(tmp_path, seed=3)
        out = run_simulation(config)
        expected = {
            "schema_version": 1,
            "domain": config.domain,
            "items": config.items,
            "ratings": config.ratings,
            "interaction_model": config.interaction_model,
            "sample": config.sample,
            "population": config.population,
            "agent": "mock",
            "max_turns": 30,
            "seed": 3,
            "out": config.out,
            "train": True,
            "default_templates": config.default_templates,
        }
        assert (out / "config-snapshot").read_text(encoding="utf-8") == \
            json.dumps(expected, ensure_ascii=False) + "\n"

    def test_a_run_directory_with_indented_documents_still_works(
            self, tmp_path):
        # earlier versions wrote every document as json.dumps(indent=2)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        one_line = run_simulation(make_config(tmp_path / "a", seed=4))
        run_evaluation(one_line / "transcripts.jsonl", one_line)
        indented = tmp_path / "b" / "out"
        shutil.copytree(one_line, indented)
        documents = [indented / "config-snapshot", indented / "report.json",
                     *(indented / "models").iterdir()]
        assert len(documents) == 7
        for path in documents:
            document = json.loads(path.read_text("utf-8"))
            path.write_text(json.dumps(document, indent=2, ensure_ascii=False)
                            + "\n", encoding="utf-8")

        expected, loaded = load_artifacts(one_line), load_artifacts(indented)
        for field in dataclasses.fields(expected):
            assert getattr(loaded, field.name).to_dict() == \
                getattr(expected, field.name).to_dict()
        config = make_config(tmp_path / "b", seed=4, train=False)
        assert Simulation.load(config).run() == (3, 0)
        assert (indented / "transcripts.jsonl").read_bytes() == \
            (one_line / "transcripts.jsonl").read_bytes()
        report = run_evaluation(indented / "transcripts.jsonl", indented)
        assert report == run_evaluation(one_line / "transcripts.jsonl")
        assert (indented / "report.json").read_bytes() == \
            (one_line / "report.json").read_bytes()

    def test_a_snapshot_reruns_its_run(self, tmp_path):
        out = run_simulation(make_config(tmp_path, seed=9))
        transcripts = (out / "transcripts.jsonl").read_bytes()
        snapshot = json.loads((out / "config-snapshot").read_text("utf-8"))
        del snapshot["schema_version"]
        (out / "transcripts.jsonl").unlink()
        assert run_simulation(SimulationConfig(**snapshot)) == out
        assert (out / "transcripts.jsonl").read_bytes() == transcripts

    def test_training_alone_writes_models(self, tmp_path):
        config = make_config(tmp_path)
        models = run_training(config)
        assert models == tmp_path / "out" / "models"
        assert (models / "interaction_model.json").is_file()


class _Oversized(MockCRSAgent):
    """The mock's session, except that its second reply is past the wire
    body cap once encoded."""

    def respond(self, incoming):
        reply = super().respond(incoming)
        return reply if incoming is None else Response(
            "x" * wire._MAX_BODY)


class _OversizingServer(crssim.MockAgentServer):
    """:class:`MockAgentServer` whose session ``oversized`` is an
    :class:`_Oversized` one."""

    oversized = None

    def session(self, session_id):
        with self._lock:
            if session_id not in self.sessions:
                kind = (_Oversized if session_id == self.oversized
                        else MockCRSAgent)
                self.sessions[session_id] = kind(self.items)
            return self.sessions[session_id]


class TestAbortedDialogues:
    def test_unreachable_agent_aborts_but_persists(self, trained,
                                                   movie_items, tmp_path):
        from crssim import (ContextState, Persona, PreferenceGraph,
                            SimulatedUser, UserProfile)

        server = serve_mock(movie_items)
        server.stop()  # port is now dead
        profile = UserProfile(
            user_id="u", persona=Persona(patience=3, cooperativeness=0.8),
            context=ContextState(), seed=1, graph_seed=1)
        user = SimulatedUser(
            profile=profile,
            preferences=PreferenceGraph(movie_items, seed=1),
            interaction_model=trained.interaction_model,
            intent_model=trained.intent_model,
            lexicon=trained.lexicon,
            templates=trained.templates,
            items=movie_items,
        )
        agent = WireAgent(AgentEndpoint(server.base_url, timeout=0.5,
                                        retry_count=0), session_id="gone")
        dialogue = connect_dialogue(user, agent, max_turns=5,
                                    dialogue_id="doomed")
        assert dialogue.metadata["aborted"] is True
        assert dialogue.metadata["terminated_by"] == "aborted"
        assert "unreachable" in dialogue.metadata["abort_cause"]

        from crssim import export_dialogues
        target = tmp_path / "aborted.json"
        export_dialogues([dialogue], target)
        reloaded = import_dialogues(target)[0]
        assert reloaded.metadata["terminated_by"] == "aborted"

    @pytest.mark.parametrize("silent_from,spoken", [
        pytest.param("second_reply", [Participant.AGENT, Participant.USER],
                     id="second_reply"),
        pytest.param("opening", [], id="opening"),
    ])
    def test_silent_agent_aborts_only_its_dialogue(self, tmp_path,
                                                   monkeypatch, silent_from,
                                                   spoken):
        class Silent(MockCRSAgent):
            def respond(self, incoming):
                if incoming is None and silent_from == "second_reply":
                    return super().respond(incoming)
                return Response(None)

        made = []

        def agent_factory(items):
            made.append(items)
            return Silent(items) if len(made) == 2 else MockCRSAgent(items)

        monkeypatch.setattr(runner, "MockCRSAgent", agent_factory)
        out = run_simulation(make_config(tmp_path, seed=4))
        first, silent, third = import_dialogues(out / "transcripts.jsonl")
        assert silent.metadata["aborted"] is True
        assert silent.metadata["terminated_by"] == "aborted"
        assert "neither text nor termination" in \
            silent.metadata["abort_cause"]
        assert [u.participant for u in silent.utterances] == spoken
        for finished in (first, third):
            assert "aborted" not in finished.metadata
            assert finished.metadata["terminated_by"] in ("user", "agent",
                                                          "max_turns")

    def test_a_reply_utf8_cannot_hold_aborts_only_its_dialogue(self,
                                                              tmp_path):
        # the escape decodes to a lone surrogate, which no transcript line
        # can hold: such a reply once ended the run with only the header
        # written
        server = _serve(_ScriptedHTTPServer([
            (200, '{"utterance": "Hello."}'),
            (200, '{"utterance": "What genre? \\ud800"}'),
            (200, '{"utterance": "Goodbye.", "terminate": true}')]))
        try:
            out = run_simulation(make_config(tmp_path, agent=server.base_url))
        finally:
            server.shutdown()
            server.server_close()
        report = run_evaluation(out / "transcripts.jsonl", out)
        first, *rest = import_dialogues(out / "transcripts.jsonl")
        assert first.metadata["aborted"] is True
        assert "agent reply 'utterance' is not UTF-8 text" in \
            first.metadata["abort_cause"]
        assert [d.metadata["terminated_by"] for d in rest] == ["agent"] * 2
        assert report.n_dialogues == 3
        assert json.loads((out / "report.json").read_text("utf-8"))[
            "n_dialogues"] == 3

    def test_an_oversized_reply_aborts_only_its_own_dialogue(
            self, tmp_path, movie_items):
        server = _OversizingServer(movie_items).start()
        runs = []
        try:
            for oversized in (None, "sim_user_0000"):
                with server._lock:
                    server.sessions.clear()
                server.oversized = oversized
                out = run_simulation(make_config(
                    tmp_path, agent=server.base_url, seed=3,
                    out=str(tmp_path / str(oversized))))
                runs.append(
                    (out / "transcripts.jsonl").read_bytes().split(b"\n"))
        finally:
            server.stop()
        clean, oversized = runs
        assert len(clean) == len(oversized) == 6  # header, 3, footer, ""
        assert [i for i, (a, b) in enumerate(zip(clean, oversized))
                if a != b] == [1]
        dialogue = import_dialogues(tmp_path / "sim_user_0000"
                                    / "transcripts.jsonl")[0]
        assert dialogue.dialogue_id == "dlg-sim_user_0000"
        assert dialogue.metadata["aborted"] is True
        assert "too large" in dialogue.metadata["abort_cause"]
        assert dialogue.utterances[0].text == WELCOME_TEXT


class TestCommandLine:
    def test_train_then_evaluate_exit_zero(self, tmp_path, capsys):
        population = write_population(tmp_path / "population.yaml")
        out = str(tmp_path / "out")
        base = ["--population", str(population), "--out", out]
        assert main(["simulate", "--train", *base]) == 0
        assert "simulated 3 dialogues (0 aborted)" in capsys.readouterr().out
        assert main(["evaluate", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "n_dialogues: 3" in printed
        assert "avg_turns:" in printed
        assert (Path(out) / "report.json").is_file()

    def test_agent_url_without_a_scheme_exit_one(self, tmp_path, capsys):
        population = write_population(tmp_path / "population.yaml")
        out = tmp_path / "out"
        code = main(["simulate", "--train", "--agent", "localhost:8000",
                     "--population", str(population), "--out", str(out)])
        assert code == 1
        assert "error: agent URL 'localhost:8000'" in capsys.readouterr().err
        assert not (out / "transcripts.jsonl").exists()

    def test_simulate_counts_without_rereading_the_transcript(
            self, tmp_path, capsys, monkeypatch):
        def no_reread(*args, **kwargs):
            raise AssertionError("the transcript was read back")

        monkeypatch.setattr(crssim.cli, "import_dialogues", no_reread)
        population = write_population(tmp_path / "population.yaml")
        out = str(tmp_path / "out")
        assert main(["simulate", "--train", "--population", str(population),
                     "--out", out]) == 0
        assert f"simulated 3 dialogues (0 aborted) into {out}" in \
            capsys.readouterr().out

    def test_catalog_without_a_required_slot_falls_back(self, tmp_path,
                                                         capsys):
        # DISCLOSE requires a genre; no item has one, so the default
        # template must be built for no slots at all
        items = tmp_path / "items.txt"
        items.write_text("m1 | Alpha | keyword=space\n"
                         "m2 | Beta | keyword=heist\n", encoding="utf-8")
        population = write_population(tmp_path / "population.yaml",
                                      n_users=5)
        out = str(tmp_path / "out")
        assert main(["simulate", "--train", "--items", str(items),
                     "--population", str(population), "--out", out]) == 0, \
            capsys.readouterr().err
        assert "simulated 5 dialogues" in capsys.readouterr().out

    def test_default_naming_a_missing_slot_falls_back(self, tmp_path,
                                                      capsys):
        # the DISCLOSE default names {genre} itself, and no item has a
        # genre, so default_for must pass it over for the builtin pattern
        items = tmp_path / "items.txt"
        items.write_text("m1 | Alpha | keyword=space\n"
                         "m2 | Beta | keyword=heist\n", encoding="utf-8")
        defaults = tmp_path / "defaults.yaml"
        defaults.write_text('DISCLOSE: "I want a {genre} film."\n',
                            encoding="utf-8")
        population = write_population(tmp_path / "population.yaml",
                                      n_users=5)
        out = str(tmp_path / "out")
        assert main(["simulate", "--train", "--items", str(items),
                     "--default-templates", str(defaults),
                     "--population", str(population), "--out", out]) == 0, \
            capsys.readouterr().err
        assert "simulated 5 dialogues" in capsys.readouterr().out

    def test_train_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["train", "--out", out]) == 0
        assert "trained models written to" in capsys.readouterr().out
        assert (Path(out) / "models" / "template_store.json").is_file()

    def test_annotate_labels_the_sample(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["train", "--out", out]) == 0
        assert main(["annotate", "--out", out]) == 0
        target = Path(out) / "annotated-sample.jsonl"
        assert target.is_file()
        dialogues = import_dialogues(target)
        for dialogue in dialogues:
            for utterance in dialogue.utterances:
                if utterance.participant is Participant.USER:
                    assert utterance.intent is not None
                    assert utterance.satisfaction is not None

    def test_annotating_the_stripped_sample_restores_its_intents(
            self, tmp_path):
        from crssim import bundled
        sample = import_dialogues(bundled.asset_path(bundled.SAMPLE))
        stripped = tmp_path / "stripped.json"
        export_dialogues([dataclasses.replace(d, utterances=[
            Utterance(u.participant, u.text, u.turn_index)
            for u in d.utterances]) for d in sample], stripped)
        out = tmp_path / "out"
        assert main(["train", "--out", str(out)]) == 0
        assert main(["annotate", "--out", str(out),
                     "--sample", str(stripped)]) == 0
        annotated = import_dialogues(out / "annotated-sample.jsonl")

        def intents(dialogues):
            return [(u.participant, u.intent)
                    for d in dialogues for u in d.utterances]

        assert intents(annotated) == intents(sample)
        assert {participant for participant, _ in intents(sample)} == {
            Participant.USER, Participant.AGENT}
        assert main(["train", "--out", str(tmp_path / "again"), "--sample",
                     str(out / "annotated-sample.jsonl")]) == 0

    def test_annotation_keeps_existing_labels(self, tmp_path):
        from crssim import bundled
        out = tmp_path / "out"
        assert main(["train", "--out", str(out)]) == 0
        assert main(["annotate", "--out", str(out)]) == 0
        sample = import_dialogues(bundled.asset_path(bundled.SAMPLE))
        annotated = import_dialogues(out / "annotated-sample.jsonl")
        for before, after in zip(sample, annotated):
            for old, new in zip(before.utterances, after.utterances):
                if old.intent is not None:
                    assert (new.intent, new.slot_values) == (
                        old.intent, old.slot_values)
                    if old.satisfaction is not None:
                        assert new.satisfaction == old.satisfaction

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--seed", "1"],
        ["evaluate", "--interaction-model", "mine.yaml"],
        ["evaluate", "--population", "people.yaml"],
        ["annotate", "--agent", "http://localhost:1"],
        ["train", "--population", "people.yaml"],
        ["train", "--train"],
    ], ids=" ".join)
    def test_a_flag_the_subcommand_does_not_read_exit_two(self, argv,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_each_subcommand_takes_the_flags_it_reads(self):
        parser = build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        flags = {name: [option for action in sub._actions
                        for option in action.option_strings
                        if option != "--help" and option.startswith("--")]
                 for name, sub in subcommands.items()}
        assert flags == {
            "train": ["--domain", "--items", "--interaction-model",
                      "--sample", "--default-templates", "--out"],
            "simulate": ["--domain", "--items", "--ratings",
                         "--interaction-model", "--sample", "--population",
                         "--agent", "--max-turns", "--seed", "--out",
                         "--train", "--default-templates"],
            "evaluate": ["--out", "--transcripts"],
            "annotate": ["--out", "--sample"],
        }
        assert sum(map(len, flags.values())) == 22

    def test_every_default_comes_from_the_config(self):
        parser = build_parser()
        assert _config(parser.parse_args(["simulate"])) == SimulationConfig()
        assert _config(parser.parse_args(
            ["simulate", "--seed", "3", "--train"])) == SimulationConfig(
                seed=3, train=True)

    def test_malformed_population_section_exit_one(self, tmp_path, capsys):
        population = tmp_path / "population.yaml"
        population.write_text("n_users: 2\npersona: [1, 2]\n",
                              encoding="utf-8")
        code = main(["simulate", "--train", "--population", str(population),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluation_follows_a_renamed_accept_intent(self, tmp_path,
                                                         capsys):
        from crssim import bundled
        renamed = []
        for flag, name in (("--interaction-model", bundled.INTERACTION_MODEL),
                           ("--sample", bundled.SAMPLE),
                           ("--default-templates", bundled.DEFAULT_TEMPLATES)):
            copy = tmp_path / name
            copy.write_text(bundled.asset_path(name).read_text("utf-8")
                            .replace("ACCEPT", "AGREE"), encoding="utf-8")
            renamed += [flag, str(copy)]
        population = write_population(tmp_path / "population.yaml",
                                      n_users=20, seed=1)
        out = tmp_path / "out"
        base = [*renamed, "--population", str(population), "--out", str(out)]
        assert main(["simulate", "--train", *base]) == 0
        assert main(["evaluate", "--out", str(out)]) == 0

        dialogues = import_dialogues(out / "transcripts.jsonl")
        agreed = sum(
            any(u.participant is Participant.USER
                and u.intent == Intent("AGREE") for u in d.utterances)
            for d in dialogues)
        share = agreed / len(dialogues)
        assert share > 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert report["accept_intent"] == "AGREE"
        assert report["avg_success"] == share
        assert f"avg_success: {share:.4f}" in capsys.readouterr().out

    def test_transcripts_without_models_score_the_default_accept(
            self, tmp_path):
        transcripts = tmp_path / "transcripts.jsonl"
        export_dialogues([metrics_dialogue("d1", 2, True),
                          metrics_dialogue("d2", 3, False)], transcripts)
        report = run_evaluation(transcripts, tmp_path / "out")
        assert report.avg_success == 0.5
        document = json.loads(
            (tmp_path / "out" / "report.json").read_text("utf-8"))
        assert document["accept_intent"] == "ACCEPT"

    def test_malformed_model_beside_transcripts_names_the_file(
            self, tmp_path):
        transcripts = tmp_path / "transcripts.jsonl"
        export_dialogues([metrics_dialogue("d1", 2, True)], transcripts)
        model = tmp_path / "models" / "interaction_model.json"
        model.parent.mkdir()
        model.write_text('{"schema_version": 1}', encoding="utf-8")
        with pytest.raises(ParseError, match="interaction_model.json"):
            run_evaluation(transcripts)

    @pytest.mark.parametrize("command", ["train", "annotate"])
    def test_non_string_sample_text_exit_one(self, tmp_path, capsys, command):
        sample = tmp_path / "sample.json"
        record = {"dialogue_id": "d", "agent_id": "a", "user_id": "u",
                  "utterances": [{"participant": "AGENT", "text": 5,
                                  "turn_index": 0}]}
        sample.write_text('{"schema_version": 1}\n' + json.dumps(record)
                          + '\n{"dialogues": 1}\n', encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["train", "--out", out]) == 0
        assert main([command, "--out", out, "--sample", str(sample)]) == 1
        assert (f"error: {sample}: line 2: malformed dialogue record: "
                "Utterance.text must be str, not int\n"
                ) in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("value", 5), ("slot", 5),
                                              ("value", None)])
    def test_non_string_sample_slot_is_a_parse_error(self, tmp_path, capsys,
                                                     field, value):
        from crssim import bundled
        lines = bundled.asset_path(bundled.SAMPLE).read_text(
            "utf-8").split("\n")
        record = json.loads(lines[1])
        utterance = next(u for u in record["utterances"]
                         if u.get("slot_values"))
        utterance["slot_values"][0][field] = value
        sample = tmp_path / "sample.json"
        lines[1] = json.dumps(record)
        sample.write_text("\n".join(lines), encoding="utf-8")
        named = (f"{sample}: line 2: malformed dialogue record: "
                 f"SlotValue.{field} must be str, not {type(value).__name__}")
        with pytest.raises(ParseError) as info:
            run_training(SimulationConfig(sample=str(sample),
                                          out=str(tmp_path / "lib")))
        assert str(info.value) == named
        assert info.value.line == 2
        assert main(["train", "--sample", str(sample),
                     "--out", str(tmp_path / "cli")]) == 1
        assert f"error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [4.0, True], ids=["float", "bool"])
    def test_non_int_satisfaction_label_is_a_parse_error(self, tmp_path,
                                                         capsys, label):
        # once trained, load_artifacts could not read such a label back
        from crssim import bundled
        lines = bundled.asset_path(bundled.SAMPLE).read_text(
            "utf-8").split("\n")
        record = json.loads(lines[2])
        utterance = next(u for u in record["utterances"]
                         if "satisfaction" in u)
        utterance["satisfaction"] = label
        sample = tmp_path / "sample.json"
        lines[2] = json.dumps(record)
        sample.write_text("\n".join(lines), encoding="utf-8")
        message = (f"{sample}: line 3: malformed dialogue record: "
                   f"satisfaction must be an int in [1, 5], got {label!r}")
        with pytest.raises(ParseError) as info:
            run_training(SimulationConfig(sample=str(sample),
                                          out=str(tmp_path / "lib")))
        assert str(info.value) == message
        assert info.value.line == 3
        assert main(["train", "--sample", str(sample),
                     "--out", str(tmp_path / "cli")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "cli" / "models").exists()

    def test_missing_transcripts_exit_one(self, tmp_path, capsys):
        code = main(["evaluate", "--transcripts",
                     str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_exit_one(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "out"),
                     "--domain", str(tmp_path / "missing.yaml")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainingInputs:
    """A sample that reads trains; one that does not is a toolkit error."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_field_of_the_sample_set_to_any_value(self, data):
        from crssim import bundled
        lines = bundled.asset_path(bundled.SAMPLE).read_text(
            "utf-8").split("\n")
        line = data.draw(st.integers(1, len(lines) - 3), label="line")
        doc = {"record": json.loads(lines[line])}
        path = data.draw(st.sampled_from(fields(doc["record"], "record")),
                         label="field")
        _set(path, data.draw(json_values(scalars, texts), label="value"),
             root="")(doc)
        lines[line] = json.dumps(doc["record"])
        with tempfile.TemporaryDirectory() as scratch:
            sample = Path(scratch, "sample.jsonl")
            sample.write_text("\n".join(lines), encoding="utf-8")
            try:
                run_training(SimulationConfig(sample=str(sample),
                                              out=scratch))
            except CrssimError:
                pass
