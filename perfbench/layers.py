"""Traced runs: spans and counts around crssim's layer functions.

The benchmark wraps the public functions of each module from here, so
nothing in ``src/`` changes. Modules import names directly (``simulator``
does ``from .nlu import classify_intent``), so a function is replaced in
every ``crssim`` module that binds it, and a method on its class.

The tracer keeps spans in memory in flat arrays and is not thread-safe: the
benchmark drives one dialogue at a time from one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Sequence


class Tracer:
    """In-memory spans: name, start, end, parent span and trace id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.trace_ids: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter[str] = Counter()
        self.trace_id = "-"
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.trace_ids.append(self.trace_id)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(span)
        self.starts.append(perf_counter())
        return span

    def end(self, span: int) -> None:
        self.ends[span] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None) -> Iterator[None]:
        """Record one span; with ``trace_id``, its subtree joins that trace."""
        outer = self.trace_id
        if trace_id is not None:
            self.trace_id = trace_id
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)
            self.trace_id = outer

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent, trace id, name, start, end."""
        with open(path, "w", encoding="utf-8") as sink:
            for i, name in enumerate(self.names):
                sink.write(json.dumps([i, self.parents[i], self.trace_ids[i],
                                       name, self.starts[i], self.ends[i]])
                           + "\n")
            sink.write(json.dumps({"counts": dict(sorted(
                self.counts.items()))}) + "\n")


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((max(starts[i], starts[parent]),
                                     min(ends[i], ends[parent])))
    result = []
    for i in range(len(starts)):
        covered = 0.0
        reach = -math.inf
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append(ends[i] - starts[i] - covered)
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Called with (counts, args, kwargs, result) after a wrapped call returns.
def _count_unknown(counts, args, kwargs, result) -> None:
    model = args[0] if args else kwargs["model"]
    counts["nlu.classify_intent.unknown"] += result[0] == model.fallback_intent


def _count_unexpected(counts, args, kwargs, result) -> None:
    counts["agenda.next_user_action.unexpected"] += (
        result[1].value == "UNEXPECTED_RESPONSE")


def _count_aborted(counts, args, kwargs, result) -> None:
    counts["connector.connect_dialogue.aborted"] += bool(
        result.metadata.get("aborted"))


def _count_bytes(counts, args, kwargs, result) -> None:
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    if isinstance(sink, (str, Path)):
        counts["transcript.export_dialogues.bytes"] += Path(sink).stat().st_size


# (module, qualified name, hook): every layer function the traced run wraps.
TARGETS = (
    ("domain", "ItemCollection.values_for_slot", None),
    ("domain", "ItemCollection.with_attribute", None),
    ("domain", "ItemCollection.by_name", None),
    ("domain", "load_item_collection", None),
    ("domain", "load_ratings", None),
    ("nlu", "classify_intent", _count_unknown),
    ("nlu", "extract_slots", None),
    ("nlu", "train_slot_extractor", None),
    ("agenda", "next_user_action", _count_unexpected),
    ("nlg", "select_template", None),
    ("nlg", "TemplateStore.default_for", None),
    ("simulator", "SimulatedUser.respond", None),
    ("mock_agent", "MockCRSAgent.respond", None),
    ("wire", "wire_exchange", None),
    ("connector", "connect_dialogue", _count_aborted),
    ("population", "generate_population", None),
    ("transcript", "export_dialogues", _count_bytes),
    ("transcript", "import_dialogues", None),
    ("metrics", "evaluate", None),
    ("runner", "train_simulator", None),
    ("runner", "save_artifacts", None),
    ("runner", "load_artifacts", None),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, hook) -> Callable:
    dialogue = name == "connector.connect_dialogue"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = tracer.trace_id
        if dialogue:
            tracer.trace_id = kwargs.get("dialogue_id", "dialogue")
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.counts[name + ".raised"] += 1
            raise
        finally:
            tracer.end(span)
            tracer.trace_id = outer
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Wrap every target where it is looked up; restore them on exit."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, qualname, hook in TARGETS:
            module = importlib.import_module(f"crssim.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{module_name}.{qualname}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, name, original, hook)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("crssim")
                        and getattr(loaded, attr, None) is original):
                    restore.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "domain.ItemCollection.values_for_slot.calls": "count",
    "domain.ItemCollection.values_for_slot.us_p50": "us",
    "domain.ItemCollection.with_attribute.calls": "count",
    "domain.ItemCollection.with_attribute.us_p50": "us",
    "domain.ItemCollection.by_name.calls": "count",
    "domain.ItemCollection.by_name.us_p50": "us",
    "domain.self_share": "ratio",
    "domain.load_item_collection.s": "s",
    "domain.load_ratings.s": "s",
    "nlu.classify_intent.calls": "count",
    "nlu.classify_intent.us_p50": "us",
    "nlu.classify_intent.unknown_ratio": "ratio",
    "nlu.extract_slots.us_p50": "us",
    "nlu.train_slot_extractor.s": "s",
    "agenda.next_user_action.us_p50": "us",
    "agenda.unexpected_ratio": "ratio",
    "nlg.select_template.us_p50": "us",
    "nlg.default_fallback_ratio": "ratio",
    "simulator.SimulatedUser.respond.us_p50": "us",
    "simulator.SimulatedUser.respond.us_p99": "us",
    "simulator.SimulatedUser.respond.self_us": "us",
    "mock_agent.MockCRSAgent.respond.us_p50": "us",
    "mock_agent.MockCRSAgent.respond.self_us": "us",
    "mock_agent.server_respond.us_p50": "us",
    "mock_agent.MockAgentServer.sessions": "count",
    "wire.wire_exchange.calls": "count",
    "wire.wire_exchange.ms_p50": "ms",
    "wire.wire_exchange.ms_p99": "ms",
    "wire.wire_exchange.failed": "count",
    "connector.connect_dialogue.ms_p50": "ms",
    "connector.connect_dialogue.ms_p99": "ms",
    "connector.connect_dialogue.aborted": "count",
    "population.generate_population.s": "s",
    "transcript.export_dialogues.s": "s",
    "transcript.export_dialogues.bytes": "bytes",
    "transcript.import_dialogues.s": "s",
    "metrics.evaluate.s": "s",
    "runner.train_simulator.s": "s",
    "runner.save_artifacts.s": "s",
    "runner.load_artifacts.s": "s",
    "trace.overhead_us_per_user_turn": "us",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def layer_metrics(tracer: Tracer, server: dict, overhead_us: float
                  ) -> dict[str, float]:
    """Every per-layer metric from one traced run's spans and counts.

    ``.s`` is the total time of all calls; ``.us_p50`` and the like are
    per-call percentiles. ``server`` holds what the wire workload's server
    process measured (``respond_us_p50``, ``sessions``); it is empty
    in-process. A layer that a workload never reaches reports 0.
    """
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    durations: dict[str, list[float]] = defaultdict(list)
    self_by_name: dict[str, list[float]] = defaultdict(list)
    for i, name in enumerate(tracer.names):
        durations[name].append(tracer.ends[i] - tracer.starts[i])
        self_by_name[name].append(own[i])

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counts = tracer.counts
    user_turns = len(durations["simulator.SimulatedUser.respond"])
    domain_self = sum(sum(values) for name, values in self_by_name.items()
                      if name.startswith("domain.ItemCollection."))
    derived = {
        "domain.self_share": ratio(
            domain_self, sum(durations["connector.connect_dialogue"])),
        "nlu.classify_intent.unknown_ratio": ratio(
            counts["nlu.classify_intent.unknown"],
            len(durations["nlu.classify_intent"])),
        "agenda.unexpected_ratio": ratio(
            counts["agenda.next_user_action.unexpected"],
            len(durations["agenda.next_user_action"])),
        "nlg.default_fallback_ratio": ratio(
            len(durations["nlg.TemplateStore.default_for"]), user_turns),
        "mock_agent.server_respond.us_p50": server.get("respond_us_p50", 0.0),
        "mock_agent.MockAgentServer.sessions": server.get("sessions", 0),
        "wire.wire_exchange.failed": counts["wire.wire_exchange.raised"],
        "connector.connect_dialogue.aborted": counts[
            "connector.connect_dialogue.aborted"],
        "transcript.export_dialogues.bytes": counts[
            "transcript.export_dialogues.bytes"],
        "trace.overhead_us_per_user_turn": overhead_us,
    }
    metrics: dict[str, float] = {}
    for metric, unit in PER_LAYER_UNITS.items():
        if metric in derived:
            metrics[metric] = derived[metric]
            continue
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            metrics[metric] = len(durations[name])
        elif stat == "s":
            metrics[metric] = sum(durations[name])
        elif stat == "self_us":
            metrics[metric] = percentile(self_by_name[name], 0.5) * 1e6
        else:
            q = 0.99 if stat.endswith("_p99") else 0.5
            metrics[metric] = percentile(durations[name], q) * _SCALE[unit]
    return metrics
