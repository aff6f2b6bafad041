"""Span recorder and the wrappers that put it around each layer.

Only the ``--trace`` pass uses this.  Nothing inside ``src/`` knows it
exists: :func:`instrument` replaces *instance and module attributes* at
each layer's public boundary (``Runtime.schedule``, ``Node.deliver``,
``Endpoint.send``, ``StableStorage.log``, ``ConsensusService.propose``,
…) with wrappers that open a span, call the original and close it.

A span is ``(id, parent, name, layer, start, end, msg)``.  A layer's
*self time* is its spans' durations minus the part their child spans
cover, so the per-layer numbers add up instead of double counting.
Aggregates are kept for every span; individual spans are kept up to a
cap and written to ``bench/out/trace-<workload>.json`` at exit.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime import wire
from repro.sizing import estimate_size
from repro.transport.endpoint import Endpoint

LAYERS = ("runtime", "transport", "storage", "fdetect", "consensus",
          "core", "apps")

# Message-type prefix -> the layer whose handler receives it.
HANDLER_LAYER = {"fd": "fdetect", "paxos": "consensus", "ab": "core",
                 "stub": "transport"}

# Packages under src/repro that are not protocol layers: work done on
# behalf of the load generator or the harness is the instrument's own.
_PACKAGE_LAYER = {"workloads": "bench", "harness": "bench",
                  "metrics": "bench", "chaos": "bench"}


def _layer_of_module(module: str) -> str:
    """``repro.<package>.…`` (dotted or a file path) -> layer name."""
    parts = module.replace("/", ".").split(".")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = parts[index + 1]
            return _PACKAGE_LAYER.get(package, package)
    return "bench"


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self, max_spans: int = 50_000,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[Tuple[int, int, str, str, int, int, Any]] = []
        self.dropped_spans = 0
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        # write_barrier() enter->exit, one by one: the metric is a median.
        self.barrier_ns: List[int] = []
        self.root_ns = 0      # time covered by parentless spans
        self.kernel_ns = 0    # CPU inside run()/run_for() outside any span
        self._stack: List[list] = []
        self._next_id = 0
        self._layer_cache: Dict[Any, str] = {}

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, layer: str, msg: Any = None) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, layer, self.clock(), 0, msg]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        span_id, parent, name, layer, start, child_ns, msg = frame
        duration = end - start
        key = (layer, name)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child_ns
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1][5] += duration
        else:
            self.root_ns += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, layer, start, end, msg))
        else:
            self.dropped_spans += 1

    def reset(self) -> None:
        """Forget everything recorded so far (set-up, warm-up)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        del self.spans[:]
        self.dropped_spans = 0
        self.self_ns.clear()
        self.calls.clear()
        del self.barrier_ns[:]
        self.root_ns = self.kernel_ns = 0

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` inside a span of fixed name and layer."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(frame)
        return traced

    def drive(self, fn: Callable, *args: Any) -> Any:
        """Call into ``run``/``run_for``; what no span covers is kernel.

        Uses the CPU clock so a live loop's idle ``select`` is not
        billed to the runtime.
        """
        cpu, roots = time.process_time_ns(), self.root_ns
        try:
            return fn(*args)
        finally:
            self.kernel_ns += (time.process_time_ns() - cpu) \
                - (self.root_ns - roots)

    # -- classification ------------------------------------------------------

    def layer_of_callback(self, callback: Callable) -> str:
        """The layer a scheduled callback works for.

        A task step belongs to the package that defines the task's
        generator (the sequencer to ``core``, the heartbeat loop to
        ``fdetect``); any other callback to its owner's package.
        """
        owner = getattr(callback, "__self__", None)
        task = owner if hasattr(owner, "gen") else getattr(owner, "task", None)
        code = getattr(getattr(task, "gen", None), "gi_code", None)
        key = code if code is not None else (
            type(owner) if owner is not None
            else getattr(callback, "__module__", ""))
        layer = self._layer_cache.get(key)
        if layer is None:
            if code is not None:
                module = code.co_filename.rsplit(".", 1)[0]
            elif owner is not None:
                module = type(owner).__module__
            else:
                module = str(key)
            layer = self._layer_cache[key] = _layer_of_module(module)
        return layer

    # -- summaries -----------------------------------------------------------

    def self_ms(self, layer: str, name: Optional[str] = None) -> float:
        return sum(ns for (lay, nam), ns in self.self_ns.items()
                   if lay == layer and (name is None or nam == name)) / 1e6

    def count(self, layer: str, name: str) -> int:
        return self.calls.get((layer, name), 0)

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per layer; the kernel remainder goes to runtime."""
        totals: Dict[str, float] = {}
        for (layer, _), ns in self.self_ns.items():
            totals[layer] = totals.get(layer, 0.0) + ns / 1e6
        totals["runtime"] = totals.get("runtime", 0.0) + self.kernel_ns / 1e6
        return totals

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        origin = self.spans[0][4] if self.spans else 0
        document = dict(extra)
        document["columns"] = ["id", "parent", "name", "layer", "start_us",
                               "end_us", "msg"]
        document["spans_dropped"] = self.dropped_spans
        document["self_ms"] = {f"{layer}/{name}": round(ns / 1e6, 3)
                               for (layer, name), ns
                               in sorted(self.self_ns.items())}
        document["calls"] = {f"{layer}/{name}": count
                             for (layer, name), count
                             in sorted(self.calls.items())}
        document["spans"] = [
            [sid, parent, name, layer, (start - origin) / 1e3,
             (end - origin) / 1e3, msg]
            for sid, parent, name, layer, start, end, msg in self.spans]
        with open(path, "w") as handle:
            json.dump(document, handle)


class _Dispatch:
    """A scheduled callback, run inside a root ``dispatch`` span."""

    __slots__ = ("tracer", "callback", "layer")

    def __init__(self, tracer: Tracer, callback: Callable):
        self.tracer = tracer
        self.callback = callback
        self.layer = tracer.layer_of_callback(callback)

    def __call__(self, *args: Any) -> None:
        frame = self.tracer.begin("dispatch", self.layer)
        try:
            self.callback(*args)
        finally:
            self.tracer.end(frame)


class _Barrier:
    """``write_barrier()`` with spans on its enter and exit halves.

    Only the backend's own enter/exit work is storage self time — the
    body between them belongs to whoever wrote it — but the whole
    enter→exit interval is kept for ``storage.barrier_us_p50``.
    """

    def __init__(self, tracer: Tracer, inner: Any):
        self.tracer = tracer
        self.inner = inner
        self.entered = 0

    def __enter__(self) -> Any:
        self.entered = self.tracer.clock()
        frame = self.tracer.begin("barrier.enter", "storage")
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.end(frame)

    def __exit__(self, *exc_info: Any) -> Any:
        frame = self.tracer.begin("barrier.exit", "storage")
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.end(frame)
            self.tracer.barrier_ns.append(
                self.tracer.clock() - self.entered)


class Probes:
    """Timestamps, counts and sizes only the traced pass collects."""

    def __init__(self) -> None:
        self.proposed_at: Dict[Any, float] = {}   # message id -> first propose
        self.decided_at: Dict[Any, float] = {}    # message id -> first decision
        # Messages handed to the medium, by type tag.  NetworkMetrics
        # counts the same thing on the simulator; on the live runtime it
        # only sees the stubborn channel's envelopes.
        self.msgs_by_type: Dict[str, int] = {}
        self.bytes_by_type: Dict[str, int] = {}

    def reset(self) -> None:
        self.msgs_by_type.clear()
        self.bytes_by_type.clear()


def runtime_of(cluster: Any) -> Any:
    """The scheduler of a ``Cluster`` (``sim``) or ``LiveCluster``."""
    return getattr(cluster, "sim", None) or cluster.runtime


def instrument_storage(tracer: Tracer, storage: Any) -> None:
    for name in ("log", "append", "retrieve"):
        setattr(storage, name,
                tracer.wrap(getattr(storage, name), name, "storage"))
    barrier = storage.write_barrier
    storage.write_barrier = lambda: _Barrier(tracer, barrier())


def instrument(tracer: Tracer, probes: Probes, cluster: Any) -> None:
    """Wrap one built (not yet started) cluster's layer boundaries."""
    runtime = runtime_of(cluster)

    # runtime: every callback handed to the scheduler.  The simulator's
    # call_soon goes through schedule; nothing is wrapped twice.
    def dispatch(callback: Callable) -> Callable:
        if isinstance(callback, _Dispatch):
            return callback
        return _Dispatch(tracer, callback)

    schedule, call_soon = runtime.schedule, runtime.call_soon
    runtime.schedule = lambda delay, callback, *args: \
        schedule(delay, dispatch(callback), *args)
    runtime.call_soon = lambda callback, *args: \
        call_soon(dispatch(callback), *args)

    # transport: the medium the endpoints talk to — the stubborn channel
    # on the live runtime, with the raw network (which then carries only
    # stub.* envelopes, heartbeats and loopback) below it.
    def counted(send: Callable, name: str, only: str) -> Callable:
        def traced_send(src: int, dst: int, message: Any) -> None:
            tag = message.type
            if tag.startswith(only):
                frame = tracer.begin("size", "bench")
                probes.msgs_by_type[tag] = probes.msgs_by_type.get(tag, 0) + 1
                probes.bytes_by_type[tag] = probes.bytes_by_type.get(tag, 0) \
                    + estimate_size(message)
                tracer.end(frame)
            frame = tracer.begin(name, "transport")
            try:
                send(src, dst, message)
            finally:
                tracer.end(frame)
        return traced_send

    network, medium = cluster.network, cluster.medium
    network.send = counted(network.send, "medium.send",
                           "" if medium is network else "stub.")
    network.multisend = tracer.wrap(network.multisend, "medium.multisend",
                                    "transport")
    if medium is not network:
        medium.send = counted(medium.send, "stubborn.send", "")
        medium.multisend = tracer.wrap(medium.multisend,
                                       "stubborn.multisend", "transport")

    note_decision = cluster.collector.note_decision

    def traced_note_decision(k: int, value: Any) -> None:
        frame = tracer.begin("probe", "bench")
        now = runtime.now
        for message in value:
            probes.decided_at.setdefault(message.id, now)
        tracer.end(frame)
        note_decision(k, value)
    cluster.collector.note_decision = traced_note_decision

    for node_id, node in cluster.nodes.items():
        _instrument_node(tracer, probes, cluster, runtime, node_id, node)


def _instrument_node(tracer: Tracer, probes: Probes, cluster: Any,
                     runtime: Any, node_id: int, node: Any) -> None:
    deliver = node.deliver

    def traced_deliver(message: Any, sender: int) -> bool:
        family = message.type.split(".", 1)[0]
        frame = tracer.begin("handle." + family,
                             HANDLER_LAYER.get(family, "bench"))
        try:
            return deliver(message, sender)
        finally:
            tracer.end(frame)
    node.deliver = traced_deliver

    endpoint = node.get_component(Endpoint)
    endpoint.send = tracer.wrap(endpoint.send, "endpoint.send", "transport")
    endpoint.multisend = tracer.wrap(endpoint.multisend,
                                     "endpoint.multisend", "transport")
    instrument_storage(tracer, node.storage)

    consensus = cluster.consensuses.get(node_id)
    if consensus is not None:
        propose = consensus.propose

        def traced_propose(k: int, value: Any) -> None:
            frame = tracer.begin("probe", "bench")
            now = runtime.now
            for message in value:
                probes.proposed_at.setdefault(message.id, now)
            tracer.end(frame)
            frame = tracer.begin("propose", "consensus")
            try:
                propose(k, value)
            finally:
                tracer.end(frame)
        consensus.propose = traced_propose

    rsm = cluster.rsms[node_id]
    submit, on_deliver = rsm.submit, rsm.on_deliver

    def traced_submit(payload: Any) -> Any:
        frame = tracer.begin("submit", "core")
        try:
            message = submit(payload)
            frame[6] = message.id.label()
            return message
        finally:
            tracer.end(frame)

    def traced_on_deliver(message: Any) -> None:
        frame = tracer.begin("on_deliver", "apps", message.id.label())
        try:
            on_deliver(message)
        finally:
            tracer.end(frame)
    rsm.submit, rsm.on_deliver = traced_submit, traced_on_deliver


_WIRE_FUNCTIONS = ("encode_frame", "encode", "decode_datagram")


def instrument_wire(tracer: Tracer) -> Dict[str, Callable]:
    """Wrap the codec entry points ``live_net`` calls through the module.

    Returns the originals; hand them to :func:`restore_wire` afterwards.
    """
    originals = {name: getattr(wire, name) for name in _WIRE_FUNCTIONS}
    for name, fn in originals.items():
        setattr(wire, name, tracer.wrap(fn, "wire." + name, "runtime"))
    return originals


def restore_wire(originals: Dict[str, Callable]) -> None:
    for name, fn in originals.items():
        setattr(wire, name, fn)
