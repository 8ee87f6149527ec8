"""The ``Event``/generator request path, kept as the reference model.

The simulated deployment used to wait on :class:`Event` objects
everywhere: ``RpcLayer.call`` returned an event, a handler could return one
(and a response was sized by sniffing a ``(payload, int)`` tuple), a
node's serve was a generator :class:`Process` yielding its CPU
grant, CPU time and SSD hold, the web front-end gathered node events and
the client ran one process per lane under ``all_of``.  Replies were
per-fingerprint :class:`~oracles.replies.LookupReply` lists.

The product path now completes by callback and carries verdict columns;
``tests/test_sim_request_differential.py`` holds it to this model's
delivery log, client and node state and engine event count.  The event
and process helpers (:class:`Event`, :func:`timeout`, :class:`Process`,
:func:`run_process`, :func:`all_of`) live here because nothing under
``src/`` uses them any more; ``Resource`` and ``StorageDevice.busy`` are
shared, adapted back to events by :func:`request_slot` and
:func:`device_busy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.cluster import SHHCCluster
from repro.core.config import ClusterConfig
from repro.core.digest_batch import DigestBatch
from repro.core.protocol import (
    REPLY_BYTES_PER_FINGERPRINT,
    REQUEST_OVERHEAD_BYTES,
    BatchLookupRequest,
)
from repro.frontend.client import SimulatedClient
from repro.frontend.gateway import SimulatedDeployment
from repro.frontend.webserver import PER_REQUEST_OVERHEAD, ClientBatchRequest, WebFrontEnd
from repro.network.loadbalancer import LoadBalancer, RoundRobinPolicy
from repro.network.message import Message
from repro.network.switch import NetworkSwitch
from repro.network.topology import BuiltNetwork, ClusterTopology
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.resources import Resource
from repro.storage.devices import StorageDevice

from .cluster_reference import resolve_reply
from .replies import LookupReply, replies_from_tiers


# ------------------------------------------------------- events, processes
class Event:
    """A one-shot synchronisation point that callbacks can wait on.

    An :class:`Event` starts *pending*; it may later *succeed* with a value or
    *fail* with an exception.  Callbacks registered before triggering run when
    the event triggers; callbacks registered afterwards run immediately.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_exception", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- inspection ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers (or immediately if done).

        Callbacks run synchronously at the simulated instant the event
        triggers; they must not block (they may schedule further events).
        """
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "ok" if self._exception is None else "failed"
        return f"<Event {self.name!r} {state}>"


def timeout(sim: Simulator, delay: float, value: Any = None, name: str = "timeout") -> Event:
    """Return an event that succeeds ``delay`` seconds from now."""
    event = Event(sim, name)
    sim.schedule(delay, event.succeed, value)
    return event


Yieldable = Union[Event, float, int]


class Process(Event):
    """A running process.  Also an :class:`Event` that triggers on completion.

    The completion value is the generator's ``return`` value; if the generator
    raises, the process event fails with that exception (propagating it to any
    process waiting on this one).
    """

    def __init__(self, sim: Simulator, generator: Generator[Yieldable, Any, Any], name: str = "") -> None:
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator (did you call the function?)")
        self._generator = generator
        # Kick off the process at the current simulated instant.
        sim.schedule(0.0, self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self.triggered

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the event
            self.fail(exc)
            return
        try:
            event = self._coerce(target)
        except SimulationError as exc:
            self._generator.close()
            self.fail(exc)
            return
        event.add_callback(self._on_event)

    def _coerce(self, target: Yieldable) -> Event:
        if isinstance(target, Event):
            return target
        if isinstance(target, (int, float)):
            return timeout(self.sim, float(target))
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected an Event or a delay"
        )

    def _on_event(self, event: Event) -> None:
        if event.exception is not None:
            self._resume(None, event.exception)
        else:
            self._resume(event.value, None)


def run_process(sim: Simulator, generator: Generator[Yieldable, Any, Any], name: str = "") -> Process:
    """Start ``generator`` as a process on ``sim`` and return its handle."""
    return Process(sim, generator, name)


def all_of(sim: Simulator, events: Iterable[Event], name: str = "all_of") -> Event:
    """Return an event that succeeds when every input event succeeds.

    The combined value is the list of individual values in input order.
    If any input fails, the combined event fails with that exception.
    """
    events = list(events)
    combined = Event(sim, name)
    if not events:
        combined.succeed([])
        return combined
    remaining = {"count": len(events)}

    def _on_trigger(_event: Event) -> None:
        if combined.triggered:
            return
        if _event.exception is not None:
            combined.fail(_event.exception)
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            combined.succeed([e.value for e in events])

    for event in events:
        event.add_callback(_on_trigger)
    return combined


def request_slot(sim: Simulator, resource: Resource) -> Event:
    """The grant ``Event`` of the old ``Resource.request()``."""
    grant = Event(sim, f"{resource.name}.grant")
    resource.request(lambda: grant.succeed(resource))
    return grant


def device_busy(sim: Simulator, device: StorageDevice, duration: float) -> Event:
    """The old ``StorageDevice.busy``: an event succeeding with ``duration``."""
    done = Event(sim, f"{device.name}.busy")
    device.busy(duration, lambda: done.succeed(duration))
    return done


# ---------------------------------------------------------------------- RPC
class EventRpcLayer:
    """The RPC layer whose calls return events and whose handlers may too."""

    def __init__(self, switch: NetworkSwitch, sim: Simulator) -> None:
        self.switch = switch
        self.sim = sim
        self._services: Dict[str, Callable[[Any], Any]] = {}
        self._pending: Dict[int, Event] = {}

    def register(self, endpoint: str, handler: Callable[[Any], Any]) -> None:
        if not self.switch.is_attached(endpoint):
            self.switch.attach(endpoint)
        self._services[endpoint] = handler
        self.switch.set_handler(endpoint, self._on_message)

    def register_client(self, endpoint: str) -> None:
        if not self.switch.is_attached(endpoint):
            self.switch.attach(endpoint)
        self.switch.set_handler(endpoint, self._on_message)

    def call(self, source: str, destination: str, payload: Any, payload_bytes: int) -> Event:
        if not self.switch.is_attached(source):
            self.register_client(source)
        request = Message(
            source=source,
            destination=destination,
            payload=payload,
            payload_bytes=payload_bytes,
            created_at=self.sim.now,
        )
        completion = Event(self.sim, "rpc.response")
        self._pending[request.message_id] = completion
        self.switch.send(request)
        return completion

    def _on_message(self, message: Message) -> None:
        if message.reply_to is not None:
            completion = self._pending.pop(message.reply_to, None)
            if completion is not None:
                completion.succeed(message.payload)
            return
        result = self._services[message.destination](message.payload)
        if isinstance(result, Event):
            result.add_callback(lambda event: self._send_response(message, event.value))
        else:
            self._send_response(message, result)

    def _send_response(self, request: Message, result: Any) -> None:
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
            response_payload, response_bytes = result
        else:
            response_payload, response_bytes = result, 64
        response = request.reply(response_payload, response_bytes, created_at=self.sim.now)
        self.switch.send(response)


# ------------------------------------------------------------ reply objects
@dataclass(frozen=True)
class ReplyBatch:
    """A node's verdicts as a list of ``LookupReply`` objects."""

    replies: Sequence[LookupReply]
    node_id: str = ""
    batch_id: int = 0

    @property
    def payload_bytes(self) -> int:
        return REQUEST_OVERHEAD_BYTES + REPLY_BYTES_PER_FINGERPRINT * len(self.replies)


@dataclass(frozen=True)
class ReplyResponse:
    """A front-end's answer as a list of ``LookupReply`` objects."""

    client_id: str
    replies: Sequence[LookupReply]
    request_id: int = 0

    @property
    def payload_bytes(self) -> int:
        return 32 + 9 * len(self.replies)


def reassemble_replies(
    total: int, per_node: Sequence[Tuple[ReplyBatch, Sequence[int]]]
) -> List[LookupReply]:
    """Merge per-node replies back into the client's original order."""
    merged: List[Optional[LookupReply]] = [None] * total
    for reply, positions in per_node:
        if len(reply.replies) != len(positions):
            raise ValueError("reply length does not match recorded positions")
        for lookup_reply, position in zip(reply.replies, positions):
            merged[position] = lookup_reply
    missing = [i for i, entry in enumerate(merged) if entry is None]
    if missing:
        raise ValueError(f"missing replies for positions {missing[:5]}")
    return [entry for entry in merged if entry is not None]


# --------------------------------------------------------------------- node
def serve_batch(node, request: BatchLookupRequest) -> Process:
    """A node's simulated serve as a process succeeding with a :class:`ReplyBatch`."""
    if node.sim is None or node._cpu is None:
        raise RuntimeError("serve_batch requires a node constructed with a Simulator")
    return run_process(node.sim, _serve_batch_process(node, request), name=f"{node.node_id}.serve")


def _serve_batch_process(node, request: BatchLookupRequest):
    sim = node.sim
    arrival = sim.now
    grant = request_slot(sim, node._cpu)
    yield grant
    try:
        fingerprints = list(request.fingerprints)
        tiers, service_times, _new_pairs, total_ssd_time = node._serve_core(
            DigestBatch.from_fingerprints(fingerprints)
        )
        cpu_time = node.config.cpu_per_request + node.config.cpu_per_lookup * len(request.fingerprints)
        if cpu_time > 0:
            yield timeout(sim, cpu_time)
    finally:
        node._cpu.release()
    if total_ssd_time > 0:
        yield device_busy(sim, node.ssd_device, total_ssd_time)
    node.lookup_latency.add((sim.now - arrival) / max(1, len(tiers)), len(tiers))
    node.counters["batches_served"] += 1
    replies = replies_from_tiers(fingerprints, tiers, service_times, repeat(node.node_id))
    return ReplyBatch(replies=replies, node_id=node.node_id, batch_id=request.batch_id)


def cluster_handler(cluster: SHHCCluster, node):
    """``SHHCCluster._make_handler`` as it was: :func:`resolve_reply` on every reply."""
    node_id = node.node_id

    def _handle(request: BatchLookupRequest):
        completion = serve_batch(node, request)
        wrapped = Event(cluster.sim, f"{node_id}.reply")

        def _finalize(event) -> None:
            raw = event.value
            replies = [resolve_reply(cluster, reply, node_id) for reply in raw.replies]
            finished = ReplyBatch(replies=replies, node_id=node_id, batch_id=raw.batch_id)
            wrapped.succeed((finished, finished.payload_bytes))

        completion.add_callback(_finalize)
        return wrapped

    return _handle


# ---------------------------------------------------------- front end, client
class EventWebFrontEnd(WebFrontEnd):
    """A web server whose simulated handler returns an event."""

    def _handle(self, request: ClientBatchRequest) -> Event:
        sim = self.rpc.sim
        done = Event(sim, f"{self.server_id}.response")
        fingerprints = list(request.fingerprints)

        pending = {"count": 0}
        gathered: List[Tuple[ReplyBatch, Sequence[int]]] = []

        def _on_node_reply(positions: Sequence[int]):
            def _callback(event: Event) -> None:
                gathered.append((event.value, positions))
                pending["count"] -= 1
                if pending["count"] == 0:
                    _finish()

            return _callback

        def _finish() -> None:
            replies = reassemble_replies(len(fingerprints), gathered)
            response = ReplyResponse(
                client_id=request.client_id,
                replies=replies,
                request_id=request.request_id,
            )
            done.succeed((response, response.payload_bytes))

        def _dispatch() -> None:
            per_node = self.cluster.route_batch(
                fingerprints,
                client_id=request.client_id,
                batch_id=request.request_id if request.request_id else next(self._request_ids),
            )
            pending["count"] = len(per_node)
            for node_name, (node_request, positions) in per_node.items():
                call = self.rpc.call(
                    source=self.server_id,
                    destination=node_name,
                    payload=node_request,
                    payload_bytes=node_request.payload_bytes,
                )
                call.add_callback(_on_node_reply(positions))

        sim.schedule(PER_REQUEST_OVERHEAD, _dispatch)
        return done


class EventSimulatedClient(SimulatedClient):
    """The closed-loop client as a process per lane under ``all_of``."""

    def start(self) -> Process:
        return run_process(self.sim, self._run(), name=f"{self.client_id}.run")

    def _run(self):
        self.stats.started_at = self.sim.now
        batches = self._batches()
        lanes = [batches[lane::self.window] for lane in range(self.window)]
        lane_processes = [
            run_process(self.sim, self._run_lane(lane), name=f"{self.client_id}.lane{i}")
            for i, lane in enumerate(lanes)
            if lane
        ]
        if lane_processes:
            yield all_of(self.sim, lane_processes)
        self.stats.finished_at = self.sim.now
        return self.stats

    def _run_lane(self, batches):
        for batch in batches:
            sent_at = self.sim.now
            backend = self.load_balancer.assign(self.client_id)
            request = ClientBatchRequest(
                client_id=self.client_id,
                fingerprints=batch,
                request_id=next(self._request_ids),
            )
            response = yield self.rpc.call(
                source=self.client_id,
                destination=backend,
                payload=request,
                payload_bytes=request.payload_bytes,
            )
            self.load_balancer.release(backend)
            self.stats.request_latency.add(self.sim.now - sent_at)
            self.stats.batches_sent += 1
            self.stats.fingerprints_sent += len(batch)
            self.stats.duplicates_found += sum(1 for r in response.replies if r.is_duplicate)
        return None


def build_event_service(
    sim: Simulator,
    config: ClusterConfig,
    num_clients: int = 2,
    num_web_servers: int = 3,
) -> SimulatedDeployment:
    """``build_simulated_service`` wired with the event-path layers above."""
    topo = ClusterTopology(
        num_clients=num_clients,
        num_web_servers=num_web_servers,
        num_hash_nodes=config.num_nodes,
        hash_prefix=config.node_name_prefix,
    )
    switch = NetworkSwitch(sim=sim, latency=topo.link_latency, bandwidth=topo.bandwidth, name="fabric")
    rpc = EventRpcLayer(switch, sim)
    for endpoint in topo.all_endpoints:
        rpc.register_client(endpoint)
    cluster = SHHCCluster(config, sim=sim)
    for name, node in cluster.nodes.items():
        rpc.register(name, cluster_handler(cluster, node))
    load_balancer = LoadBalancer(RoundRobinPolicy())
    web_servers = {}
    for server_id in topo.web_server_names:
        server = EventWebFrontEnd(server_id, cluster, rpc=rpc)
        server.register()
        web_servers[server_id] = server
        load_balancer.add_backend(server_id)
    return SimulatedDeployment(
        sim=sim,
        topology=topo,
        network=BuiltNetwork(topology=topo, switch=switch, rpc=rpc),
        cluster=cluster,
        web_servers=web_servers,
        load_balancer=load_balancer,
    )
